"""Network model: Werner links, graphs, paths, measurement tasks, and monitoring plans.

A link distributes two-qubit Werner states parameterized by a single noise
parameter in [0, 1].  Monitoring plans bundle measurement tasks (scheme plus
path) and carry channel-use accounting so that strategies can be compared on
equal resource footing.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sequence

from .schemes import SCHEMES, Scheme, _Record

# The star strategies, each as its (scheme, *link ids) tasks in solve order.
_BUILTIN_TASKS = {
    "JBM2": ((Scheme.JBM, "e0"), (Scheme.JBM, "e1"), (Scheme.JBM, "e0", "e2")),
    "JBM3": ((Scheme.JBM, "e0"), (Scheme.JBM, "e1"), (Scheme.JBM, "e2")),
    "HYB2": ((Scheme.JBM, "e0"), (Scheme.JBM, "e0", "e2"), (Scheme.LZM, "e0", "e1")),
    "HYB3": ((Scheme.JBM, "e0"), (Scheme.LZM, "e0", "e1"), (Scheme.LZM, "e0", "e2")),
}
BUILTIN_PLAN_KINDS = tuple(_BUILTIN_TASKS)


class WernerLink(_Record):
    """A network link distributing Werner states with parameter ``w``."""

    def __init__(self, id: str, w: float) -> None:
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"link {id!r}: w={w} outside [0, 1]")
        self._store(locals())


class NetworkGraph(_Record):
    """Undirected graph of nodes, Werner links, and monitor placements.

    ``endpoints`` maps each link id to its node pair.  Instances are treated
    as immutable after construction.
    """

    def __init__(
        self, nodes: frozenset, links: tuple, endpoints: Mapping[str, tuple], monitors: frozenset
    ) -> None:
        ids = [l.id for l in links]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate link ids")
        if set(endpoints) != set(ids):
            raise ValueError("endpoints must cover exactly the link ids")
        for lid, (a, b) in endpoints.items():
            if a not in nodes or b not in nodes:
                raise ValueError(f"link {lid!r} endpoint not a graph node")
            if a == b:
                raise ValueError(f"link {lid!r} is a self-loop")
        if not monitors <= nodes:
            raise ValueError("monitors must be a subset of nodes")
        self._store(locals())

    def params(self) -> dict:
        """Link id to Werner parameter, for the whole graph."""
        return {l.id: l.w for l in self.links}


class Path(_Record):
    """Ordered simple path of link ids with its two terminal nodes."""

    def __init__(self, link_ids: tuple, endpoints: tuple) -> None:
        if len(link_ids) < 1:
            raise ValueError("path needs at least one link")
        if len(set(link_ids)) != len(link_ids):
            raise ValueError("path repeats a link")
        self._store(locals())


def trace_path(graph: NetworkGraph, link_ids: Sequence[str]) -> Path:
    """Build a Path from consecutive link ids, validating contiguity.

    Raises ValueError for unknown links, repeated links, branching joints,
    or link sequences that do not form a simple path.
    """
    ids = tuple(link_ids)
    if not ids:
        raise ValueError("empty link sequence")
    if len(set(ids)) != len(ids):
        raise ValueError("path repeats a link")
    try:
        ends = [graph.endpoints[i] for i in ids]
    except KeyError as exc:
        raise ValueError(f"unknown link {exc.args[0]!r}") from None
    if len(ids) == 1:
        return Path(ids, tuple(ends[0]))
    shared = set(ends[0]) & set(ends[1])
    if len(shared) != 1:
        raise ValueError("first two links must share exactly one node")
    (pivot,) = shared
    start = ends[0][0] if ends[0][1] == pivot else ends[0][1]
    seen = [start, pivot]
    current = pivot
    for pair in ends[1:]:
        if current not in pair:
            raise ValueError("links are not contiguous")
        nxt = pair[0] if pair[1] == current else pair[1]
        if nxt in seen:
            raise ValueError("path revisits a node")
        seen.append(nxt)
        current = nxt
    return Path(ids, (start, current))


class MeasurementTask(_Record):
    """One scheme executed over one path."""

    def __init__(self, scheme: Scheme, path: Path) -> None:
        self._store(locals())


class MonitoringPlan(_Record):
    """Named, ordered list of measurement tasks.

    Task order matters: sequential estimation resolves each indirect task
    using link estimates produced by earlier tasks.
    """

    def __init__(self, name: str, tasks: tuple) -> None:
        self._store(locals())

    def covered_links(self) -> frozenset:
        out = set()
        for t in self.tasks:
            out.update(t.path.link_ids)
        return frozenset(out)


class UsageLedger(_Record):
    """Per-link channel-use counts for one round of a plan.

    Pre-shared Bell pairs consumed by PEM tasks are tracked separately and
    never enter ``total``: only network-link uses are counted there.
    """

    def __init__(self, uses: Mapping[str, int], total: int, preshared_pairs: int = 0) -> None:
        if total != sum(uses.values()):
            raise ValueError("ledger total must equal the sum of per-link uses")
        if any(c < 0 for c in uses.values()) or preshared_pairs < 0:
            raise ValueError("ledger counts must be nonnegative")
        self._store(locals())


def _require_monitors(graph: NetworkGraph, idx: int, task: MeasurementTask) -> None:
    """Task ``idx``'s monitor rule: LZM at both path endpoints, JBM and PEM at one."""
    watched = [end in graph.monitors for end in task.path.endpoints]
    if not (all(watched) if SCHEMES[task.scheme].both_monitors else any(watched)):
        raise ValueError(f"task {idx} ({task.scheme.value}): monitor requirement not met")


def _plan_steps(plan: MonitoringPlan) -> tuple:
    """(task index, link it resolves, links divided out) per resolving task.

    Tasks that introduce no new link are skipped; a task that introduces
    more than one makes the plan order unsolvable.
    """
    resolved: set = set()
    steps = []
    for idx, task in enumerate(plan.tasks):
        path_ids = task.path.link_ids
        new = [l for l in path_ids if l not in resolved]
        if not new:
            continue
        if len(new) > 1:
            raise ValueError(
                f"task {idx} introduces {len(new)} unresolved links; plan order is not solvable"
            )
        target = new[0]
        resolved.add(target)
        steps.append((idx, target, tuple(l for l in path_ids if l != target)))
    return tuple(steps)


@functools.cache
def _identifiable(paths: tuple, n: int, mark: tuple) -> tuple:
    """``(known, live, pivots, combos)`` of a plan's task ``paths`` over links 0..n-1.

    ``mark`` flags the links at 0, then the tasks with W = 1, then the tasks
    whose J or a g on their path is 0 in floats.  A W = 1 task's links are
    ``known``; a task is ``live`` unless it is marked or runs through a link
    at 0.  Exact integer elimination of the live rows, less the known links,
    decides the rest: a link is identifiable iff its unit vector is in their
    row space (Ma, He, Swami, Towsley et al., IMC 2013).  ``combos`` holds
    ``(link, y, d)`` for each, e_link = sum_t (y_t / d) row_t over the live
    tasks; with nothing marked, y / d of a square plan is a row of X = R^-1.
    Cached on its integer inputs, as a plan takes few marks.
    """
    known = frozenset(c for t, path in enumerate(paths) if mark[n + t] for c in path)
    flags = [(*path, n + t, n + len(paths) + t) for t, path in enumerate(paths)]
    live = tuple(t for t, f in enumerate(flags) if not any(mark[c] for c in f))
    basis: dict = {}
    for t, row in enumerate(set(paths[k]) - known for k in live):
        v = [int(c in row) for c in range(n)] + [int(k == t) for k in range(len(live))]
        for q, b in basis.items():
            v = [b[q] * x - v[q] * y for x, y in zip(v, b)]
        if any(v[:n]):
            q = next(c for c, x in enumerate(v) if x)
            basis = {k: [v[q] * x - b[q] * y for x, y in zip(b, v)] for k, b in basis.items()}
            basis[q] = v
    combos = tuple((c, tuple(b[n:]), b[c]) for c, b in basis.items() if sum(map(bool, b[:n])) == 1)
    return known, live, tuple(basis), combos


def validate_plan(graph: NetworkGraph, plan: MonitoringPlan) -> None:
    """Check a plan against a graph; raise ValueError on any violation.

    Checks per-task path contiguity and monitor requirements (LZM needs
    monitors at both path endpoints, JBM and PEM at one), then in-order
    solvability: each task may contain at most one link not covered by
    earlier tasks.  Last, the plan must cover exactly the graph's links.
    """
    for idx, task in enumerate(plan.tasks):
        traced = trace_path(graph, task.path.link_ids)
        if set(traced.endpoints) != set(task.path.endpoints):
            raise ValueError(f"task {idx}: stored endpoints do not match the graph")
        _require_monitors(graph, idx, task)
    _plan_steps(plan)
    if plan.covered_links() != frozenset(l.id for l in graph.links):
        raise ValueError("plan does not cover exactly the graph's links")


def build_star(
    n_leaves: int,
    link_params: Sequence[float],
    monitors: Iterable[str] | None = None,
) -> NetworkGraph:
    """Star graph: hub v0, leaves v1..vn, link e{i} joining v0 to v{i+1}.

    Monitors default to all leaves, which admits every built-in plan; pass an
    explicit subset to model a fixed monitor budget.
    """
    if n_leaves < 2:
        raise ValueError("a star needs at least 2 leaves")
    if len(link_params) != n_leaves:
        raise ValueError(f"expected {n_leaves} link parameters, got {len(link_params)}")
    leaves = [f"v{i + 1}" for i in range(n_leaves)]
    nodes = frozenset(["v0", *leaves])
    links = tuple(WernerLink(f"e{i}", w) for i, w in enumerate(link_params))
    endpoints = {f"e{i}": ("v0", leaves[i]) for i in range(n_leaves)}
    mon = frozenset(leaves) if monitors is None else frozenset(monitors)
    return NetworkGraph(nodes=nodes, links=links, endpoints=endpoints, monitors=mon)


def _chain(params: Mapping[str, float]) -> NetworkGraph:
    """Chain v0 - v1 - ... - vn over the given links in order, every node a monitor."""
    nodes = frozenset(f"v{i}" for i in range(len(params) + 1))
    links = tuple(WernerLink(lid, w) for lid, w in params.items())
    endpoints = {lid: (f"v{i}", f"v{i + 1}") for i, lid in enumerate(params)}
    return NetworkGraph(nodes=nodes, links=links, endpoints=endpoints, monitors=nodes)


def _require_three_leaf_star(graph: NetworkGraph) -> None:
    ends = {lid: set(pair) for lid, pair in graph.endpoints.items()}
    star = {f"e{i}": {"v0", f"v{i + 1}"} for i in range(3)}
    if set(graph.nodes) != {"v0", "v1", "v2", "v3"} or ends != star:
        raise ValueError("built-in plans require the 4-node star with links e0, e1, e2")


def builtin_plan(kind: str, graph: NetworkGraph) -> MonitoringPlan:
    """One of the four star monitoring strategies: JBM2, JBM3, HYB2, HYB3.

    JBM2: JBM direct on e0 and e1, JBM indirect over (e0, e2).
    JBM3: JBM direct on each link.
    HYB2: JBM direct on e0, JBM indirect over (e0, e2), LZM indirect over (e0, e1).
    HYB3: JBM direct on e0, LZM indirect over (e0, e1) and over (e0, e2).
    """
    if kind not in _BUILTIN_TASKS:
        raise ValueError(f"unknown plan kind {kind!r}")
    _require_three_leaf_star(graph)
    tasks = tuple(
        MeasurementTask(scheme=scheme, path=trace_path(graph, link_ids))
        for scheme, *link_ids in _BUILTIN_TASKS[kind]
    )
    # Each path was just traced on the required star, and every kind is
    # solvable and covers e0, e1, e2: of validate_plan's rules only the
    # monitors' can fail.
    for idx, task in enumerate(tasks):
        _require_monitors(graph, idx, task)
    return MonitoringPlan(name=kind, tasks=tasks)


def channel_uses(plan: MonitoringPlan) -> UsageLedger:
    """Channel-use ledger for one round of the plan.

    Per task: LZM consumes each path link once, JBM twice (the path is
    generated twice and fused), PEM once plus one pre-shared pair counted
    outside the total.
    """
    uses: dict = {}
    preshared = 0
    for task in plan.tasks:
        spec = SCHEMES[task.scheme]
        for lid in task.path.link_ids:
            uses[lid] = uses.get(lid, 0) + spec.uses_per_link
        preshared += spec.preshared_pairs
    return UsageLedger(uses=uses, total=sum(uses.values()), preshared_pairs=preshared)
