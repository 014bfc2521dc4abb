"""The contract of the package's value classes.

Every record is built by keyword from its fields, compares and hashes the
tuple of its fields, prints as ``Name(field=value, ...)``, refuses assignment
and deletion, and survives copy, deepcopy and pickle.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from qnetomo import (
    BenchmarkRow,
    DensityMatrix,
    FisherMatrix,
    FisherMode,
    LinkEstimates,
    MeasurementTask,
    MonitoringPlan,
    NetworkGraph,
    OutcomeCounts,
    OutcomeDistribution,
    Path,
    Scheme,
    UsageLedger,
    WernerLink,
    build_star,
    builtin_plan,
    plan_qfim,
)
from qnetomo.schemes import SchemeSpec

REQUIRED = inspect.Parameter.empty
TASK = MeasurementTask(scheme=Scheme.JBM, path=Path(link_ids=("e0",), endpoints=("v0", "v1")))
SPEC = dict(
    labels=("a", "b"),
    slopes=(1.0, -1.0),
    degree=1,
    closed_form=abs,
    direct_factor=2.0,
    uses_per_link=1,
    preshared_pairs=0,
    both_monitors=True,
    estimator_labels=("a",),
)

# (class, (parameter, default) in order, keyword arguments, a field to change
# and its other value, exact repr, hashable)
CASES = [
    (
        SchemeSpec,
        [(name, REQUIRED) for name in SPEC],
        SPEC,
        ("degree", 2),
        "SchemeSpec(labels=('a', 'b'), slopes=(1.0, -1.0), degree=1, "
        "closed_form=<built-in function abs>, direct_factor=2.0, uses_per_link=1, "
        "preshared_pairs=0, both_monitors=True, estimator_labels=('a',))",
        True,
    ),
    (
        OutcomeDistribution,
        [("scheme", REQUIRED), ("labels", REQUIRED), ("probabilities", REQUIRED),
         ("path_product", REQUIRED)],
        dict(scheme=Scheme.LZM, labels=("00", "01", "10", "11"),
             probabilities=(0.375, 0.125, 0.125, 0.375), path_product=0.5),
        ("scheme", Scheme.PEM),
        "OutcomeDistribution(scheme=<Scheme.LZM: 'LZM'>, labels=('00', '01', '10', '11'), "
        "probabilities=(0.375, 0.125, 0.125, 0.375), path_product=0.5)",
        True,
    ),
    (
        OutcomeCounts,
        [("labels", REQUIRED), ("counts", REQUIRED), ("total", REQUIRED), ("seed", None)],
        dict(labels=("a", "b"), counts={"a": 3, "b": 1}, total=4, seed=7),
        ("seed", None),
        "OutcomeCounts(labels=('a', 'b'), counts={'a': 3, 'b': 1}, total=4, seed=7)",
        False,
    ),
    (
        WernerLink,
        [("id", REQUIRED), ("w", REQUIRED)],
        dict(id="e0", w=0.5),
        ("w", 0.25),
        "WernerLink(id='e0', w=0.5)",
        True,
    ),
    (
        NetworkGraph,
        [("nodes", REQUIRED), ("links", REQUIRED), ("endpoints", REQUIRED),
         ("monitors", REQUIRED)],
        dict(nodes=frozenset({0, 1}), links=(WernerLink("e0", 0.5),),
             endpoints={"e0": (0, 1)}, monitors=frozenset({1})),
        ("monitors", frozenset({0})),
        "NetworkGraph(nodes=frozenset({0, 1}), links=(WernerLink(id='e0', w=0.5),), "
        "endpoints={'e0': (0, 1)}, monitors=frozenset({1}))",
        False,
    ),
    (
        Path,
        [("link_ids", REQUIRED), ("endpoints", REQUIRED)],
        dict(link_ids=("e0", "e1"), endpoints=("v0", "v2")),
        ("endpoints", ("v2", "v0")),
        "Path(link_ids=('e0', 'e1'), endpoints=('v0', 'v2'))",
        True,
    ),
    (
        MeasurementTask,
        [("scheme", REQUIRED), ("path", REQUIRED)],
        dict(scheme=Scheme.JBM, path=TASK.path),
        ("scheme", Scheme.PEM),
        "MeasurementTask(scheme=<Scheme.JBM: 'JBM'>, "
        "path=Path(link_ids=('e0',), endpoints=('v0', 'v1')))",
        True,
    ),
    (
        MonitoringPlan,
        [("name", REQUIRED), ("tasks", REQUIRED)],
        dict(name="P", tasks=(TASK,)),
        ("name", "Q"),
        "MonitoringPlan(name='P', tasks=(MeasurementTask(scheme=<Scheme.JBM: 'JBM'>, "
        "path=Path(link_ids=('e0',), endpoints=('v0', 'v1'))),))",
        True,
    ),
    (
        UsageLedger,
        [("uses", REQUIRED), ("total", REQUIRED), ("preshared_pairs", 0)],
        dict(uses={"e0": 2}, total=2, preshared_pairs=1),
        ("preshared_pairs", 0),
        "UsageLedger(uses={'e0': 2}, total=2, preshared_pairs=1)",
        False,
    ),
    (
        FisherMatrix,
        [("entries", REQUIRED), ("order", REQUIRED), ("mode", REQUIRED),
         ("bounds", REQUIRED), ("normalized", False), ("ledger", None)],
        dict(entries=np.array([[2.0, 0.0], [0.0, 1.0]]), order=("e0", "e1"),
             mode=FisherMode.CLOSED_FORM, bounds=np.array([0.5, 1.0]), normalized=True,
             ledger=UsageLedger(uses={"e0": 1, "e1": 1}, total=2)),
        ("normalized", False),
        "FisherMatrix(entries=array([[2., 0.],\n       [0., 1.]]), order=('e0', 'e1'), "
        "mode=<FisherMode.CLOSED_FORM: 'closed-form'>, bounds=array([0.5, 1. ]), "
        "normalized=True, ledger=UsageLedger(uses={'e0': 1, 'e1': 1}, total=2, "
        "preshared_pairs=0))",
        False,
    ),
    (
        LinkEstimates,
        [("values", REQUIRED), ("unidentifiable", frozenset())],
        dict(values={"e0": 0.5}, unidentifiable=frozenset({"e1"})),
        ("unidentifiable", frozenset()),
        "LinkEstimates(values={'e0': 0.5}, unidentifiable=frozenset({'e1'}))",
        False,
    ),
    (
        BenchmarkRow,
        [("link", REQUIRED), ("true_w", REQUIRED), ("variance", REQUIRED), ("crb", REQUIRED),
         ("ratio", REQUIRED), ("unidentifiable_rounds", REQUIRED)],
        dict(link="e0", true_w=0.9, variance=1e-05, crb=2e-05, ratio=0.5,
             unidentifiable_rounds=0),
        ("unidentifiable_rounds", 3),
        "BenchmarkRow(link='e0', true_w=0.9, variance=1e-05, crb=2e-05, ratio=0.5, "
        "unidentifiable_rounds=0)",
        True,
    ),
    (
        DensityMatrix,
        [("matrix", REQUIRED)],
        dict(matrix=np.eye(2) / 2),
        ("matrix", np.diag([1.0, 0.0])),
        "DensityMatrix(matrix=array([[0.5, 0. ],\n       [0. , 0.5]]))",
        False,
    ),
]
# The records whose fields include arrays: comparing two of them that do
# not share their arrays asks an array for one truth value.
ARRAY_RECORDS = (FisherMatrix, DensityMatrix)


def _same(a, b) -> bool:
    """Equal values, arrays compared by dtype, shape and every element."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _same_record(a, b) -> bool:
    return type(a) is type(b) and vars(a).keys() == vars(b).keys() and all(
        _same(value, vars(b)[name]) for name, value in vars(a).items()
    )


@pytest.mark.parametrize(
    "cls, params, kwargs, change, text, hashable", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_contract(cls, params, kwargs, change, text, hashable):
    fields = tuple(name for name, _ in params)
    signature = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in signature] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default) for name, default in params
    ]
    assert cls.__match_args__ == fields

    record = cls(**kwargs)
    # The fields alone, in order, and no other local of the constructor.
    assert tuple(vars(record)) == fields
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in fields)
    assert _same_record(cls(*values), record)
    changed_name, changed_value = change
    other = cls(**{**kwargs, changed_name: changed_value})

    shallow = copy.copy(record)
    assert shallow == record and not shallow != record
    assert record != object() and record != values
    if cls in ARRAY_RECORDS:
        with pytest.raises(ValueError):
            record == cls(**kwargs)
    else:
        assert record == cls(**kwargs)
        assert record != other and not record == other

    if hashable:
        assert hash(record) == hash(values) == hash(cls(**kwargs))
    else:
        with pytest.raises(TypeError):
            hash(record)

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _same_record(record, cls(**kwargs))

    for clone in (shallow, copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert _same_record(clone, record)


def test_fisher_bounds_are_a_field_in_eq_and_repr():
    # A plan's bounds are part of its result: a twin that shares the entries
    # but not the bounds differs, and repr shows them.
    matrix = plan_qfim(builtin_plan("JBM3", build_star(3, [0.5, 0.5, 0.5])),
                       {"e0": 0.0, "e1": 0.5, "e2": 0.5}, FisherMode.FIRST_PRINCIPLES)
    assert "bounds=array([   inf, 0.4375, 0.4375])" in repr(matrix)
    one = MonitoringPlan("one", builtin_plan("JBM3", build_star(3, [0.5] * 3)).tasks[:1])
    single = plan_qfim(one, {"e0": 0.5}, FisherMode.CLOSED_FORM)
    twin = copy.copy(single)
    vars(twin)["bounds"] = single.bounds.copy()
    assert twin == single
    vars(twin)["bounds"] = np.zeros(1)
    assert twin != single and repr(twin) != repr(single)
    with pytest.raises(ValueError):
        matrix.bounds[1] = 5.0


def test_clones_keep_the_bounds_of_a_plan():
    # JBM3 with e0 at 0 at the first point: e0 is not identifiable and e1,
    # e2 are bounded; at the second, e0 at 1 is known.  Clones rebuild
    # through the constructor and keep the bounds bit for bit, read-only.
    graph = build_star(3, [0.5, 0.5, 0.5])
    params = {"e0": np.array([0.0, 1.0]), "e1": 0.5, "e2": np.array([0.5, 0.9])}
    matrix = plan_qfim(builtin_plan("JBM3", graph), params, FisherMode.CLOSED_FORM)
    assert np.isinf(matrix.bounds[0, 0]) and np.isfinite(matrix.bounds[0, 1:]).all()
    assert matrix.bounds[1, 0] == 0.0
    for clone in (copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))):
        assert _same_record(clone, matrix)
        for field in ("entries", "bounds"):
            assert getattr(clone, field).tobytes() == getattr(matrix, field).tobytes()
            assert not getattr(clone, field).flags.writeable
    # A shallow copy shares the read-only originals.
    shallow = copy.copy(matrix)
    for field in ("entries", "bounds"):
        assert getattr(shallow, field) is getattr(matrix, field)


def test_density_matrix_stays_read_only_in_copies():
    state = DensityMatrix(matrix=np.eye(4) / 4.0)
    assert copy.copy(state).matrix is state.matrix
    for clone in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert _same_record(clone, state)
        assert not clone.matrix.flags.writeable
