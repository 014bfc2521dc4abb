"""Graph, path, plan, and channel-use accounting tests."""

import pytest

from qnetomo import (
    BUILTIN_PLAN_KINDS,
    MeasurementTask,
    MonitoringPlan,
    NetworkGraph,
    Scheme,
    Path,
    UsageLedger,
    WernerLink,
    build_star,
    builtin_plan,
    channel_uses,
    trace_path,
    validate_plan,
)
from qnetomo.network import _chain


def star():
    return build_star(3, [0.9, 0.8, 0.7])


class TestWernerLink:
    def test_parameter_domain(self):
        assert WernerLink("e0", 0.0).w == 0.0
        assert WernerLink("e0", 1.0).w == 1.0
        with pytest.raises(ValueError):
            WernerLink("e0", 1.1)
        with pytest.raises(ValueError):
            WernerLink("e0", -0.01)


class TestBuildStar:
    def test_structure(self):
        g = star()
        assert g.nodes == frozenset({"v0", "v1", "v2", "v3"})
        assert [l.id for l in g.links] == ["e0", "e1", "e2"]
        assert g.endpoints["e1"] == ("v0", "v2")
        assert g.params() == {"e0": 0.9, "e1": 0.8, "e2": 0.7}

    def test_monitors_default_to_leaves(self):
        assert star().monitors == frozenset({"v1", "v2", "v3"})

    def test_two_leaf_star_with_perfect_links(self):
        g = build_star(2, [1.0, 1.0])
        assert g.nodes == frozenset({"v0", "v1", "v2"})
        assert len(g.links) == 2

    def test_parameter_count_mismatch(self):
        with pytest.raises(ValueError):
            build_star(3, [0.5, 0.6])

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError):
            build_star(3, [0.5, 0.6, 1.1])

    def test_too_few_leaves(self):
        with pytest.raises(ValueError):
            build_star(1, [0.5])


class TestChain:
    def test_links_in_order_with_contiguous_endpoints_all_monitored(self):
        g = _chain({"p0": 0.9, "p1": 0.8, "p2": 0.7})
        assert [l.id for l in g.links] == ["p0", "p1", "p2"]
        assert g.params() == {"p0": 0.9, "p1": 0.8, "p2": 0.7}
        assert g.nodes == frozenset({"v0", "v1", "v2", "v3"})
        assert [g.endpoints[l] for l in ("p0", "p1", "p2")] == [
            ("v0", "v1"),
            ("v1", "v2"),
            ("v2", "v3"),
        ]
        assert g.monitors == g.nodes
        assert trace_path(g, ["p0", "p1", "p2"]).endpoints == ("v0", "v3")


class TestGraphInvariants:
    def test_monitors_must_be_nodes(self):
        with pytest.raises(ValueError):
            NetworkGraph(
                nodes=frozenset({"a", "b"}),
                links=(WernerLink("e0", 0.5),),
                endpoints={"e0": ("a", "b")},
                monitors=frozenset({"c"}),
            )

    def test_endpoints_must_be_nodes(self):
        with pytest.raises(ValueError):
            NetworkGraph(
                nodes=frozenset({"a", "b"}),
                links=(WernerLink("e0", 0.5),),
                endpoints={"e0": ("a", "z")},
                monitors=frozenset(),
            )

    @pytest.mark.parametrize(
        "endpoints, message",
        [
            ({}, "endpoints must cover exactly the link ids"),
            ({"e0": ("a", "b"), "e9": ("a", "b")}, "endpoints must cover exactly the link ids"),
            ({"e0": ("a", "a")}, "link 'e0' is a self-loop"),
        ],
        ids=["missing", "extra", "self-loop"],
    )
    def test_endpoint_rules(self, endpoints, message):
        with pytest.raises(ValueError, match=message):
            NetworkGraph(
                nodes=frozenset({"a", "b"}),
                links=(WernerLink("e0", 0.5),),
                endpoints=endpoints,
                monitors=frozenset(),
            )

    def test_duplicate_link_ids(self):
        with pytest.raises(ValueError):
            NetworkGraph(
                nodes=frozenset({"a", "b", "c"}),
                links=(WernerLink("e0", 0.5), WernerLink("e0", 0.6)),
                endpoints={"e0": ("a", "b")},
                monitors=frozenset(),
            )


class TestPath:
    @pytest.mark.parametrize(
        "link_ids, message", [((), "at least one link"), (("e0", "e0"), "repeats a link")]
    )
    def test_link_ids_must_be_a_nonempty_set(self, link_ids, message):
        with pytest.raises(ValueError, match=message):
            Path(link_ids, ("v0", "v1"))


class TestTracePath:
    def test_single_link(self):
        p = trace_path(star(), ["e1"])
        assert p.link_ids == ("e1",)
        assert set(p.endpoints) == {"v0", "v2"}

    def test_two_links_through_hub(self):
        p = trace_path(star(), ["e0", "e2"])
        assert p.endpoints == ("v1", "v3")

    def test_orientation_from_first_pair(self):
        p = trace_path(star(), ["e2", "e0"])
        assert p.endpoints == ("v3", "v1")

    def test_unknown_link(self):
        with pytest.raises(ValueError, match="unknown link"):
            trace_path(star(), ["e9"])

    def test_repeated_link(self):
        with pytest.raises(ValueError, match="repeats"):
            trace_path(star(), ["e0", "e0"])

    def test_non_contiguous(self):
        # chain a-b-c-d: links l0, l1, l2; (l0, l2) skips a node
        g = NetworkGraph(
            nodes=frozenset({"a", "b", "c", "d"}),
            links=(WernerLink("l0", 0.5), WernerLink("l1", 0.5), WernerLink("l2", 0.5)),
            endpoints={"l0": ("a", "b"), "l1": ("b", "c"), "l2": ("c", "d")},
            monitors=frozenset(),
        )
        with pytest.raises(ValueError):
            trace_path(g, ["l0", "l2"])
        assert trace_path(g, ["l0", "l1", "l2"]).endpoints == ("a", "d")

    def test_empty(self):
        with pytest.raises(ValueError):
            trace_path(star(), [])

    def test_links_not_contiguous(self):
        # e1 and e0 meet at the hub, but the path then stands at v1, off e2.
        with pytest.raises(ValueError, match="links are not contiguous"):
            trace_path(star(), ["e1", "e0", "e2"])

    def test_revisited_node(self):
        triangle = NetworkGraph(
            nodes=frozenset({"a", "b", "c"}),
            links=(WernerLink("x", 0.5), WernerLink("y", 0.5), WernerLink("z", 0.5)),
            endpoints={"x": ("a", "b"), "y": ("b", "c"), "z": ("c", "a")},
            monitors=frozenset(),
        )
        with pytest.raises(ValueError, match="path revisits a node"):
            trace_path(triangle, ["x", "y", "z"])


class TestBuiltinPlans:
    def test_jbm2_tasks(self):
        plan = builtin_plan("JBM2", star())
        shapes = [(t.scheme, t.path.link_ids) for t in plan.tasks]
        assert shapes == [
            (Scheme.JBM, ("e0",)),
            (Scheme.JBM, ("e1",)),
            (Scheme.JBM, ("e0", "e2")),
        ]

    def test_jbm3_all_direct(self):
        plan = builtin_plan("JBM3", star())
        assert all(len(t.path.link_ids) == 1 for t in plan.tasks)
        assert plan.covered_links() == frozenset({"e0", "e1", "e2"})

    def test_hyb2_tasks(self):
        plan = builtin_plan("HYB2", star())
        schemes = [t.scheme for t in plan.tasks]
        assert schemes == [Scheme.JBM, Scheme.JBM, Scheme.LZM]

    def test_hyb3_one_jbm_two_lzm(self):
        plan = builtin_plan("HYB3", star())
        schemes = [t.scheme for t in plan.tasks]
        assert schemes.count(Scheme.JBM) == 1
        assert schemes.count(Scheme.LZM) == 2

    def test_two_monitor_plans_fit_two_monitors(self):
        g = build_star(3, [0.9, 0.8, 0.7], monitors={"v1", "v2"})
        builtin_plan("JBM2", g)
        builtin_plan("HYB2", g)

    def test_three_monitor_plan_rejects_two_monitors(self):
        g = build_star(3, [0.9, 0.8, 0.7], monitors={"v1", "v2"})
        with pytest.raises(ValueError, match="monitor"):
            builtin_plan("JBM3", g)
        with pytest.raises(ValueError, match="monitor"):
            builtin_plan("HYB3", g)

    @pytest.mark.parametrize(
        "monitors", [None, {"v1", "v2"}, {"v1", "v3"}, {"v2", "v3"}, {"v1"}, {"v3"}, set()]
    )
    @pytest.mark.parametrize("kind", BUILTIN_PLAN_KINDS)
    def test_every_plan_passes_validate_plan_or_fails_as_it_would(self, kind, monitors):
        # builtin_plan checks only the monitor rule, the one rule the star can
        # break: a plan it returns passes every rule, and a plan it refuses
        # gets validate_plan's first error.
        g = build_star(3, [0.9, 0.8, 0.7], monitors=monitors)
        same = builtin_plan(kind, star())
        try:
            plan = builtin_plan(kind, g)
        except ValueError as err:
            with pytest.raises(ValueError) as expected:
                validate_plan(g, same)
            assert str(err) == str(expected.value)
            return
        validate_plan(g, plan)
        assert plan == same

    def test_requires_three_leaf_star(self):
        with pytest.raises(ValueError):
            builtin_plan("JBM2", build_star(2, [0.5, 0.5]))

    def test_links_e0_to_e2_must_form_the_star(self):
        chain = _chain({"e0": 0.5, "e1": 0.5, "e2": 0.5})
        with pytest.raises(ValueError, match="4-node star with links e0, e1, e2"):
            builtin_plan("JBM2", chain)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            builtin_plan("XYZ", star())


class TestChannelUses:
    def test_ledgers_match_known_totals(self):
        expected = {
            "JBM2": ({"e0": 4, "e1": 2, "e2": 2}, 8),
            "JBM3": ({"e0": 2, "e1": 2, "e2": 2}, 6),
            "HYB2": ({"e0": 5, "e1": 1, "e2": 2}, 8),
            "HYB3": ({"e0": 4, "e1": 1, "e2": 1}, 6),
        }
        for kind in BUILTIN_PLAN_KINDS:
            ledger = channel_uses(builtin_plan(kind, star()))
            uses, total = expected[kind]
            assert dict(ledger.uses) == uses, kind
            assert ledger.total == total, kind
            assert ledger.preshared_pairs == 0, kind

    def test_pem_preshared_pairs_counted_separately(self):
        g = star()
        plan = MonitoringPlan(
            name="pem-pair",
            tasks=(
                MeasurementTask(scheme=Scheme.PEM, path=trace_path(g, ["e0"])),
                MeasurementTask(scheme=Scheme.PEM, path=trace_path(g, ["e0", "e1"])),
            ),
        )
        ledger = channel_uses(plan)
        assert dict(ledger.uses) == {"e0": 2, "e1": 1}
        assert ledger.total == 3
        assert ledger.preshared_pairs == 2

    def test_ledger_total_invariant(self):
        with pytest.raises(ValueError):
            UsageLedger(uses={"e0": 2}, total=3)

    @pytest.mark.parametrize(
        "uses, total, preshared", [({"e0": 3, "e1": -1}, 2, 0), ({"e0": 2}, 2, -1)]
    )
    def test_ledger_counts_are_nonnegative(self, uses, total, preshared):
        with pytest.raises(ValueError, match="nonnegative"):
            UsageLedger(uses=uses, total=total, preshared_pairs=preshared)


class TestValidatePlan:
    def test_builtin_plans_are_solvable_in_order(self):
        g = star()
        for kind in BUILTIN_PLAN_KINDS:
            validate_plan(g, builtin_plan(kind, g))

    def test_indirect_first_is_not_solvable(self):
        g = star()
        plan = MonitoringPlan(
            name="backwards",
            tasks=(
                MeasurementTask(scheme=Scheme.JBM, path=trace_path(g, ["e0", "e2"])),
                MeasurementTask(scheme=Scheme.JBM, path=trace_path(g, ["e0"])),
                MeasurementTask(scheme=Scheme.JBM, path=trace_path(g, ["e1"])),
            ),
        )
        with pytest.raises(ValueError, match="solvable"):
            validate_plan(g, plan)

    def test_stored_endpoints_must_match_the_graph(self):
        g = star()
        task = MeasurementTask(scheme=Scheme.JBM, path=Path(("e0",), ("v0", "v2")))
        plan = MonitoringPlan(name="stale", tasks=(task,))
        with pytest.raises(ValueError, match="task 0: stored endpoints do not match the graph"):
            validate_plan(g, plan)

    def test_coverage_must_match_targets(self):
        g = star()
        plan = MonitoringPlan(
            name="partial",
            tasks=(MeasurementTask(scheme=Scheme.JBM, path=trace_path(g, ["e0"])),),
        )
        with pytest.raises(ValueError, match="cover"):
            validate_plan(g, plan)
        validate_plan(_chain({"e0": 0.9}), plan)

    def test_lzm_needs_monitors_at_both_ends(self):
        g = build_star(3, [0.9, 0.8, 0.7], monitors={"v1"})
        plan = MonitoringPlan(
            name="lzm",
            tasks=(MeasurementTask(scheme=Scheme.LZM, path=trace_path(g, ["e0", "e1"])),),
        )
        with pytest.raises(ValueError, match="monitor"):
            validate_plan(g, plan)
