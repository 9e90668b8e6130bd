"""View-level operations on the running phone/call example plus random laws.

Golden expectations are recomputed inside each test from the flat call list
(conftest.BASE_CALLS), never copied from engine output.
"""
from __future__ import annotations

import dataclasses
import datetime
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE_CALLS, CALL_DECL, CONTRACTION, DAY, OPERATOR_OF, PHONE_DECL
from graphoid.dims import (
    DimensionCatalog,
    DimensionInstance,
    DimensionSchema,
    Level,
    RollupStep,
    open_dimension,
)
from graphoid.dims import UnknownMember
from graphoid.hypergraph import (
    EdgeTypeDecl,
    GraphoidError,
    HyperEdge,
    Node,
    NodeTypeDecl,
    build_graphoid,
    edgify,
)
from graphoid.olap import (
    Atom,
    Condition,
    LineageError,
    OlapError,
    TargetSet,
    aggr,
    apply_aggregate,
    climb,
    dice,
    drill_down,
    edge_filter,
    group,
    minimize,
    n_delete,
    roll_up,
    s_dice,
    slice_out,
)
from graphoid.store import GeneratorConfig, generate, graphoid_from_json, graphoid_to_json
from helpers import (
    climbable_step,
    ends_are_shared,
    random_graph_condition,
    random_graphoid,
    random_graphoid_input,
    shuffled_build,
)


def edge_bag(g, etype: str | None = None) -> Counter:
    """Multiset view of a graphoid's edges, ignoring surrogates."""
    return Counter(
        (e.etype, e.source, e.target, e.label)
        for e in g.edges
        if etype is None or e.etype == etype
    )


def contracted(ids) -> frozenset[int]:
    return frozenset(CONTRACTION[i] for i in ids)


class TestTargetSet:
    def test_wildcard_spellings(self):
        assert TargetSet.coerce(None).is_wildcard
        assert TargetSet.coerce("*").is_wildcard
        assert TargetSet.coerce(["*"]).is_wildcard

    def test_single_name(self):
        assert TargetSet.coerce("#Call").names == ("#Call",)

    def test_wildcard_mixed_with_names_refused(self):
        with pytest.raises(OlapError, match="wildcard"):
            TargetSet.coerce(["*", "#Call"])


class TestApplyAggregate:
    def test_each_function(self):
        values = [4, 1, 7]
        assert apply_aggregate("SUM", values) == 12
        assert apply_aggregate("MIN", values) == 1
        assert apply_aggregate("MAX", values) == 7
        assert apply_aggregate("COUNT", values) == 3
        assert apply_aggregate("AVG", values) == 4

    def test_unknown_function(self):
        with pytest.raises(OlapError, match="unknown aggregate"):
            apply_aggregate("MEDIAN", [1])


class TestClimb:
    def test_phone_to_operator_matches_expected(self, base_graph, operator_graph):
        step = RollupStep("Phone", "Phone", "Operator")
        assert climb(base_graph, ["#Phone"], step) == operator_graph

    def test_preserves_counts(self, base_graph):
        out = climb(base_graph, ["#Phone"], RollupStep("Phone", "Phone", "Operator"))
        assert len(out.nodes) == len(base_graph.nodes)
        assert len(out.edges) == len(base_graph.edges)

    def test_wildcard_rewrites_every_slot_at_level(self, base_graph):
        out = climb(base_graph, "*", RollupStep("Time", "Day", "Month"))
        months = sorted(e.label[0] for e in out.edges)
        expected = sorted(f"{d.year}-{d.month:02d}" for _, _, d, _ in BASE_CALLS)
        assert months == expected
        assert out.levels[("#Call", 0)] == "Month"
        # node labels untouched
        assert {n.label for n in out.nodes.values()} == {n.label for n in base_graph.nodes.values()}

    def test_already_at_target_level_is_noop(self, operator_graph):
        step = RollupStep("Phone", "Phone", "Operator")
        assert climb(operator_graph, ["#Phone"], step) == operator_graph

    def test_id_dimension_refused(self, base_graph):
        with pytest.raises(OlapError, match="Id dimension"):
            climb(base_graph, ["#Phone"], RollupStep("Id", "Id", "All"))

    def test_type_without_dimension_refused(self, base_graph):
        with pytest.raises(OlapError, match="lacks dimension"):
            climb(base_graph, ["#Call"], RollupStep("Phone", "Phone", "Operator"))

    def test_level_mismatch_reported(self, operator_graph):
        with pytest.raises(OlapError, match="at level Operator, not Phone"):
            climb(operator_graph, ["#Phone"], RollupStep("Phone", "Phone", "Customer"))

    def test_unknown_level_reported(self, base_graph):
        with pytest.raises(OlapError, match="no level 'Region'"):
            climb(base_graph, ["#Phone"], RollupStep("Phone", "Phone", "Region"))

    def test_unreachable_level_reported(self, base_graph):
        with pytest.raises(OlapError, match="not reachable"):
            climb(base_graph, ["#Phone"], RollupStep("Phone", "Operator", "Customer"))

    def test_wildcard_without_any_slot_at_level(self, base_graph):
        with pytest.raises(OlapError, match="no type holds dimension"):
            climb(base_graph, "*", RollupStep("Phone", "Operator", "All"))


class TestMinimize:
    def test_contracts_equal_operator_labels(self, operator_graph, minimal_operator_graph):
        assert minimize(operator_graph) == minimal_operator_graph

    def test_edge_bag_size_is_preserved(self, operator_graph):
        assert len(minimize(operator_graph).edges) == len(operator_graph.edges)

    def test_survivors_are_smallest_identifiers(self, operator_graph):
        assert sorted(minimize(operator_graph).nodes) == [11, 12, 13]

    def test_distinct_labels_mean_identity(self, base_graph):
        assert minimize(base_graph) == base_graph

    def test_idempotent(self, operator_graph):
        once = minimize(operator_graph)
        assert minimize(once) == once

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_order_insensitive_and_size_preserving(self, seed):
        rng = random.Random(seed)
        catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng)
        g1 = build_graphoid(catalog, ntypes, etypes, nodes, edges)
        g2 = shuffled_build(rng, catalog, ntypes, etypes, nodes, edges)
        m1 = minimize(g1)
        assert m1 == minimize(g2)
        assert len(m1.edges) == len(g1.edges)
        assert minimize(m1) == m1


    def test_endpoint_sets_are_shared(self, operator_graph):
        out = minimize(operator_graph)
        assert ends_are_shared(out)
        # {12}, {13}, {15} and {12, 15}, {12, 13} become three objects; sets that do not move stay the input's
        assert len({id(e.target) for e in out.edges}) == 3
        moved = {id(ids) for e in operator_graph.edges for ids in (e.source, e.target)}
        assert {id(e.source) for e in out.edges if e.source == {11}} <= moved


class TestGroup:
    def test_node_group_from_base(self, base_graph, minimal_operator_graph):
        out = group(base_graph, "#Phone", RollupStep("Phone", "Phone", "Operator"))
        assert out == minimal_operator_graph

    def test_node_group_on_already_climbed_input(self, operator_graph, minimal_operator_graph):
        out = group(operator_graph, "#Phone", RollupStep("Phone", "Phone", "Operator"))
        assert out == minimal_operator_graph

    def test_edge_group_is_plain_climb(self, base_graph):
        step = RollupStep("Time", "Day", "Month")
        assert group(base_graph, "#Call", step) == climb(base_graph, ["#Call"], step)

    def test_unknown_type(self, base_graph):
        with pytest.raises(OlapError, match="unknown type"):
            group(base_graph, "#User", RollupStep("Phone", "Phone", "Operator"))

    def test_endpoint_sets_are_shared(self):
        data = generate(GeneratorConfig(phone_count=30, user_count=10, call_count=300, seed=4))
        out = group(data.graphoid, "#Phone", RollupStep("Phone", "PhoneId", "Operator"))
        assert ends_are_shared(data.graphoid) and ends_are_shared(out)
        assert len({id(e.source) for e in out.edges}) < 10


def flat_aggregate(calls, key_of, fold):
    """Group the flat call rows and fold durations; the oracle for aggr tests."""
    groups: dict[tuple, list[int]] = {}
    for s, t, d, dur in calls:
        groups.setdefault(key_of(s, t, d), []).append(dur)
    return {key: fold(values) for key, values in groups.items()}


class TestAggr:
    def test_duplicated_pair_merges(self, minimal_operator_graph):
        out = aggr(minimal_operator_graph, "#Call", [("Duration", "SUM")])
        expected = flat_aggregate(
            BASE_CALLS,
            lambda s, t, d: (contracted(s), contracted(t), d),
            sum,
        )
        assert edge_bag(out) == Counter(
            ("#Call", s, t, (d, total)) for (s, t, d), total in expected.items()
        )
        assert len(out.edges) == 5
        merged = [e for e in out.edges if e.label == (DAY(2016, 10, 10), 8)]
        assert len(merged) == 1 and merged[0].source == frozenset({11})

    def test_contracts_input_first(self, operator_graph, minimal_operator_graph):
        pairs = [("Duration", "SUM")]
        assert aggr(operator_graph, "#Call", pairs) == aggr(minimal_operator_graph, "#Call", pairs)

    def test_count_reports_class_sizes(self, minimal_operator_graph):
        out = aggr(minimal_operator_graph, "#Call", [("Duration", "COUNT")])
        expected = flat_aggregate(
            BASE_CALLS,
            lambda s, t, d: (contracted(s), contracted(t), d),
            len,
        )
        assert edge_bag(out) == Counter(
            ("#Call", s, t, (d, size)) for (s, t, d), size in expected.items()
        )
        assert sum(e.label[1] for e in out.edges) == len(BASE_CALLS)

    def test_unknown_measure(self, base_graph):
        with pytest.raises(OlapError, match="has no measure"):
            aggr(base_graph, "#Call", [("Latency", "SUM")])

    def test_wildcard_requires_some_declaration(self, base_graph):
        with pytest.raises(OlapError, match="not declared by any edge type"):
            aggr(base_graph, "*", [("Latency", "SUM")])

    def test_empty_measure_list_refused(self, base_graph):
        with pytest.raises(OlapError, match="at least one"):
            aggr(base_graph, "#Call", [])

    def test_non_bottom_measure_only_counts(self, base_graph):
        lifted = climb(base_graph, ["#Call"], RollupStep("Duration", "Duration", "All"))
        with pytest.raises(OlapError, match="only COUNT"):
            aggr(lifted, "#Call", [("Duration", "SUM")])
        counted = aggr(lifted, "#Call", [("Duration", "COUNT")])
        assert sum(e.label[1] for e in counted.edges) == len(BASE_CALLS)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sum_matches_flat_oracle(self, seed):
        rng = random.Random(seed)
        g = minimize(random_graphoid(rng))
        decl = g.edge_types["#E0"]
        slot = decl.measure_slot_of("M1")
        groups: dict[tuple, list[int]] = {}
        passthrough = Counter()
        for e in g.edges:
            if e.etype != "#E0":
                passthrough[(e.etype, e.source, e.target, e.label)] += 1
                continue
            rest = tuple(v for i, v in enumerate(e.label) if i != slot)
            groups.setdefault((e.source, e.target, rest), []).append(e.label[slot])
        expected = Counter()
        for (source, target, rest), values in groups.items():
            label = list(rest)
            label.insert(slot, sum(values))
            expected[("#E0", source, target, tuple(label))] += 1
        out = aggr(g, "#E0", [("M1", "SUM")])
        assert edge_bag(out) == expected + passthrough
        assert out.nodes == g.nodes

    def test_representative_ignores_surrogates(self):
        # equal values whose surrogates run in opposite orders; saving drops surrogates
        catalog = DimensionCatalog.of(open_dimension("Duration"))
        g = build_graphoid(
            catalog,
            [NodeTypeDecl("#Phone", ("Id",))],
            [EdgeTypeDecl("#Call", ("Id", "Duration"), measures=((1, "SUM"),))],
            [("#Phone", 1), ("#Phone", 2)],
            [("#Call", [1], [2], 100, 5), ("#Call", [1], [2], 200, 7)],
        )
        first, second = g.edges
        h = g.derive(edges=(
            HyperEdge(first.etype, first.source, first.target, first.label, second.surrogate),
            HyperEdge(second.etype, second.source, second.target, second.label, first.surrogate),
        ))
        assert h == g and [e.surrogate for e in h.edges] == [e.surrogate for e in reversed(g.edges)]
        reloaded = graphoid_from_json(graphoid_to_json(h), catalog)
        for value in (g, h, reloaded):
            assert [e.label for e in aggr(value, "#Call", [("Duration", "SUM")]).edges] == [(100, 12)]

    @pytest.mark.parametrize(
        "ends",
        [
            [(1, 2), (2, 3), (3, 1), (1, 3)],  # no row joins a class
            [(1, 2), (2, 3), (1, 2), (3, 1)],  # exactly one row joins: the third joins the first's
            [(1, 2)] * 4,  # every row after the first joins the first's class
        ],
        ids=["none-join", "one-joins", "all-join"],
    )
    @pytest.mark.parametrize("fn", ["SUM", "MIN", "MAX", "COUNT", "AVG"])
    def test_joining_rows_match_the_flat_fold(self, ends, fn):
        # a call's only other slot is its measure, so two calls are one class exactly when they share their ends
        catalog = DimensionCatalog.of(open_dimension("Duration"), open_dimension("Name", "string"))
        g = build_graphoid(
            catalog,
            [NodeTypeDecl("#Phone", ("Id", "Name"))],
            [EdgeTypeDecl("#Call", ("Duration",), measures=((0, "SUM"),))],
            [("#Phone", 1, "a"), ("#Phone", 2, "b"), ("#Phone", 3, "c")],
            [("#Call", [s], [t], duration) for (s, t), duration in zip(ends, (7, -0.0, 2.5, 40))],
        )
        expected = [(t, sorted(s), sorted(d), label, sur) for t, s, d, label, sur in flat_aggr(g, {"#Call"}, "Duration", fn)]
        assert len(expected) == len(set(ends))
        assert repr(table_rows(aggr(g, "#Call", [("Duration", fn)]).edges)) == repr(expected)

    def test_shared_surrogates_keep_classes_apart(self):
        # a hand-built edge carries the default surrogate 0, like the generator's first edge
        g = generate(GeneratorConfig(phone_count=10, user_count=5, call_count=20, seed=5)).graphoid
        first = g.edges[0]
        stray = HyperEdge("#Call", first.target, first.source, (first.label[0], 1000))
        assert stray.surrogate == first.surrogate == 0
        g = g.derive(edges=g.edges + (stray,))
        out = aggr(g, "#Call", [("Duration", "SUM")])
        expected = flat_aggregate(
            [(e.source, e.target, *e.label) for e in g.edges], lambda s, t, d: (s, t, d), sum
        )
        assert edge_bag(out) == Counter(("#Call", s, t, (d, total)) for (s, t, d), total in expected.items())
        assert sum(e.label[1] for e in out.edges) == sum(e.label[1] for e in g.edges)


class TestRollUp:
    def test_day_to_year_matches_expected(self, minimal_operator_graph, year_rollup_graph):
        out = roll_up(
            minimal_operator_graph,
            ["#Call"],
            RollupStep("Time", "Day", "Year"),
            "#Call",
            [("Duration", "SUM")],
        )
        assert out == year_rollup_graph

    def test_duration_mass_is_preserved(self, minimal_operator_graph):
        out = roll_up(
            minimal_operator_graph,
            ["#Call"],
            RollupStep("Time", "Day", "Year"),
            "#Call",
            [("Duration", "SUM")],
        )
        assert sum(e.label[1] for e in out.edges) == sum(dur for *_, dur in BASE_CALLS)

    @pytest.mark.parametrize("target", ["#Call", "*"])
    def test_repeated_measure_refused(self, target):
        # a measure slot holds one aggregate, so a measure may be listed once
        g = generate(GeneratorConfig(phone_count=6, user_count=3, call_count=30, seed=3)).graphoid
        measures = [("Duration", "SUM"), ("Duration", "MAX")]
        with pytest.raises(OlapError, match="^measure Duration is listed more than once$"):
            roll_up(g, ["#Call"], RollupStep("Time", "Day", "Year"), target, measures)

    def test_whole_pipeline_from_base(self, base_graph, year_rollup_graph):
        grouped = group(base_graph, "#Phone", RollupStep("Phone", "Phone", "Operator"))
        out = roll_up(
            grouped, ["#Call"], RollupStep("Time", "Day", "Year"), "#Call", [("Duration", "SUM")]
        )
        assert out == year_rollup_graph

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_equals_aggregate_of_contracted_climb(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        step = climbable_step(rng, g)
        if step is None:
            return
        pairs = [("M1", "SUM")]
        assert roll_up(g, "*", step, "#E0", pairs) == aggr(
            minimize(climb(g, "*", step)), "#E0", pairs
        )


class TestDrillDown:
    ROLL = dict(edge_type="#Call", measures=[("Duration", "SUM")])

    def test_year_view_back_to_month(self, minimal_operator_graph):
        year = roll_up(
            minimal_operator_graph,
            ["#Call"],
            RollupStep("Time", "Day", "Year"),
            **self.ROLL,
        )
        month = drill_down(year, ["#Call"], "Time", "Month", **self.ROLL)
        expected = flat_aggregate(
            BASE_CALLS,
            lambda s, t, d: (contracted(s), contracted(t), f"{d.year}-{d.month:02d}"),
            sum,
        )
        assert edge_bag(month) == Counter(
            ("#Call", s, t, (m, total)) for (s, t, m), total in expected.items()
        )
        assert month.levels[("#Call", 0)] == "Month"

    def test_back_to_bottom_recovers_aggregated_base(self, minimal_operator_graph):
        year = roll_up(
            minimal_operator_graph,
            ["#Call"],
            RollupStep("Time", "Day", "Year"),
            **self.ROLL,
        )
        day = drill_down(year, ["#Call"], "Time", "Day", **self.ROLL)
        assert day == aggr(minimal_operator_graph, **self.ROLL)

    def test_refused_after_dice(self, minimal_operator_graph):
        diced = dice(minimal_operator_graph, Condition.of(Atom("Duration", None, ">", 0)))
        with pytest.raises(LineageError, match="undefined"):
            drill_down(diced, ["#Call"], "Time", "Day", **self.ROLL)

    def test_refused_after_slice(self, base_graph):
        sliced = slice_out(base_graph, "Time", [("Duration", "SUM")])
        with pytest.raises(LineageError, match="undefined"):
            drill_down(sliced, ["#Call"], "Duration", "Duration", **self.ROLL)

    def test_wildcard_needs_some_carrier(self, base_graph):
        with pytest.raises(OlapError, match="no type holds dimension"):
            drill_down(base_graph, "*", "Bogus", "Day", **self.ROLL)


def operator_atom(name: str) -> Atom:
    return Atom("Phone", "Operator", "=", name)


class TestDice:
    def test_single_operator_empties_mixed_graph(self, base_graph):
        out = dice(base_graph, Condition.of(operator_atom("Vodafone")))
        # every call touches at least one non-Vodafone phone, so nothing survives
        for s, t, _, _ in BASE_CALLS:
            assert any(OPERATOR_OF[i] != "Vodafone" for i in s + t)
        assert out.edges == ()
        assert out.nodes == base_graph.nodes
        assert out.tainted

    def test_two_operator_conjunction_empties(self, base_graph):
        cond = Condition.of(operator_atom("Vodafone"), operator_atom("Movistar"))
        assert dice(base_graph, cond).edges == ()

    def test_node_view_built_only_for_a_node_atom(self, base_graph):
        assert dice(base_graph, Condition.of(Atom("Duration", None, ">", 100))).edges == ()
        out = dice(base_graph, Condition.of(Atom("Phone", "City", "=", "Salta")))
        # Salta holds Ph3, Ph4 and Ph5 (ids 13-15)
        assert edge_bag(out) == Counter(
            ("#Call", frozenset(s), frozenset(t), (d, dur)) for s, t, d, dur in BASE_CALLS if set(s + t) <= {13, 14, 15}
        )

    def test_measure_atom_filters_by_duration(self, base_graph):
        out = dice(base_graph, Condition.of(Atom("Duration", None, ">", 3)))
        expected = Counter(
            ("#Call", frozenset(s), frozenset(t), (d, dur))
            for s, t, d, dur in BASE_CALLS
            if dur > 3
        )
        assert edge_bag(out) == expected
        assert len(out.edges) == 5

    def test_atom_above_stored_level_rolls_up(self, base_graph):
        out = dice(base_graph, Condition.of(Atom("Time", "Month", "=", "2016-10")))
        expected = Counter(
            ("#Call", frozenset(s), frozenset(t), (d, dur))
            for s, t, d, dur in BASE_CALLS
            if (d.year, d.month) == (2016, 10)
        )
        assert edge_bag(out) == expected

    def test_ordered_comparison_after_rollup(self, base_graph):
        out = dice(base_graph, Condition.of(Atom("Time", "Year", "<", 2017)))
        assert edge_bag(out) == edge_bag(base_graph)

    def test_disjunction_is_union(self, base_graph):
        high = Condition.of(Atom("Duration", None, ">", 8))
        december = Condition.of(Atom("Time", "Month", "=", "2016-12"))
        both = Condition(high.clauses + december.clauses)
        merged = edge_bag(dice(base_graph, both))
        assert merged == edge_bag(dice(base_graph, high)) + edge_bag(dice(base_graph, december))
        assert len(merged) == 2

    def test_negated_atom(self, base_graph):
        out = dice(base_graph, Condition.of(Atom("Duration", None, ">", 3, negated=True)))
        assert sorted(e.label[1] for e in out.edges) == [2]

    def test_atom_below_stored_level_refused(self, year_rollup_graph):
        cond = Condition.of(Atom("Time", "Day", "=", DAY(2016, 10, 10)))
        with pytest.raises(OlapError, match="below the stored level"):
            dice(year_rollup_graph, cond)

    def test_unknown_dimension_refused(self, base_graph):
        with pytest.raises(OlapError, match="unknown dimension"):
            dice(base_graph, Condition.of(Atom("Weight", None, ">", 1)))

    def test_constant_type_checked(self, base_graph):
        with pytest.raises(OlapError, match="is not a int"):
            dice(base_graph, Condition.of(Atom("Time", "Year", "=", "2016")))

    @pytest.mark.parametrize("atom", [Atom("Phone", None, "=", 3), Atom("Time", None, "=", DAY(2016, 1, 1))])
    def test_bare_atom_without_a_measure_refused(self, atom):
        # no edge type holds the dimension as a measure, so the atom would hold on every edge
        g = generate(GeneratorConfig(phone_count=20, user_count=10, call_count=200, seed=3)).graphoid
        for op in (dice, s_dice):
            with pytest.raises(OlapError, match=f"measure {atom.dim} is not declared by any edge type"):
                op(g, Condition.of(atom))

    def test_unordered_level_rejects_inequalities(self, base_graph):
        with pytest.raises(OlapError, match="unordered"):
            dice(base_graph, Condition.of(Atom("Phone", "All", "<", "all")))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_measure_atom_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        cut = rng.randint(0, 50)
        out = dice(g, Condition.of(Atom("M1", None, ">", cut)))
        expected = Counter(
            (e.etype, e.source, e.target, e.label)
            for e in g.edges
            if e.label[g.edge_types[e.etype].measure_slot_of("M1")] > cut
        )
        assert edge_bag(out) == expected
        assert out.nodes == g.nodes


class TestSDice:
    def test_drops_survivor_sharing_adjacency_with_casualty(self, base_graph):
        cond = Condition.of(Atom("Duration", None, ">", 8))
        plain = dice(base_graph, cond)
        strict = s_dice(base_graph, cond)
        # the 10-minute group call survives the plain dice, but shares its
        # adjacency set {12, 13, 15} with the removed 7-minute call
        assert len(plain.edges) == 1 and plain.edges[0].label[1] == 10
        assert strict.edges == ()

    def test_equals_dice_when_nothing_is_removed(self, base_graph):
        cond = Condition.of(Atom("Duration", None, ">", 0))
        assert s_dice(base_graph, cond) == dice(base_graph, cond)

    def test_disjoint_adjacencies_unaffected(self, base_graph):
        cond = Condition.of(Atom("Duration", None, ">", 4))
        assert edge_bag(s_dice(base_graph, cond)) == edge_bag(dice(base_graph, cond))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_survivors_form_subset_of_dice(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        cond = Condition.of(Atom("M1", None, ">", rng.randint(0, 50)))
        strict = edge_bag(s_dice(g, cond))
        plain = edge_bag(dice(g, cond))
        assert all(strict[key] <= plain[key] for key in strict)


class TestSlice:
    def test_time_slice_totals(self, base_graph):
        out = slice_out(base_graph, "Time", [("Duration", "SUM")])
        expected = flat_aggregate(
            BASE_CALLS,
            lambda s, t, d: (frozenset(s), frozenset(t)),
            sum,
        )
        assert edge_bag(out) == Counter(
            ("#Call", s, t, ("all", total)) for (s, t), total in expected.items()
        )
        assert out.levels[("#Call", 0)] == "All"
        assert out.tainted

    def test_node_dimension_slice_collapses_phones(self, base_graph):
        out = slice_out(base_graph, "Phone", [("Duration", "SUM")])
        assert sorted(out.nodes) == [11]
        expected = flat_aggregate(BASE_CALLS, lambda s, t, d: d, sum)
        assert edge_bag(out) == Counter(
            ("#Call", frozenset({11}), frozenset({11}), (d, total))
            for d, total in expected.items()
        )

    def test_duration_mass_is_preserved(self, base_graph):
        out = slice_out(base_graph, "Time", [("Duration", "SUM")])
        assert sum(e.label[1] for e in out.edges) == sum(dur for *_, dur in BASE_CALLS)

    def test_id_refused(self, base_graph):
        with pytest.raises(OlapError, match="Id dimension"):
            slice_out(base_graph, "Id", [("Duration", "SUM")])

    def test_absent_dimension_refused(self, base_graph):
        with pytest.raises(OlapError, match="does not appear"):
            slice_out(base_graph, "Weight", [("Duration", "SUM")])


def sales_star_graph():
    """One fact over three dimension nodes, the smallest star-shaped graph."""
    geo = DimensionInstance.build(
        DimensionSchema("Geo", (Level("City"), Level("All", ordered=False)), (("City", "All"),)),
        {"City": {"Antwerp"}},
        [],
    )
    product = DimensionInstance.build(
        DimensionSchema(
            "Product", (Level("Product"), Level("All", ordered=False)), (("Product", "All"),)
        ),
        {"Product": {"Lego"}},
        [],
    )
    when = DimensionInstance.build(
        DimensionSchema(
            "SaleTime", (Level("Day", vtype="date"), Level("All", ordered=False)), (("Day", "All"),)
        ),
        {"Day": {datetime.date(2014, 1, 1)}},
        [],
    )
    catalog = DimensionCatalog.of(geo, product, when, open_dimension("Amount"))
    return build_graphoid(
        catalog,
        [
            NodeTypeDecl("#Location", ("Id", "Geo")),
            NodeTypeDecl("#Product", ("Id", "Product")),
            NodeTypeDecl("#Time", ("Id", "SaleTime")),
            NodeTypeDecl("#Ghost", ("Id",)),
        ],
        [EdgeTypeDecl("#Sales", ("Amount",), measures=((0, "SUM"),))],
        [
            ("#Location", 11, "Antwerp"),
            ("#Product", 12, "Lego"),
            ("#Time", 13, datetime.date(2014, 1, 1)),
        ],
        [("#Sales", [], [11, 12, 13], 10)],
    )


class TestNDelete:
    def test_endpoints_shrink_but_edge_survives(self):
        g = sales_star_graph()
        out = n_delete(g, "#Location")
        assert sorted(out.nodes) == [12, 13]
        assert len(out.edges) == 1
        edge = out.edges[0]
        assert edge.source == frozenset() and edge.target == frozenset({12, 13})
        assert edge.label == (10,)

    def test_dropping_every_endpoint_drops_the_edge(self):
        g = sales_star_graph()
        g = g.derive(nodes={**g.nodes, 14: Node("#Ghost", (14,))})
        for name in ("#Location", "#Product", "#Time"):
            g = n_delete(g, name)
        assert sorted(g.nodes) == [14] and g.edges == ()

    def test_type_without_instances_is_identity(self):
        g = sales_star_graph()
        assert n_delete(g, "#Ghost") == g

    def test_deleting_every_node_is_refused(self, base_graph):
        # a value with no nodes could not be saved and loaded again
        with pytest.raises(OlapError, match="deleting node type #Phone would leave no nodes"):
            n_delete(base_graph, "#Phone")
        g = n_delete(n_delete(sales_star_graph(), "#Location"), "#Product")
        with pytest.raises(OlapError, match="deleting node type #Time would leave no nodes"):
            n_delete(g, "#Time")

    def test_unknown_type_refused(self, base_graph):
        with pytest.raises(GraphoidError, match="unknown node type"):
            n_delete(base_graph, "#User")

    def test_endpoint_sets_are_shared(self, base_graph):
        g = sales_star_graph()
        out = n_delete(g.derive(nodes={**g.nodes}), "#Location")
        assert out.edges == n_delete(g, "#Location").edges
        twice = g.derive(edges=g.edges + (HyperEdge("#Sales", frozenset(), frozenset({11, 12, 13}), (3,)),))
        out = n_delete(twice, "#Location")
        assert ends_are_shared(out) and out.edges[0].target is out.edges[1].target

    def test_drill_down_after_delete_refused(self):
        pairs = [("Amount", "SUM")]
        rolled = roll_up(sales_star_graph(), ["#Time"], RollupStep("SaleTime", "Day", "All"), "#Sales", pairs)
        deleted = n_delete(rolled, "#Location")
        assert deleted.node_count == 2 and deleted.tainted
        with pytest.raises(LineageError, match="node deletion"):
            drill_down(deleted, ["#Time"], "SaleTime", "Day", "#Sales", pairs)


def flat_minimize(g):
    """``minimize`` recomputed edge by edge: each id goes to the smallest id
    of its type with the same non-identifier label."""
    rep = {}
    for ident, node in sorted(g.nodes.items()):
        rep[ident] = min(i for i, n in g.nodes.items() if n.ntype == node.ntype and n.label[1:] == node.label[1:])
    edges = tuple(
        HyperEdge(e.etype, frozenset(rep[i] for i in e.source), frozenset(rep[i] for i in e.target), e.label)
        for e in g.edges
    )
    return g.derive(nodes={i: g.nodes[i] for i in set(rep.values())}, edges=edges)


def flat_n_delete(g, node_type: str):
    """``n_delete`` recomputed edge by edge."""
    dead = {i for i, n in g.nodes.items() if n.ntype == node_type}
    nodes = {i: n for i, n in g.nodes.items() if i not in dead}
    edges = []
    for e in g.edges:
        source, target = e.source - dead, e.target - dead
        if source or target:
            edges.append(HyperEdge(e.etype, source, target, e.label))
    return g.derive(nodes=nodes, edges=tuple(edges))


class TestFlatEndpointRewrites:
    """``minimize`` and ``n_delete`` rewrite each distinct endpoint set once;
    the result is the per-edge rewrite, with its sets shared."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_minimize(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng, max_endpoints=4)
        step = climbable_step(rng, g)
        if step is not None:
            g = climb(g, "*", step)
        out = minimize(g)
        assert out.bag_equal(flat_minimize(g))
        assert ends_are_shared(out)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_n_delete(self, seed):
        rng = random.Random(seed)
        g = minimize(random_graphoid(rng, max_endpoints=4))
        node_type = rng.choice(sorted(g.node_types))
        expected = flat_n_delete(g, node_type)
        if not expected.nodes:
            with pytest.raises(OlapError, match="would leave no nodes"):
                n_delete(g, node_type)
            return
        out = n_delete(g, node_type)
        assert out.bag_equal(expected)
        assert ends_are_shared(out)


FLAT_FOLDS = {"SUM": sum, "MIN": min, "MAX": max, "COUNT": len, "AVG": lambda values: sum(values) / len(values)}


def flat_aggr(g, types, measure: str, fn: str) -> list[tuple]:
    """``aggr`` recomputed edge by edge on a contracted graph: an edge of a
    targeted type scans every edge for its class, is kept only when it is the
    class's first member in edge order, whatever the surrogates, and then
    holds the fold over its class.  Rows are (type, source, target, label,
    surrogate)."""
    edges = g.edges

    def slot_of(e) -> int:
        return g.edge_types[e.etype].measure_slot_of(measure)

    def class_of(e) -> tuple:
        slot = slot_of(e)
        return (e.etype, e.source, e.target, e.label[:slot] + e.label[slot + 1:])

    rows = []
    for i, e in enumerate(edges):
        if e.etype not in types:
            rows.append((e.etype, e.source, e.target, e.label, e.surrogate))
            continue
        members = [j for j, other in enumerate(edges) if other.etype in types and class_of(other) == class_of(e)]
        if members[0] != i:
            continue
        slot = slot_of(e)
        value = FLAT_FOLDS[fn]([edges[j].label[slot] for j in members])
        rows.append((e.etype, e.source, e.target, e.label[:slot] + (value,) + e.label[slot + 1:], e.surrogate))
    return rows


class TestAggrFlatOracle:
    """After a random climb, and over shuffled and repeated surrogates,
    ``aggr`` keeps the flat oracle's edges, representatives and order, before
    and after a save and load."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_per_class_fold(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng, max_endpoints=2)
        step = climbable_step(rng, g)
        if step is not None:
            g = climb(g, "*", step)
        g = minimize(g)
        # copies of some edges with fresh measures grow multi-member classes
        edges = list(g.edges)
        for e in rng.sample(edges, k=len(edges) // 2):
            slot = g.edge_types[e.etype].measure_slot_of("M1")
            edges.insert(rng.randint(0, len(edges)), HyperEdge(
                e.etype, e.source, e.target, e.label[:slot] + (rng.randint(0, 50),) + e.label[slot + 1:]
            ))
        if rng.random() < 0.5:
            surrogates = rng.sample(range(len(edges)), k=len(edges))
        else:
            surrogates = [rng.randint(0, 3) for _ in edges]
        g = g.derive(edges=tuple(
            HyperEdge(e.etype, e.source, e.target, e.label, s) for e, s in zip(edges, surrogates)
        ))
        edge_type = rng.choice(["#E0", "*"])
        fn = rng.choice(["SUM", "MIN", "MAX", "COUNT", "AVG"])
        types = set(g.edge_types) if edge_type == "*" else {"#E0"}
        expected = flat_aggr(g, types, "M1", fn)
        out = aggr(g, edge_type, [("M1", fn)])
        assert [(e.etype, e.source, e.target, e.label, e.surrogate) for e in out.edges] == expected
        # saving drops the surrogates, and the result does not change
        reloaded = aggr(graphoid_from_json(graphoid_to_json(g), g.catalog), edge_type, [("M1", fn)])
        assert [(e.etype, e.source, e.target, e.label) for e in reloaded.edges] == [row[:4] for row in expected]


def table_rows(edges) -> list[tuple]:
    """(type, sorted source, sorted target, label, surrogate) per edge, in order."""
    return [(e.etype, sorted(e.source), sorted(e.target), e.label, e.surrogate) for e in edges]


def two_type_graphoid(rng: random.Random):
    """A random graphoid with exactly two edge types."""
    while True:
        catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng, max_endpoints=2)
        if len(etypes) == 2:
            return build_graphoid(catalog, ntypes, etypes, nodes, edges)


# -0.0 and ints above the small-int cache: values `==` cannot tell from a fold's
MEASURE_FLOATS = (-0.0, 0.0, 0.5, -2.25, 1e-9, 3.0)


def repr_sensitive_measure(rng: random.Random):
    return rng.randint(257, 10**6) if rng.random() < 0.5 else rng.choice(MEASURE_FLOATS)


class TestAggrReprOracle:
    """On graphs with a targeted and an untargeted edge type, and measures
    whose folds differ from them only in type or sign (an int's AVG, a
    one-member SUM of -0.0), ``aggr`` gives the flat oracle's rows by repr,
    one-member classes included."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_per_class_fold_by_repr(self, seed):
        rng = random.Random(seed)
        g = two_type_graphoid(rng)
        step = climbable_step(rng, g)
        if step is not None:
            g = climb(g, "*", step)
        g = minimize(g)

        def with_measure(e, surrogate=0):
            slot = g.edge_types[e.etype].measure_slot_of("M1")
            label = e.label[:slot] + (repr_sensitive_measure(rng),) + e.label[slot + 1:]
            return HyperEdge(e.etype, e.source, e.target, label, surrogate)

        edges = [with_measure(e) for e in g.edges]
        # copies with fresh measures grow multi-member classes
        for e in rng.sample(edges, k=len(edges) // 2):
            edges.insert(rng.randint(0, len(edges)), with_measure(e))
        g = g.derive(edges=tuple(with_measure(e, s) for s, e in enumerate(edges)))
        target = rng.choice(sorted(g.edge_types))
        fn = rng.choice(["SUM", "MIN", "MAX", "COUNT", "AVG"])
        expected = [(t, sorted(s), sorted(d), label, sur) for t, s, d, label, sur in flat_aggr(g, {target}, "M1", fn)]
        assert repr(table_rows(aggr(g, target, [("M1", fn)]).edges)) == repr(expected)


class TestClimbFlatOracle:
    """``climb`` rewrites exactly the targeted node and edge slots, each value
    rolled by the catalog's ``roller``, and keeps every other label, the
    order and the surrogates."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_per_edge_roll(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng, max_endpoints=2)
        step = climbable_step(rng, g)
        if step is None:
            return
        at_from = [name for name, slot in g.slots_of(step.dimension) if g.levels[(name, slot)] == step.from_level]
        if rng.random() < 0.5:
            targets, chosen = "*", set(at_from)
        else:
            chosen = set(rng.sample(at_from, k=rng.randint(1, len(at_from))))
            targets = sorted(chosen)
        roll = g.catalog.roller(step.dimension, step.from_level, step.to_level)

        def rolled(name: str, label: tuple) -> tuple:
            if name not in chosen:
                return label
            slot = g.type_decl(name).slot_of(step.dimension)
            return label[:slot] + (roll(label[slot]),) + label[slot + 1:]

        out = climb(g, targets, step)
        expected = [(e.etype, sorted(e.source), sorted(e.target), rolled(e.etype, e.label), e.surrogate) for e in g.edges]
        assert repr(table_rows(out.edges)) == repr(expected)
        nodes = {ident: (node.ntype, rolled(node.ntype, node.label)) for ident, node in g.nodes.items()}
        assert repr({ident: (node.ntype, node.label) for ident, node in out.nodes.items()}) == repr(nodes)
        for name in chosen:
            assert out.levels[(name, g.type_decl(name).slot_of(step.dimension))] == step.to_level


class TestEngineEdgeValues:
    """The engine builds its edges without ``HyperEdge.__init__``; what it
    returns must still be frozen, slotted ``HyperEdge`` values."""

    def results(self, base_graph, figures_catalog):
        sums = [("Duration", "SUM")]
        month = RollupStep("Time", "Day", "Month")
        operator = RollupStep("Phone", "Phone", "Operator")
        built = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], base_graph.nodes.values(), base_graph.edges,
            levels=base_graph.levels,
        )
        return {
            "build_graphoid": built,
            "graphoid_from_json": graphoid_from_json(graphoid_to_json(base_graph), figures_catalog),
            "climb": climb(base_graph, ["#Call"], month),
            "minimize": minimize(climb(base_graph, ["#Phone"], operator)),
            "aggr": aggr(climb(base_graph, ["#Call"], month), "#Call", sums),
            "n_delete": n_delete(sales_star_graph(), "#Location"),
            "edgify": edgify(base_graph, "#Phone", 1),
        }

    def test_every_edge_is_a_frozen_slotted_hyperedge(self, base_graph, figures_catalog):
        for name, g in self.results(base_graph, figures_catalog).items():
            assert g.edges, name
            for e in g.edges:
                assert type(e) is HyperEdge, name
                assert not hasattr(e, "__dict__"), name
                with pytest.raises(dataclasses.FrozenInstanceError):
                    e.label = ()
                copied = pickle.loads(pickle.dumps(e))
                assert type(copied) is HyperEdge and copied == e and copied.surrogate == e.surrogate, name
                assert hash(copied) == hash(e), name


class TestOneEdgeClasses:
    @pytest.mark.parametrize("fn", ["SUM", "MIN", "MAX", "COUNT", "AVG"])
    @pytest.mark.parametrize("value", [7, 3600, 10**30, -0.0, 2.5])
    def test_fold_like_apply_aggregate(self, figures_catalog, fn, value):
        g = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], [("#Phone", 11, "Ph1")],
            [("#Call", [11], [11], DAY(2016, 10, 10), value)],
        )
        (edge,) = aggr(g, "#Call", [("Duration", fn)]).edges
        expected = apply_aggregate(fn, [value])
        assert type(edge.label[1]) is type(expected)
        assert repr(edge.label[1]) == repr(expected)


class TestMergedClasses:
    """A class of two or three parallel edges folds like ``apply_aggregate``
    over its values in edge order, value type and sign of zero included.
    It follows a two-member class, and a one-member class's edge sits
    between its members."""

    @pytest.mark.parametrize("fn", ["SUM", "MIN", "MAX", "COUNT", "AVG"])
    @pytest.mark.parametrize("values", [
        (7, 3600), (3600, 7, 10**30), (2.5, 0.25), (0.25, 2.5, 1e-3), (-0.0, -0.0), (-0.0, -0.0, -0.0),
        (0.0, -0.0), (-0.0, 0.0, -0.0), (7, 2.5), (-0.0, 7, 2.5),
    ])
    def test_fold_like_apply_aggregate(self, figures_catalog, fn, values):
        day = DAY(2016, 10, 10)
        members = [("#Call", [11], [12], day, value) for value in values]
        lone = ("#Call", [12], [11], day, values[-1])
        before = [("#Call", [12], [12], day, 5), ("#Call", [12], [12], day, 6)]
        g = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], [("#Phone", 11, "Ph1"), ("#Phone", 12, "Ph2")],
            [*before, members[0], lone, *members[1:]],
        )
        earlier, merged, single = aggr(g, "#Call", [("Duration", fn)]).edges
        assert [(e.source, e.target) for e in (earlier, merged, single)] == [
            (frozenset({12}), frozenset({12})), (frozenset({11}), frozenset({12})), (frozenset({12}), frozenset({11}))
        ]
        for edge, class_values in ((earlier, [5, 6]), (merged, list(values)), (single, [values[-1]])):
            expected = apply_aggregate(fn, class_values)
            assert type(edge.label[1]) is type(expected)
            assert repr(edge.label[1]) == repr(expected)


def flat_rollup(data, phone_level: str, year_of, fn: str) -> dict:
    """(caller members, participant members, year) -> fn over the raw durations."""
    member = {
        pid: pid if phone_level == "PhoneId" else getattr(info, phone_level.lower())
        for pid, info in data.phones.items()
    }
    groups: dict[tuple, list] = {}
    for call in data.calls:
        key = (
            frozenset({member[call.caller]}),
            frozenset(member[p] for p in call.participants),
            year_of(call.start.date()),
        )
        groups.setdefault(key, []).append(call.duration)
    folds = {"SUM": sum, "MIN": min, "MAX": max, "COUNT": len, "AVG": lambda v: sum(v) / len(v)}
    return {key: folds[fn](values) for key, values in groups.items()}


def graph_totals(g) -> dict:
    member = {ident: node.label[1] for ident, node in g.nodes.items()}
    totals = {}
    for e in g.edges:
        key = (frozenset(member[i] for i in e.source), frozenset(member[i] for i in e.target), e.label[0])
        assert key not in totals, f"class {key!r} was not merged"
        totals[key] = e.label[1]
    return totals


class TestMultiStepFolds:
    MONTH = RollupStep("Time", "Day", "Month")
    YEAR = RollupStep("Time", "Month", "Year")

    def two_step(self, g, fn):
        pairs = [("Duration", fn)]
        monthly = roll_up(g, ["#Call"], self.MONTH, "#Call", pairs)
        return roll_up(monthly, ["#Call"], self.YEAR, "#Call", pairs)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["PhoneId", "Operator"]))
    def test_chain_equals_direct_flat_oracle(self, seed, phone_level):
        data = generate(GeneratorConfig(phone_count=12, user_count=6, call_count=120, seed=seed))
        g = data.graphoid
        if phone_level != "PhoneId":
            g = group(g, "#Phone", RollupStep("Phone", "PhoneId", phone_level))
        for fn in ("SUM", "MIN", "MAX", "COUNT"):
            assert graph_totals(self.two_step(g, fn)) == flat_rollup(data, phone_level, lambda d: d.year, fn)
        try:
            got = graph_totals(self.two_step(g, "AVG"))
        except OlapError:
            return
        assert got == flat_rollup(data, phone_level, lambda d: d.year, "AVG")

    def test_count_refolds_with_sum(self, base_graph):
        chained = self.two_step(base_graph, "COUNT")
        assert sum(e.label[1] for e in chained.edges) == len(BASE_CALLS)
        assert chained.folds == {("#Call", 1): "COUNT"}

    @pytest.mark.parametrize(
        "first, second",
        [("AVG", "AVG"), ("SUM", "AVG"), ("COUNT", "SUM"), ("SUM", "COUNT"), ("MIN", "MAX"), ("SUM", "MIN")],
    )
    def test_mixed_or_average_refold_refused(self, base_graph, first, second):
        monthly = roll_up(base_graph, ["#Call"], self.MONTH, "#Call", [("Duration", first)])
        with pytest.raises(OlapError, match=f"already holds {first} aggregates"):
            roll_up(monthly, ["#Call"], self.YEAR, "#Call", [("Duration", second)])

    def test_fold_record_survives_other_operations(self, base_graph):
        counted = roll_up(base_graph, ["#Call"], self.MONTH, "#Call", [("Duration", "COUNT")])
        diced = dice(counted, Condition.of(Atom("Duration", None, ">", 0)))
        assert diced.folds == counted.folds
        sliced = slice_out(diced, "Time", [("Duration", "COUNT")])
        assert sum(e.label[1] for e in sliced.edges) == len(BASE_CALLS)


class TestDrillDownReplay:
    def test_keeps_an_earlier_group_on_another_dimension(self):
        data = generate(GeneratorConfig(phone_count=40, user_count=20, call_count=300, seed=3))
        pairs = [("Duration", "SUM")]
        grouped = group(data.graphoid, "#Phone", RollupStep("Phone", "PhoneId", "Operator"))
        yearly = roll_up(grouped, ["#Call"], RollupStep("Time", "Day", "Year"), "#Call", pairs)
        drilled = drill_down(yearly, ["#Call"], "Time", "Month", "#Call", pairs)
        direct = roll_up(grouped, ["#Call"], RollupStep("Time", "Day", "Month"), "#Call", pairs)
        assert drilled.node_count == 4
        assert drilled.bag_equal(direct)

    def test_unreplayable_slot_refused(self, base_graph):
        moved = edgify(base_graph, "#Phone", 1)
        with pytest.raises(LineageError, match="cannot replay type #HasPhone"):
            drill_down(moved, ["#Call"], "Time", "Day", "#Call", [("Duration", "SUM")])


def out_of_domain_graph(base_graph):
    """The base graph plus one call on a day the Time dimension does not hold."""
    stray = HyperEdge("#Call", frozenset({11}), frozenset({12}), (DAY(1999, 1, 1), 3), surrogate=99)
    return base_graph.derive(edges=base_graph.edges + (stray,))


class TestOutOfDomainValues:
    MESSAGE = "dimension Time: datetime.date(1999, 1, 1) is not a member of level Day"

    def test_climb_reports_the_member(self, base_graph):
        with pytest.raises(UnknownMember) as err:
            climb(out_of_domain_graph(base_graph), ["#Call"], RollupStep("Time", "Day", "Month"))
        assert str(err.value) == self.MESSAGE

    def test_dice_reports_the_member(self, base_graph):
        cond = Condition.of(Atom("Time", "Month", "=", "2016-10"))
        with pytest.raises(UnknownMember) as err:
            dice(out_of_domain_graph(base_graph), cond)
        assert str(err.value) == self.MESSAGE

    @pytest.mark.parametrize("op", [dice, s_dice])
    def test_dice_reports_a_node_member(self, base_graph, op):
        # phone 16 holds a Phone value the dimension lacks, and no call touches it
        stray = Node("#Phone", (16, "Ph9"))
        g = base_graph.derive(nodes={**base_graph.nodes, 16: stray})
        with pytest.raises(UnknownMember) as err:
            op(g, Condition.of(Atom("Phone", "City", "=", "Salta")))
        assert str(err.value) == "dimension Phone: 'Ph9' is not a member of level Phone"


def reference_satisfies(g, edge, cond) -> bool:
    """Every atom on the edge and on each adjacent node, rolled value by value."""

    def not_false(atom, decl, label) -> bool:
        if atom.level is None:
            slot = decl.measure_slot_of(atom.dim) if isinstance(decl, EdgeTypeDecl) else None
        else:
            slot = decl.dims.index(atom.dim) if atom.dim in decl.dims else None
        if slot is None:
            return True
        target = atom.level if atom.level is not None else g.catalog.schema(atom.dim).bottom
        value = g.catalog.roll(atom.dim, g.levels[(decl.name, slot)], target, label[slot])
        result = {"=": value == atom.value, "<": value < atom.value, ">": value > atom.value}[atom.cmp]
        return result != atom.negated

    return any(
        all(
            not_false(atom, g.edge_types[edge.etype], edge.label)
            and all(not_false(atom, g.node_types[g.nodes[i].ntype], g.nodes[i].label) for i in edge.adjacency)
            for atom in clause
        )
        for clause in cond.clauses
    )


class TestCompiledConditions:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_dice_matches_per_edge_reference(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        step = climbable_step(rng, g)
        if step is not None and rng.random() < 0.5:
            g = climb(g, "*", step)
        cond = random_graph_condition(rng, g)
        try:
            edge_filter(g, cond)
        except OlapError:
            return
        expected = [e for e in g.edges if reference_satisfies(g, e, cond)]
        assert edge_bag(dice(g, cond)) == Counter((e.etype, e.source, e.target, e.label) for e in expected)
        removed = {e.adjacency for e in g.edges if not reference_satisfies(g, e, cond)}
        assert edge_bag(s_dice(g, cond)) == Counter(
            (e.etype, e.source, e.target, e.label) for e in expected if e.adjacency not in removed
        )
