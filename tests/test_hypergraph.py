"""Graph values: construction validation, bag equality, adjacency, edgify."""
from __future__ import annotations

import dataclasses
import pickle
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphoid import hypergraph
from graphoid.dims import DimensionCatalog, RollupStep, open_dimension
from graphoid.hypergraph import (
    EdgeTable,
    EdgeTypeDecl,
    Graphoid,
    GraphoidBuildError,
    HyperEdge,
    Node,
    NodeTypeDecl,
    build_graphoid,
    edgify,
    replaced,
)
from graphoid.cubes import random_catalog as cube_catalog
from graphoid.cubes import random_cube, star, unstar
from graphoid.metrics import NodeFilter, shortest_paths
from graphoid.olap import Atom, Condition, climb, dice, group, minimize, n_delete, s_dice
from graphoid.store import graphoid_to_json
from conftest import BASE_CALLS, BASE_LEVELS, BASE_NODES, CALL_DECL, PHONE_DECL
from helpers import ends_are_shared, random_graphoid_input, shuffled_build


# label values and endpoints of every kind a malformed row may hold: members,
# out-of-domain and mistyped values, and unhashable ones
ANY_VALUE = st.one_of(
    st.sampled_from(["Ph1", "Ph2", "Ph99", BASE_CALLS[0][2], 4, 2.5, None, True]),
    st.integers(-2, 20),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=1),
)
ENDPOINTS = st.one_of(
    st.lists(st.one_of(st.integers(9, 16), ANY_VALUE), max_size=3),
    st.frozensets(st.integers(9, 16), max_size=3),
    ANY_VALUE,
)
MALFORMED_NODE_ROWS = st.one_of(
    st.tuples(st.sampled_from(["#Phone", "#Call", "#Nope"]), st.one_of(st.integers(9, 20), ANY_VALUE))
    .flatmap(lambda head: st.lists(ANY_VALUE, max_size=2).map(lambda label: (*head, *label))),
    ANY_VALUE,
)
MALFORMED_EDGE_ROWS = st.one_of(
    st.tuples(st.sampled_from(["#Call", "#Phone", "#Nope"]), ENDPOINTS, ENDPOINTS)
    .flatmap(lambda head: st.lists(ANY_VALUE, max_size=3).map(lambda label: (*head, *label))),
    st.lists(ANY_VALUE, max_size=3).map(tuple),
    ANY_VALUE,
)


class TestBuildGraphoid:
    def test_figure_base_graph_builds(self, base_graph):
        assert base_graph.node_count == 5
        assert base_graph.edge_count == 6

    def test_empty_node_set_is_rejected(self, figures_catalog):
        with pytest.raises(GraphoidBuildError) as err:
            build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], [], [])
        assert any("non-empty node set required" in p for p in err.value.problems)

    def test_duplicate_identifier_rejected(self, figures_catalog):
        with pytest.raises(GraphoidBuildError) as err:
            build_graphoid(
                figures_catalog,
                [PHONE_DECL],
                [],
                [("#Phone", 11, "Ph1"), ("#Phone", 11, "Ph2")],
                [],
            )
        assert any("duplicate" in p for p in err.value.problems)

    def test_arity_mismatch_rejected(self, figures_catalog):
        with pytest.raises(GraphoidBuildError):
            build_graphoid(figures_catalog, [PHONE_DECL], [], [("#Phone", 11)], [])

    def test_value_outside_level_domain_rejected(self, figures_catalog):
        with pytest.raises(GraphoidBuildError) as err:
            build_graphoid(
                figures_catalog, [PHONE_DECL], [], [("#Phone", 11, "Ph99")], []
            )
        assert any("outside dom" in p for p in err.value.problems)

    def test_unknown_endpoint_rejected(self, figures_catalog):
        with pytest.raises(GraphoidBuildError) as err:
            build_graphoid(
                figures_catalog,
                [PHONE_DECL],
                [CALL_DECL],
                BASE_NODES,
                [("#Call", [11], [99], BASE_CALLS[0][2], 4)],
                levels=BASE_LEVELS,
            )
        assert any("is not a node" in p for p in err.value.problems)

    def test_duplicate_edges_are_both_stored(self, base_graph):
        pair = [
            e for e in base_graph.edges
            if e.source == frozenset({11}) and e.target == frozenset({12})
        ]
        assert len(pair) == 2
        assert pair[0].label == pair[1].label

    def test_both_endpoint_sets_empty_rejected(self, figures_catalog):
        with pytest.raises(GraphoidBuildError):
            build_graphoid(
                figures_catalog,
                [PHONE_DECL],
                [CALL_DECL],
                BASE_NODES,
                [("#Call", [], [], BASE_CALLS[0][2], 4)],
                levels=BASE_LEVELS,
            )

    def test_equal_endpoint_sets_share_one_object(self, base_graph):
        assert ends_are_shared(base_graph)

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_random_builds_share_endpoint_sets(self, seed):
        rng = random.Random(seed)
        catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng, max_endpoints=2)
        g = build_graphoid(catalog, ntypes, etypes, nodes, edges)
        assert ends_are_shared(g)
        # edges given with a fresh copy of every set come out shared too
        copies = [HyperEdge(e.etype, frozenset([*e.source]), frozenset([*e.target]), e.label) for e in g.edges]
        again = build_graphoid(catalog, ntypes, etypes, g.nodes.values(), copies)
        assert ends_are_shared(again) and again == g

    @pytest.mark.parametrize("ident", [11.0, 12.0, True, 1.0])
    def test_non_int_endpoint_refused(self, figures_catalog, ident):
        # node 1 makes True and 1.0 equal to a node id, as 11.0 and 12.0 are
        nodes = [*BASE_NODES, ("#Phone", 1, "Ph5")]
        day = BASE_CALLS[0][2]
        for rows in (
            [("#Call", [ident], [13], day, 4)],
            [("#Call", [13], [ident, 14], day, 4)],
            # an equal int set first: the refusal does not depend on row order
            [("#Call", [int(ident)], [13], day, 4), ("#Call", [ident], [13], day, 4)],
            [("#Call", frozenset({int(ident)}), [13], day, 4), ("#Call", frozenset({ident}), [13], day, 4)],
        ):
            with pytest.raises(GraphoidBuildError) as err:
                build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], nodes, rows, levels=BASE_LEVELS)
            assert err.value.problems == [
                f"edge #Call ({day!r}, 4): endpoint {ident!r} is not an integer"
            ]

    def test_unhashable_value_at_a_closed_level_is_reported(self, figures_catalog):
        nodes = [("#Phone", 1, "Ph1"), ("#Phone", 2, "Ph2")]
        with pytest.raises(GraphoidBuildError) as err:
            build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], nodes, [("#Call", [1], [2], ["x"], 5)])
        assert err.value.problems == ["edge #Call (['x'], 5): slot 0 value ['x'] outside dom(Time.Day)"]
        with pytest.raises(GraphoidBuildError) as err:
            build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], [*nodes, ("#Phone", 99, [1])], [])
        assert err.value.problems == ["node (99, [1]): slot 1 value [1] outside dom(Phone.Phone)"]

    @given(
        keep_base=st.booleans(),
        nodes=st.lists(MALFORMED_NODE_ROWS, max_size=4),
        edges=st.lists(MALFORMED_EDGE_ROWS, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_rows_are_reported(self, figures_catalog, keep_base, nodes, edges):
        nodes = [*BASE_NODES, *nodes] if keep_base else nodes
        try:
            g = build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], nodes, edges, levels=BASE_LEVELS)
        except GraphoidBuildError as err:
            assert err.problems and all(err.problems)
        else:
            assert g.edge_count == len(edges)

    @given(nodes=st.lists(MALFORMED_NODE_ROWS, max_size=4), keep_base=st.booleans(), at=st.integers(0, 9))
    @example(nodes=[("#Phone", 12, "Ph1")], keep_base=True, at=3)  # an id held twice
    @example(nodes=[("#Phone", 16, "Ph1"), ("#Phone", 9, "Ph3")], keep_base=True, at=2)  # ids out of order
    @example(nodes=[("#Phone", True, "Ph1")], keep_base=True, at=0)  # a bool id
    @example(nodes=[["#Phone", 16, "Ph1"], Node("#Phone", (17, "Ph2"))], keep_base=True, at=1)  # a Node row
    @settings(max_examples=300, deadline=None)
    def test_node_column_pass_agrees_with_the_per_row_check(self, figures_catalog, nodes, keep_base, at):
        # the same report, or the same node table, with the column pass off
        rows = list(BASE_NODES) if keep_base else []
        for row in nodes:
            rows.insert(at % (len(rows) + 1), row)

        def outcome():
            try:
                g = build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], rows, [], levels=BASE_LEVELS)
            except GraphoidBuildError as err:
                return ("refused", err.problems)
            return ("built", g.node_table, list(g.node_table))

        by_columns = outcome()
        with mock.patch.object(hypergraph, "_checked_nodes", return_value=None):
            assert outcome() == by_columns

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_valid_node_rows_are_checked_a_column_at_a_time(self, seed):
        # list and tuple rows in any order build the table of the per-row check, which never runs
        rng = random.Random(seed)
        catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng)
        rows = [list(row) if rng.random() < 0.5 else row for row in nodes]
        rng.shuffle(rows)
        with mock.patch.object(hypergraph, "_report_node_rows", side_effect=AssertionError("per-row check ran")):
            g = build_graphoid(catalog, ntypes, etypes, rows, edges)
        # a Node row is read by the per-row check
        per_row = build_graphoid(catalog, ntypes, etypes, [Node(row[0], tuple(row[1:])) for row in rows], edges)
        assert g.node_table == per_row.node_table and list(g.node_table) == list(per_row.node_table)
        assert g == per_row

    def test_edge_rows_keep_input_order_per_type(self, figures_catalog):
        calls = [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS]
        ends = [(frozenset(call[1]), frozenset(call[2])) for call in calls]

        def type_rows(g, kind):
            rows = g.edge_table.types[kind]
            at = g.edge_table.sets.__getitem__
            return list(zip(map(at, rows.sources), map(at, rows.targets))), rows.columns

        one = build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL], BASE_NODES, calls, levels=BASE_LEVELS)
        assert type_rows(one, "#Call") == (ends, tuple(zip(*(call[3:] for call in calls))))
        # a second edge type's rows interleaved: each type keeps its own rows in their order
        other = EdgeTypeDecl("#Other", ())
        mixed = [row for call in calls for row in (call, ("#Other", call[2], call[1]))]
        two = build_graphoid(figures_catalog, [PHONE_DECL], [CALL_DECL, other], BASE_NODES, mixed, levels=BASE_LEVELS)
        assert type_rows(two, "#Call") == type_rows(one, "#Call")
        assert type_rows(two, "#Other") == ([(t, s) for s, t in ends], ())

    def test_default_levels_are_bottoms(self, figures_catalog):
        g = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], BASE_NODES,
            [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS],
        )
        assert g.levels[("#Phone", 0)] == "Id"
        assert g.levels[("#Phone", 1)] == "Phone"
        assert g.levels[("#Call", 0)] == "Day"
        assert g.levels[("#Call", 1)] == "Duration"


class TestHyperEdge:
    def test_value_semantics(self):
        e = HyperEdge("#E", frozenset({1}), frozenset({2, 3}), (4, "x"), surrogate=7)
        assert [f.name for f in dataclasses.fields(e)] == ["etype", "source", "target", "label", "surrogate"]
        same = HyperEdge("#E", frozenset({1}), frozenset({3, 2}), (4, "x"), surrogate=8)
        assert e == same and hash(e) == hash(same)
        assert e != HyperEdge("#E", frozenset({1}), frozenset({2}), (4, "x"), surrogate=7)
        copied = pickle.loads(pickle.dumps(e))
        assert copied == e and copied.surrogate == 7
        assert not hasattr(e, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.label = (5, "x")


def fresh_graph(catalog):
    return build_graphoid(
        catalog, [PHONE_DECL], [CALL_DECL], BASE_NODES,
        [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS], levels=BASE_LEVELS,
    )


INIT_FIELDS = [f.name for f in dataclasses.fields(Graphoid) if f.init]


def assert_same_fields(got: Graphoid, expected: Graphoid) -> None:
    assert type(got) is Graphoid
    for name in INIT_FIELDS:
        if name in ("catalog", "base"):
            assert getattr(got, name) is getattr(expected, name), name
        else:
            assert getattr(got, name) == getattr(expected, name), name
            assert type(getattr(got, name)) is type(getattr(expected, name)), name
    assert got._indexes == {}


class TestGraphValueConstructors:
    """``derive``, ``replaced`` and ``build_graphoid`` build graph values
    without the frozen ``__init__``; each must equal what it replaces."""

    CHANGES = [
        {},
        {"tainted": True},
        {"folds": {("#Call", 1): "SUM"}},
        {"edges": ()},
        {"nodes": {}, "levels": {("#Phone", 0): "Id"}},
        {"base": None},
    ]

    @pytest.mark.parametrize("changes", CHANGES, ids=lambda c: ",".join(c) or "none")
    def test_derive_equals_replace(self, figures_catalog, changes):
        root = fresh_graph(figures_catalog)
        child = dataclasses.replace(root, base=root, tainted=True, folds={("#Call", 1): "MAX"})
        for g in (root, child):
            g.indexed("probe", lambda value: object())
            lineage = g.base if g.base is not None else g
            got = g.derive(**changes)
            assert_same_fields(got, dataclasses.replace(g, **{"base": lineage, **changes}))
            assert got._indexes is not g._indexes and "probe" in g._indexes
            assert got.indexed("probe", lambda value: "own") == "own"

    def test_replaced_equals_dataclasses_replace(self, figures_catalog):
        g = fresh_graph(figures_catalog)
        for changes in self.CHANGES:
            assert_same_fields(replaced(g, **changes), dataclasses.replace(g, **changes))
        assert replaced(g).base is None

    def test_unknown_field_refused(self, figures_catalog):
        g = fresh_graph(figures_catalog)
        for call in (lambda: g.derive(colour="red"), lambda: replaced(g, colour="red"), lambda: g.derive(_indexes={})):
            with pytest.raises(TypeError):
                call()

    def test_given_edges_are_kept_as_a_table_with_shared_sets(self, figures_catalog):
        g = fresh_graph(figures_catalog)
        # a fresh copy of every endpoint set: equal sets, distinct objects
        copies = tuple(HyperEdge(e.etype, frozenset([*e.source]), frozenset([*e.target]), e.label, e.surrogate) for e in g.edges)
        assert len({id(ids) for e in copies for ids in (e.source, e.target)}) == 2 * len(copies)
        public = Graphoid(figures_catalog, g.node_types, g.edge_types, g.nodes, copies, g.levels)
        streamed = Graphoid(figures_catalog, g.node_types, g.edge_types, g.nodes, iter(copies), g.levels)
        for value in (public, streamed, g.derive(edges=copies), replaced(g, edges=list(copies))):
            assert "edges" not in vars(value) and value.edge_count == len(copies)
            assert value.edges == copies and ends_are_shared(value)

    def test_built_value_equals_the_public_constructor(self, figures_catalog):
        g = fresh_graph(figures_catalog)
        public = Graphoid(figures_catalog, g.node_types, g.edge_types, g.nodes, g.edges, g.levels)
        assert_same_fields(g, public)
        assert g.folds == {} and g.folds is not fresh_graph(figures_catalog).folds
        assert g == public and repr(g) == repr(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.tainted = True

    def test_repr_builds_no_edge_objects(self, figures_catalog):
        g = fresh_graph(figures_catalog)
        assert "edges" not in vars(g)
        text = repr(g)
        assert "edges" not in vars(g) and "HyperEdge" not in text


class TestNode:
    def test_value_semantics(self):
        n = Node("#Phone", (11, "Ph1"))
        assert [f.name for f in dataclasses.fields(n)] == ["ntype", "label"]
        assert n.ident == 11
        assert n == Node("#Phone", (11, "Ph1")) and hash(n) == hash(("#Phone", (11, "Ph1")))
        assert n != Node("#Phone", (11, "Ph2"))
        assert repr(n) == "Node(ntype='#Phone', label=(11, 'Ph1'))"
        assert not hasattr(n, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            n.label = (11, "Ph2")
        copied = pickle.loads(pickle.dumps(n))
        assert type(copied) is Node and copied == n and hash(copied) == hash(n)

    def test_engine_nodes_are_plain_nodes(self, figures_catalog):
        g = fresh_graph(figures_catalog)
        rolled = climb(g, ["#Phone"], RollupStep("Phone", "Phone", "Customer"))
        for node in (*g.nodes.values(), *rolled.nodes.values(), *edgify(g, "#Phone", 1).nodes.values()):
            assert type(node) is Node and not hasattr(node, "__dict__")
            copied = pickle.loads(pickle.dumps(node))
            assert copied == node and hash(copied) == hash(Node(node.ntype, node.label))
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.ntype = "#Other"


def two_type_graph(catalog):
    """The base call graph plus two users that no call touches; a new value on every call."""
    return build_graphoid(
        catalog, [PHONE_DECL, NodeTypeDecl("#User", ("Id",))], [CALL_DECL],
        BASE_NODES + [("#User", 21), ("#User", 22)],
        [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS], levels=BASE_LEVELS,
    )


class TestNodeTable:
    def test_no_operator_or_reader_builds_the_node_view(self, figures_catalog):
        operator = RollupStep("Phone", "Phone", "Operator")
        salta = Condition.of(Atom("Phone", "City", "=", "Salta"))
        phones = NodeFilter("#Phone")
        runs = {
            "climb": lambda g: climb(g, ["#Phone"], operator),
            "minimize": minimize,  # contracts the two users, whose type has no slot but Id
            "group": lambda g: group(g, "#Phone", operator),
            "dice": lambda g: dice(g, salta),
            "s_dice": lambda g: s_dice(g, salta),
            "n_delete": lambda g: n_delete(g, "#Phone"),
            "edgify": lambda g: edgify(g, "#Phone", 1),
            "shortest_paths": lambda g: shortest_paths(g, phones, phones),
            "graphoid_to_json": graphoid_to_json,
        }
        for name, run in runs.items():
            g = two_type_graph(figures_catalog)
            out = run(g)
            assert "nodes" not in vars(g), name
            if isinstance(out, Graphoid):
                assert "nodes" not in vars(out), name
        g = star(random_cube(random.Random(5), cube_catalog(random.Random(5))))
        unstar(g)
        assert "nodes" not in vars(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_table_is_canonical(self, seed):
        rng = random.Random(seed)
        catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng)
        g = build_graphoid(catalog, ntypes, etypes, nodes, edges)
        in_any_order = list(g.nodes.items())
        rng.shuffle(in_any_order)
        in_any_order = dict(in_any_order)
        values = (
            shuffled_build(rng, catalog, ntypes, etypes, nodes, edges),
            Graphoid(catalog, g.node_types, g.edge_types, in_any_order, g.edges, g.levels),
            g.derive(nodes=in_any_order),
            replaced(g, nodes=in_any_order),
        )
        assert list(g.nodes) == sorted(g.nodes)
        assert g.nodes == {row[1]: Node(row[0], tuple(row[1:])) for row in nodes}
        for value in values:
            assert value.node_table == g.node_table
            assert list(value.node_table) == list(g.node_table)
            assert all(list(rows.ids) == sorted(rows.ids) for rows in value.node_table.values())
            assert list(value.nodes.items()) == list(g.nodes.items())


class TestAdjacency:
    def test_group_call_adjacency(self, base_graph):
        edge = next(e for e in base_graph.edges if e.target == frozenset({12, 15}))
        assert edge.adjacency == frozenset({12, 13, 15})

    def test_empty_source(self):
        e = HyperEdge("#E", frozenset(), frozenset({1, 2, 3}), ())
        assert e.adjacency == frozenset({1, 2, 3})

    def test_self_loop_collapses(self):
        e = HyperEdge("#E", frozenset({1}), frozenset({1}), ())
        assert e.adjacency == frozenset({1})


class TestBagEquality:
    @given(st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_input_permutation_gives_equal_graphoid(self, seed):
        rng = random.Random(seed)
        catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng)
        g1 = build_graphoid(catalog, ntypes, etypes, nodes, edges)
        g2 = shuffled_build(rng, catalog, ntypes, etypes, nodes, edges)
        assert g1 == g2

    def test_extra_duplicate_breaks_equality(self, figures_catalog):
        rows = [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS]
        g1 = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], BASE_NODES, rows, levels=BASE_LEVELS
        )
        g2 = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], BASE_NODES, rows + rows[-1:],
            levels=BASE_LEVELS,
        )
        assert g1 != g2

    def test_level_map_participates_in_equality(self, base_graph, figures_catalog):
        climbedlike = build_graphoid(
            figures_catalog, [PHONE_DECL], [CALL_DECL], BASE_NODES,
            [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS],
            levels=BASE_LEVELS,
        )
        assert climbedlike == base_graph


def billing_graph():
    """One phone node carrying an open-dimension billing slot."""
    from graphoid.dims import DimensionInstance, DimensionSchema, Level

    phone_schema = DimensionSchema(
        "Phone", (Level("Phone"), Level("All", ordered=False)), (("Phone", "All"),)
    )
    phone = DimensionInstance.build(phone_schema, {"Phone": {"Ph1", "Ph2"}})
    catalog = DimensionCatalog.of(phone, open_dimension("ExpectedBill", "decimal"))
    decl = NodeTypeDecl("#Phone", ("Id", "Phone", "ExpectedBill"))
    return catalog, decl, build_graphoid(
        catalog,
        [decl],
        [],
        [("#Phone", 11, "Ph1", 880), ("#Phone", 12, "Ph2", 120)],
        [],
    )


class TestEdgify:
    def test_slot_moves_to_new_edge(self):
        _, _, g = billing_graph()
        out = edgify(g, "#Phone", 2)
        assert out.nodes[11].label == (11, "Ph1", "all")
        assert out.levels[("#Phone", 2)] == "All"
        bill_edges = [e for e in out.edges if e.etype == "#HasExpectedBill"]
        assert sorted((min(e.target), e.label) for e in bill_edges) == [
            (11, (880,)),
            (12, (120,)),
        ]
        assert all(e.source == frozenset() for e in bill_edges)
        assert out.levels[("#HasExpectedBill", 0)] == "ExpectedBill"

    def test_new_edges_share_endpoint_sets(self, base_graph):
        _, _, g = billing_graph()
        assert ends_are_shared(edgify(g, "#Phone", 2))
        # the new single-target sets are the ones the calls already hold
        assert ends_are_shared(edgify(base_graph, "#Phone", 1))

    def test_appends_rows_to_the_table(self, base_graph):
        out = edgify(base_graph, "#Phone", 1)
        assert "edges" not in vars(out)
        table = out.edge_table
        assert out.edges[: base_graph.edge_count] == base_graph.edges
        assert table.types["#Call"] == base_graph.edge_table.types["#Call"]
        assert [(e.etype, e.source, e.target, e.label) for e in out.edges[base_graph.edge_count:]] == [
            ("#HasPhone", frozenset(), frozenset({ident}), (f"Ph{ident - 10}",)) for ident in range(11, 16)
        ]
        assert len(table.sets) == len(set(table.sets))

    def test_a_second_node_type_appends_to_the_type_rows(self):
        catalog, phone_decl, _ = billing_graph()
        g = build_graphoid(
            catalog,
            [phone_decl, NodeTypeDecl("#Pager", ("Id", "ExpectedBill"))],
            [],
            [("#Phone", 11, "Ph1", 880), ("#Phone", 12, "Ph2", 120), ("#Pager", 13, 45)],
            [],
        )
        # the same dimension edgified from two node types, another edgified type between them
        out = edgify(edgify(edgify(g, "#Phone", 2), "#Phone", 1), "#Pager", 1)
        table = out.edge_table
        assert list(table.types) == ["#HasExpectedBill", "#HasPhone"]
        bills = table.types["#HasExpectedBill"]
        assert bills.columns == ((880, 120, 45),)
        assert [table.sets[i] for i in bills.targets] == [frozenset({11}), frozenset({12}), frozenset({13})]
        assert [(e.etype, min(e.target)) for e in out.edges] == [
            ("#HasExpectedBill", 11), ("#HasExpectedBill", 12), ("#HasExpectedBill", 13), ("#HasPhone", 11), ("#HasPhone", 12),
        ]
        assert table == EdgeTable.of(out.edges)

    def test_preserves_node_count_and_adds_one_edge_per_node(self):
        _, _, g = billing_graph()
        out = edgify(g, "#Phone", 2)
        assert out.node_count == g.node_count
        assert out.edge_count == g.edge_count + g.node_count

    def test_second_application_is_identity(self):
        _, _, g = billing_graph()
        once = edgify(g, "#Phone", 2)
        twice = edgify(once, "#Phone", 2)
        assert twice == once

    def test_zero_nodes_of_type_registers_empty_edge_type(self, figures_catalog):
        g = build_graphoid(
            figures_catalog,
            [PHONE_DECL, NodeTypeDecl("#Ghost", ("Id", "Duration"))],
            [],
            BASE_NODES,
            [],
        )
        out = edgify(g, "#Ghost", 1)
        assert "#HasDuration" in out.edge_types
        assert out.edge_count == 0

    def test_slot_zero_is_rejected(self):
        _, _, g = billing_graph()
        with pytest.raises(Exception):
            edgify(g, "#Phone", 0)
