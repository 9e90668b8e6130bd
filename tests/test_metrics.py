"""Co-occurrence projection, shortest paths, and grouped measure averages."""
from __future__ import annotations

import dataclasses
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE_CALLS, BASE_LEVELS, BASE_NODES, CALL_DECL, DAY, PHONE_DECL
from graphoid import metrics, store
from graphoid.cubes import random_catalog
from graphoid.dims import RollupStep
from graphoid.hypergraph import EdgeTypeDecl, GraphoidError, NodeTypeDecl, build_graphoid
from graphoid.metrics import (
    NodeFilter,
    PathResult,
    adjacency_projection,
    group_average,
    path_results_to_csv,
    path_results_to_rows,
    shortest_paths,
)
from graphoid.olap import Atom, Condition, climb, dice, n_delete, roll_up, slice_out
from helpers import climbable_step, cooccurrence_pairs, floyd_warshall, random_graphoid, smallest_shortest_paths

PHONES = NodeFilter("#Phone")


def operator_filter(name: str) -> NodeFilter:
    return NodeFilter("#Phone", Condition.of(Atom("Phone", "Operator", "=", name)))


def expected_projection() -> dict[int, tuple[int, ...]]:
    neighbors: dict[int, set[int]] = {i: set() for i in range(11, 16)}
    for s, t, _, _ in BASE_CALLS:
        for u, v in itertools.combinations(sorted(set(s + t)), 2):
            neighbors[u].add(v)
            neighbors[v].add(u)
    return {i: tuple(sorted(ns)) for i, ns in neighbors.items()}


class TestAdjacencyProjection:
    def test_base_graph(self, base_graph):
        assert adjacency_projection(base_graph) == expected_projection()

    def test_named_edge_type_matches_wildcard_here(self, base_graph):
        assert adjacency_projection(base_graph, ["#Call"]) == adjacency_projection(base_graph)

    def test_isolated_nodes_get_empty_tuples(self, base_graph):
        survivors_only = dice(base_graph, Condition.of(Atom("Duration", None, ">", 8)))
        adj = adjacency_projection(survivors_only)
        assert adj[11] == () and adj[14] == ()
        assert adj[12] == (13, 15) and adj[13] == (12, 15) and adj[15] == (12, 13)

    def test_unknown_edge_type_refused(self, base_graph):
        with pytest.raises(GraphoidError, match="unknown edge type"):
            adjacency_projection(base_graph, ["#Text"])


class TestShortestPaths:
    def test_from_first_phone(self, base_graph):
        source = NodeFilter("#Phone", Condition.of(Atom("Phone", "Phone", "=", "Ph1")))
        results = shortest_paths(base_graph, source, PHONES)
        assert results == (
            PathResult(11, 12, 1, (11, 12)),
            PathResult(11, 13, 2, (11, 12, 13)),
            PathResult(11, 14, 3, (11, 12, 13, 14)),
            PathResult(11, 15, 2, (11, 12, 15)),
        )

    def test_witness_is_lexicographically_smallest(self, base_graph):
        source = NodeFilter("#Phone", Condition.of(Atom("Phone", "Phone", "=", "Ph1")))
        results = shortest_paths(base_graph, source, PHONES)
        to14 = next(r for r in results if r.target == 14)
        # (11, 12, 13, 14) and (11, 12, 15, 14) are both shortest; the first wins
        assert to14.path == (11, 12, 13, 14)

    def test_operator_filters_select_endpoints(self, base_graph):
        results = shortest_paths(base_graph, operator_filter("Movistar"), operator_filter("Vodafone"))
        assert [(r.source, r.target, r.hops) for r in results] == [
            (13, 12, 1),
            (13, 14, 1),
            (15, 12, 1),
            (15, 14, 1),
        ]

    def test_both_filters_read_one_node_view(self, base_graph):
        results = shortest_paths(base_graph, operator_filter("Movistar"), operator_filter("Vodafone"))
        assert {(r.source, r.target) for r in results} == {(13, 12), (13, 14), (15, 12), (15, 14)}

    def test_unreachable_pairs_get_minus_one(self, base_graph):
        survivors_only = dice(base_graph, Condition.of(Atom("Duration", None, ">", 8)))
        source = NodeFilter("#Phone", Condition.of(Atom("Phone", "Phone", "=", "Ph1")))
        results = shortest_paths(survivors_only, source, PHONES)
        assert all(r.hops == -1 and r.path == () for r in results)
        assert not results[0].reachable

    def test_same_node_pairs_are_skipped(self, base_graph):
        results = shortest_paths(base_graph, PHONES, PHONES)
        assert len(results) == 20
        assert all(r.source != r.target for r in results)

    def test_filter_dimension_must_exist(self, base_graph):
        bad = NodeFilter("#Phone", Condition.of(Atom("Weight", "All", "=", "all")))
        with pytest.raises(GraphoidError, match="unknown dimension"):
            shortest_paths(base_graph, bad, PHONES)

    def test_filter_dimension_must_be_on_type(self, base_graph):
        bad = NodeFilter("#Phone", Condition.of(Atom("Time", "Year", "=", 2016)))
        with pytest.raises(GraphoidError, match="absent from node type"):
            shortest_paths(base_graph, bad, PHONES)

    def test_filter_on_a_type_without_nodes_selects_none(self, figures_catalog):
        empty = NodeTypeDecl("#Handset", ("Id", "Phone"))
        g = build_graphoid(figures_catalog, [PHONE_DECL, empty], [CALL_DECL], BASE_NODES, [], levels=BASE_LEVELS)
        flt = NodeFilter("#Handset", Condition.of(Atom("Phone", "Operator", "=", "Movistar")))
        assert len(shortest_paths(g, flt, PHONES)) == 0

    def test_filter_level_must_be_at_or_above_stored(self, base_graph, operator_graph):
        flt = NodeFilter("#Phone", Condition.of(Atom("Phone", "Phone", "=", "Ph1")))
        with pytest.raises(GraphoidError, match="below the stored level"):
            shortest_paths(operator_graph, flt, PHONES)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_hop_counts_match_floyd_warshall(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        idents = sorted(g.nodes)
        pairs = cooccurrence_pairs(e.adjacency for e in g.edges)
        oracle = floyd_warshall(idents, pairs)
        adj = adjacency_projection(g)
        ntype = g.nodes[idents[0]].ntype
        flt = NodeFilter(ntype)
        for r in shortest_paths(g, flt, flt):
            assert r.hops == oracle[(r.source, r.target)]
            if r.hops >= 0:
                assert len(r.path) == r.hops + 1
                assert r.path[0] == r.source and r.path[-1] == r.target
                assert len(set(r.path)) == len(r.path)
                assert all(v in adj[u] for u, v in zip(r.path, r.path[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_hop_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        ntype = g.nodes[sorted(g.nodes)[0]].ntype
        flt = NodeFilter(ntype)
        hops = {(r.source, r.target): r.hops for r in shortest_paths(g, flt, flt)}
        assert all(hops[(t, s)] == h for (s, t), h in hops.items())


USER_DECL = NodeTypeDecl("#User", ("Id",))
TEXT_DECL = EdgeTypeDecl("#Text", ("Time", "Duration"), measures=((1, "SUM"),))

# (user, phone, day, length): users 21 and 22 text phones, so 11 and 14 are two hops apart over #Text
TEXTS = [(21, 11, DAY(2016, 10, 10), 1), (21, 14, DAY(2016, 10, 12), 1), (22, 13, DAY(2016, 11, 1), 1)]


def texting_graph(catalog):
    """The base call graph plus two users texting phones; a new value on every call."""
    return build_graphoid(
        catalog,
        [PHONE_DECL, USER_DECL],
        [CALL_DECL, TEXT_DECL],
        BASE_NODES + [("#User", 21), ("#User", 22)],
        [("#Call", s, t, d, dur) for s, t, d, dur in BASE_CALLS]
        + [("#Text", [u], [p], d, n) for u, p, d, n in TEXTS],
        levels=BASE_LEVELS,
    )


def count_builds(monkeypatch) -> list[frozenset[str]]:
    """The edge-type sets of every index ``metrics._build_bitsets`` builds from now on."""
    builds: list[frozenset[str]] = []
    build = metrics._build_bitsets

    def counted(g, types):
        builds.append(types)
        return build(g, types)

    monkeypatch.setattr(metrics, "_build_bitsets", counted)
    return builds


def flat_hops(g) -> dict[tuple[int, int], int]:
    return floyd_warshall(sorted(g.nodes), cooccurrence_pairs(e.adjacency for e in g.edges))


DERIVATIONS = {
    "dice": lambda g: dice(g, Condition.of(Atom("Duration", None, ">", 8))),
    "n_delete": lambda g: n_delete(g, "#User"),
    "roll_up": lambda g: roll_up(
        g, ["#Phone"], RollupStep("Phone", "Phone", "Operator"), "#Call", [("Duration", "SUM")]
    ),
}


class TestProjectionIndex:
    def test_two_path_queries_build_it_once(self, figures_catalog, monkeypatch):
        builds = count_builds(monkeypatch)
        g = texting_graph(figures_catalog)
        first = shortest_paths(g, PHONES, PHONES)
        assert shortest_paths(g, PHONES, PHONES) == first
        assert adjacency_projection(g)[11] == (12, 21)
        assert builds == [frozenset({"#Call", "#Text"})]

    def test_wildcard_omitted_and_full_list_share_one_entry(self, figures_catalog, monkeypatch):
        builds = count_builds(monkeypatch)
        g = texting_graph(figures_catalog)
        every = [shortest_paths(g, PHONES, PHONES, via) for via in ("*", None, ["#Text", "#Call"])]
        every.append(shortest_paths(g, PHONES, PHONES))
        assert all(rows == every[0] for rows in every)
        calls_only = shortest_paths(g, PHONES, PHONES, ["#Call"])
        assert shortest_paths(g, PHONES, PHONES, "#Call") == calls_only
        assert builds == [frozenset({"#Call", "#Text"}), frozenset({"#Call"})]
        hops = {(r.source, r.target): r.hops for r in every[0]}
        assert hops[(11, 14)] == 2
        assert next(r for r in calls_only if (r.source, r.target) == (11, 14)).hops == 3

    @pytest.mark.parametrize("derivation", sorted(DERIVATIONS))
    def test_derived_value_answers_for_its_own_edges(self, figures_catalog, derivation):
        derive = DERIVATIONS[derivation]
        parent = texting_graph(figures_catalog)
        before = shortest_paths(parent, PHONES, PHONES)
        adjacency_projection(parent, ["#Call"])
        child = derive(parent)
        rows = shortest_paths(child, PHONES, PHONES)
        assert rows != before
        assert rows == shortest_paths(derive(texting_graph(figures_catalog)), PHONES, PHONES)
        hops = flat_hops(child)
        assert all(r.hops == hops[(r.source, r.target)] for r in rows)
        assert adjacency_projection(child, ["#Call"]) == adjacency_projection(
            derive(texting_graph(figures_catalog)), ["#Call"]
        )

    def test_unknown_edge_type_refused_when_warm(self, figures_catalog):
        g = texting_graph(figures_catalog)
        shortest_paths(g, PHONES, PHONES)
        adjacency_projection(g, ["#Call"])
        for call in (
            lambda: shortest_paths(g, PHONES, PHONES, ["#Call", "#Fax"]),
            lambda: adjacency_projection(g, ["#Fax"]),
            lambda: group_average(g, ["#Fax"], 2, "Duration"),
        ):
            with pytest.raises(GraphoidError, match="unknown edge type '#Fax'"):
                call()

    def test_mutating_a_returned_projection_changes_nothing(self, figures_catalog):
        g = texting_graph(figures_catalog)
        adj = adjacency_projection(g)
        expected = dict(adj)
        before = shortest_paths(g, PHONES, PHONES)
        adj[11] = (12, 13, 14, 15)
        del adj[12]
        adj.clear()
        assert adjacency_projection(g) == expected
        assert shortest_paths(g, PHONES, PHONES) == before

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_flat_pairs_for_every_type_subset(self, seed):
        def build():
            return random_graphoid(random.Random(seed), max_edge_types=3, max_endpoints=4)

        g = build()
        names = sorted(g.edge_types)
        subsets = [list(c) for r in range(1, len(names) + 1) for c in itertools.combinations(names, r)]
        flt = NodeFilter(g.nodes[min(g.nodes)].ntype)
        cold = {tuple(via): shortest_paths(build(), flt, flt, via) for via in subsets}
        for via in subsets:
            adj = adjacency_projection(g, via)
            pairs = cooccurrence_pairs(e.adjacency for e in g.edges if e.etype in via)
            assert {(u, v) for u, ns in adj.items() for v in ns if u < v} == pairs
            assert list(adj) == sorted(g.nodes)
            hops = floyd_warshall(sorted(g.nodes), pairs)
            warm = shortest_paths(g, flt, flt, via)
            assert warm == cold[tuple(via)]
            assert all(r.hops == hops[(r.source, r.target)] for r in warm)


def dense_store_graph(rng: random.Random):
    """A generated call graph of at most 16 phones with up to five calls per phone."""
    phones = rng.randint(4, 16)
    config = store.GeneratorConfig(
        phone_count=phones,
        user_count=rng.randint(1, phones),
        call_count=rng.randint(phones, 5 * phones),
        max_group_size=3,
        seed=rng.randrange(10**6),
    )
    return store.generate(config).graphoid


def two_dense_components(rng: random.Random):
    """A large and a small component, each pair inside one joined with probability 0.7."""
    big, small = rng.randint(5, 14), rng.randint(2, 5)
    ids = rng.sample(range(1, 100), big + small)
    parts = (ids[:big], ids[big:])
    edges = [
        ("#E0", [u], [v], 1)
        for part in parts
        for u, v in itertools.combinations(part, 2)
        if rng.random() < 0.7
    ]
    return build_graphoid(
        random_catalog(rng),
        [NodeTypeDecl("#N0", ("Id",))],
        [EdgeTypeDecl("#E0", ("M1",), measures=((0, "SUM"),))],
        [("#N0", i) for i in ids],
        edges,
    )


GRAPH_KINDS = {"sparse": random_graphoid, "dense": dense_store_graph, "two components": two_dense_components}


class TestWitnessOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GRAPH_KINDS)), st.integers(0, 10**9))
    def test_witness_is_smallest_enumerated_shortest_path(self, kind, seed):
        rng = random.Random(seed)
        g = GRAPH_KINDS[kind](rng)
        nodes = sorted(g.nodes)
        expected = smallest_shortest_paths(nodes, cooccurrence_pairs(e.adjacency for e in g.edges))
        flt = NodeFilter(g.nodes[nodes[0]].ntype)
        ends = [i for i in nodes if g.nodes[i].ntype == flt.ntype]
        results = shortest_paths(g, flt, flt)
        assert [(r.source, r.target) for r in results] == [(s, t) for s in ends for t in ends if s != t]
        assert all((r.hops, r.path) == expected[(r.source, r.target)] for r in results)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(GRAPH_KINDS)),
        st.sampled_from(["overlapping", "disjoint", "no sources", "no targets"]),
        st.integers(0, 10**9),
    )
    def test_source_and_target_subsets_pair_like_the_oracle(self, kind, shape, seed):
        rng = random.Random(seed)
        g = GRAPH_KINDS[kind](rng)
        nodes = sorted(g.nodes)
        ntype = g.nodes[nodes[0]].ntype
        ends = [i for i in nodes if g.nodes[i].ntype == ntype]
        shuffled = rng.sample(ends, len(ends))
        cut = rng.randint(0, len(ends))
        some = rng.sample(ends, rng.randint(1, len(ends)))
        sources, targets = {
            "overlapping": (shuffled[:cut] + some, shuffled[cut:] + some),
            "disjoint": (shuffled[:cut], shuffled[cut:]),
            "no sources": ([], some),
            "no targets": (some, []),
        }[shape]
        sources, targets = sorted(set(sources)), sorted(set(targets))
        rows = shortest_paths(g, id_filter(ntype, sources), id_filter(ntype, targets))
        assert as_rows(rows) == expected_witnesses(g, sources, targets)


def id_filter(ntype: str, ids: list[int]) -> NodeFilter:
    """Selects exactly the nodes ``ids`` of ``ntype``, one clause per id; no ids select none."""
    return NodeFilter(ntype, Condition(tuple((Atom("Id", "Id", "=", i),) for i in ids)))


def expected_witnesses(g, sources: list[int], targets: list[int]) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(source, target, hops, path) rows from the enumerating oracle, in result order."""
    oracle = smallest_shortest_paths(sorted(g.nodes), cooccurrence_pairs(e.adjacency for e in g.edges))
    return [(s, t) + oracle[(s, t)] for s in sources for t in targets if s != t]


def as_rows(results) -> list[tuple[int, int, int, tuple[int, ...]]]:
    return [(r.source, r.target, r.hops, r.path) for r in results]


class TestBitsetIndex:
    def test_two_path_queries_build_it_once(self, figures_catalog, monkeypatch):
        builds = count_builds(monkeypatch)
        g = texting_graph(figures_catalog)
        first = shortest_paths(g, PHONES, PHONES)
        assert shortest_paths(g, PHONES, PHONES) == first
        adjacency_projection(g)
        assert builds == [frozenset({"#Call", "#Text"})]

    def test_wildcard_omitted_and_full_list_share_one_entry(self, figures_catalog, monkeypatch):
        builds = count_builds(monkeypatch)
        g = texting_graph(figures_catalog)
        every = [shortest_paths(g, PHONES, PHONES, via) for via in ("*", None, ["#Text", "#Call"])]
        assert all(rows == every[0] for rows in every)
        calls_only = shortest_paths(g, PHONES, PHONES, ["#Call"])
        assert shortest_paths(g, PHONES, PHONES, "#Call") == calls_only
        assert builds == [frozenset({"#Call", "#Text"}), frozenset({"#Call"})]
        # 11 and 14 meet through user 21 over #Text; over #Call alone they are three hops apart
        assert next(r for r in every[0] if (r.source, r.target) == (11, 14)).path == (11, 21, 14)
        assert next(r for r in calls_only if (r.source, r.target) == (11, 14)).path == (11, 12, 13, 14)

    @pytest.mark.parametrize("derivation", ["dice", "n_delete"])
    def test_derived_value_answers_for_its_own_edges(self, figures_catalog, monkeypatch, derivation):
        derive = DERIVATIONS[derivation]
        parent = texting_graph(figures_catalog)
        before = shortest_paths(parent, PHONES, PHONES)
        shortest_paths(parent, PHONES, PHONES, ["#Call"])
        builds = count_builds(monkeypatch)
        child = derive(parent)
        rows = shortest_paths(child, PHONES, PHONES)
        assert rows != before
        phones = sorted(i for i in child.nodes if child.nodes[i].ntype == "#Phone")
        assert as_rows(rows) == expected_witnesses(child, phones, phones)
        assert builds == [frozenset(child.edge_types)]
        assert rows == shortest_paths(derive(texting_graph(figures_catalog)), PHONES, PHONES)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_dice_of_a_warm_parent_matches_the_oracle(self, seed):
        rng = random.Random(seed)
        parent = scattered_components(rng)
        every = NodeFilter("#N0")
        shortest_paths(parent, every, every)
        child = dice(parent, Condition.of(Atom("M1", None, ">", rng.randint(1, 8))))
        nodes = sorted(child.nodes)
        assert as_rows(shortest_paths(child, every, every)) == expected_witnesses(child, nodes, nodes)


def scattered_components(rng: random.Random):
    """Two components over sparse, partly negative node ids, inserted out of numeric order.

    Bit positions follow sorted id order, so they differ from the id values
    and from the input order.  The value is then derived again from its
    nodes in input order, which must give the same node table.  Edges have
    up to four endpoints.
    """
    ids = rng.sample(range(-10**6, 10**6), rng.randint(4, 14))
    ids[0] = -abs(ids[0]) - 1
    if ids == sorted(ids):
        ids.reverse()
    cut = rng.randint(2, len(ids) - 2)
    edges = []
    for part in (ids[:cut], ids[cut:]):
        for _ in range(rng.randint(1, 2 * len(part))):
            ends = rng.sample(part, rng.randint(2, min(4, len(part))))
            edges.append(("#E0", ends[:1], ends[1:], rng.randint(1, 9)))
    g = build_graphoid(
        random_catalog(rng),
        [NodeTypeDecl("#N0", ("Id",))],
        [EdgeTypeDecl("#E0", ("M1",), measures=((0, "SUM"),))],
        [("#N0", i) for i in ids],
        edges,
    )
    return g.derive(nodes={i: g.nodes[i] for i in ids})


class TestBitOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_witnesses_do_not_depend_on_id_values_or_insertion(self, seed):
        rng = random.Random(seed)
        g = scattered_components(rng)
        nodes = sorted(g.nodes)
        assert nodes[0] < 0
        pivot = rng.choice(nodes[1:])
        below = NodeFilter("#N0", Condition.of(Atom("Id", "Id", "<", pivot)))
        every = NodeFilter("#N0")
        sources = [i for i in nodes if i < pivot]
        warm = [shortest_paths(g, flt, every) for flt in (below, every, below)]
        assert as_rows(warm[0]) == expected_witnesses(g, sources, nodes)
        assert as_rows(warm[1]) == expected_witnesses(g, nodes, nodes)
        assert warm[2] == warm[0]
        assert any(r.hops == -1 and r.path == () for r in warm[0])
        assert as_rows(shortest_paths(g, every, below)) == expected_witnesses(g, nodes, sources)


def random_node_filter(rng: random.Random, g) -> NodeFilter:
    """A DNF filter on one node type of ``g``: one to three clauses of one to
    three atoms on the type's dimensions, at a level below All (an Id atom
    compares a node id), with ``<``, ``=`` or ``>``, some negated."""
    ntype = rng.choice(sorted(g.node_types))
    clauses = []
    for _ in range(rng.randint(1, 3)):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            dim = rng.choice(g.node_types[ntype].dims)
            if dim == "Id":
                level, value = "Id", rng.choice(sorted(g.nodes))
            else:
                inst = g.catalog.instance(dim)
                level = rng.choice([lv.name for lv in inst.schema.levels if lv.name != "All"])
                value = rng.choice(sorted(inst.domain(level)))
            atoms.append(Atom(dim, level, rng.choice("<>="), value, rng.random() < 0.3))
        clauses.append(tuple(atoms))
    return NodeFilter(ntype, Condition(tuple(clauses)))


def reference_matches(g, flt: NodeFilter) -> list[int] | None:
    """The ids of ``flt``'s type, ascending, whose label satisfies some clause,
    read node by node with ``catalog.roll``; None when an atom is refused:
    its dimension is off the type, its level is below the stored one, or it
    orders an unordered level.  Only the filter's own type is read."""
    decl = g.node_types[flt.ntype]
    for atom in flt.condition.atoms():
        if atom.dim not in decl.dims:
            return None
        schema = g.catalog.schema(atom.dim)
        stored = g.levels[(decl.name, decl.dims.index(atom.dim))]
        if atom.level not in schema.reachable_from(stored) or (atom.cmp != "=" and not schema.level(atom.level).ordered):
            return None

    def holds(atom, label) -> bool:
        slot = decl.dims.index(atom.dim)
        value = g.catalog.roll(atom.dim, g.levels[(decl.name, slot)], atom.level, label[slot])
        result = {"=": value == atom.value, "<": value < atom.value, ">": value > atom.value}[atom.cmp]
        return result != atom.negated

    return [
        ident
        for ident in sorted(g.nodes)
        if g.nodes[ident].ntype == flt.ntype
        and any(all(holds(atom, g.nodes[ident].label) for atom in clause) for clause in flt.condition.clauses)
    ]


class TestNodeFilterOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sources_match_a_per_node_reference(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        step = climbable_step(rng, g)
        if step is not None and rng.random() < 0.6:
            # one type climbed alone leaves the others holding the dimension at a finer level
            at = [name for name, slot in g.slots_of(step.dimension) if g.levels[(name, slot)] == step.from_level]
            g = climb(g, rng.choice(["*", rng.choice(at)]), step)
        flt = random_node_filter(rng, g)
        expected = reference_matches(g, flt)
        every = NodeFilter(flt.ntype)
        try:
            rows = shortest_paths(g, flt, every)
        except GraphoidError:
            assert expected is None
            return
        assert expected is not None
        members = [i for i in sorted(g.nodes) if g.nodes[i].ntype == flt.ntype]
        assert [(r.source, r.target) for r in rows] == [(s, t) for s in expected for t in members if s != t]


class TestPathResult:
    def test_value_semantics(self):
        r = PathResult(11, 14, 3, (11, 12, 13, 14))
        assert PathResult._fields == ("source", "target", "hops", "path")
        same = PathResult(11, 14, 3, (11, 12, 13, 14))
        assert r == same and hash(r) == hash(same)
        assert pickle.loads(pickle.dumps(r)) == r
        assert not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.hops = 2

    def test_repr_names_every_field(self):
        # the results digest of ``graphoid bench`` hashes these reprs
        r = PathResult(11, 14, 3, (11, 12, 13, 14))
        assert repr(r) == "PathResult(source=11, target=14, hops=3, path=(11, 12, 13, 14))"

    def test_other_names_are_refused(self):
        r = PathResult(11, 14, 3, (11, 12, 13, 14))
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.weight = 1.0
        assert not hasattr(r, "weight")


class TestEngineRows:
    def test_every_row_is_a_frozen_slotted_path_result(self, base_graph):
        graphs = {
            "base": base_graph,
            "diced": dice(base_graph, Condition.of(Atom("Duration", None, ">", 8))),
            "two components": two_dense_components(random.Random(5)),
        }
        for name, g in graphs.items():
            flt = NodeFilter(g.nodes[min(g.nodes)].ntype)
            rows = shortest_paths(g, flt, flt)
            assert rows, name
            if name != "base":
                assert any(r.hops == -1 for r in rows), name
            for r in rows:
                assert type(r) is PathResult, name
                assert not hasattr(r, "__dict__"), name
                with pytest.raises(dataclasses.FrozenInstanceError):
                    r.hops = 0
                public = PathResult(r.source, r.target, r.hops, r.path)
                assert r == public and hash(r) == hash(public), name
                copied = pickle.loads(pickle.dumps(r))
                assert type(copied) is PathResult and copied == r and hash(copied) == hash(r), name

    def test_rows_equal_and_unpack_as_plain_tuples(self, base_graph):
        phones = NodeFilter(base_graph.nodes[min(base_graph.nodes)].ntype)
        rows = shortest_paths(base_graph, phones, phones)
        assert rows
        for r in rows:
            source, target, hops, path = r
            assert (source, target, hops, path) == (r.source, r.target, r.hops, r.path)
            assert r == (source, target, hops, path) and hash(r) == hash((source, target, hops, path))


def flat_witnesses(
    near: dict[int, set[int]], sources: list[int], targets: list[int]
) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(source, target, hops, path) rows from a plain BFS per target and a walk that
    takes the smallest neighbour one hop closer to the target, in result order."""
    dist: dict[int, dict[int, int]] = {}
    for t in targets:
        hops, frontier = {t: 0}, [t]
        while frontier:
            reached = []
            for v in frontier:
                for w in near[v]:
                    if w not in hops:
                        hops[w] = hops[v] + 1
                        reached.append(w)
            frontier = reached
        dist[t] = hops
    rows = []
    for s in sources:
        for t in targets:
            if s == t:
                continue
            to_t = dist[t]
            if s not in to_t:
                rows.append((s, t, -1, ()))
                continue
            path = [s]
            while path[-1] != t:
                path.append(min(v for v in near[path[-1]] if to_t.get(v) == to_t[path[-1]] - 1))
            rows.append((s, t, to_t[s], tuple(path)))
    return rows


class TestDeskScale:
    def test_case_study_paths_match_a_flat_bfs(self):
        data = store.generate(store.GeneratorConfig())
        near: dict[int, set[int]] = {number: set() for number in data.phones}
        for call in data.calls:
            ends = {call.caller, *call.participants}
            for v in ends:
                near[v] |= ends - {v}

        def phones_where(level: str, value: str) -> tuple[NodeFilter, list[int]]:
            field = level.lower()
            numbers = sorted(n for n, info in data.phones.items() if getattr(info, field) == value)
            return NodeFilter("#Phone", Condition.of(Atom("Phone", level, "=", value))), numbers

        everyone = PHONES, sorted(data.phones)
        buenos_aires = phones_where("City", "Buenos Aires")
        pairs = {
            "Q4": (everyone, everyone),
            "Q5": (phones_where("Operator", "Claro"), phones_where("Operator", "Movistar")),
            "Q6": (buenos_aires, phones_where("City", "Salta")),
            "Q7": (buenos_aires, everyone),
        }
        for query, ((source, sources), (target, targets)) in pairs.items():
            assert sources and targets, query
            rows = shortest_paths(data.graphoid, source, target, ["#Call"])
            assert as_rows(rows) == flat_witnesses(near, sources, targets), query


# a path 11-12-13-14-15, phone 16 joined to 11 and 13 (so 11 and 13 have two
# common neighbours, 12 and 16), and phone 17 on no call
PATH_CALLS = [([11], [12]), ([12], [13]), ([13], [14]), ([14], [15]), ([16], [11]), ([13], [16])]


class TestHopClasses:
    def test_every_hop_class_matches_a_flat_bfs(self, figures_catalog):
        g = build_graphoid(
            figures_catalog,
            [PHONE_DECL],
            [CALL_DECL],
            BASE_NODES + [("#Phone", 16, "Ph1"), ("#Phone", 17, "Ph2")],
            [("#Call", s, t, DAY(2016, 10, 10), 1) for s, t in PATH_CALLS],
            levels=BASE_LEVELS,
        )
        phones = list(range(11, 18))
        near: dict[int, set[int]] = {v: set() for v in phones}
        for (s,), (t,) in PATH_CALLS:
            near[s].add(t)
            near[t].add(s)
        rows = shortest_paths(g, PHONES, PHONES)
        assert as_rows(rows) == flat_witnesses(near, phones, phones)
        assert Counter(r.hops for r in rows) == {1: 12, 2: 10, 3: 6, 4: 2, -1: 12}
        by_pair = {(r.source, r.target): r.path for r in rows}
        assert by_pair[(11, 13)] == (11, 12, 13) and by_pair[(16, 12)] == (16, 11, 12)
        assert by_pair[(11, 15)] == (11, 12, 13, 14, 15) and by_pair[(17, 11)] == ()


class TestPathRendering:
    def test_csv_layout(self):
        results = [PathResult(11, 14, 3, (11, 12, 13, 14)), PathResult(11, 99, -1, ())]
        assert path_results_to_csv(results) == (
            "source,target,hops,path\n11,14,3,11/12/13/14\n11,99,-1,\n"
        )

    def test_row_dicts(self):
        rows = path_results_to_rows([PathResult(11, 12, 1, (11, 12))])
        assert rows == [{"source": 11, "target": 12, "hops": 1, "path": [11, 12]}]


def flat_group_average(size: int) -> dict[tuple[int, ...], float]:
    sums: Counter = Counter()
    counts: Counter = Counter()
    for s, t, _, dur in BASE_CALLS:
        for combo in itertools.combinations(sorted(set(s + t)), size):
            sums[combo] += dur
            counts[combo] += 1
    return {combo: sums[combo] / counts[combo] for combo in sums}


class TestGroupAverage:
    def test_pairs(self, base_graph):
        assert group_average(base_graph, "#Call", 2, "Duration") == flat_group_average(2)

    def test_triples(self, base_graph):
        result = group_average(base_graph, "#Call", 3, "Duration")
        assert result == flat_group_average(3)
        assert result == {(12, 13, 15): 8.5}

    def test_single_nodes(self, base_graph):
        assert group_average(base_graph, "#Call", 1, "Duration") == flat_group_average(1)

    def test_oversized_groups_are_empty(self, base_graph):
        assert group_average(base_graph, "#Call", 5, "Duration") == {}

    def test_size_must_be_positive(self, base_graph):
        with pytest.raises(GraphoidError, match="at least 1"):
            group_average(base_graph, "#Call", 0, "Duration")

    def test_unknown_measure_refused(self, base_graph):
        with pytest.raises(GraphoidError, match="has no measure"):
            group_average(base_graph, "#Call", 2, "Latency")

    def test_measure_above_its_bottom_level_refused(self, base_graph):
        topped = climb(base_graph, ["#Call"], RollupStep("Duration", "Duration", "All"))
        with pytest.raises(GraphoidError, match="measure Duration of #Call sits at level All"):
            group_average(topped, "#Call", 2, "Duration")

    # averaging monthly sums, counts or averages is not the average of the calls
    @pytest.mark.parametrize("fn", ["SUM", "COUNT", "AVG"])
    def test_folded_measure_refused(self, base_graph, fn):
        monthly = roll_up(base_graph, ["#Call"], RollupStep("Time", "Day", "Month"), "#Call", [("Duration", fn)])
        assert monthly.levels[("#Call", 1)] == "Duration"
        with pytest.raises(GraphoidError, match=f"measure Duration of #Call holds {fn} aggregates"):
            group_average(monthly, "#Call", 1, "Duration")

    def test_sliced_measure_refused(self, base_graph):
        sliced = slice_out(base_graph, "Time", [("Duration", "SUM")])
        with pytest.raises(GraphoidError, match="measure Duration of #Call holds SUM aggregates"):
            group_average(sliced, "#Call", 1, "Duration")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graphoid(rng)
        size = rng.randint(1, 3)
        sums: Counter = Counter()
        counts: Counter = Counter()
        for e in g.edges:
            slot = g.edge_types[e.etype].measure_slot_of("M1")
            for combo in itertools.combinations(sorted(e.adjacency), size):
                sums[combo] += e.label[slot]
                counts[combo] += 1
        expected = {combo: sums[combo] / counts[combo] for combo in sums}
        assert group_average(g, "*", size, "M1") == expected
