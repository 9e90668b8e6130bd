"""The edge table: a graph value gives the same answers whichever form of its
edge bag it holds, and the query pipeline builds no edge objects."""
from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid import cli, hypergraph, store
from graphoid.dims import RollupStep
from graphoid.hypergraph import EdgeTable, Graphoid, GraphoidError, HyperEdge
from graphoid.olap import climb, dice, drill_down, group, n_delete, roll_up, s_dice, slice_out
from helpers import climbable_step, ends_are_shared, random_graph_condition, random_graphoid

QUERY = Path(__file__).resolve().parents[1] / "queries" / "operator_year_rollup.gql"
FNS = ("SUM", "MIN", "MAX", "COUNT", "AVG")


def edges_only(g: Graphoid) -> Graphoid:
    """``g`` rebuilt with the public constructor, from edges that are not kept on ``g``."""
    return Graphoid(g.catalog, g.node_types, g.edge_types, g.nodes, g.edge_table.edges(), g.levels)


def draw_step(rng: random.Random, g: Graphoid):
    """One random operation on values shaped like ``g``, as a function of the value."""
    kind = rng.choice(("climb", "group", "roll_up", "slice_out", "drill_down", "dice", "s_dice", "n_delete", "json"))
    measures = [("M1", rng.choice(FNS))]
    dims = sorted({dim for decl in (*g.node_types.values(), *g.edge_types.values()) for dim in decl.dims} - {"Id", "M1", "M2"})
    if kind in ("climb", "roll_up"):
        step = climbable_step(rng, g)
        if step is None:
            return kind, lambda value: value
        if kind == "climb":
            return kind, lambda value: climb(value, "*", step)
        edge_type = rng.choice(["*", *sorted(g.edge_types)])
        return kind, lambda value: roll_up(value, "*", step, edge_type, measures)
    if kind == "group":
        ntype = rng.choice(sorted(g.node_types))
        decl = g.node_types[ntype]
        if decl.arity < 2:
            return kind, lambda value: value
        dim = decl.dims[rng.randrange(1, decl.arity)]
        level = g.levels[(ntype, decl.dims.index(dim))]
        to_level = rng.choice(sorted(g.catalog.schema(dim).reachable_from(level)))
        return kind, lambda value: group(value, ntype, RollupStep(dim, level, to_level))
    if kind in ("slice_out", "drill_down"):
        if not dims:
            return kind, lambda value: value
        dim = rng.choice(dims)
        if kind == "slice_out":
            return kind, lambda value: slice_out(value, dim, measures)
        to_level = rng.choice([lv.name for lv in g.catalog.schema(dim).levels])
        return kind, lambda value: drill_down(value, "*", dim, to_level, "*", measures)
    if kind in ("dice", "s_dice"):
        cond = random_graph_condition(rng, g)
        op = dice if kind == "dice" else s_dice
        return kind, lambda value: op(value, cond)
    if kind == "n_delete":
        ntype = rng.choice(sorted(g.node_types))
        return kind, lambda value: n_delete(value, ntype)
    return kind, lambda value: store.graphoid_from_json(store.graphoid_to_json(value), value.catalog)


def assert_same_value(a: Graphoid, b: Graphoid) -> None:
    rows = lambda g: [(e.etype, e.source, e.target, e.label, e.surrogate) for e in g.edges]  # noqa: E731
    assert rows(a) == rows(b)
    assert ends_are_shared(a) and ends_are_shared(b)
    assert store.dump_text(store.graphoid_to_json(a)) == store.dump_text(store.graphoid_to_json(b))
    assert (a.levels, a.folds, a.tainted) == (b.levels, b.folds, b.tainted)


class TestRepresentationIndependence:
    """Up to four random operations give the same value, edge for edge and
    byte for byte when saved, on a table-backed value and on the same value
    holding only edges; an operation that is refused is refused on both."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_sequences(self, seed):
        rng = random.Random(seed)
        table_backed = random_graphoid(rng, max_endpoints=4)
        from_edges = edges_only(table_backed)
        assert "edges" not in vars(table_backed) and "edge_table" not in vars(from_edges)
        for _ in range(rng.randint(1, 4)):
            _, run = draw_step(rng, table_backed)
            outcomes = []
            for value in (table_backed, from_edges):
                try:
                    outcomes.append(run(value))
                except GraphoidError as exc:
                    outcomes.append(exc)
            a, b = outcomes
            if isinstance(a, Exception) or isinstance(b, Exception):
                assert (type(a), str(a)) == (type(b), str(b))
                break
            table_backed, from_edges = a, b
        assert_same_value(table_backed, from_edges)

    def test_forms_are_built_once_and_kept(self, base_graph):
        table_backed = climb(base_graph, ["#Call"], RollupStep("Time", "Day", "Month"))
        assert "edges" not in vars(table_backed)
        assert table_backed.edge_count == len(table_backed.edge_table.labels)
        assert "edges" not in vars(table_backed)
        assert table_backed.edges is table_backed.edges
        from_edges = edges_only(table_backed)
        assert from_edges.edge_table is from_edges.edge_table
        assert from_edges.edge_table == table_backed.edge_table._replace(surrogates=list(table_backed.edge_table.surrogates))

    def test_new_edges_drop_the_parent_table(self, base_graph):
        table_backed = climb(base_graph, ["#Call"], RollupStep("Time", "Day", "Month"))
        child = table_backed.derive(edges=table_backed.edges[:1])
        assert "edge_table" not in vars(child)
        assert child.edge_count == 1 and len(child.edge_table.labels) == 1
        rebuilt = child.derive(edge_table=table_backed.edge_table)
        assert "edges" not in vars(rebuilt) and rebuilt.edge_count == table_backed.edge_count

    def test_table_of_edges_round_trip(self, base_graph):
        edges = base_graph.edges
        table = EdgeTable.of(edges)
        assert table.edges() == edges
        assert len(table.sets) == len({ids for e in edges for ids in (e.source, e.target)})


def count_edge_builds(monkeypatch) -> list[int]:
    """Count every ``HyperEdge`` built from here on, by ``make_edge`` or by the public constructor."""
    built = [0]
    make_edge, init = hypergraph.make_edge, HyperEdge.__init__

    def counted_make_edge(*args):
        built[0] += 1
        return make_edge(*args)

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(hypergraph, "make_edge", counted_make_edge)
    monkeypatch.setattr(HyperEdge, "__init__", counted_init)
    return built


class TestNoEdgeObjects:
    @pytest.fixture
    def query_files(self, tmp_path):
        """The shipped roll-up query beside a generated data directory, as it expects."""
        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--phones", "12", "--users", "5", "--calls", "80"]) == 0
        (tmp_path / "queries").mkdir()
        shutil.copy(QUERY, tmp_path / "queries" / QUERY.name)
        dims = [a for name in ("phone", "time", "duration") for a in ("--dims", str(data / f"{name}.dimension.json"))]
        return tmp_path / "queries" / QUERY.name, dims

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_query_builds_no_hyperedge(self, query_files, tmp_path, monkeypatch, fmt):
        query, dims = query_files
        out = tmp_path / f"out.{fmt}"
        built = count_edge_builds(monkeypatch)
        assert cli.main(["query", str(query), *dims, "--out", str(out), "--format", fmt]) == 0
        assert built[0] == 0
        assert out.read_text(encoding="utf-8").strip()

    def test_the_count_sees_edges_being_built(self, query_files, tmp_path, monkeypatch):
        query, dims = query_files
        out = tmp_path / "out.json"
        assert cli.main(["query", str(query), *dims, "--out", str(out)]) == 0
        catalog = cli._catalog_from_dims(dims[1::2])
        loaded = store.graphoid_from_json(store.load_json(str(out)), catalog)
        built = count_edge_builds(monkeypatch)
        edges = loaded.edges
        assert built[0] == len(edges) > 0
