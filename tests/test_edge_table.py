"""The edge table: a graph value gives the same answers whichever form of its
edge bag it holds, and the query pipeline builds no edge objects."""
from __future__ import annotations

import random
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid import cli, cubes, store
from graphoid.cubes import CubeMeasure, build_cube, random_catalog, random_cube, star
from graphoid.dims import RollupStep
from graphoid.hypergraph import EdgeTable, Graphoid, GraphoidError, HyperEdge, build_graphoid, edgify, replaced
from graphoid.metrics import group_average
from graphoid.olap import Atom, Condition, aggr, climb, dice, drill_down, group, n_delete, roll_up, s_dice, slice_out
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
        assert "edges" not in vars(table_backed) and "edges" not in vars(from_edges)
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
        assert from_edges.edge_table == table_backed.edge_table

    def test_new_edges_drop_the_parent_table(self, base_graph):
        table_backed = climb(base_graph, ["#Call"], RollupStep("Time", "Day", "Month"))
        child = table_backed.derive(edges=table_backed.edges[:1])
        assert "edges" not in vars(child) and child.edges == table_backed.edges[:1]
        assert child.edge_count == 1 and len(child.edge_table.labels) == 1
        rebuilt = child.derive(edge_table=table_backed.edge_table)
        assert "edges" not in vars(rebuilt) and rebuilt.edge_count == table_backed.edge_count

    def test_table_of_edges_round_trip(self, base_graph):
        edges = base_graph.edges
        table = EdgeTable.of(edges)
        assert table.edges() == edges
        assert len(table.sets) == len({ids for e in edges for ids in (e.source, e.target)})


class TestTableOfEdges:
    def test_labels_of_two_lengths_in_one_type_are_refused(self, base_graph):
        first = base_graph.edges[0]
        short = HyperEdge(first.etype, first.source, first.target, first.label[:1])
        with pytest.raises(GraphoidError, match="edges of type #Call have labels of different lengths"):
            EdgeTable.of((first, short))


def count_edge_builds(monkeypatch) -> list[int]:
    """Count every ``HyperEdge`` built from here on."""
    built = [0]
    init = HyperEdge.__init__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

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

    def test_edgify_program_builds_no_hyperedge(self, query_files, tmp_path, monkeypatch):
        query, dims = query_files
        program = query.with_name("edgify_rollup.gql")
        program.write_text(
            'G = LOAD "../data/graph.json";\n'
            "H = EDGIFY(G, #Phone, Phone);\n"
            "Yearly = ROLLUP(H, {#Call}, Time: Day -> Year; #Call, Duration, SUM);\n"
            "OUTPUT Yearly;\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.json"
        built = count_edge_builds(monkeypatch)
        assert cli.main(["query", str(program), *dims, "--out", str(out)]) == 0
        assert built[0] == 0
        assert "#HasPhone" in out.read_text(encoding="utf-8")

    def test_the_count_sees_edges_being_built(self, query_files, tmp_path, monkeypatch):
        query, dims = query_files
        out = tmp_path / "out.json"
        assert cli.main(["query", str(query), *dims, "--out", str(out)]) == 0
        catalog = cli._catalog_from_dims(dims[1::2])
        loaded = store.graphoid_from_json(store.load_json(str(out)), catalog)
        built = count_edge_builds(monkeypatch)
        edges = loaded.edges
        assert built[0] == len(edges) > 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_query_reads_no_label_rows(self, query_files, tmp_path, monkeypatch, fmt):
        query, dims = query_files
        out = tmp_path / f"out.{fmt}"
        forbid_label_rows(monkeypatch)
        assert cli.main(["query", str(query), *dims, "--out", str(out), "--format", fmt]) == 0
        assert out.read_text(encoding="utf-8").strip()

    def test_operators_read_no_label_rows(self, monkeypatch):
        data = store.generate(store.GeneratorConfig(phone_count=12, user_count=5, call_count=80, seed=4))
        g = data.graphoid
        mixed = replaced(edgify(g, store.PHONE_TYPE, 1), base=None)  # a lineage base of its own, for drill-down
        operator = sorted(g.catalog.instance("Phone").domain("Operator"))[0]
        dated = ((Atom("Duration", None, ">", 600), Atom("Time", "Year", "=", 2017, negated=True)),)
        on_phones = ((Atom("Phone", "Operator", "=", operator, negated=True), Atom("Time", "Month", ">", "2016-06")),)
        sums = [("Duration", "SUM")]
        forbid_label_rows(monkeypatch)
        # edgify moves the node slot to All, where an Operator atom is refused
        for value, cond in ((g, Condition(dated + on_phones)), (mixed, Condition(dated))):
            yearly = roll_up(value, "*", RollupStep("Time", "Day", "Year"), "#Call", sums)
            for result in (
                dice(value, cond),
                s_dice(value, cond),
                slice_out(value, "Time", sums),
                drill_down(yearly, "*", "Time", "Month", "#Call", sums),
            ):
                assert result.edge_count > 0
            assert group_average(value, "#Call", 2, "Duration")

    def test_the_label_guard_sees_a_read(self, base_graph, monkeypatch):
        forbid_label_rows(monkeypatch)
        with pytest.raises(AssertionError, match="EdgeTable.labels"):
            base_graph.edge_table.labels


def forbid_label_rows(monkeypatch) -> None:
    """Make every read of the row view ``EdgeTable.labels`` fail."""

    def read(table):
        raise AssertionError("EdgeTable.labels was read")

    monkeypatch.setattr(EdgeTable, "labels", property(read))


def two_measure_star(rng: random.Random) -> Graphoid:
    """The star graph of a random cube with two measures: the rows of the two
    measure edge types interleave, one of each per cell."""
    catalog = random_catalog(rng)
    cube = random_cube(rng, catalog)
    measures = [CubeMeasure(name, rng.choice(FNS[:4])) for name in ("M1", "M2")]
    cells = {
        coord: (rng.randint(0, 100), rng.choice((rng.randint(0, 100), rng.randint(0, 400) / 4, -0.0)))
        for coord in cube.cells
    }
    return star(build_cube(catalog, list(zip(cube.dims, cube.levels)), measures, cells))


def edgified_graph(rng: random.Random) -> Graphoid:
    """A small generated graph with its phones moved onto ``#HasPhone`` edges,
    the lineage base of what is derived from it."""
    config = store.GeneratorConfig(phone_count=8, user_count=4, call_count=rng.randint(1, 30), seed=rng.randrange(10**6))
    return replaced(edgify(store.generate(config).graphoid, store.PHONE_TYPE, 1), base=None)


def draw_column_op(rng: random.Random, g: Graphoid):
    """One random climb, aggr, dice, s_dice, slice or drill-down on values
    shaped like ``g``, as a function of the value; measures are the open
    ones ``g`` declares."""
    kind = rng.choice(("climb", "aggr", "dice", "s_dice", "slice_out", "drill_down"))
    open_measures = sorted({
        decl.dims[slot] for decl in g.edge_types.values() for slot, _ in decl.measures
        if g.catalog.schema(decl.dims[slot]).level(g.catalog.schema(decl.dims[slot]).bottom).open
    })
    measures = [(dim, rng.choice(FNS)) for dim in rng.sample(open_measures, rng.randint(1, len(open_measures)))]
    dims = sorted({dim for decl in (*g.node_types.values(), *g.edge_types.values()) for dim in decl.dims} - {"Id", *open_measures})
    if kind == "climb":
        step = climbable_step(rng, g)
        return (lambda value: value) if step is None else (lambda value: climb(value, "*", step))
    if kind == "aggr":
        edge_type = rng.choice(["*", *sorted(g.edge_types)])
        return lambda value: aggr(value, edge_type, measures)
    if kind in ("dice", "s_dice"):
        clauses = []
        for _ in range(rng.randint(1, 2)):
            atoms = []
            for _ in range(rng.randint(1, 3)):
                negated = rng.random() < 0.3
                if not dims or rng.random() < 0.4:
                    atoms.append(Atom(rng.choice(open_measures), None, rng.choice("<>="), rng.randint(0, 100), negated))
                    continue
                inst = g.catalog.instance(rng.choice(dims))
                level = rng.choice([lv.name for lv in inst.schema.levels if lv.name != "All" and not lv.open])
                atoms.append(Atom(inst.name, level, rng.choice("<>="), rng.choice(sorted(inst.domain(level))), negated))
            clauses.append(tuple(atoms))
        op = dice if kind == "dice" else s_dice
        return lambda value: op(value, Condition(tuple(clauses)))
    dim = rng.choice(dims)
    if kind == "slice_out":
        return lambda value: slice_out(value, dim, measures)
    to_level = rng.choice([lv.name for lv in g.catalog.schema(dim).levels])
    return lambda value: drill_down(value, "*", dim, to_level, "*", measures)


def slot_columns(g: Graphoid) -> list[tuple[str, tuple]]:
    """Each edge type's name and slot columns, in the table's type order."""
    return [(name, rows.columns) for name, rows in g.edge_table.types.items()]


class TestSlotColumnsOfInterleavedTypes:
    """On tables holding several edge types, interleaved (a two-measure star)
    or appended (an ``edgify``'d graph), each operation gives the value it
    gives on the same value whose table is ``EdgeTable.of`` its edges: edge
    for edge, byte for byte when saved, and column for column."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_operations_equal_those_on_the_table_of_the_edges(self, seed, use_star):
        rng = random.Random(seed)
        g = two_measure_star(rng) if use_star else edgified_graph(rng)
        for _ in range(rng.randint(1, 3)):
            from_edges = replaced(g, edge_table=EdgeTable.of(g.edge_table.edges()))
            assert slot_columns(g) == slot_columns(from_edges)
            run = draw_column_op(rng, g)
            outcomes = []
            for value in (g, from_edges):
                try:
                    outcomes.append(run(value))
                except GraphoidError as exc:
                    outcomes.append(exc)
            a, b = outcomes
            if isinstance(a, Exception) or isinstance(b, Exception):
                assert (type(a), str(a)) == (type(b), str(b))
                return
            assert_same_value(a, b)
            assert slot_columns(a) == slot_columns(b)
            # only types with rows have a sub-table
            assert all(rows.sources for rows in a.edge_table.types.values())
            g = a


def stably_grouped(rows: list) -> list[tuple[int, object]]:
    """Each row with its position, the rows stably grouped by type (the row's
    first entry), types in the order of their first row."""
    rank = {kind: r for r, kind in enumerate(dict.fromkeys(row[0] for row in rows))}
    return sorted(enumerate(rows), key=lambda pair: rank[pair[1][0]])


def interleaved_document(rng: random.Random) -> tuple[Graphoid, dict, list[int]]:
    """An ``edgify``'d generated graph, its saved document with the edge rows
    shuffled, so the ``#Call`` and ``#HasPhone`` rows interleave, and the
    position in ``g.edges`` of each of the document's edge rows."""
    g = edgified_graph(rng)
    doc = store.graphoid_to_json(g)
    order = list(range(g.edge_count))
    rng.shuffle(order)
    doc["edges"] = [doc["edges"][i] for i in order]
    return g, doc, order


class TestEdgeOrderGroupsTypes:
    """Edge order is each type's rows in input order, types in the order of
    their first row; a surrogate is the row's input position."""

    @staticmethod
    def assert_grouped(g: Graphoid, rows: list) -> None:
        """``g`` built from ``rows``, each (type, sources, targets, label...)."""
        expected = [
            (row[0], frozenset(row[1]), frozenset(row[2]), tuple(row[3:]), position)
            for position, row in stably_grouped(rows)
        ]
        assert [(e.etype, e.source, e.target, e.label, e.surrogate) for e in g.edges] == expected
        assert g.edge_multiset() == Counter(edge[:4] for edge in expected)

    def test_star_rows(self):
        interleaved = 0
        for seed in range(40):
            captured = []

            def build(*args):
                captured.append(list(args[4]))
                return build_graphoid(*args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cubes, "build_graphoid", build)
                g = two_measure_star(random.Random(seed))
            (rows,) = captured
            self.assert_grouped(g, rows)
            interleaved += [row[0] for row in rows] != [row[0] for _, row in stably_grouped(rows)]
        assert interleaved

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_document_rows(self, seed):
        g, doc, order = interleaved_document(random.Random(seed))
        loaded = store.graphoid_from_json(doc, g.catalog)
        # the document's rows as read: dates parsed, endpoint lists as sets
        rows = [(e.etype, e.source, e.target, *e.label) for e in map(g.edges.__getitem__, order)]
        self.assert_grouped(loaded, rows)
        assert loaded == g

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_load_and_save_regroups_once(self, seed):
        g, doc, _ = interleaved_document(random.Random(seed))
        first = store.graphoid_to_json(store.graphoid_from_json(doc, g.catalog))
        second = store.graphoid_to_json(store.graphoid_from_json(first, g.catalog))
        assert first["edges"] == [row for _, row in stably_grouped(doc["edges"])]
        assert store.dump_text(second) == store.dump_text(first)
