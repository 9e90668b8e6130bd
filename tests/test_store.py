"""Serialization, call-record ingest, and the synthetic data generator."""
from __future__ import annotations

import copy
import dataclasses
import datetime
import functools
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid.cubes import build_cube, random_catalog, random_cube
from graphoid.dims import (
    DimensionError,
    DimensionInstance,
    DimensionSchema,
    Level,
    RollupStep,
    validate_instance,
    validate_schema,
)
from graphoid.hypergraph import GraphoidBuildError, GraphoidError, HyperEdge, build_graphoid, edgify
from graphoid.metrics import NodeFilter, path_results_to_rows, shortest_paths
from graphoid.olap import OlapError, group, roll_up, slice_out
from graphoid.store import (
    CALL_COLUMNS,
    CITIES,
    COUNTRIES,
    END_DATE,
    MAX_DURATION,
    MIN_DURATION,
    OPERATORS,
    START_DATE,
    GeneratorConfig,
    StoreError,
    cube_from_json,
    cube_to_json,
    decode,
    dump_text,
    generate,
    graphoid_from_json,
    graphoid_to_json,
    ingest_calls,
    instance_from_json,
    instance_to_json,
    load_dimension,
    load_json,
    phone_schema,
    save_json,
    schema_from_json,
    schema_to_json,
    sniff_kind,
    time_instance,
    time_schema,
    write_calls_csv,
)
from helpers import ends_are_shared, random_graphoid

SMALL = GeneratorConfig(
    phone_count=12, user_count=5, call_count=40, max_group_size=4, seed=3
)


HEADER = ",".join(CALL_COLUMNS)


def csv_source(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


class TestJsonRoundTrips:
    def test_schema(self):
        for schema in (phone_schema(), time_schema()):
            assert schema_from_json(schema_to_json(schema)) == schema

    def test_schema_with_a_bottom_level_named_null(self):
        raw = {"name": "D", "levels": [{"name": None}, "All"], "edges": [[None, "All"]]}
        schema = schema_from_json(raw)
        assert validate_schema(schema) == []
        assert schema.bottom is None

    def test_instance(self, phone_dimension, time_dimension):
        for instance in (phone_dimension, time_dimension):
            assert instance_from_json(instance_to_json(instance)) == instance

    def test_instance_with_date_parents(self):
        schema = DimensionSchema(
            "Shift",
            (Level("Shift"), Level("Day", "date"), Level("All", ordered=False)),
            (("Shift", "Day"), ("Day", "All")),
        )
        days = [datetime.date(2016, 1, 1), datetime.date(2016, 1, 2)]
        instance = DimensionInstance.build(
            schema,
            {"Shift": {"early", "late"}, "Day": set(days)},
            [("early", "Shift", days[0], "Day"), ("late", "Shift", days[1], "Day")],
        )
        doc = instance_to_json(instance)
        assert ["early", "Shift", "2016-01-01", "Day"] in doc["parents"]
        assert instance_from_json(doc) == instance

    def test_graphoid(self, base_graph, year_rollup_graph):
        for g in (base_graph, year_rollup_graph):
            assert graphoid_from_json(graphoid_to_json(g), g.catalog) == g

    def test_loaded_graph_shares_endpoint_sets(self):
        data = generate(GeneratorConfig(phone_count=30, user_count=10, call_count=300, seed=4))
        doc = json.loads(dump_text(graphoid_to_json(data.graphoid)))
        loaded = graphoid_from_json(doc, data.catalog)
        assert loaded.bag_equal(data.graphoid) and ends_are_shared(loaded)
        assert len({id(e.source) for e in loaded.edges}) <= 30

    def test_graph_document_rows_are_not_aliased(self, base_graph):
        rows = graphoid_to_json(base_graph)["edges"]
        lists = [part for row in rows for part in (row, row[1], row[2])]
        assert len({id(part) for part in lists}) == len(lists) == 3 * len(base_graph.edges)
        assert rows[0] == rows[1] == ["#Call", [11], [12], "2016-10-10", 4]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_graphoid_random(self, seed):
        g = random_graphoid(random.Random(seed))
        assert graphoid_from_json(graphoid_to_json(g), g.catalog) == g

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cube_random(self, seed):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        cube = random_cube(rng, catalog)
        assert cube_from_json(cube_to_json(cube), catalog) == cube

    def test_cube_cell_with_an_extra_coordinate_refused(self):
        rng = random.Random(3)
        catalog = random_catalog(rng)
        doc = cube_to_json(random_cube(rng, catalog))
        doc["cells"][0][0].append("extra")
        with pytest.raises(GraphoidError, match="expected .* coordinates"):
            cube_from_json(doc, catalog)

    def test_save_and_load_path(self, tmp_path, base_graph):
        path = tmp_path / "graph.json"
        save_json(graphoid_to_json(base_graph), str(path))
        raw = load_json(str(path))
        assert graphoid_from_json(raw, base_graph.catalog) == base_graph

    def test_save_and_load_file_object(self, phone_dimension):
        buffer = io.StringIO()
        save_json(instance_to_json(phone_dimension), buffer)
        buffer.seek(0)
        assert instance_from_json(load_json(buffer)) == phone_dimension

    def test_saved_text_is_compact_dump_plus_newline(self, tmp_path):
        # the stdlib's cycle-checking dump is the reference for every kind of document
        g = generate(GeneratorConfig(phone_count=10, user_count=5, call_count=40, seed=2)).graphoid
        phones = NodeFilter("#Phone")
        rows = path_results_to_rows(shortest_paths(g, phones, phones))
        assert rows
        payloads = [graphoid_to_json(g), rows] + [doc for _, doc, _ in saved_values()]
        path = tmp_path / "saved.json"
        for payload in payloads:
            expected = json.dumps(payload, separators=(",", ":")) + "\n"
            assert dump_text(payload) == expected
            save_json(payload, str(path))
            assert path.read_text(encoding="utf-8") == expected
            buffer = io.StringIO()
            save_json(payload, buffer)
            assert buffer.getvalue() == expected

    def test_cyclic_payload_fails_and_writes_nothing(self, tmp_path, base_graph):
        cyclic = []
        cyclic.append(cyclic)
        with pytest.raises((ValueError, RecursionError)):
            dump_text(cyclic)
        path = tmp_path / "graph.json"
        save_json(graphoid_to_json(base_graph), str(path))
        before = path.read_bytes()
        with pytest.raises((ValueError, RecursionError)):
            save_json({"nodeTypes": [], "edges": cyclic}, str(path))
        assert path.read_bytes() == before

    def test_documents_saved_indented_still_load(self):
        for value, doc, catalog in saved_values():
            indented = json.dumps(doc, indent=2) + "\n"
            assert indented != dump_text(doc)
            assert json.loads(indented) == json.loads(dump_text(doc))
            assert decode(load_json(io.StringIO(indented)), catalog)[1] == value


class TestFoldRecord:
    def test_count_refolds_after_a_save_and_load(self, tmp_path):
        data = generate(GeneratorConfig(phone_count=8, user_count=4, call_count=400, seed=3))
        grouped = group(data.graphoid, "#Phone", RollupStep("Phone", "PhoneId", "Operator"))
        count = [("Duration", "COUNT")]
        monthly = roll_up(grouped, ["#Call"], RollupStep("Time", "Day", "Month"), "#Call", count)
        path = str(tmp_path / "monthly.json")
        save_json(graphoid_to_json(monthly), path)
        loaded = graphoid_from_json(load_json(path), data.catalog)
        assert loaded.folds == {("#Call", 1): "COUNT"}
        yearly = roll_up(loaded, ["#Call"], RollupStep("Time", "Month", "Year"), "#Call", count)
        assert sum(e.label[1] for e in yearly.edges) == 400
        with pytest.raises(OlapError, match="already holds COUNT aggregates"):
            roll_up(loaded, ["#Call"], RollupStep("Time", "Month", "Year"), "#Call", [("Duration", "AVG")])

    def test_unfolded_graph_writes_no_record(self, base_graph):
        assert "folds" not in graphoid_to_json(base_graph)
        assert graphoid_from_json(graphoid_to_json(base_graph), base_graph.catalog).folds == {}

    # the last two: slot 0 of #Call holds Time, not a measure; true would be read as slot 1
    @pytest.mark.parametrize(
        "record",
        [["#Nope", 1, "SUM"], ["#Call", 9, "SUM"], ["#Call", 1, "MEDIAN"], ["#Call", 0, "SUM"], ["#Call", True, "SUM"]],
    )
    def test_bad_record_refused(self, base_graph, record):
        doc = {**graphoid_to_json(base_graph), "folds": [record]}
        with pytest.raises(StoreError, match="fold record"):
            graphoid_from_json(doc, base_graph.catalog)


class TestSniffKind:
    def test_each_kind(self, base_graph, phone_dimension):
        assert sniff_kind(graphoid_to_json(base_graph)) == "graphoid"
        assert sniff_kind(instance_to_json(phone_dimension)) == "instance"
        assert sniff_kind(schema_to_json(phone_schema())) == "schema"
        rng = random.Random(5)
        cube = random_cube(rng, random_catalog(rng))
        assert sniff_kind(cube_to_json(cube)) == "cube"

    def test_unrecognized_document(self):
        with pytest.raises(StoreError, match="unrecognized document shape"):
            sniff_kind({"rows": []})


class TestLoadDimension:
    def test_instance_file(self, tmp_path, time_dimension):
        path = tmp_path / "time.json"
        save_json(instance_to_json(time_dimension), str(path))
        assert load_dimension(str(path)) == time_dimension

    def test_bare_schema_file_gives_empty_instance(self, tmp_path):
        path = tmp_path / "phone.json"
        save_json(schema_to_json(phone_schema()), str(path))
        instance = load_dimension(str(path))
        assert instance.schema == phone_schema()
        assert instance.domain("PhoneId") == frozenset()

    def test_graph_file_refused(self, tmp_path, base_graph):
        path = tmp_path / "graph.json"
        save_json(graphoid_to_json(base_graph), str(path))
        with pytest.raises(StoreError, match="expected a dimension file"):
            load_dimension(str(path))


def timestamped_time_document(days, starts) -> dict:
    """A Time file in the layout ``generate`` once wrote: below Day, a
    Timestamp level holding one ISO string per call start."""
    doc = instance_to_json(time_instance(days))
    doc["schema"]["levels"].insert(0, {"name": "Timestamp", "type": "string", "ordered": True, "open": False})
    doc["schema"]["edges"].insert(0, ["Timestamp", "Day"])
    doc["members"]["Timestamp"] = sorted(t.isoformat() for t in starts)
    doc["parents"][:0] = [[t.isoformat(), "Timestamp", t.date().isoformat(), "Day"] for t in sorted(starts)]
    return doc


class TestIngest:
    def test_time_file_with_a_timestamp_level_still_serves(self, tmp_path):
        data = generate(SMALL)
        days = data.catalog.instance("Time").domain("Day")
        path = tmp_path / "time.dimension.json"
        save_json(timestamped_time_document(days, {c.start for c in data.calls}), str(path))
        old = load_dimension(str(path))
        assert old.schema.bottom == "Timestamp"
        assert validate_instance(old) == []
        csv_path = tmp_path / "calls.csv"
        write_calls_csv(data.calls, str(csv_path))
        g = ingest_calls(str(csv_path), data.catalog.with_dimension(old))
        assert g.levels[("#Call", 0)] == "Day"
        assert g == data.graphoid

    def test_one_call_three_phones(self):
        data = generate(SMALL)
        source = csv_source(
            "c1,1,2,2016-03-04T10:00:00,2016-03-04T10:01:00,60",
            "c1,1,3,2016-03-04T10:00:00,2016-03-04T10:01:00,60",
        )
        g = ingest_calls(source, data.catalog)
        assert sorted(g.nodes) == [1, 2, 3]
        assert len(g.edges) == 1
        edge = g.edges[0]
        assert edge.source == frozenset({1})
        assert edge.target == frozenset({2, 3})
        assert edge.label == (datetime.date(2016, 3, 4), 60)
        assert g.levels[("#Call", 0)] == "Day"

    def test_header_is_checked(self):
        data = generate(SMALL)
        with pytest.raises(StoreError, match="expected columns"):
            ingest_calls(io.StringIO("a,b,c\n"), data.catalog)

    def test_malformed_value_is_line_numbered(self):
        data = generate(SMALL)
        source = csv_source("c1,one,2,2016-03-04T10:00:00,2016-03-04T10:01:00,60")
        with pytest.raises(StoreError, match="line 2: malformed row"):
            ingest_calls(source, data.catalog)

    def test_caller_as_participant_refused(self):
        data = generate(SMALL)
        source = csv_source("c1,1,1,2016-03-04T10:00:00,2016-03-04T10:01:00,60")
        with pytest.raises(StoreError, match="participant equals the caller"):
            ingest_calls(source, data.catalog)

    def test_disagreeing_rows_refused(self):
        data = generate(SMALL)
        source = csv_source(
            "c1,1,2,2016-03-04T10:00:00,2016-03-04T10:01:00,60",
            "c1,1,3,2016-03-04T10:00:00,2016-03-04T10:01:00,90",
        )
        with pytest.raises(StoreError, match="call c1 disagrees with line 2"):
            ingest_calls(source, data.catalog)

    def test_duplicate_participant_refused(self):
        data = generate(SMALL)
        source = csv_source(
            "c1,1,2,2016-03-04T10:00:00,2016-03-04T10:01:00,60",
            "c1,1,2,2016-03-04T10:00:00,2016-03-04T10:01:00,60",
        )
        with pytest.raises(StoreError, match="duplicate participant 2"):
            ingest_calls(source, data.catalog)

    def test_field_count_is_checked(self):
        data = generate(SMALL)
        source = csv_source("c1,1,2")
        with pytest.raises(StoreError, match="line 2: expected 6 fields"):
            ingest_calls(source, data.catalog)

    def test_empty_file_cannot_build_a_graph(self):
        data = generate(SMALL)
        with pytest.raises(GraphoidError, match="non-empty node set required"):
            ingest_calls(csv_source(), data.catalog)


class TestGenerator:
    def test_deterministic(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.calls == b.calls
        assert a.phones == b.phones
        assert a.graphoid == b.graphoid

    def test_shape_follows_the_config(self):
        data = generate(SMALL)
        assert len(data.graphoid.nodes) == SMALL.phone_count
        assert len(data.graphoid.edges) == SMALL.call_count
        assert len(data.calls) == SMALL.call_count
        for call in data.calls:
            assert 2 <= len(call.group) <= SMALL.max_group_size
            assert call.caller not in call.participants
            assert MIN_DURATION <= call.duration <= MAX_DURATION
            assert START_DATE <= call.start.date() <= END_DATE

    def test_pairs_only_when_group_size_is_two(self):
        data = generate(GeneratorConfig(phone_count=8, user_count=3, call_count=25,
                                        max_group_size=2, seed=11))
        assert all(len(e.adjacency) == 2 for e in data.graphoid.edges)

    def test_phone_infos_cover_every_phone(self):
        data = generate(SMALL)
        assert sorted(data.phones) == sorted(data.graphoid.nodes)
        for info in data.phones.values():
            assert info.operator in OPERATORS
            assert info.city in CITIES
            assert info.country in COUNTRIES

    def test_dimension_data_is_sound(self):
        data = generate(SMALL)
        phone = data.catalog.instance("Phone")
        assert validate_schema(phone.schema) == []
        assert validate_instance(phone) == []
        time = data.catalog.instance("Time")
        assert validate_instance(time) == []

    def test_time_file_does_not_grow_with_the_calls(self):
        texts = [
            dump_text(instance_to_json(generate(dataclasses.replace(SMALL, call_count=n)).catalog.instance("Time")))
            for n in (100, 1000)
        ]
        assert texts[0] == texts[1]
        assert [lv["name"] for lv in json.loads(texts[0])["schema"]["levels"]] == ["Day", "Month", "Year", "All"]

    def test_group_size_validation(self):
        with pytest.raises(StoreError, match="at least 2"):
            generate(GeneratorConfig(max_group_size=1))
        with pytest.raises(StoreError, match="not be below"):
            generate(GeneratorConfig(phone_count=2, max_group_size=4))

    def test_write_then_ingest_recovers_the_graph(self, tmp_path):
        data = generate(SMALL)
        path = tmp_path / "calls.csv"
        write_calls_csv(data.calls, str(path))
        assert ingest_calls(str(path), data.catalog) == data.graphoid

    def test_write_to_buffer_matches_file(self, tmp_path):
        data = generate(SMALL)
        buffer = io.StringIO()
        write_calls_csv(data.calls, buffer)
        path = tmp_path / "calls.csv"
        write_calls_csv(data.calls, str(path))
        assert buffer.getvalue() == path.read_text()

    def test_seed_changes_the_draw(self):
        a = generate(SMALL)
        b = generate(dataclasses.replace(SMALL, seed=4))
        assert a.calls != b.calls


# ---------------------------------------------------------------------------
# the decode and encode plans

FAULT_HEAD = {
    "nodeTypes": [{"name": "#Phone", "dims": ["Id", "Phone"]}],
    "edgeTypes": [{"name": "#Call", "dims": ["Time", "Duration"], "measures": [[1, "SUM"]]}],
    "levelMap": {"#Phone": ["Id", "Phone"], "#Call": ["Day", "Duration"]},
}
GOOD_NODES = [["#Phone", 11, "Ph1"], ["#Phone", 12, "Ph2"], ["#Phone", 13, "Ph3"]]


def fault_document(nodes: list, edges: list) -> dict:
    return json.loads(json.dumps(dict(FAULT_HEAD, nodes=nodes, edges=edges)))


class TestBuildReports:
    """The full problem report for documents with one row per fault, in row order.

    The expected lists are the reports of the per-row checks that predate
    the decode plan and the fast path, kept verbatim.
    """

    def test_node_faults(self, figures_catalog):
        doc = fault_document(
            [
                ["#Phone", 11, "Ph1"],
                ["#Pager", 12, "Ph2"],
                ["#Phone", 13],
                ["#Phone", 11, "Ph3"],
                ["#Phone", 14, "Ph9"],
                ["#Phone", "15", "Ph5"],
            ],
            [],
        )
        with pytest.raises(GraphoidBuildError) as info:
            graphoid_from_json(doc, figures_catalog)
        assert info.value.problems == [
            "node (12, 'Ph2'): unknown node type #Pager",
            "node (13,): expected 2 label slots",
            "node id 11: duplicate identifier",
            "node (14, 'Ph9'): slot 1 value 'Ph9' outside dom(Phone.Phone)",
            "node ('15', 'Ph5'): identifier slot must be an integer",
        ]

    EDGE_FAULTS = [
        ["#Call", [11], [12], "2016-10-10", 4],
        ["#Text", [11], [12], "2016-10-10", 4],
        ["#Phone", [11], [12], 5],
        ["#Call", [11], [12], "2016-10-10"],
        ["#Call", [], [], "2016-10-10", 4],
        ["#Call", [11], [99, 98], "2016-10-10", 4],
        ["#Call", [11], [12], "2016-10-11", 4],
        ["#Call", [11], [12], 20161010, 4],
        ["#Call", [11], [12], "2016-10-12", "long"],
        ["#Call", [97], [13], "2016-10-11", 4.5],
        # fails at both label slots: every failing slot is reported, not just the first
        ["#Call", [11], [12], "2016-10-11", "long"],
    ]
    EDGE_PROBLEMS = [
        "edge ('2016-10-10', 4): unknown edge type #Text",
        "edge (5,): unknown edge type #Phone",
        "edge #Call ('2016-10-10',): expected 2 label slots",
        "edge #Call (datetime.date(2016, 10, 10), 4): source and target sets are both empty",
        "edge #Call (datetime.date(2016, 10, 10), 4): endpoint 98 is not a node",
        "edge #Call (datetime.date(2016, 10, 10), 4): endpoint 99 is not a node",
        "edge #Call (datetime.date(2016, 10, 11), 4): slot 0 value datetime.date(2016, 10, 11) outside dom(Time.Day)",
        "edge #Call (20161010, 4): slot 0 value 20161010 outside dom(Time.Day)",
        "edge #Call (datetime.date(2016, 10, 12), 'long'): slot 1 value 'long' outside dom(Duration.Duration)",
        "edge #Call (datetime.date(2016, 10, 11), 4.5): endpoint 97 is not a node",
        "edge #Call (datetime.date(2016, 10, 11), 4.5): slot 0 value datetime.date(2016, 10, 11) outside dom(Time.Day)",
        "edge #Call (datetime.date(2016, 10, 11), 'long'): slot 0 value datetime.date(2016, 10, 11) outside dom(Time.Day)",
        "edge #Call (datetime.date(2016, 10, 11), 'long'): slot 1 value 'long' outside dom(Duration.Duration)",
    ]

    def test_edge_faults(self, figures_catalog):
        doc = fault_document(GOOD_NODES, self.EDGE_FAULTS)
        with pytest.raises(GraphoidBuildError) as info:
            graphoid_from_json(doc, figures_catalog)
        assert info.value.problems == self.EDGE_PROBLEMS

    def test_edge_faults_as_hyperedges(self, figures_catalog):
        # the document's date slots are decoded in place, so its rows can be built directly
        doc = fault_document(GOOD_NODES, self.EDGE_FAULTS)
        with pytest.raises(GraphoidBuildError):
            graphoid_from_json(doc, figures_catalog)
        edges = [HyperEdge(row[0], frozenset(row[1]), frozenset(row[2]), tuple(row[3:])) for row in doc["edges"]]
        decls = graphoid_from_json(fault_document(GOOD_NODES, []), figures_catalog)
        with pytest.raises(GraphoidBuildError) as info:
            build_graphoid(
                figures_catalog, decls.node_types.values(), decls.edge_types.values(), GOOD_NODES, edges, decls.levels
            )
        assert info.value.problems == self.EDGE_PROBLEMS


    def test_non_int_endpoints(self, figures_catalog):
        # each equals a node id; the float row comes after an int row with the same sets
        doc = fault_document(
            GOOD_NODES,
            [
                ["#Call", [11], [12, 13], "2016-10-10", 4],
                ["#Call", [11.0], [12, 13.0], "2016-10-10", 4],
                ["#Call", [11], [True], "2016-10-10", 4],
            ],
        )
        with pytest.raises(GraphoidBuildError) as info:
            graphoid_from_json(doc, figures_catalog)
        assert info.value.problems == [
            "edge #Call (datetime.date(2016, 10, 10), 4): endpoint 11.0 is not an integer",
            "edge #Call (datetime.date(2016, 10, 10), 4): endpoint 13.0 is not an integer",
            "edge #Call (datetime.date(2016, 10, 10), 4): endpoint True is not an integer",
        ]


class TestMalformedDates:
    def test_edge_row(self, figures_catalog):
        doc = fault_document(GOOD_NODES, [["#Call", [11], [12], "2016-10-10", 4], ["#Call", [11], [12], "2016-13-45", 4]])
        with pytest.raises(StoreError, match=r"^edges\[1\] slot 0: '2016-13-45' is not an ISO date \(month must be in 1..12\)$"):
            graphoid_from_json(doc, figures_catalog)

    def test_node_row(self, figures_catalog):
        doc = fault_document([["#Event", 1, "2016-10-10"], ["#Event", 2, "yesterday"]], [])
        doc["nodeTypes"] = [{"name": "#Event", "dims": ["Id", "Time"]}]
        doc["levelMap"] = {"#Event": ["Id", "Day"]}
        with pytest.raises(StoreError, match=r"^nodes\[1\] slot 1: 'yesterday' is not an ISO date"):
            graphoid_from_json(doc, figures_catalog)

    def test_instance_member_and_parent(self, time_dimension):
        doc = instance_to_json(time_dimension)
        doc["members"]["Day"].append("2016-02-30")
        with pytest.raises(StoreError, match=r"^dimension Time: member of level Day: '2016-02-30' is not an ISO date"):
            instance_from_json(doc)
        doc = instance_to_json(time_dimension)
        doc["parents"][2][0] = "2016-1-1"
        with pytest.raises(StoreError, match=r"^dimension Time: parents\[2\] child: '2016-1-1' is not an ISO date"):
            instance_from_json(doc)

    def test_cube_coordinate(self, figures_catalog):
        doc = {
            "dims": [{"dim": "Phone", "level": "Operator"}, {"dim": "Time", "level": "Day"}],
            "measures": [{"name": "Duration", "agg": "SUM"}],
            "cells": [[["ATT", "2016-10-10"], [4]], [["ATT", "2016-10-32"], [5]]],
        }
        with pytest.raises(StoreError, match=r"^cells\[1\] coordinate 1: '2016-10-32' is not an ISO date"):
            cube_from_json(doc, figures_catalog)

    def test_decoding_twice_changes_nothing(self, base_graph):
        doc = json.loads(json.dumps(graphoid_to_json(base_graph)))
        assert graphoid_from_json(doc, base_graph.catalog) == base_graph
        assert graphoid_from_json(doc, base_graph.catalog) == base_graph


def reference_graphoid_to_json(g) -> dict:
    """The document written value by value, the encoder the plan must match byte for byte."""

    def value(v):
        return v.isoformat() if isinstance(v, datetime.date) else v

    doc = {
        "nodeTypes": [{"name": d.name, "dims": list(d.dims)} for d in g.node_types.values()],
        "edgeTypes": [
            {"name": d.name, "dims": list(d.dims), "measures": [[slot, fn] for slot, fn in d.measures]}
            for d in g.edge_types.values()
        ],
        "levelMap": {
            name: [g.levels[(name, slot)] for slot in range(decl.arity)]
            for name, decl in list(g.node_types.items()) + list(g.edge_types.items())
        },
        "nodes": [[node.ntype] + [value(v) for v in node.label] for node in (g.nodes[i] for i in sorted(g.nodes))],
        "edges": [[e.etype, sorted(e.source), sorted(e.target)] + [value(v) for v in e.label] for e in g.edges],
    }
    if g.folds:
        doc["folds"] = [[name, slot, fn] for (name, slot), fn in sorted(g.folds.items())]
    return doc


def assert_round_trip(g) -> None:
    text = dump_text(graphoid_to_json(g))
    assert text == dump_text(reference_graphoid_to_json(g))
    loaded = graphoid_from_json(load_json(io.StringIO(text)), g.catalog)
    assert loaded == g
    assert loaded.folds == g.folds


class TestEncodePlan:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_graphoids(self, seed):
        assert_round_trip(random_graphoid(random.Random(seed)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_folded_generated_graphs(self, seed):
        rng = random.Random(seed)
        config = GeneratorConfig(phone_count=rng.randint(4, 10), user_count=3, call_count=rng.randint(1, 60), seed=seed)
        g = generate(config).graphoid
        assert_round_trip(g)
        fn = rng.choice(["SUM", "COUNT", "MIN", "MAX"])
        grouped = group(g, "#Phone", RollupStep("Phone", "PhoneId", rng.choice(["PhoneId", "Operator", "City"])))
        folded = roll_up(grouped, ["#Call"], RollupStep("Time", "Day", rng.choice(["Day", "Month", "Year"])), "#Call", [("Duration", fn)])
        assert folded.folds
        assert_round_trip(folded)
        assert_round_trip(slice_out(folded, "Time", [("Duration", fn)]))


# ---------------------------------------------------------------------------
# the decode entry on malformed documents

@functools.cache
def saved_values() -> tuple[tuple[object, dict, object], ...]:
    """A schema, instance, graph and cube, each with its saved text parsed back and its catalog."""
    data = generate(GeneratorConfig(phone_count=4, user_count=2, call_count=5, max_group_size=3, seed=1))
    rng = random.Random(2)
    cube_catalog = random_catalog(rng)
    values = (
        (time_schema(), schema_to_json, None),
        (data.catalog.instance("Time"), instance_to_json, None),
        (data.graphoid, graphoid_to_json, data.catalog),
        (random_cube(rng, cube_catalog), cube_to_json, cube_catalog),
    )
    return tuple((value, json.loads(dump_text(to_json(value))), catalog) for value, to_json, catalog in values)


def saved_documents() -> tuple[tuple[dict, object], ...]:
    """A saved schema, instance, graph and cube as plain JSON, each with its catalog."""
    return tuple((doc, catalog) for _, doc, catalog in saved_values())


def locations(value, path=()) -> list[tuple]:
    """The path of every dict entry and list item below ``value``."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return []
    out = []
    for key, child in children:
        out.append(path + (key,))
        out += locations(child, path + (key,))
    return out


MUTATIONS = ("delete", 7, [1], "x")


class TestDecodeMalformed:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reports_or_decodes(self, data):
        original, catalog = data.draw(st.sampled_from(saved_documents()))
        doc = copy.deepcopy(original)
        path = data.draw(st.sampled_from(locations(doc)))
        mutation = data.draw(st.sampled_from(MUTATIONS))
        holder = functools.reduce(lambda value, key: value[key], path[:-1], doc)
        if mutation == "delete":
            del holder[path[-1]]
        else:
            holder[path[-1]] = copy.deepcopy(mutation)
        try:
            kind, value = decode(doc, catalog)
            if kind == "schema":
                validate_schema(value)
            elif kind == "instance":
                validate_instance(value)
        except (GraphoidError, DimensionError):
            pass


# ---------------------------------------------------------------------------
# the column pass against a row-at-a-time reference

COLUMN_DATA = generate(GeneratorConfig(phone_count=8, user_count=3, call_count=4, seed=11))
# three edge types of arity 2, 3 and 0; #Call holds its date at slot 0, #Visit at slot 1
COLUMN_HEAD = {
    "nodeTypes": [{"name": "#Phone", "dims": ["Id", "Phone"]}],
    "edgeTypes": [
        {"name": "#Call", "dims": ["Time", "Duration"], "measures": [[1, "SUM"]]},
        {"name": "#Visit", "dims": ["Phone", "Time", "Duration"], "measures": [[2, "MAX"]]},
        {"name": "#Ping", "dims": [], "measures": []},
    ],
    "levelMap": {
        "#Phone": ["Id", "PhoneId"],
        "#Call": ["Day", "Duration"],
        "#Visit": ["City", "Day", "Duration"],
        "#Ping": [],
    },
}
COLUMN_DATES = {"#Call": {0}, "#Visit": {1}}
# endpoint lists as a writer other than graphoid_to_json may give them: unsorted, with repeats
COLUMN_ENDS = st.lists(st.integers(1, 8), max_size=3)
COLUMN_DAYS = st.sampled_from(["2016-01-01", "2016-02-29", "2016-07-04", "2016-12-31"]) | st.dates(
    datetime.date(2016, 1, 1), datetime.date(2016, 12, 31)
).map(datetime.date.isoformat)
COLUMN_DURATIONS = st.integers(1, 3600) | st.floats(1, 3600, allow_nan=False)
COLUMN_ROWS = st.lists(
    st.one_of(
        st.tuples(st.just("#Call"), COLUMN_ENDS, COLUMN_ENDS, COLUMN_DAYS, COLUMN_DURATIONS),
        st.tuples(st.just("#Visit"), COLUMN_ENDS, COLUMN_ENDS, st.sampled_from(CITIES), COLUMN_DAYS, COLUMN_DURATIONS),
        st.tuples(st.just("#Ping"), COLUMN_ENDS, COLUMN_ENDS),
    )
    .filter(lambda row: row[1] or row[2])
    .map(list),
    max_size=30,
).filter(lambda rows: len({row[0] for row in rows}) >= 2)


def column_document(rows: list) -> dict:
    nodes = graphoid_to_json(COLUMN_DATA.graphoid)["nodes"]
    return json.loads(json.dumps(dict(COLUMN_HEAD, nodes=nodes, edges=rows)))


def per_row_table(rows: list) -> tuple[dict[str, tuple[list, list, list, list]], list]:
    """The set-id, label and position columns of ``rows`` per type, and the
    set list, read one row at a time: rows grouped stably by type, types in
    the order of their first row, each date string parsed where it stands,
    each distinct endpoint set numbered at its first row, a type's sources
    before its targets."""
    set_ids: dict[frozenset, int] = {}
    table = {}
    for kind in dict.fromkeys(row[0] for row in rows):
        positions = [i for i, row in enumerate(rows) if row[0] == kind]
        sources = [set_ids.setdefault(frozenset(rows[i][1]), len(set_ids)) for i in positions]
        targets = [set_ids.setdefault(frozenset(rows[i][2]), len(set_ids)) for i in positions]
        labels = [
            tuple(
                datetime.date.fromisoformat(value) if slot in COLUMN_DATES.get(kind, ()) else value
                for slot, value in enumerate(rows[i][3:])
            )
            for i in positions
        ]
        table[kind] = (sources, targets, labels, positions)
    return table, list(set_ids)


class TestColumnPass:
    @settings(max_examples=150, deadline=None)
    @given(COLUMN_ROWS)
    def test_load_equals_the_per_row_reference(self, rows):
        doc = column_document(rows)
        table = graphoid_from_json(doc, COLUMN_DATA.catalog).edge_table
        reference, sets = per_row_table(rows)
        assert list(table.types) == list(reference) and list(table.sets) == sets
        for kind, (sources, targets, labels, positions) in reference.items():
            got = table.types[kind]
            assert (list(got.sources), list(got.targets)) == (sources, targets)
            assert list(got.labels()) == labels
            assert [tuple(map(type, label)) for label in got.labels()] == [tuple(map(type, label)) for label in labels]
            assert list(got.surrogates) == positions
        # a document that loads is read, not rewritten
        assert doc["edges"] == [list(row) for row in rows]

    @settings(max_examples=150, deadline=None)
    @given(COLUMN_ROWS)
    def test_save_of_a_loaded_document_equals_the_reference(self, rows):
        g = graphoid_from_json(column_document(rows), COLUMN_DATA.catalog)
        assert dump_text(graphoid_to_json(g)) == dump_text(reference_graphoid_to_json(g))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_save_of_edgified_graphs_equals_the_reference(self, seed):
        rng = random.Random(seed)
        config = GeneratorConfig(phone_count=rng.randint(4, 10), user_count=3, call_count=rng.randint(0, 40), seed=seed)
        g = edgify(generate(config).graphoid, "#Phone", 1)
        assert g.edge_table.types.keys() == {"#Call", "#HasPhone"} or not config.call_count
        assert_round_trip(g)
        yearly = roll_up(g, ["#Call"], RollupStep("Time", "Day", rng.choice(["Month", "Year"])), "#Call", [("Duration", "SUM")])
        assert_round_trip(yearly)

    def test_a_repeated_bad_date_is_refused_at_its_first_row(self):
        rows = [
            ["#Ping", [1], []],
            ["#Call", [1], [2], "2016-10-10", 4],
            ["#Visit", [2], [3, 1], "Salta", "2016-13-45", 5],
            ["#Call", [3], [2], "2016-13-45", 6],
            ["#Visit", [2], [3], "Salta", "2016-13-45", 5],
        ]
        doc = column_document(rows)
        with pytest.raises(StoreError, match=r"^edges\[2\] slot 1: '2016-13-45' is not an ISO date"):
            graphoid_from_json(doc, COLUMN_DATA.catalog)
        # refused before the build's own problems, here an unknown node type
        doc = column_document(rows)
        doc["nodes"].append(["#Pager", 99, 99])
        with pytest.raises(StoreError, match=r"^edges\[2\] slot 1: '2016-13-45' is not an ISO date"):
            graphoid_from_json(doc, COLUMN_DATA.catalog)
