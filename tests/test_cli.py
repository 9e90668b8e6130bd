"""The command line: exit codes, output formats, and the statement loop."""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from graphoid import cli, metrics, store
from graphoid.dims import DimensionCatalog, DimensionSchema, Level, RollupStep
from graphoid.metrics import PathResult
from graphoid.olap import group, roll_up

PIPELINE = """\
G = LOAD "graph.json";
G2 = GROUP(G, #Phone, Phone: PhoneId -> Operator);
Y = ROLLUP(G2, {#Call}, Time: Day -> Year; #Call, Duration, SUM);
OUTPUT Y;
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated data directory: dimensions, calls.csv, graph.json."""
    d = tmp_path_factory.mktemp("cli")
    rc = cli.main(
        [
            "generate",
            "--out",
            str(d),
            "--phones",
            "10",
            "--users",
            "4",
            "--calls",
            "20",
            "--max-group",
            "3",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    return d


def dim_args(d) -> list[str]:
    args = []
    for name in ("phone", "time", "duration"):
        args += ["--dims", str(d / f"{name}.dimension.json")]
    return args


def load_catalog(d) -> DimensionCatalog:
    catalog = DimensionCatalog.of()
    for name in ("phone", "time", "duration"):
        catalog = catalog.with_dimension(store.load_dimension(str(d / f"{name}.dimension.json")))
    return catalog


class TestGenerate:
    def test_writes_the_whole_workspace(self, workspace, capsys):
        for name in (
            "phone.dimension.json",
            "time.dimension.json",
            "duration.dimension.json",
            "calls.csv",
            "graph.json",
        ):
            assert (workspace / name).exists()
        generated = store.generate(store.GeneratorConfig(phone_count=10, user_count=4, call_count=20, max_group_size=3, seed=5))
        loaded = store.graphoid_from_json(store.load_json(str(workspace / "graph.json")), load_catalog(workspace))
        assert loaded.bag_equal(generated.graphoid)

    def test_mentions_the_sizes(self, tmp_path, capsys):
        rc = cli.main(
            ["generate", "--out", str(tmp_path / "w"), "--phones", "6", "--users", "2",
             "--calls", "5", "--max-group", "2", "--seed", "1"]
        )
        assert rc == 0
        assert "generated 5 calls over 6 phones" in capsys.readouterr().out

    def test_invalid_config_fails(self, tmp_path, capsys):
        rc = cli.main(
            ["generate", "--out", str(tmp_path / "w"), "--phones", "2", "--max-group", "4"]
        )
        assert rc == 1
        assert "generate failed" in capsys.readouterr().err


class TestValidate:
    def test_generated_artifacts_are_valid(self, workspace, capsys):
        files = [
            str(workspace / "phone.dimension.json"),
            str(workspace / "time.dimension.json"),
            str(workspace / "duration.dimension.json"),
            str(workspace / "graph.json"),
        ]
        rc = cli.main(["validate", *files, *dim_args(workspace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("OK ") == 4
        assert "valid instance" in out and "valid graphoid" in out

    def test_schema_problems_fail(self, tmp_path, capsys):
        bad = DimensionSchema("Bad", (Level("A"), Level("B")), ())
        path = tmp_path / "bad.json"
        store.save_json(store.schema_to_json(bad), str(path))
        rc = cli.main(["validate", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("FAIL")

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        rc = cli.main(["validate", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_broken_json_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        rc = cli.main(["validate", str(path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_broken_json_does_not_stop_later_files(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        good = workspace / "phone.dimension.json"
        rc = cli.main(["validate", str(broken), str(good)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1 and f"{broken}: not valid JSON (" in captured.err
        assert captured.out == f"OK {good}: valid instance\n"

    def test_unreadable_file_outranks_an_invalid_one(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        good = workspace / "phone.dimension.json"
        rc = cli.main(["validate", str(missing), str(good)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1 and f"cannot read {missing}: " in captured.err
        assert captured.out == f"OK {good}: valid instance\n"
        odd = tmp_path / "odd.json"
        odd.write_text('{"rows": []}\n')
        assert cli.main(["validate", str(odd), str(missing)]) == 2
        assert cli.main(["validate", str(odd), str(good)]) == 1

    def test_unrecognized_shape_fails(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text('{"rows": []}\n')
        rc = cli.main(["validate", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "unrecognized document shape" in out


def bad_graph_file(workspace, tmp_path) -> pathlib.Path:
    """The workspace graph with its first edge dated on a day that does not exist."""
    doc = store.load_json(str(workspace / "graph.json"))
    doc["edges"][0][3] = "2016-13-45"
    path = tmp_path / "bad_graph.json"
    store.save_json(doc, str(path))
    return path


def bad_time_file(workspace, tmp_path) -> pathlib.Path:
    """The workspace Time dimension with one Day member that does not exist."""
    doc = store.load_json(str(workspace / "time.dimension.json"))
    doc["members"]["Day"].append("2016-02-30")
    path = tmp_path / "bad_time.json"
    store.save_json(doc, str(path))
    return path


BAD_EDGE_DATE = "edges[0] slot 0: '2016-13-45' is not an ISO date (month must be in 1..12)"
BAD_DAY_MEMBER = "dimension Time: member of level Day: '2016-02-30' is not an ISO date (day is out of range for month)"


class TestMalformedDates:
    def test_validate_reports_the_edge_row(self, workspace, tmp_path, capsys):
        path = bad_graph_file(workspace, tmp_path)
        rc = cli.main(["validate", str(path), *dim_args(workspace)])
        assert rc == 1
        assert capsys.readouterr().out == f"FAIL {path}: {BAD_EDGE_DATE}\n"

    def test_validate_reports_the_dimension_member(self, workspace, tmp_path, capsys):
        path = bad_time_file(workspace, tmp_path)
        rc = cli.main(["validate", str(path)])
        assert rc == 1
        assert capsys.readouterr().out == f"FAIL {path}: {BAD_DAY_MEMBER}\n"

    def test_query_load_is_an_evaluation_error(self, workspace, tmp_path, capsys):
        path = bad_graph_file(workspace, tmp_path)
        qfile = tmp_path / "load_bad.gql"
        qfile.write_text(f'G = LOAD "{path.name}";\nOUTPUT G;\n')
        rc = cli.main(["query", str(qfile), *dim_args(workspace)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("evaluation error: ") and BAD_EDGE_DATE in err

    def test_dims_file_is_refused(self, workspace, tmp_path, capsys):
        path = bad_time_file(workspace, tmp_path)
        rc = cli.main(["validate", str(workspace / "graph.json"), "--dims", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == f"{path}: {BAD_DAY_MEMBER}\n"


def short_row_file(workspace, tmp_path, section: str, row: list) -> pathlib.Path:
    """The workspace graph with its first node or edge row replaced by ``row``."""
    doc = store.load_json(str(workspace / "graph.json"))
    doc[section][0] = row
    path = tmp_path / "short_row.json"
    store.save_json(doc, str(path))
    return path


SHORT_ROWS = [
    ("edges", ["#Call", [1]], "edge row ['#Call', [1]]: expected a type, source ids and target ids"),
    ("edges", [], "edge row []: expected a type, source ids and target ids"),
    ("nodes", [], "node row []: expected a type and a label"),
]


class TestShortRows:
    @pytest.mark.parametrize("section, row, problem", SHORT_ROWS)
    def test_validate_reports_the_row(self, workspace, tmp_path, capsys, section, row, problem):
        path = short_row_file(workspace, tmp_path, section, row)
        rc = cli.main(["validate", str(path), *dim_args(workspace)])
        assert rc == 1
        assert capsys.readouterr().out == f"FAIL {path}: {problem}\n"

    @pytest.mark.parametrize("section, row, problem", SHORT_ROWS)
    def test_query_load_is_an_evaluation_error(self, workspace, tmp_path, capsys, section, row, problem):
        path = short_row_file(workspace, tmp_path, section, row)
        qfile = tmp_path / "load_short.gql"
        qfile.write_text(f'G = LOAD "{path.name}";\nOUTPUT G;\n')
        rc = cli.main(["query", str(qfile), *dim_args(workspace)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("evaluation error: ") and problem in err


class TestDimsNotJson:
    @pytest.mark.parametrize("command", ["validate", "query"])
    def test_reported_without_a_traceback(self, workspace, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text("{")
        rc = cli.main([command, str(workspace / "graph.json"), "--dims", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: not valid JSON (") and err.count("\n") == 1


def workspace_doc(name: str, **changes):
    """A file builder: the workspace's ``name`` document with some keys replaced."""

    def build(workspace) -> dict:
        return {**store.load_json(str(workspace / name)), **changes}

    return build


BAD_CELL_CUBE = {
    "dims": [{"dim": "Phone", "level": "Phone"}],
    "measures": [{"name": "M", "agg": "SUM"}],
    "cells": [[["x"]]],
}
NO_DIMS_GRAPH = {"nodeTypes": [{"name": "#P"}]}
LIST_LEVEL_MAP_GRAPH = {"nodeTypes": [], "levelMap": [1]}
SHORT_FOLD_GRAPH = workspace_doc("graph.json", folds=[["#Call", 1]])


def load_program(name: str) -> str:
    return f'G = LOAD "{name}";\nOUTPUT G;\n'


# (files to write, argv, stdin, exit code, the one line printed); DIMS stands
# for the workspace's --dims arguments and WS for the workspace directory
MALFORMED_INPUTS = [
    pytest.param({}, ["validate", "-"], "{", 1, "-: not valid JSON (", id="validate-stdin-not-json"),
    pytest.param(
        {"c.json": BAD_CELL_CUBE}, ["validate", "c.json"], None, 1,
        "FAIL c.json: malformed cube document: not enough values to unpack", id="cube-cell-not-a-pair",
    ),
    pytest.param(
        {"f.json": SHORT_FOLD_GRAPH}, ["validate", "f.json", "DIMS"], None, 1,
        "FAIL f.json: malformed graphoid document: not enough values to unpack", id="validate-short-fold",
    ),
    pytest.param(
        {"f.json": SHORT_FOLD_GRAPH, "q.gql": load_program("f.json")}, ["query", "q.gql", "DIMS"], None, 1,
        "malformed graphoid document: not enough values to unpack", id="load-short-fold",
    ),
    pytest.param(
        {"m.json": workspace_doc("time.dimension.json", members=["Day"])}, ["validate", "m.json"], None, 1,
        "FAIL m.json: malformed instance document: ", id="instance-members-a-list",
    ),
    pytest.param(
        {"g.json": NO_DIMS_GRAPH, "q.gql": load_program("g.json")}, ["query", "q.gql", "DIMS"], None, 1,
        "evaluation error: line 1, col 1: malformed graphoid document: missing key 'dims'", id="load-node-type-without-dims",
    ),
    pytest.param(
        {"g.json": LIST_LEVEL_MAP_GRAPH, "q.gql": load_program("g.json")}, ["query", "q.gql", "DIMS"], None, 1,
        "evaluation error: line 1, col 1: malformed graphoid document: ", id="load-level-map-a-list",
    ),
    pytest.param({}, ["ingest", "WS", "DIMS"], None, 2, "cannot read ", id="ingest-a-directory"),
    pytest.param(
        {"taken": "x"}, ["generate", "--out", "taken/x"], None, 2, "cannot write taken/x: ", id="generate-under-a-file",
    ),
    pytest.param(
        {"bad.json": NO_DIMS_GRAPH}, ["validate", "bad.json"], None, 1,
        "FAIL bad.json: malformed graphoid document: missing key 'dims'", id="validate-node-type-without-dims",
    ),
    pytest.param(
        {"s.json": {"name": "S", "levels": [{"type": "string"}], "edges": []}},
        ["validate", "WS/graph.json", "--dims", "s.json"], None, 1,
        "s.json: malformed schema document: missing key 'name'", id="dims-level-without-name",
    ),
    pytest.param(
        {"n.json": 5}, ["validate", "n.json"], None, 1, "FAIL n.json: unrecognized document shape", id="validate-a-number",
    ),
    pytest.param(
        {}, ["generate", "--out", "w", "--users", "0"], None, 1,
        "generate failed: user_count must be at least 1", id="generate-no-users",
    ),
    pytest.param(
        {}, ["generate", "--out", "w", "--calls", "-3"], None, 1,
        "generate failed: call_count must not be negative", id="generate-negative-calls",
    ),
    pytest.param(
        {}, ["bench", "--users", "0"], None, 1, "bench failed: user_count must be at least 1", id="bench-no-users",
    ),
    pytest.param(
        {}, ["theorem1", "--trials", "-2"], None, 2, "theorem1: trials must be at least 1", id="theorem1-negative-trials",
    ),
    pytest.param({}, ["theorem1", "--trials", "0"], None, 2, "theorem1: trials must be at least 1", id="theorem1-no-trials"),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("files, argv, stdin, code, line", MALFORMED_INPUTS)
    def test_one_line_report(self, workspace, tmp_path, monkeypatch, capsys, files, argv, stdin, code, line):
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            if callable(content):
                content = content(workspace)
            pathlib.Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        args = []
        for arg in argv:
            args += dim_args(workspace) if arg == "DIMS" else [arg.replace("WS", str(workspace))]
        rc = cli.main(args)
        captured = capsys.readouterr()
        printed = captured.out + captured.err
        assert rc == code
        assert line in printed and printed.count("\n") == 1
        assert "Traceback" not in printed


class TestIngest:
    def test_round_trips_the_generated_calls(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "ingested.json"
        rc = cli.main(
            ["ingest", str(workspace / "calls.csv"), *dim_args(workspace), "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "ingested 20 calls over 10 phones" in captured.err
        catalog = load_catalog(workspace)
        got = store.graphoid_from_json(store.load_json(str(out_path)), catalog)
        expected = store.graphoid_from_json(store.load_json(str(workspace / "graph.json")), catalog)
        assert got == expected

    def test_missing_csv_is_a_usage_error(self, workspace, capsys):
        rc = cli.main(["ingest", str(workspace / "nope.csv"), *dim_args(workspace)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_header_fails(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        rc = cli.main(["ingest", str(path), *dim_args(workspace)])
        assert rc == 1
        assert "ingest failed" in capsys.readouterr().err

    def test_dims_are_required(self, workspace):
        with pytest.raises(SystemExit) as info:
            cli.main(["ingest", str(workspace / "calls.csv")])
        assert info.value.code == 2


class TestQuery:
    def expected_rollup(self, workspace):
        catalog = load_catalog(workspace)
        g = store.graphoid_from_json(store.load_json(str(workspace / "graph.json")), catalog)
        grouped = group(g, "#Phone", RollupStep("Phone", "PhoneId", "Operator"))
        return roll_up(
            grouped, ["#Call"], RollupStep("Time", "Day", "Year"), "#Call", [("Duration", "SUM")]
        )

    def test_batch_json_output(self, workspace, capsys):
        qfile = workspace / "rollup.gql"
        qfile.write_text(PIPELINE)
        rc = cli.main(["query", str(qfile), *dim_args(workspace), "--out", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        got = store.graphoid_from_json(json.loads(out), load_catalog(workspace))
        assert got == self.expected_rollup(workspace)

    def test_batch_csv_output(self, workspace, capsys):
        qfile = workspace / "rollup.gql"
        qfile.write_text(PIPELINE)
        rc = cli.main(["query", str(qfile), *dim_args(workspace), "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "type,source,target,v0,v1"
        assert len(lines) == 1 + len(self.expected_rollup(workspace).edges)
        assert all(line.startswith("#Call,") for line in lines[1:])

    def test_paths_render_as_csv(self, workspace, capsys):
        qfile = workspace / "paths.gql"
        qfile.write_text('G = LOAD "graph.json";\nOUTPUT SHORTESTPATHS(G, #Phone, #Phone, *);\n')
        rc = cli.main(["query", str(qfile), *dim_args(workspace), "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "source,target,hops,path"
        assert len(out.splitlines()) == 1 + 10 * 9

    def test_out_file(self, workspace, tmp_path, capsys):
        qfile = workspace / "rollup.gql"
        qfile.write_text(PIPELINE)
        target = tmp_path / "result.json"
        rc = cli.main(["query", str(qfile), *dim_args(workspace), "--out", str(target)])
        capsys.readouterr()
        assert rc == 0
        got = store.graphoid_from_json(json.loads(target.read_text()), load_catalog(workspace))
        assert got == self.expected_rollup(workspace)

    def test_syntax_error(self, workspace, tmp_path, capsys):
        qfile = tmp_path / "broken.gql"
        qfile.write_text("OUTPUT FOO(G);\n")
        rc = cli.main(["query", str(qfile), *dim_args(workspace)])
        assert rc == 1
        assert "syntax error: line 1" in capsys.readouterr().err

    def test_date_literal_that_is_no_day(self, workspace, tmp_path, capsys):
        qfile = tmp_path / "baddate.gql"
        qfile.write_text("OUTPUT DICE(G, Time.Day = 2016-13-45);\n")
        rc = cli.main(["query", str(qfile), *dim_args(workspace)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "syntax error: line 1, col 27: no such date 2016-13-45" in err
        assert "Traceback" not in err

    def test_check_error(self, workspace, tmp_path, capsys):
        qfile = tmp_path / "unbound.gql"
        qfile.write_text("OUTPUT MINIMIZE(G);\n")
        rc = cli.main(["query", str(qfile), *dim_args(workspace)])
        assert rc == 1
        assert "check error" in capsys.readouterr().err

    def test_evaluation_error(self, workspace, tmp_path, capsys):
        qfile = workspace / "badload.gql"
        qfile.write_text('G = LOAD "missing.json";\nOUTPUT G;\n')
        rc = cli.main(["query", str(qfile), *dim_args(workspace)])
        assert rc == 1
        assert "evaluation error" in capsys.readouterr().err

    def test_needs_file_or_repl(self, workspace, capsys):
        rc = cli.main(["query", *dim_args(workspace)])
        assert rc == 2
        assert "query needs a program file or --repl" in capsys.readouterr().err

    def test_missing_program_file(self, workspace, capsys):
        rc = cli.main(["query", "nope.gql", *dim_args(workspace)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


class TestRepl:
    def run_repl(self, workspace, text, monkeypatch, capsys):
        monkeypatch.chdir(workspace)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc = cli.main(["query", "--repl", *dim_args(workspace)])
        captured = capsys.readouterr()
        return rc, captured.out

    def test_bindings_persist_across_statements(self, workspace, monkeypatch, capsys):
        script = 'G = LOAD "graph.json";\nOUTPUT\nMINIMIZE(G);\nexit\n'
        rc, out = self.run_repl(workspace, script, monkeypatch, capsys)
        assert rc == 0
        assert "G = graphoid: 10 nodes, 20 edges" in out
        assert '"nodeTypes"' in out

    def test_errors_do_not_kill_the_loop(self, workspace, monkeypatch, capsys):
        script = (
            'G = LOAD "graph.json";\n'
            "X = FOO(G);\n"
            "OUTPUT H;\n"
            "N = MINIMIZE(G);\n"
        )
        rc, out = self.run_repl(workspace, script, monkeypatch, capsys)
        assert rc == 0
        assert "error: line 1, col 5: unknown operation 'FOO'" in out
        assert "error: line 1: name 'H' used before definition" in out
        assert "N = graphoid:" in out

    def test_date_literal_that_is_no_day_does_not_kill_the_loop(self, workspace, monkeypatch, capsys):
        script = 'G = LOAD "graph.json";\nOUTPUT DICE(G, Time.Day = 2016-13-45);\nN = MINIMIZE(G);\n'
        rc, out = self.run_repl(workspace, script, monkeypatch, capsys)
        assert rc == 0
        assert "error: line 1, col 27: no such date 2016-13-45" in out
        assert "N = graphoid:" in out

    def test_quit_stops_reading(self, workspace, monkeypatch, capsys):
        script = "quit\nG = LOAD \"graph.json\";\n"
        rc, out = self.run_repl(workspace, script, monkeypatch, capsys)
        assert rc == 0
        assert "G =" not in out


class TestTheorem1:
    def test_text_report(self, capsys):
        rc = cli.main(["theorem1", "--trials", "12", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("trial 0000 ok")
        assert lines[-1] == "12/12 equivalent"

    def test_json_report(self, capsys):
        rc = cli.main(["theorem1", "--trials", "8", "--seed", "5", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(row["ok"] for row in lines[:-1])
        assert lines[-1] == {"trials": 8, "equivalent": 8}

    def test_same_report_without_operator_call(self, capsys):
        """Python 3.10 has no ``operator.call``; the report is the same
        without it."""
        args = ["theorem1", "--trials", "8", "--seed", "5", "--format", "json"]
        assert cli.main(args) == 0
        expected = capsys.readouterr().out
        code = (
            "import operator, sys; del operator.call\n"
            "from graphoid import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected


SMALL_BENCH = ["--phones", "12", "--users", "5", "--calls", "60", "--seed", "2"]


class TestBench:
    def test_small_run(self, capsys):
        rc = cli.main(["bench", *SMALL_BENCH])
        out = capsys.readouterr().out
        assert rc == 0
        assert "benchmark over 60 calls, 12 phones" in out
        for label in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"):
            assert label in out
        last = out.splitlines()[-1]
        assert re.fullmatch(r"peak RSS \d+\.\d MiB", last), last

    def test_collector_line_before_the_peak(self, capsys):
        callbacks = list(gc.callbacks)
        assert cli.main(["bench", *SMALL_BENCH, "--sizes", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"cyclic collector \d+\.\d ms in \d+ collections", lines[-2]), lines[-2]
        assert gc.callbacks == callbacks

    def test_results_digest_recomputes_from_the_results(self, capsys, monkeypatch):
        results = []

        def recording(fn):
            def wrapper(*args):
                results.append(fn(*args))
                return results[-1]

            return wrapper

        for name in ("group_average", "shortest_paths"):
            monkeypatch.setattr(metrics, name, recording(getattr(metrics, name)))
        assert cli.main(["bench", *SMALL_BENCH]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [type(r).__name__ for r in results] == ["dict"] * 6 + ["tuple"] * 4
        assert any(len(r) == 0 for r in results) and any(len(r) > 1 for r in results)
        whole = hashlib.sha256()
        for result in results:
            whole.update(repr(result).encode())
        assert lines[-3] == f"results sha256 {whole.hexdigest()}"

    def test_desk_scale_is_the_default_size(self, capsys):
        rc = cli.main(["bench", "--scale", "desk", "--calls", "60", "--sizes", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "benchmark over 60 calls, 100 phones (seed 7)" in out

    def test_preset_seed_applies_unless_given(self, capsys):
        sizes = ["--phones", "12", "--users", "5", "--calls", "60", "--sizes", "2"]
        assert cli.main(["bench", "--scale", "d1", *sizes]) == 0
        assert "12 phones (seed 1)" in capsys.readouterr().out
        assert cli.main(["bench", "--scale", "d1", "--seed", "4", *sizes]) == 0
        assert "12 phones (seed 4)" in capsys.readouterr().out

    def test_bad_sizes_are_a_usage_error(self, capsys):
        assert cli.main(["bench", *SMALL_BENCH, "--sizes", "0"]) == 2
        assert "group sizes must be at least 1" in capsys.readouterr().err

    def test_bad_config_fails(self, capsys):
        assert cli.main(["bench", "--phones", "1", "--calls", "60"]) == 1
        assert "bench failed" in capsys.readouterr().err


class TestFeedRepr:
    ROW = PathResult(11, 14, 3, (11, 12, 13, 14))

    @pytest.mark.parametrize(
        "result",
        [
            (),
            (ROW,),
            (ROW, PathResult(11, 12, 1, (11, 12)), PathResult(11, 16, -1, ())),
            tuple(PathResult(i, i + 1, 1, (i, i + 1)) for i in range(10_000)),
            {},
            {(11, 12): 4.0},
            {(i, i + 1): i / 3 for i in range(10_000)},
        ],
        ids=["empty tuple", "one row", "three rows", "10000 rows", "empty dict", "one entry", "10000 entries"],
    )
    def test_equals_the_hash_of_the_whole_repr(self, result):
        digest = hashlib.sha256()
        cli._feed_repr(digest, result)
        assert digest.hexdigest() == hashlib.sha256(repr(result).encode()).hexdigest()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of each ``graphoid`` command in a README code block."""
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.removeprefix("$ ").strip()
            if line.startswith("graphoid "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestReadme:
    def test_commands_parse(self):
        commands = readme_commands()
        assert len(commands) >= 5
        for argv in commands:
            cli.build_parser().parse_args(argv)

    def test_named_scripts_exist(self):
        root = README.parent
        for name in re.findall(r"scripts/[\w.-]+\.py", README.read_text(encoding="utf-8")):
            assert (root / name).is_file(), name
