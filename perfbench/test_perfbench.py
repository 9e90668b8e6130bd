"""Tests of the benchmark itself: each oracle agrees with the engine on a small
generated graph and flags a deliberately wrong result; the tracer counts and
restores; the command fails cleanly where there is nothing to build.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from graphoid import cli, cubes, metrics, olap, store
from graphoid.dims import RollupStep
from graphoid.metrics import NodeFilter, PathResult
from graphoid.olap import Atom, Condition

import oracles
import run
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUM = [("Duration", "SUM")]
CALL, PHONE = store.CALL_TYPE, store.PHONE_TYPE
DAY_MONTH = RollupStep("Time", "Day", "Month")
DAY_YEAR = RollupStep("Time", "Day", "Year")


@pytest.fixture(scope="module")
def data():
    return store.generate(
        store.GeneratorConfig(phone_count=16, user_count=8, call_count=300, seed=5)
    )


@pytest.fixture(scope="module")
def sparse():
    """Few calls over many phones: long paths and unreachable pairs."""
    return store.generate(
        store.GeneratorConfig(phone_count=40, user_count=20, call_count=45, seed=5)
    )


def by(g, level):
    return olap.group(g, PHONE, RollupStep("Phone", "PhoneId", level))


def perturbed(g, index=0, delta=1):
    """The same graph with one edge's measure moved by ``delta``."""
    edges = list(g.edges)
    e = edges[index]
    edges[index] = type(e)(e.etype, e.source, e.target, (e.label[0], e.label[1] + delta), e.surrogate)
    return g.derive(edges=tuple(edges))


def dropped(g, index=0):
    return g.derive(edges=g.edges[:index] + g.edges[index + 1 :])


# ---------------------------------------------------------------------------
# roll-up, group, slice and drill-down totals

@pytest.mark.parametrize("fn", ["SUM", "MIN", "MAX", "COUNT", "AVG"])
def test_rollup_oracle_agrees_and_flags_a_perturbed_measure(data, fn):
    got = olap.roll_up(data.graphoid, [CALL], DAY_MONTH, CALL, [("Duration", fn)])
    expected = oracles.rollup_totals(data.calls, data.phones, "PhoneId", "Month", fn)
    assert oracles.check_totals(got, expected, "roll-up") == []
    assert oracles.check_totals(perturbed(got, delta=0.5), expected, "roll-up")


def test_group_rollup_oracle_agrees_and_flags_a_dropped_edge(data):
    got = olap.roll_up(by(data.graphoid, "Operator"), [CALL], DAY_YEAR, CALL, SUM)
    expected = oracles.rollup_totals(data.calls, data.phones, "Operator", "Year")
    assert oracles.check_totals(got, expected, "group") == []
    assert oracles.check_totals(dropped(got), expected, "group")


def test_totals_flag_unmerged_classes(data):
    expected = oracles.rollup_totals(data.calls, data.phones, "PhoneId", "Year")
    # climbing without aggregating leaves parallel edges in one class
    unmerged = olap.climb(data.graphoid, [CALL], DAY_YEAR)
    assert oracles.check_totals(unmerged, expected, "climb")


def test_slice_and_drill_down_oracles(data):
    g = data.graphoid
    sliced = olap.slice_out(g, "Time", SUM)
    assert oracles.check_totals(sliced, oracles.rollup_totals(data.calls, data.phones, "PhoneId", "All"), "slice") == []
    monthly = oracles.rollup_totals(data.calls, data.phones, "PhoneId", "Month")
    yearly = olap.roll_up(g, [CALL], DAY_YEAR, CALL, SUM)
    drilled = olap.drill_down(yearly, [CALL], "Time", "Month", CALL, SUM)
    assert oracles.check_totals(drilled, monthly, "drill-down") == []
    # the yearly graph is not the monthly one
    assert oracles.check_totals(yearly, monthly, "drill-down")


# ---------------------------------------------------------------------------
# dice, strong dice, save, load and the CLI query

def test_dice_oracles_agree_and_flag_a_dropped_edge(data):
    g = data.graphoid
    diced = olap.dice(g, Condition.of(Atom("Phone", "City", "=", "Salta")))
    expected = oracles.call_bag(
        oracles.dice_survivors(data.calls, data.phones, on_phone=lambda p: p.city == "Salta")
    )
    assert sum(expected.values()) > 0
    assert oracles.check_bag(oracles.graph_bag(diced), expected, "dice") == []
    assert oracles.check_bag(oracles.graph_bag(dropped(diced)), expected, "dice")

    s_diced = olap.s_dice(g, Condition.of(Atom("Duration", None, ">", 600)))
    long_calls = dict(on_call=lambda c: c.duration > 600)
    expected = oracles.call_bag(oracles.s_dice_survivors(data.calls, data.phones, **long_calls))
    plain = oracles.call_bag(oracles.dice_survivors(data.calls, data.phones, **long_calls))
    assert expected != plain  # the strong rule removes more than the plain one
    assert oracles.check_bag(oracles.graph_bag(s_diced), expected, "s_dice") == []
    assert oracles.check_bag(oracles.graph_bag(perturbed(s_diced)), expected, "s_dice")


def test_save_and_load_oracles(data, tmp_path):
    path = str(tmp_path / "graph.json")
    store.save_json(store.graphoid_to_json(data.graphoid), path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    expected = oracles.call_bag(data.calls)
    assert oracles.check_bag(oracles.json_bag(doc), expected, "saved") == []
    loaded = store.graphoid_from_json(store.load_json(path), data.catalog)
    assert loaded.bag_equal(data.graphoid)
    assert oracles.check_bag(oracles.graph_bag(loaded), expected, "loaded") == []
    doc["edges"] = doc["edges"][1:]
    assert oracles.check_bag(oracles.json_bag(doc), expected, "saved")


def test_query_output_oracle(tmp_path):
    spec = workloads.Spec(olap=(16, 300), paths=(8, 40), trials=1, two_step=False)
    inputs = workloads.set_up(spec, workloads.draw_seeds(spec, 5), str(tmp_path), ROOT)
    out = str(tmp_path / "out.json")
    assert cli.main(inputs["query_argv"] + ["--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    olap_data = inputs["olap"]
    expected = oracles.rollup_totals(olap_data.calls, olap_data.phones, "Operator", "Year")
    assert oracles.check_json_totals(doc, expected, "query") == []
    doc["edges"][0][4] += 1
    assert oracles.check_json_totals(doc, expected, "query")


# ---------------------------------------------------------------------------
# shortest paths and group averages

def test_path_oracle_agrees_and_flags_wrong_hops_and_fake_witnesses(sparse):
    everyone = NodeFilter(PHONE)
    results = metrics.shortest_paths(sparse.graphoid, everyone, everyone, [CALL])
    adj = oracles.phone_adjacency(sparse.calls, sparse.phones)
    dist = oracles.distances(adj)
    ids = oracles.matching_phones(sparse.phones)
    assert oracles.check_paths(results, adj, dist, ids, ids) == []
    assert any(r.hops < 0 for r in results)

    long = next(i for i, r in enumerate(results) if r.hops >= 2)
    r = results[long]
    wrong_hops = list(results)
    wrong_hops[long] = PathResult(r.source, r.target, r.hops + 1, r.path)
    assert oracles.check_paths(wrong_hops, adj, dist, ids, ids)
    # a witness of the right length that jumps between phones never on one call
    stranger = next(p for p in ids if p not in adj[r.source] and p not in (r.source, r.target))
    fake = list(results)
    fake[long] = PathResult(r.source, r.target, r.hops, (r.source, stranger) + r.path[2:])
    assert oracles.check_paths(fake, adj, dist, ids, ids)
    assert oracles.check_paths(results[1:], adj, dist, ids, ids)


def test_filtered_path_oracle(sparse):
    ba = NodeFilter(PHONE, Condition.of(Atom("Phone", "City", "=", "Buenos Aires")))
    salta = NodeFilter(PHONE, Condition.of(Atom("Phone", "City", "=", "Salta")))
    results = metrics.shortest_paths(sparse.graphoid, ba, salta, [CALL])
    adj = oracles.phone_adjacency(sparse.calls, sparse.phones)
    dist = oracles.distances(adj)
    sources = oracles.matching_phones(sparse.phones, "City", "Buenos Aires")
    targets = oracles.matching_phones(sparse.phones, "City", "Salta")
    assert sources and targets
    assert oracles.check_paths(results, adj, dist, sources, targets) == []
    assert oracles.check_paths(results, adj, dist, targets, sources)


@pytest.mark.parametrize("level", ["PhoneId", "Customer", "Operator"])
def test_group_average_oracle(data, level):
    g = data.graphoid if level == "PhoneId" else by(data.graphoid, level)
    got = metrics.group_average(g, [CALL], 2, "Duration")
    expected = oracles.group_averages(data.calls, data.phones, level, 2)
    assert oracles.check_group_averages(got, g, expected, level) == []
    key = next(iter(got))
    assert oracles.check_group_averages({**got, key: got[key] + 1}, g, expected, level)


# ---------------------------------------------------------------------------
# cube trials

def test_trial_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        cube = cubes.random_cube(rng, cubes.random_catalog(rng))
        op = cubes.random_op(rng, cube)
        classical = workloads._classical(cube, op)
        mismatches = tuple(cubes.check_equivalence(cube, op))
        assert oracles.check_trial(cube, mismatches, classical) == []
        assert oracles.check_trial(cube, ("cell differs",), classical)
        if classical is not None and oracles.cube_sum_totals(cube):
            coord = next(iter(classical.cells))
            bumped = {**classical.cells, coord: tuple(v + 1 for v in classical.cells[coord])}
            assert oracles.check_trial(cube, (), type(classical)(
                classical.catalog, classical.dims, classical.levels, classical.measures, bumped
            ))
            checked += 1


# ---------------------------------------------------------------------------
# the tracer and the command

def test_tracer_counts_spans_and_restores_the_modules(data):
    original = olap.roll_up
    tracer = Tracer()
    tracer.install()
    try:
        assert olap.roll_up is not original
        result = olap.roll_up(data.graphoid, [CALL], DAY_MONTH, CALL, SUM)
    finally:
        tracer.uninstall()
    assert olap.roll_up is original
    assert tracer.calls["olap.roll_up"] == 1
    assert tracer.calls["olap.climb"] == 1
    assert tracer.calls["dims.roll"] == len(data.calls)
    assert tracer.counters["olap.edges_in"] == len(data.calls)
    assert tracer.counters["olap.edges_out"] == len(result.edges)
    spans = {name: (span_id, parent) for span_id, parent, name, _, _ in tracer.spans}
    assert spans["olap.climb"][1] == spans["olap.roll_up"][0]
    assert all(self_ns >= 0 for self_ns in tracer.self_ns.values())


def test_benchmark_json_names_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {"setup_s", "run_s", "peak_rss_mb", "trials_per_s", *run.LATENCIES}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    per_layer = {*run.LAYER_TIMES, *run.LAYER_CALLS, *run.LAYER_COUNTERS}
    assert {m["name"] for m in spec["per_layer"]} == per_layer


def test_command_runs_a_short_workload(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "path_queries",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "olap_session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
