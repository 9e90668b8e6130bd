"""Run one workload of the graphoid benchmark and print its metrics.

    python3 perfbench/run.py --workload olap_session --seed 1 --seconds 20 --trace 0

Set-up runs ``SETUPS`` times and ``setup_s`` is the median.  Then one
untimed warm-up round runs, then whole rounds of the workload's operations
(see ``workloads.py``) until ``--seconds`` have passed.  Each operation is one
timed window with ``gc.collect()`` before it; its output is checked against a
flat oracle outside the window.  A per-kind latency is the median over the
rounds; ``run_s`` is the median over the rounds of a round's summed windows.
Every time metric is then scaled by the host factor (see ``reference_work``).

With ``--trace 1`` the graphoid modules are wrapped (``tracing.py``) and the
per-layer metrics are printed instead: self times, call counts and work
counters of one set-up plus one round, the warm-up excluded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy goes to
``perfbench/results/``, with the span file of a traced run.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3

# Time metrics are scaled to a host on which ``reference_work`` takes this long.
REFERENCE_MS = 4.0

# end-to-end latency metric -> the operation kind it is the median of
LATENCIES = {
    "rollup_ms": "rollup",
    "dice_ms": "dice",
    "sdice_ms": "sdice",
    "slice_ms": "slice",
    "drilldown_ms": "drilldown",
    "save_ms": "save",
    "load_ms": "load",
    "query_ms": "query",
    "group_avg_ms": "group_avg",
    "paths_all_ms": "paths_all",
    "paths_from_ms": "paths_from",
    "paths_between_ms": "paths_between",
}

# per-layer time metric -> the spans whose self times it sums
LAYER_TIMES = {
    "dims.roll_ms": ["dims.roll"],
    "dims.reachable_from_ms": ["dims.reachable_from"],
    "dims.validate_instance_ms": ["dims.validate_instance"],
    "hypergraph.build_graphoid_ms": ["hypergraph.build_graphoid"],
    "olap.climb_ms": ["olap.climb"],
    "olap.minimize_ms": ["olap.minimize"],
    "olap.aggr_ms": ["olap.aggr"],
    "olap.roll_up_ms": ["olap.roll_up"],
    "olap.group_ms": ["olap.group"],
    "olap.drill_down_ms": ["olap.drill_down"],
    "olap.slice_out_ms": ["olap.slice_out"],
    "olap.dice_ms": ["olap.dice"],
    "olap.s_dice_ms": ["olap.s_dice"],
    "olap.edge_satisfies_ms": ["olap.edge_satisfies"],
    "metrics.adjacency_projection_ms": ["metrics.adjacency_projection"],
    "metrics.shortest_paths_ms": ["metrics.shortest_paths"],
    "metrics.group_average_ms": ["metrics.group_average"],
    "store.generate_ms": ["store.generate"],
    "store.graphoid_to_json_ms": ["store.graphoid_to_json"],
    "store.save_json_ms": ["store.save_json"],
    "store.load_json_ms": ["store.load_json"],
    "store.graphoid_from_json_ms": ["store.graphoid_from_json"],
    "store.load_dimension_ms": ["store.load_dimension"],
    "gql.parse_ms": ["gql.parse"],
    "gql.check_ms": ["gql.check"],
    "gql.eval_program_ms": ["gql.eval_program"],
    "cli.cmd_query_ms": ["cli.cmd_query"],
    "cubes.build_cube_ms": ["cubes.build_cube"],
    "cubes.star_ms": ["cubes.star"],
    "cubes.unstar_ms": ["cubes.unstar"],
    "cubes.cube_ops_ms": ["cubes.cube_roll_up", "cubes.cube_slice", "cubes.cube_dice"],
    "cubes.check_equivalence_ms": ["cubes.check_equivalence"],
}

# per-layer count metric -> the span it counts calls of
LAYER_CALLS = {
    "dims.roll_calls": "dims.roll",
    "dims.reachable_from_calls": "dims.reachable_from",
    "hypergraph.derive_calls": "hypergraph.derive",
    "olap.minimize_calls": "olap.minimize",
    "olap.edge_satisfies_calls": "olap.edge_satisfies",
}

# per-layer work counters recorded by the tracer's hooks
LAYER_COUNTERS = {
    "olap.edges_in": "count",
    "olap.edges_out": "count",
    "metrics.path_rows": "count",
    "metrics.path_hops": "count",
    "store.json_bytes": "bytes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="graphoid benchmark: run one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_work() -> int:
    """A fixed pure-Python job timed before every operation.

    On a shared 2-CPU host the speed of one and the same loop drifts by up to
    16% within a minute.  The run's median of this job measures where the run
    sat in that drift; every time metric is scaled by ``REFERENCE_MS`` over it.
    """
    groups: dict[tuple, list[int]] = {}
    for i in range(3000):
        groups.setdefault((i % 61, frozenset((i % 7, i % 11))), []).append(i)
    return sum(len(v) for _, v in sorted(groups.items(), key=lambda kv: kv[0][0]))


class Session:
    """Runs rounds of operations and keeps their timings and outcomes."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.latencies: dict[str, list[float]] = {op.kind: [] for op in ops}
        self.round_sums: list[float] = []
        self.reference: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def run_round(self, record: bool) -> None:
        total = 0.0
        for op in self.ops:
            self.attempted += 1
            gc.collect()
            start = time.perf_counter()
            reference_work()
            if record:
                self.reference.append(time.perf_counter() - start)
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a failed operation is counted, the run goes on
                total += time.perf_counter() - start
                self._fail(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            issues = op.check(output)
            if issues:
                # a wrong answer is a failure; outside the known faults it is also incorrect
                self.correct = self.correct and op.known_fault
                self._fail(f"{op.kind}: {issues[0]}")
            elif record:
                self.latencies[op.kind].append(elapsed)
        if record:
            self.round_sums.append(total)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if message not in self.problems:
            self.problems.append(message)

    def median_ms(self, kind: str) -> float:
        return statistics.median(self.latencies[kind]) * 1000


def end_to_end(session: Session, setup_times: list[float], scale: float) -> dict:
    """The end-to-end metrics, times multiplied by ``scale``."""
    values = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "run_s": (statistics.median(session.round_sums) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, kind in LATENCIES.items():
        if session.latencies[kind]:
            values[name] = (session.median_ms(kind) * scale, "ms")
    batches = [op for op in session.ops if op.kind.startswith("trials_")]
    if all(session.latencies[op.kind] for op in batches):
        trials = sum(op.size for op in batches)
        seconds = sum(session.median_ms(op.kind) for op in batches) / 1000
        values["trials_per_s"] = (trials / (seconds * scale), "1/s")
    return values


def per_layer(set_up: dict, rounds: dict, n_setups: int, n_rounds: int, scale: float) -> dict:
    """Each value is the amount of one set-up plus one round, times multiplied by ``scale``."""

    def amount(kind: str, key: str) -> float:
        return set_up[kind][key] / n_setups + rounds[kind][key] / n_rounds

    values = {}
    for name, spans in LAYER_TIMES.items():
        values[name] = (sum(amount("self_ns", s) for s in spans) / 1e6 * scale, "ms")
    for name, span in LAYER_CALLS.items():
        values[name] = (amount("calls", span), "count")
    for name, unit in LAYER_COUNTERS.items():
        values[name] = (amount("counters", name), unit)
    return values


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "graphoid")):
        print(f"perfbench: no graphoid sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    seeds = workloads.draw_seeds(spec, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    try:
        setup_times = []
        inputs = None
        for _ in range(SETUPS):
            inputs = None
            gc.collect()
            start = time.perf_counter()
            inputs = workloads.set_up(spec, seeds, work_dir, ROOT)
            setup_times.append(time.perf_counter() - start)
        if tracer:
            set_up_phase = tracer.snapshot()
            tracer.reset()
        session = Session(workloads.operations(inputs))
        # Inputs and oracles live for the whole run; keep the collector from
        # re-scanning them in every window.
        gc.collect()
        gc.freeze()
        session.run_round(record=False)
        if tracer:
            tracer.reset()
        start = time.perf_counter()
        while not session.round_sums or time.perf_counter() - start < args.seconds:
            session.run_round(record=True)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rounds = len(session.round_sums)
    host_factor = REFERENCE_MS / (statistics.median(session.reference) * 1000)
    unscaled = end_to_end(session, setup_times, 1.0)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        metrics = per_layer(set_up_phase, tracer.snapshot(), SETUPS, rounds, host_factor)
        tracer.uninstall()
        tracer.write(os.path.join(HERE, "results", f"spans-{tag}.json"))
    else:
        metrics = end_to_end(session, setup_times, host_factor)
    for problem in session.problems:
        print(f"perfbench: failed: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds + 1 warm-up,"
        f" {wall / rounds:.3f} s per round with checks, host factor {host_factor:.4f},"
        f" run_s {unscaled['run_s'][0] * host_factor:.4f} (unscaled {unscaled['run_s'][0]:.4f})",
        file=sys.stderr,
    )
    result = {
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        record = {
            **result,
            "rounds": rounds,
            "host_factor": host_factor,
            "unscaled": {name: value for name, (value, _) in unscaled.items()},
        }
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
