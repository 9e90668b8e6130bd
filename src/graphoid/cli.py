"""Command line front end: validate, ingest, generate, query, theorem1, bench.

Exit codes: 0 on success, 1 when validation/equivalence/evaluation fails,
2 for usage problems (bad flags, missing files).  File arguments accept ``-``
for stdin/stdout.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import io
import itertools
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import cubes, gql, metrics, olap, store
from .dims import DimensionCatalog, DimensionError, RollupStep, validate_instance, validate_schema
from .hypergraph import Graphoid, GraphoidBuildError, GraphoidError
from .metrics import NodeFilter
from .olap import Atom, Condition


class CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str, parse):
    """``parse`` over a file argument (``-`` is stdin), the one place an input is opened.

    A path not readable as UTF-8 text exits 2; text ``parse`` finds is not JSON exits 1.
    """
    try:
        if path == "-":
            return parse(sys.stdin)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(f"cannot read {path}: {exc}", 2) from exc
    except json.JSONDecodeError as exc:
        raise CliFailure(f"{path}: not valid JSON ({exc})", 1) from exc


def _write_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliFailure(f"cannot write {path}: {exc}", 2) from exc


def _catalog_from_dims(paths: list[str]) -> DimensionCatalog:
    catalog = DimensionCatalog.of()
    for path in paths:
        try:
            instance = _read(path, store.load_dimension)
            problems = validate_instance(instance)
        except (GraphoidError, DimensionError) as exc:
            raise CliFailure(f"{path}: {exc}", 1) from exc
        if problems:
            raise CliFailure(f"{path}: " + "; ".join(problems), 1)
        catalog = catalog.with_dimension(instance)
    return catalog


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    catalog = _catalog_from_dims(args.dims)
    code = 0
    for path in args.files:
        try:
            raw = _read(path, store.load_json)
        except CliFailure as exc:  # reported like a lone file's, and the next file is still checked
            print(str(exc), file=sys.stderr)
            code = max(code, exc.code)
            continue
        try:
            kind, value = store.decode(raw, catalog)
            checks = {"schema": validate_schema, "instance": validate_instance}
            problems = checks[kind](value) if kind in checks else []
        except GraphoidBuildError as exc:
            problems = exc.problems
        except (GraphoidError, DimensionError) as exc:
            problems = [str(exc)]
        if problems:
            code = max(code, 1)
            for problem in problems:
                print(f"FAIL {path}: {problem}")
        else:
            print(f"OK {path}: valid {kind}")
    return code


def cmd_ingest(args) -> int:
    catalog = _catalog_from_dims(args.dims)
    try:
        g = _read(args.csv, lambda fh: store.ingest_calls(fh, catalog))
    except GraphoidError as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    _write_text(store.dump_text(store.graphoid_to_json(g)), args.out)
    print(f"ingested {g.edge_count} calls over {g.node_count} phones", file=sys.stderr)
    return 0


def _configured(base: store.GeneratorConfig, **flags) -> store.GeneratorConfig:
    """``base`` with each flag that was given on the command line."""
    return dataclasses.replace(base, **{name: value for name, value in flags.items() if value is not None})


def cmd_generate(args) -> int:
    config = _configured(
        store.GeneratorConfig(),
        seed=args.seed,
        phone_count=args.phones,
        user_count=args.users,
        call_count=args.calls,
        max_group_size=args.max_group,
    )
    try:
        data = store.generate(config)
    except GraphoidError as exc:
        print(f"generate failed: {exc}", file=sys.stderr)
        return 1
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
        for name in (store.PHONE_DIMENSION, store.TIME_DIMENSION, store.DURATION_DIMENSION):
            payload = store.instance_to_json(data.catalog.instance(name))
            store.save_json(payload, os.path.join(out, f"{name.lower()}.dimension.json"))
        store.write_calls_csv(data.calls, os.path.join(out, "calls.csv"))
        store.save_json(store.graphoid_to_json(data.graphoid), os.path.join(out, "graph.json"))
    except OSError as exc:
        raise CliFailure(f"cannot write {out}: {exc}", 2) from exc
    print(f"generated {len(data.calls)} calls over {len(data.phones)} phones into {out}")
    return 0


def _graphoid_edge_csv(g: Graphoid) -> str:
    width = max((decl.arity for decl in g.edge_types.values()), default=0)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["type", "source", "target"] + [f"v{i}" for i in range(width)])
    etypes, sources, targets, labels, _, sets = g.edge_table
    ends = ["/".join(str(i) for i in sorted(ids)) for ids in sets]
    for etype, source, target, label in zip(etypes, sources, targets, labels):
        row = [etype, ends[source], ends[target]]
        row += [str(v) for v in label]
        row += [""] * (width - len(label))
        writer.writerow(row)
    return out.getvalue()


def _render_output(value, fmt: str) -> str:
    if isinstance(value, Graphoid):
        if fmt == "csv":
            return _graphoid_edge_csv(value)
        return store.dump_text(store.graphoid_to_json(value))
    results = tuple(value)
    if fmt == "csv":
        return metrics.path_results_to_csv(results)
    return store.dump_text(metrics.path_results_to_rows(results))


def _make_loader(catalog: DimensionCatalog, base_dir: str):
    def load(path: str) -> Graphoid:
        resolved = path if os.path.isabs(path) else os.path.join(base_dir, path)
        try:
            raw = _read(resolved, store.load_json)
        except CliFailure as exc:  # inside a program, a file that cannot be loaded is an evaluation error
            raise store.StoreError(str(exc)) from exc
        return store.decode(raw, catalog, expect="graphoid")[1]

    return load


def _summary(value) -> str:
    if isinstance(value, Graphoid):
        return f"graphoid: {value.node_count} nodes, {value.edge_count} edges"
    return f"{len(tuple(value))} path results"


def _run_repl(catalog: DimensionCatalog) -> int:
    loader = _make_loader(catalog, os.getcwd())
    env: dict[str, object] = {}
    buffer = ""
    prompt = "gql> " if sys.stdin.isatty() else ""
    while True:
        try:
            line = input(prompt if not buffer else "...  " if prompt else "")
        except EOFError:
            break
        if not buffer and line.strip().lower() in ("exit", "quit"):
            break
        if not line.strip():
            continue
        buffer += line + "\n"
        if not buffer.rstrip().endswith(";"):
            continue
        text, buffer = buffer, ""
        try:
            program = gql.parse(text)
            problems = gql.check(program, catalog, defined=set(env))
            if problems:
                for problem in problems:
                    print(f"error: {problem}")
                continue
            outcome = gql.eval_program(program, catalog, loader, bindings=env)
        except gql.GqlError as exc:
            print(f"error: {exc}")
            continue
        for value in outcome.outputs:
            sys.stdout.write(_render_output(value, "json"))
        for name, value in outcome.bindings.items():
            if name not in env:
                print(f"{name} = {_summary(value)}")
        env.update(outcome.bindings)
    return 0


def cmd_query(args) -> int:
    catalog = _catalog_from_dims(args.dims)
    if args.repl:
        return _run_repl(catalog)
    if not args.file:
        raise CliFailure("query needs a program file or --repl", 2)
    text = _read(args.file, lambda fh: fh.read())
    base_dir = os.getcwd() if args.file == "-" else os.path.dirname(os.path.abspath(args.file))
    try:
        program = gql.parse(text)
    except gql.GqlSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    problems = gql.check(program, catalog)
    if problems:
        for problem in problems:
            print(f"check error: {problem}", file=sys.stderr)
        return 1
    try:
        outcome = gql.eval_program(program, catalog, _make_loader(catalog, base_dir))
    except gql.GqlError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1
    rendered = "".join(_render_output(value, args.format) for value in outcome.outputs)
    _write_text(rendered, args.out)
    return 0


def cmd_theorem1(args) -> int:
    if args.trials < 1:
        raise CliFailure("theorem1: trials must be at least 1", 2)
    results = cubes.run_equivalence_trials(args.trials, args.seed)
    ok = sum(1 for r in results if r.ok)
    if args.format == "json":
        for r in results:
            print(
                json.dumps(
                    {
                        "trial": r.index,
                        "seed": r.seed,
                        "op": r.description,
                        "ok": r.ok,
                        "mismatches": list(r.mismatches),
                    }
                )
            )
        print(json.dumps({"trials": len(results), "equivalent": ok}))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            print(f"trial {r.index:04d} {mark} {r.description}")
            for mismatch in r.mismatches:
                print(f"          {mismatch}")
        print(f"{ok}/{len(results)} equivalent")
    return 0 if ok == len(results) else 1


BENCH_SCALES = {
    "desk": store.GeneratorConfig(),
    "d1": store.TABLE_SCALE_D1,
    "d2": store.TABLE_SCALE_D2,
}


class _CollectorClock:
    """The wall time and the number of the cyclic collector's runs while it
    is in ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1


def _feed_repr(digest, result: tuple | dict) -> None:
    """Feed ``repr(result).encode()`` to ``digest`` a few thousand items at a
    time, so a large result's whole repr is never held."""
    if isinstance(result, dict):
        opening, closing = "{", "}"
        items = (f"{key!r}: {value!r}" for key, value in result.items())
    else:
        opening, closing = "(", ",)" if len(result) == 1 else ")"
        items = map(repr, result)
    digest.update(opening.encode())
    separator = ""
    while batch := list(itertools.islice(items, 4096)):
        digest.update((separator + ", ".join(batch)).encode())
        separator = ", "
    digest.update(closing.encode())


def cmd_bench(args) -> int:
    """Time the case-study queries Q1-Q7 on one generated call graph, then
    print the digest of their results, the cyclic collector's total time and
    the peak RSS."""
    if min(args.sizes) < 1:
        raise CliFailure("bench: group sizes must be at least 1", 2)
    collector = _CollectorClock()
    gc.callbacks.append(collector)
    try:
        code = _bench(args)
    finally:
        gc.callbacks.remove(collector)
    if code == 0:
        print(f"cyclic collector {collector.seconds * 1000:.1f} ms in {collector.collections} collections")
        if resource is not None:
            # the process's peak resident set; ru_maxrss counts KiB, bytes on macOS
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
            print(f"peak RSS {peak:.1f} MiB")
    return code


def _bench(args) -> int:
    import hashlib  # not at the top: loading OpenSSL adds about 3 MiB to every process that imports cli

    config = _configured(
        BENCH_SCALES[args.scale], seed=args.seed, phone_count=args.phones, user_count=args.users, call_count=args.calls
    )
    t0 = time.perf_counter()
    try:
        data = store.generate(config)
    except GraphoidError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    generated = time.perf_counter() - t0
    # only the graph is queried: the raw calls, which the collector would
    # rescan all run long, are released once counted
    g, call_count, phone_count = data.graphoid, len(data.calls), len(data.phones)
    del data
    calls = [store.CALL_TYPE]
    rows: list[tuple[str, float, int]] = []
    digest = hashlib.sha256()

    def run(label: str, fn) -> None:
        t0 = time.perf_counter()
        result = fn()
        rows.append((label, time.perf_counter() - t0, len(result)))
        _feed_repr(digest, result)

    def grouped(level: str) -> Graphoid:
        return olap.group(g, store.PHONE_TYPE, RollupStep(store.PHONE_DIMENSION, store.PHONE_BOTTOM, level))

    def phones_where(level: str, value: str) -> NodeFilter:
        return NodeFilter(store.PHONE_TYPE, Condition.of(Atom(store.PHONE_DIMENSION, level, "=", value)))

    averaged = (("Q1", "phone", g), ("Q2", "customer", grouped("Customer")), ("Q3", "operator", grouped("Operator")))
    for query, member, graph in averaged:
        for n in args.sizes:
            run(
                f"{query} avg duration, {n}-{member} groups",
                lambda graph=graph, n=n: metrics.group_average(graph, calls, n, "Duration"),
            )
    everyone = NodeFilter(store.PHONE_TYPE)
    buenos_aires = phones_where("City", "Buenos Aires")
    paths = {
        "Q4 shortest paths, all pairs": (everyone, everyone),
        "Q5 shortest paths, Claro -> Movistar": (phones_where("Operator", "Claro"), phones_where("Operator", "Movistar")),
        "Q6 shortest paths, Buenos Aires -> Salta": (buenos_aires, phones_where("City", "Salta")),
        "Q7 shortest paths, from Buenos Aires": (buenos_aires, everyone),
    }
    for label, (source, target) in paths.items():
        run(label, lambda source=source, target=target: metrics.shortest_paths(g, source, target, calls))

    print(
        f"benchmark over {call_count} calls, {phone_count} phones (seed {config.seed}), "
        f"generated in {generated:.2f} s"
    )
    for label, elapsed, size in rows:
        print(f"{label:45s} {elapsed * 1000:10.1f} ms   {size} rows")
    print(f"results sha256 {digest.hexdigest()}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphoid", description="graph OLAP engine over labelled directed multi-hypergraphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate schema/instance/graphoid/cube files")
    p.add_argument("files", nargs="+", help="JSON files to validate")
    p.add_argument("--dims", action="append", default=[], help="dimension file (repeatable)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ingest", help="build a graph value from a call-record CSV")
    p.add_argument("csv", help="call records (- for stdin)")
    p.add_argument("--dims", action="append", default=[], required=True, help="dimension file")
    p.add_argument("--out", default="-", help="output graphoid JSON (- for stdout)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("generate", help="write synthetic dimensions, calls and graph")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--calls", type=int)
    p.add_argument("--phones", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--max-group", type=int, dest="max_group")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("query", help="run a query program (batch file or REPL)")
    p.add_argument("file", nargs="?", help="program file (- for stdin)")
    p.add_argument("--repl", action="store_true", help="interactive statement loop")
    p.add_argument("--dims", action="append", default=[], help="dimension file (repeatable)")
    p.add_argument("--out", default="-", help="where OUTPUT values go (- for stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("theorem1", help="random cube/graph equivalence trials")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("bench", help="time the case-study queries Q1-Q7 on synthetic data")
    p.add_argument(
        "--scale",
        choices=tuple(BENCH_SCALES),
        default="desk",
        help="preset data sizes; desk finishes in seconds, d1/d2 match the published runs",
    )
    p.add_argument("--seed", type=int, help="override the preset's seed (desk 7, d1 1, d2 2)")
    p.add_argument("--calls", type=int, help="override the preset's call count")
    p.add_argument("--phones", type=int, help="override the preset's phone count")
    p.add_argument("--users", type=int, help="override the preset's user count")
    p.add_argument(
        "--sizes", type=int, nargs="+", default=[2, 3], help="group sizes for the average-duration queries Q1-Q3"
    )
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
