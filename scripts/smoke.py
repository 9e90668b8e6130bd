"""A standard-library-only smoke check of the graphoid package.

It needs no test dependencies, so any interpreter the package supports can
run it (Python 3.10 up):

    python3 scripts/smoke.py

It imports ``graphoid`` from ``src/``, runs a group and a roll-up on a
generated call graph whose edges stay in their edge table, checks the totals
against the raw calls, rolls up the calls of a graph that also holds a
second edge type (the phone slot moved onto ``#HasPhone`` edges by
``edgify``) and checks that those edges' rows pass through and that
neither value builds edge objects, checks that an unhashable label is
refused with a ``GraphoidBuildError`` naming its slot, checks the one-,
two-, three-hop and unreachable rows of shortest paths on a six-phone graph
against literal witnesses, checks that a path row is a ``PathResult`` that
equals and unpacks as its plain tuple and refuses assignment with
``FrozenInstanceError``, checks that a two-clause phone filter selects the
phones the generator's own records name, saves and reloads the roll-up and the two-edge-type
graph as JSON (each edge type's rows a column at a time), checks that the
saved text of the two-edge-type graph equals ``json.dumps`` with its cycle
check on, and compares the output of ``graphoid theorem1 --trials 50 --seed
7 --format json`` with the digest of the same run under Python 3.11.  It prints one
``ok`` line per check and exits non-zero at the first failure.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from graphoid import cli, metrics, olap, store  # noqa: E402
from graphoid.dims import RollupStep  # noqa: E402
from graphoid.hypergraph import GraphoidBuildError, build_graphoid, edgify  # noqa: E402

# sha256 of `graphoid theorem1 --trials 50 --seed 7 --format json` under CPython 3.11.7
THEOREM1_SHA256 = "ac78308458e84bf49559aaca6209eccb0e37c8d8996d0d698c2ad0522d5e7454"


def check(what: str, ok: bool) -> None:
    if not ok:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main() -> int:
    print(f"graphoid smoke check on Python {sys.version.split()[0]}")
    data = store.generate(store.GeneratorConfig(phone_count=40, user_count=20, call_count=400, seed=3))
    g = data.graphoid
    grouped = olap.group(g, store.PHONE_TYPE, RollupStep(store.PHONE_DIMENSION, store.PHONE_BOTTOM, "Operator"))
    yearly = olap.roll_up(
        grouped, [store.CALL_TYPE], RollupStep(store.TIME_DIMENSION, "Day", "Year"), store.CALL_TYPE, [("Duration", "SUM")]
    )
    check("group and roll-up build no edge objects", all("edges" not in vars(v) for v in (g, grouped, yearly)))
    # an edge type's labels are its slot columns: #Call holds (Day, Duration)
    total = sum(yearly.edge_table.types[store.CALL_TYPE].columns[1])
    check("roll-up keeps the total duration", total == sum(call.duration for call in data.calls))

    mixed = edgify(g, store.PHONE_TYPE, 1)
    monthly = olap.roll_up(
        mixed, [store.CALL_TYPE], RollupStep(store.TIME_DIMENSION, "Day", "Month"), store.CALL_TYPE, [("Duration", "SUM")]
    )
    table = monthly.edge_table
    check("a slot column set per edge type", table.types.keys() == mixed.edge_types.keys())
    call_rows, phone_rows = table.types[store.CALL_TYPE], table.types["#HasPhone"]
    total = sum(call_rows.columns[1])
    check("mixed-type roll-up keeps the total duration", total == sum(call.duration for call in data.calls))
    check("edgify and its roll-up build no edge objects", all("edges" not in vars(v) for v in (mixed, monthly)))
    has_phone = [(e.label, e.surrogate) for e in mixed.edges if e.etype == "#HasPhone"]
    check(
        "mixed-type roll-up keeps the #HasPhone rows",
        len(has_phone) == len(data.phones) and list(zip(phone_rows.labels(), phone_rows.surrogates)) == has_phone,
    )

    try:
        rows = [(store.CALL_TYPE, [1], [2], ["x"], 5)]
        build_graphoid(data.catalog, g.node_types.values(), g.edge_types.values(), g.nodes.values(), rows)
        refused = ""
    except GraphoidBuildError as exc:
        refused = str(exc)
    check("an unhashable label is refused with its slot", "slot 0 value ['x'] outside dom(Time.Day)" in refused)

    # a path 1-2-3-4, phone 5 joined to 1 and 3 (1 and 3 meet through 2 or 5), phone 6 on no call
    day = g.edge_table.types[store.CALL_TYPE].columns[0][0]
    calls = [(store.CALL_TYPE, [s], [t], day, 1) for s, t in ((1, 2), (2, 3), (3, 4), (5, 1), (3, 5))]
    nodes = [g.nodes[i] for i in range(1, 7)]
    tiny = build_graphoid(data.catalog, g.node_types.values(), g.edge_types.values(), nodes, calls)
    phones = metrics.NodeFilter(store.PHONE_TYPE)
    rows = metrics.shortest_paths(tiny, phones, phones)
    paths = {(r.source, r.target): (r.hops, r.path) for r in rows}
    check(
        "shortest paths of every hop class",
        [paths[(1, t)] for t in range(2, 7)] == [(1, (1, 2)), (2, (1, 2, 3)), (3, (1, 2, 3, 4)), (1, (1, 5)), (-1, ())]
        and paths[(5, 2)] == (2, (5, 1, 2))
        and paths[(4, 5)] == (2, (4, 3, 5)),
    )
    row = rows[1]
    source, target, hops, path = row
    try:
        row.hops = 0
        refused = False
    except dataclasses.FrozenInstanceError:
        refused = True
    check(
        "a path row is a PathResult tuple that refuses assignment",
        type(row) is metrics.PathResult
        and row == (1, 3, 2, (1, 2, 3)) == (source, target, hops, path)
        and refused
        and row.hops == 2,
    )

    # a two-clause node filter, read a column at a time, against the generator's own phone records
    city, operator = data.phones[1].city, data.phones[2].operator
    clauses = (
        (olap.Atom(store.PHONE_DIMENSION, "City", "=", city), olap.Atom(store.PHONE_DIMENSION, "Operator", "=", operator, True)),
        (olap.Atom(store.PHONE_DIMENSION, "Operator", "<", "Claro"),),
    )
    picked = metrics.NodeFilter(store.PHONE_TYPE, olap.Condition(clauses))
    sources = sorted({r.source for r in metrics.shortest_paths(g, picked, phones)})
    expected = [
        i for i, info in sorted(data.phones.items()) if (info.city == city and info.operator != operator) or info.operator < "Claro"
    ]
    check("a two-clause phone filter selects the phones it names", 0 < len(sources) < len(data.phones) and sources == expected)

    # the edgified graph holds two edge types, dates at the #Call rows' slot 0
    for what, value in (("JSON round trip", yearly), ("two-edge-type JSON round trip", mixed)):
        text = store.dump_text(store.graphoid_to_json(value))
        reloaded = store.graphoid_from_json(json.loads(text), data.catalog)
        check(what, reloaded == value and store.dump_text(store.graphoid_to_json(reloaded)) == text)
    # dump_text encodes without the cycle check; its text must equal the checking dump's
    doc = store.graphoid_to_json(mixed)
    check("saved text equals the cycle-checking dump", store.dump_text(doc) == json.dumps(doc, separators=(",", ":")) + "\n")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["theorem1", "--trials", "50", "--seed", "7", "--format", "json"])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    check("theorem1 output equals the Python 3.11 run", code == 0 and digest == THEOREM1_SHA256)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
