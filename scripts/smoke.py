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
refused with a ``GraphoidBuildError`` naming its slot, saves and reloads
the result as JSON, and compares
the output of ``graphoid theorem1 --trials 50 --seed 7 --format json`` with
the digest of the same run under Python 3.11.  It prints one ``ok`` line per
check and exits non-zero at the first failure.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from graphoid import cli, olap, store  # noqa: E402
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
    total = sum(label[1] for label in yearly.edge_table.labels)
    check("roll-up keeps the total duration", total == sum(call.duration for call in data.calls))

    mixed = edgify(g, store.PHONE_TYPE, 1)
    monthly = olap.roll_up(
        mixed, [store.CALL_TYPE], RollupStep(store.TIME_DIMENSION, "Day", "Month"), store.CALL_TYPE, [("Duration", "SUM")]
    )
    rows = {etype: [] for etype in mixed.edge_types}
    for etype, label, surrogate in zip(monthly.edge_table.etypes, monthly.edge_table.labels, monthly.edge_table.surrogates):
        rows[etype].append((label, surrogate))
    total = sum(label[1] for label, _ in rows[store.CALL_TYPE])
    check("mixed-type roll-up keeps the total duration", total == sum(call.duration for call in data.calls))
    check("edgify and its roll-up build no edge objects", all("edges" not in vars(v) for v in (mixed, monthly)))
    has_phone = [(e.label, e.surrogate) for e in mixed.edges if e.etype == "#HasPhone"]
    check("mixed-type roll-up keeps the #HasPhone rows", len(has_phone) == len(data.phones) and rows["#HasPhone"] == has_phone)

    try:
        rows = [(store.CALL_TYPE, [1], [2], ["x"], 5)]
        build_graphoid(data.catalog, g.node_types.values(), g.edge_types.values(), g.nodes.values(), rows)
        refused = ""
    except GraphoidBuildError as exc:
        refused = str(exc)
    check("an unhashable label is refused with its slot", "slot 0 value ['x'] outside dom(Time.Day)" in refused)

    text = store.dump_text(store.graphoid_to_json(yearly))
    reloaded = store.graphoid_from_json(json.loads(text), data.catalog)
    check("JSON round trip", reloaded == yearly and store.dump_text(store.graphoid_to_json(reloaded)) == text)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["theorem1", "--trials", "50", "--seed", "7", "--format", "json"])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    check("theorem1 output equals the Python 3.11 run", code == 0 and digest == THEOREM1_SHA256)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
