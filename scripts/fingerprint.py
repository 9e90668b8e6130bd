"""Print the results gates of the graphoid package, one line each.

    python3 scripts/fingerprint.py > before.txt    # on one commit
    python3 scripts/fingerprint.py > after.txt     # on another
    diff before.txt after.txt                      # no output: same results

A change that must not alter any result prints the same lines on both
commits.  ``scripts/fingerprint.txt`` holds the lines the committed code
prints, and CI fails when a run differs from it:

    python3 scripts/fingerprint.py | diff scripts/fingerprint.txt -

A change that alters a result on purpose rewrites that file, and says why.
The lines are:

* ``d1 <query> <n> rows`` for each of Q1-Q7 of ``graphoid bench --scale d1``
  (126 700 calls, 793 phones, seed 1), then ``d1 results sha256 <hex>``,
  the digest that command prints of the ten results;
* ``theorem1 sha256 <hex>``, the digest of the output of ``graphoid
  theorem1 --trials 2000 --seed 7 --format json``;
* ``setup <workload> <file> sha256 <hex>`` for 24 set-up files: for each
  of the three benchmark workloads, the five files ``perfbench/workloads.py``
  writes in ``set_up`` at seed 901 (three dimension files, the graph and
  the query program), and three more saved with ``store.save_json``: the
  OLAP graph, its Day-to-Year roll-up and its group by Operator;
* ``multitype <value> sha256 <hex>`` for saved values of several edge
  types, whose rows a save groups by type: the star graphs of three seeded
  two-measure cubes, a roll-up of the first, and a generated call graph
  with its phones moved onto ``#HasPhone`` edges by ``edgify``.

No timing is printed.  It imports ``graphoid`` from ``src/`` and reads
``perfbench/workloads.py`` without changing it.  On a shared 2-CPU host
with CPython 3.11.7 it took 11 to 14 s and peaked at 206 MiB, most of both
the d1 run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from graphoid import cli, cubes, olap, store  # noqa: E402
from graphoid.hypergraph import edgify  # noqa: E402
from graphoid.dims import RollupStep  # noqa: E402

import workloads  # noqa: E402

SETUP_SEED = 901


def cli_output(*argv: str) -> str:
    """What ``graphoid <argv>`` prints on standard output; a failure stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"graphoid {' '.join(argv)} exited with {code}")
    return out.getvalue()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def d1_lines() -> list[str]:
    lines = []
    for line in cli_output("bench", "--scale", "d1").splitlines():
        if line.startswith("Q"):
            # "<label padded to 45> <ms> ms   <n> rows": keep the label and the count
            lines.append(f"d1 {line[:45].rstrip()} {line.split()[-2]} rows")
        elif line.startswith("results sha256 "):
            lines.append(f"d1 {line}")
    return lines


def setup_lines(work: str) -> list[str]:
    lines = []
    for name, spec in workloads.WORKLOADS.items():
        work_dir = os.path.join(work, name)
        inputs = workloads.set_up(spec, workloads.draw_seeds(spec, SETUP_SEED), work_dir, ROOT)
        g = inputs["olap"].graphoid
        saved = {
            "olap.json": g,
            "olap-year.json": olap.roll_up(
                g, [store.CALL_TYPE], RollupStep(store.TIME_DIMENSION, "Day", "Year"), store.CALL_TYPE, workloads.SUM
            ),
            "olap-operator.json": olap.group(
                g, store.PHONE_TYPE, RollupStep(store.PHONE_DIMENSION, store.PHONE_BOTTOM, "Operator")
            ),
        }
        os.makedirs(os.path.join(work_dir, "saved"))
        for file_name, value in saved.items():
            store.save_json(store.graphoid_to_json(value), os.path.join(work_dir, "saved", file_name))
        paths = sorted(
            os.path.relpath(os.path.join(folder, file_name), work_dir)
            for folder, _, file_names in os.walk(work_dir)
            for file_name in file_names
        )
        lines += [f"setup {name} {path} sha256 {file_sha256(os.path.join(work_dir, path))}" for path in paths]
    return lines


def two_measure_star(seed: int):
    """The star graph of a random cube with measures M1 (SUM) and M2 (MAX),
    whose two edge types' rows interleave, one of each per cell."""
    rng = random.Random(seed)
    catalog = cubes.random_catalog(rng)
    cube = cubes.random_cube(rng, catalog)
    measures = [cubes.CubeMeasure("M1", "SUM"), cubes.CubeMeasure("M2", "MAX")]
    cells = {coord: (rng.randint(0, 100), rng.randint(0, 400) / 4) for coord in cube.cells}
    return cubes.star(cubes.build_cube(catalog, list(zip(cube.dims, cube.levels)), measures, cells))


def multi_type_lines() -> list[str]:
    stars = {f"star-{seed}": two_measure_star(seed) for seed in (3, 5, 9)}
    g = stars["star-3"]
    dim = next(iter(g.node_types.values())).dims[1]
    bottom = g.levels[(f"#{dim}", 1)]
    up = sorted(g.catalog.schema(dim).reachable_from(bottom) - {bottom})[0]
    values = {
        **stars,
        "star-3-rollup": olap.roll_up(g, "*", RollupStep(dim, bottom, up), "*", [("M1", "SUM"), ("M2", "MAX")]),
        "edgified": edgify(
            store.generate(store.GeneratorConfig(phone_count=12, user_count=5, call_count=80, seed=4)).graphoid,
            store.PHONE_TYPE,
            1,
        ),
    }
    return [
        f"multitype {name} sha256 {hashlib.sha256(store.dump_text(store.graphoid_to_json(value)).encode('utf-8')).hexdigest()}"
        for name, value in values.items()
    ]


def main() -> int:
    for line in d1_lines():
        print(line, flush=True)
    theorem1 = cli_output("theorem1", "--trials", "2000", "--seed", "7", "--format", "json")
    print(f"theorem1 sha256 {hashlib.sha256(theorem1.encode('utf-8')).hexdigest()}", flush=True)
    with tempfile.TemporaryDirectory() as work:
        for line in setup_lines(work):
            print(line)
    for line in multi_type_lines():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
