"""Randomized cube-equivalence experiment.

For each trial, builds a random classical cube, applies a random roll-up,
drill-down, slice, or dice to it with the classical engine, applies the
corresponding graph pipeline to the cube's hypergraph embedding, and checks
that decoding the graph result gives back exactly the classical answer.
Exits non-zero if any trial disagrees.

    python3 scripts/run_equivalence.py --trials 1000 --seed 7
"""
from __future__ import annotations

import argparse
import sys
import time

from graphoid.cubes import run_equivalence_trials


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quiet", action="store_true", help="print only the summary")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    t0 = time.perf_counter()
    results = run_equivalence_trials(args.trials, args.seed)
    elapsed = time.perf_counter() - t0
    ok = 0
    for r in results:
        if r.ok:
            ok += 1
            if not args.quiet:
                print(f"trial {r.index:04d} ok   {r.description}")
        else:
            print(f"trial {r.index:04d} FAIL {r.description}")
            for mismatch in r.mismatches:
                print(f"           {mismatch}")
    print(f"{ok}/{len(results)} equivalent in {elapsed:.2f}s")
    return 0 if ok == len(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
