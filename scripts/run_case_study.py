"""Run the seven phone-call case-study queries on generated data and time them.

The queries are defined once, in ``graphoid bench``; this script forwards its
arguments there.  Presets `--scale d1` and `--scale d2` reproduce the
published data-set sizes; the default desk scale finishes in seconds.

    python3 scripts/run_case_study.py
    python3 scripts/run_case_study.py --scale d1 --seed 1
    python3 scripts/run_case_study.py --calls 20000 --phones 400 --sizes 2 3 4
"""
from __future__ import annotations

import sys

from graphoid import cli


def main(argv=None) -> int:
    return cli.main(["bench", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
