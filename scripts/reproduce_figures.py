#!/usr/bin/env python3
"""Regenerate every figure data bundle.

Thin driver over ``gaah figdata``: one subdirectory per bundle, each with
its own manifest.  By default the runs use the scaled grids (shorter
horizon, coarser step); pass ``--full`` for the long-horizon grids
(t = 1200, dt = 0.01), which sets ``fig.full`` in each run.  On one core
of a 2-core Xeon VM the scaled set takes 2-2.5 s and the full set
11-13.5 s: 23 trajectories of about 0.5 s each at t = 1200, dt = 0.01
(about 0.17 s integrating and 0.26 s writing the CSV), about 335 MB of CSV
and a peak RSS of about 80 MB.

Usage:
    python3 scripts/reproduce_figures.py [--out DIR] [--full] [--bundle NAME ...]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from gaah.cli import main as gaah_main
from gaah.config import BUNDLES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="figure-data", metavar="DIR",
                        help="parent directory for the bundles (default: figure-data)")
    parser.add_argument("--full", action="store_true",
                        help="use the long-horizon grids instead of the scaled ones")
    parser.add_argument("--bundle", action="append", choices=sorted(BUNDLES),
                        help="restrict to specific bundles (repeatable; default: all)")
    args = parser.parse_args(argv)

    names = args.bundle or sorted(BUNDLES)
    parent = Path(args.out)
    overall = 0
    for name in names:
        target = parent / name
        argv_one = ["figdata", "--out", str(target), "--set", f"fig.bundle={name}",
                    "--set", f"fig.full={str(args.full).lower()}"]
        print(f"== {name} -> {target}", flush=True)
        start = time.monotonic()
        code = gaah_main(argv_one)
        print(f"   exit {code} after {time.monotonic() - start:.1f} s", flush=True)
        overall = overall or code
    return overall


if __name__ == "__main__":
    sys.exit(main())
