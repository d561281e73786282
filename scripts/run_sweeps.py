#!/usr/bin/env python3
"""Run both Somos-4 conjecture sweeps and write the reports as JSON.

Usage:
    python scripts/run_sweeps.py [--range -2..2] [--order 40] [--out DIR]

A counterexample would be a research finding, so it is recorded in the
report (and echoed loudly) rather than treated as an error.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from riordan.verify import SWEEP_ORDER, sweep_conjecture_rho0, sweep_conjecture_rho_delta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--range", default="-2..2", help="per-parameter range LO..HI")
    parser.add_argument("--order", type=int, default=SWEEP_ORDER)
    parser.add_argument("--out", default="sweep-reports")
    args = parser.parse_args()
    lo, hi = (int(part) for part in args.range.split(".."))
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sweep in (("rho0", sweep_conjecture_rho0), ("rhodelta", sweep_conjecture_rho_delta)):
        started = time.perf_counter()
        report = sweep(lo, hi, args.order)
        elapsed = time.perf_counter() - started
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
        print(
            f"{name}: {report.confirmed} confirmed, {report.degenerate} degenerate, "
            f"{len(report.counterexamples)} counterexamples of {report.total} "
            f"({elapsed:.1f}s) -> {path}"
        )
        for params, window in report.counterexamples:
            print(f"  COUNTEREXAMPLE at {params}, window {window}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
