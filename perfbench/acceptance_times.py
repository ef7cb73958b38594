#!/usr/bin/env python3
"""Time one acceptance pass of weylflow, criterion by criterion.

    python3 perfbench/acceptance_times.py

Runs criteria 1-11 and the round-trip half of criterion 12 once, in the
order ``acceptance.run_pass`` uses, with one BLAS thread, and prints each
criterion's wall time, its verdict and the total.  Run from the root of the
checkout.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weylflow import acceptance  # noqa: E402


def main():
    ctx = {}
    total = 0.0
    steps = [(fn.__name__, lambda fn=fn: fn(ctx).passed) for fn in acceptance.CRITERIA]
    steps.append(("criterion_12_roundtrips",
                  lambda: acceptance.criterion_12_roundtrips(ctx) < 1e-6))
    for name, step in steps:
        t0 = perf_counter()
        passed = step()
        dt = perf_counter() - t0
        total += dt
        print(f"{name:<26}{dt:9.2f} s  {'PASS' if passed else 'FAIL'}", flush=True)
    print(f"{'total':<26}{total:9.2f} s")


if __name__ == "__main__":
    main()
