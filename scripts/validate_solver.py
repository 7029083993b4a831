#!/usr/bin/env python3
"""Convergence study of the memory-kernel solver against the discrete bath.

Two sweeps on a small lattice (N = 7) where the discrete-bath reference
is exact to machine precision:

* mode count M in {500, 1000, 2000} at fixed dt -- the deviation must
  fall as the discretization refines;
* step size dt in {0.008, 0.004, 0.002} at fixed M -- the deviation must
  fall roughly quadratically until the discretization floor.

In both sweeps the solver's kernel is cut at the same omega_max as the
discrete bath, so the comparison isolates integrator error (the product
rule every production run uses) from bath-discretization error.

Usage:
    python3 scripts/validate_solver.py

Expected output (timings vary with the machine):

    mode-count sweep (dt = 0.002, t <= 30):
      M = 500   max |dSP| = 2.594e-04  (recurrence 39.3, 0.1 s)
      M = 1000  max |dSP| = 8.808e-05  (recurrence 78.5, 0.2 s)
      M = 2000  max |dSP| = 5.102e-05  (recurrence 157.1, 0.2 s)
    step-size sweep (M = 2000, t <= 30):
      dt = 0.008  max |dSP| = 6.316e-04  (0.1 s)
      dt = 0.004  max |dSP| = 1.671e-04  (0.2 s)  ratio vs previous = 3.78
      dt = 0.002  max |dSP| = 5.102e-05  (0.2 s)  ratio vs previous = 3.28
"""

from __future__ import annotations

import dataclasses
import sys
import time

from gaah.bath import BathParams
from gaah.dynamics import TimeGrid
from gaah.model import ModelParams, build_hamiltonian, diagonalize, highest_excited_state
from gaah.oracle import validate_against_oracle


def main() -> int:
    model = dataclasses.replace(ModelParams(), N=7)
    bath = BathParams(eta=0.1)
    init = highest_excited_state(diagonalize(build_hamiltonian(model)))
    omega_max = 80.0

    print("mode-count sweep (dt = 0.002, t <= 30):")
    grid = TimeGrid.from_t_max(0.002, 30.0)
    for modes in (500, 1000, 2000):
        start = time.monotonic()
        report = validate_against_oracle(
            model, bath, init, grid, modes=modes, omega_max=omega_max,
            threshold=float("inf"))
        print(f"  M = {modes:<5d} max |dSP| = {report.max_sp_deviation:.3e}"
              f"  (recurrence {report.recurrence_time:.1f},"
              f" {time.monotonic() - start:.1f} s)")

    print("step-size sweep (M = 2000, t <= 30):")
    prev = None
    for dt in (0.008, 0.004, 0.002):
        start = time.monotonic()
        grid = TimeGrid.from_t_max(dt, 30.0)
        report = validate_against_oracle(
            model, bath, init, grid, modes=2000, omega_max=omega_max,
            threshold=float("inf"))
        note = ""
        if prev is not None and report.max_sp_deviation > 0:
            note = f"  ratio vs previous = {prev / report.max_sp_deviation:.2f}"
        prev = report.max_sp_deviation
        print(f"  dt = {dt:<6g} max |dSP| = {report.max_sp_deviation:.3e}"
              f"  ({time.monotonic() - start:.1f} s){note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
