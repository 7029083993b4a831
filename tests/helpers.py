"""Test-side closed forms and self-checks that the package does not ship.

The integrator takes the memory kernel through its closed-form product
moments and the pole search reports poles, not beat frequencies; these
helpers give the tests the kernel itself, a dt-halving check and the beat
frequency between two poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from gaah.bath import BathParams, check_kernel_cut
from gaah.dynamics import TimeGrid, evolve
from gaah.errors import ParameterError
from gaah.model import ModelParams
from gaah.spectrum import ResonancePole


def memory_kernel(b: BathParams, t, omega_max: float = math.inf):
    """Bath correlation function f(t) = int_0^omega_max J(w) exp(-i w t) dw.

    For the full support (the default) this is, in closed form,

        f(t) = eta / omega_c^(s-1) * Gamma(s+1) / (i t + 1/omega_c)^(s+1),

    with f(0) = eta * Gamma(s+1) * omega_c**2.  A finite ``omega_max``
    (s = 1 only) truncates the bath at that frequency, which makes the
    kernel physically identical to a mode sampling of [0, omega_max]; the
    discrete-bath comparison runs the integrator on this kernel (through its
    closed-form product-integration moments) so that it measures solver
    error rather than the spectral weight above the sampling window.
    Accepts scalar or array ``t`` >= 0.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ParameterError("memory kernel is defined for t >= 0")
    z = 1j * tt + 1.0 / b.omega_c
    if math.isinf(omega_max):
        amp = b.eta / b.omega_c ** (b.s - 1.0) * gamma(b.s + 1.0)
        out = amp / z ** (b.s + 1.0)
    else:
        check_kernel_cut(b.s, omega_max)
        zw = z * omega_max
        out = b.eta * (1.0 - np.exp(-zw) * (1.0 + zw)) / z ** 2
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class ConvergenceReport:
    """Result of the dt-halving self-check."""

    dt_coarse: float
    dt_fine: float
    max_sp_deviation: float
    threshold: float
    passed: bool


def convergence_check(model: ModelParams, bath: BathParams, init: np.ndarray,
                      grid: TimeGrid, threshold: float = 1e-4) -> ConvergenceReport:
    """Run at dt and dt/2 and report the largest survival-probability
    discrepancy on the shared grid points."""
    coarse = evolve(model, bath, init, grid)
    fine_grid = TimeGrid(dt=0.5 * grid.dt, steps=2 * grid.steps)
    fine = evolve(model, bath, init, fine_grid)
    dev = float(np.max(np.abs(coarse.sp - fine.sp[::2])))
    return ConvergenceReport(
        dt_coarse=grid.dt,
        dt_fine=fine_grid.dt,
        max_sp_deviation=dev,
        threshold=threshold,
        passed=dev < threshold,
    )


def transition_frequency(pole_a: complex | ResonancePole,
                         pole_b: complex | ResonancePole) -> float:
    """Beat (angular) frequency |Re E_a - Re E_b| between two resonances; the
    survival-probability oscillation period is 2*pi over this."""
    ea = pole_a.energy if isinstance(pole_a, ResonancePole) else pole_a
    eb = pole_b.energy if isinstance(pole_b, ResonancePole) else pole_b
    return abs(ea.real - eb.real)
