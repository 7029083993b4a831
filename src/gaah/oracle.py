"""Brute-force cross-check: replace the continuum bath by many discrete modes.

In the single-excitation sector the full model is a real symmetric
(N + M) x (N + M) one-body problem,

    H_full = [[ H_S,  B      ],
              [ B^T,  diag(w) ]],     B[n, k] = g_k  for every site n,

with mode frequencies w_k and couplings g_k chosen so the discrete spectral
weights reproduce J(w).  Exact diagonalization of H_full then gives the site
amplitudes with no time-stepping error at all, which makes it a genuinely
independent oracle for the memory-kernel integrator: different equations,
different discretization, different code path.  In a validation the
integrator's kernel is truncated at the sampling cutoff omega_max, so both
sides hold the same bath, and it runs the same product quadrature as every
production run: the check covers the route that ships.

The eigendecomposition is the only propagation route, so memory grows as
(N + M)^2: at N = 7, M = 2000 an evolution peaks about 160 MB above the
imports, and doubling N + M quadruples that.

A discrete bath is periodic with recurrence time 2*pi / dw; comparisons are
refused beyond it because agreement there would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathParams, spectral_density
from .dynamics import TimeGrid, Trajectory, observables
# The scalar observables stay importable from this module: perfbench traces
# the oracle's observables by rebinding these names.
from .dynamics import ipr, position_variance, survival_probability  # noqa: F401
from .errors import NumericsError, ParameterError
from .model import ModelParams, build_hamiltonian

#: Times per block of the propagation: its phase table holds _PHASE_BLOCK rows
#: of N + M phases, about 8 MB at N + M = 2007, well under the
#: eigendecomposition itself.
_PHASE_BLOCK = 256


@dataclass(frozen=True)
class DiscreteBath:
    """Midpoint discretization of the continuum bath on [0, omega_max]."""

    omegas: np.ndarray
    couplings: np.ndarray
    omega_max: float

    @property
    def modes(self) -> int:
        return len(self.omegas)

    @property
    def recurrence_time(self) -> float:
        return 2.0 * np.pi / (self.omega_max / self.modes)


def discretize_bath(bath: BathParams, modes: int, omega_max: float) -> DiscreteBath:
    """Modes at the midpoints w_k = (k - 1/2) dw with weights
    g_k^2 = J(w_k) dw, the midpoint rule for int J."""
    if modes < 1:
        raise ParameterError(f"oracle.modes must be >= 1, got {modes}")
    if omega_max <= 0.0:
        raise ParameterError(f"oracle.omega_max must be > 0, got {omega_max}")
    dw = omega_max / modes
    omegas = dw * (np.arange(modes) + 0.5)
    couplings = np.sqrt(spectral_density(bath, omegas) * dw)
    return DiscreteBath(omegas=omegas, couplings=couplings, omega_max=omega_max)


def full_hamiltonian(model: ModelParams, dbath: DiscreteBath) -> np.ndarray:
    N, M = model.N, dbath.modes
    H = np.zeros((N + M, N + M))
    H[:N, :N] = build_hamiltonian(model).matrix
    H[:N, N:] = dbath.couplings[np.newaxis, :]
    H[N:, :N] = dbath.couplings[:, np.newaxis]
    H[N + np.arange(M), N + np.arange(M)] = dbath.omegas
    return H


def _evolve_eig(H: np.ndarray, N: int, init: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """System amplitudes from the eigendecomposition of H, ``_PHASE_BLOCK``
    times per matrix product: the phases exp(-i E p dt) of one block are
    tabulated once and shifted to each block's start time."""
    try:
        evals, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"full-model diagonalization failed: {exc}") from exc
    V_sys = V[:N, :]
    c = V_sys.T @ np.asarray(init, dtype=complex)
    V_sys_T = np.ascontiguousarray(V_sys.T)
    rows = min(_PHASE_BLOCK, grid.steps + 1)
    table = np.exp(-1j * grid.dt * np.outer(np.arange(rows), evals))
    times = grid.times()
    alphas = np.empty((grid.steps + 1, N), dtype=complex)
    for k0 in range(0, grid.steps + 1, rows):
        k1 = min(k0 + rows, grid.steps + 1)
        shift = np.exp(-1j * evals * times[k0]) * c
        alphas[k0:k1] = (table[:k1 - k0] * shift) @ V_sys_T
    return alphas


def evolve_full(model: ModelParams, dbath: DiscreteBath, init: np.ndarray,
                grid: TimeGrid) -> Trajectory:
    """Evolve system + discrete bath and record system-block observables.

    The propagator comes from one exact diagonalization of the full
    (N + M)-dimensional Hamiltonian, so its memory grows as (N + M)^2.
    """
    init = np.asarray(init, dtype=complex)
    if init.shape != (model.N,):
        raise ParameterError(f"initial state must have shape ({model.N},)")
    if grid.t_max > dbath.recurrence_time:
        raise ParameterError(
            f"t_max = {grid.t_max:g} exceeds the discrete-bath recurrence time "
            f"{dbath.recurrence_time:g}; increase oracle.modes")
    alphas = _evolve_eig(full_hamiltonian(model, dbath), model.N, init, grid)
    series = observables(alphas, init)
    params = {
        "model.N": model.N, "model.lam": model.lam, "model.Delta": model.Delta,
        "model.a": model.a, "model.beta": model.beta, "model.phi": model.phi,
        "grid.dt": grid.dt, "grid.steps": grid.steps,
        "oracle.modes": dbath.modes, "oracle.omega_max": dbath.omega_max,
    }
    return Trajectory(
        grid=grid,
        sp=series["sp"],
        ipr=series["ipr"],
        norm=series["norm"],
        variance=series["variance"],
        collective=alphas.sum(axis=1),
        params=params,
    )


def compare_trajectories(a: Trajectory, b: Trajectory) -> float:
    """Largest survival-probability deviation over the shared grid."""
    if a.grid != b.grid:
        raise ParameterError("trajectories live on different time grids")
    return float(np.max(np.abs(a.sp - b.sp)))


@dataclass(frozen=True)
class ValidationReport:
    max_sp_deviation: float
    threshold: float
    passed: bool
    modes: int
    omega_max: float
    recurrence_time: float


def validate_against_oracle(model: ModelParams, bath: BathParams, init: np.ndarray,
                            grid: TimeGrid, modes: int = 2000,
                            omega_max: float = 80.0,
                            threshold: float = 1e-3) -> ValidationReport:
    """Run the memory-kernel integrator and the discrete-bath oracle on the
    same problem and report the worst survival-probability gap.

    The integrator's kernel is cut at the oracle's omega_max (s = 1), so both
    sides simulate the identical bath and the gap measures solver error
    alone; the integrator runs its one production quadrature, the product
    rule, on the truncated kernel.  Without the cut the gap would also hold
    the spectral weight above omega_max, about 2e-3 in SP at the default
    eta = 0.1 settings, which no solver accuracy can remove.
    """
    from .dynamics import evolve

    dbath = discretize_bath(bath, modes, omega_max)
    # The exact side first: its full-model eigendecomposition is the memory
    # peak of a validation.  The integrator that follows holds only
    # block-sized history spectra and FFT plans (2 * HISTORY_BLOCK points).
    exact = evolve_full(model, dbath, init, grid)
    solver = evolve(model, bath, init, grid, kernel_omega_max=omega_max)
    dev = compare_trajectories(solver, exact)
    return ValidationReport(
        max_sp_deviation=dev,
        threshold=threshold,
        passed=dev < threshold,
        modes=modes,
        omega_max=omega_max,
        recurrence_time=dbath.recurrence_time,
    )
