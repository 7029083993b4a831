"""Brute-force cross-check: replace the continuum bath by many discrete modes.

In the single-excitation sector the full model is a real symmetric
(N + M) x (N + M) one-body problem,

    H_full = [[ H_S,  B      ],
              [ B^T,  diag(w) ]],     B[n, k] = g_k  for every site n,

with mode frequencies w_k and couplings g_k chosen so the discrete spectral
weights reproduce J(w).  Exact diagonalization of H_full then gives the site
amplitudes with no time-stepping error at all, which makes it a genuinely
independent oracle for the memory-kernel integrator: different equations,
different discretization, different code path.

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

#: eig path memory/time stays reasonable up to this total dimension
_EIG_DIMENSION_CAP = 4000


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
    try:
        evals, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"full-model diagonalization failed: {exc}") from exc
    psi0 = np.zeros(H.shape[0], dtype=complex)
    psi0[:N] = init
    c = V.T @ psi0
    V_sys = np.ascontiguousarray(V[:N, :])
    alphas = np.empty((grid.steps + 1, N), dtype=complex)
    for i, t in enumerate(grid.times()):
        alphas[i] = V_sys @ (np.exp(-1j * evals * t) * c)
    return alphas


def _evolve_rk4(model: ModelParams, dbath: DiscreteBath, init: np.ndarray,
                grid: TimeGrid) -> np.ndarray:
    """Structured RK4: the coupling block is rank one, so each matvec is
    O(N^2 + M) instead of O((N + M)^2)."""
    # RK4 on i dpsi/dt = H psi is stable for |lambda| dt < 2*sqrt(2)
    if grid.dt * dbath.omega_max >= 2.8:
        raise ParameterError(
            f"dt = {grid.dt} too large for RK4 with omega_max = {dbath.omega_max}; "
            "need dt * omega_max < 2.8")
    H_S = build_hamiltonian(model).matrix
    w = dbath.omegas
    g = dbath.couplings
    N = model.N

    def deriv(psi):
        a, b = psi[:N], psi[N:]
        top = H_S @ a + np.sum(g * b)
        bot = w * b + g * a.sum()
        return -1j * np.concatenate([top, bot])

    psi = np.zeros(N + dbath.modes, dtype=complex)
    psi[:N] = init
    dt = grid.dt
    alphas = np.empty((grid.steps + 1, N), dtype=complex)
    alphas[0] = psi[:N]
    for m in range(grid.steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1)
        k3 = deriv(psi + 0.5 * dt * k2)
        k4 = deriv(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        alphas[m + 1] = psi[:N]
        if not np.isfinite(psi[:N]).all():
            raise NumericsError(f"non-finite oracle amplitude at step {m + 1}")
    return alphas


def evolve_full(model: ModelParams, dbath: DiscreteBath, init: np.ndarray,
                grid: TimeGrid, method: str = "auto") -> Trajectory:
    """Evolve system + discrete bath and record system-block observables.

    method: "eig" (exact diagonalization), "rk4" (structured time stepping
    for mode counts where eig is too big), or "auto".
    """
    init = np.asarray(init, dtype=complex)
    if init.shape != (model.N,):
        raise ParameterError(f"initial state must have shape ({model.N},)")
    if grid.t_max > dbath.recurrence_time:
        raise ParameterError(
            f"t_max = {grid.t_max:g} exceeds the discrete-bath recurrence time "
            f"{dbath.recurrence_time:g}; increase oracle.modes")
    if method == "auto":
        method = "eig" if model.N + dbath.modes <= _EIG_DIMENSION_CAP else "rk4"
    if method == "eig":
        alphas = _evolve_eig(full_hamiltonian(model, dbath), model.N, init, grid)
    elif method == "rk4":
        alphas = _evolve_rk4(model, dbath, init, grid)
    else:
        raise ParameterError(f"unknown oracle method {method!r}")
    series = observables(alphas, init)
    params = {
        "model.N": model.N, "model.lambda": model.lam, "model.Delta": model.Delta,
        "model.a": model.a, "model.beta": model.beta, "model.phi": model.phi,
        "grid.dt": grid.dt, "grid.steps": grid.steps,
        "oracle.modes": dbath.modes, "oracle.omega_max": dbath.omega_max,
        "oracle.method": method,
    }
    return Trajectory(
        grid=grid,
        sp=series["sp"],
        ipr=series["ipr"],
        norm=series["norm"],
        variance=series["variance"],
        collective=alphas.sum(axis=1),
        params=params,
        alpha_history=None,
    )


def compare_trajectories(a: Trajectory, b: Trajectory, observable: str = "sp") -> float:
    """Largest pointwise deviation of a recorded series over the shared grid."""
    if a.grid != b.grid:
        raise ParameterError("trajectories live on different time grids")
    xa = getattr(a, observable, None)
    xb = getattr(b, observable, None)
    if xa is None or xb is None:
        raise ParameterError(f"observable {observable!r} not recorded on both runs")
    return float(np.max(np.abs(np.asarray(xa) - np.asarray(xb))))


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
                            omega_max: float = 80.0, threshold: float = 1e-3,
                            consistent_truncation: bool = True,
                            method: str = "auto",
                            **evolve_kw) -> ValidationReport:
    """Run the memory-kernel integrator and the discrete-bath oracle on the
    same problem and report the worst survival-probability gap.

    With ``consistent_truncation`` (the default, s = 1) the integrator's
    kernel is cut at the oracle's omega_max, so both sides simulate the
    identical bath and the gap measures solver error alone.  Without it the
    gap additionally contains the spectral weight above omega_max, about
    2e-3 in SP at the default eta = 0.1 settings, which no solver accuracy
    can remove.
    """
    from .dynamics import evolve

    dbath = discretize_bath(bath, modes, omega_max)
    if consistent_truncation:
        # Authoritative: any caller-supplied kernel settings would break the
        # "same bath on both sides" premise, so they are overridden here.
        evolve_kw["kernel_rule"] = "trapezoid"
        evolve_kw["kernel_omega_max"] = omega_max
    # The exact side first: its full-model eigendecomposition is the memory
    # peak of a validation, and the integrator's FFT plans and buffers, which
    # stay resident afterwards, then do not add to it.
    exact = evolve_full(model, dbath, init, grid, method=method)
    solver = evolve(model, bath, init, grid, **evolve_kw)
    dev = compare_trajectories(solver, exact, "sp")
    return ValidationReport(
        max_sp_deviation=dev,
        threshold=threshold,
        passed=dev < threshold,
        modes=modes,
        omega_max=omega_max,
        recurrence_time=dbath.recurrence_time,
    )
