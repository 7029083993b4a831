"""Test-side closed forms and self-checks that the package does not ship.

The integrator takes the memory kernel through its closed-form product
moments, the self-energy is a rational sum over rotated-ray modes, and the
pole search reports poles, not beat frequencies; these helpers give the
tests the kernel itself, the subtracted principal-value quadrature of the
dispersive self-energy, the step-by-step recursion of the integrator with a
direct history sum (in float64 or in extended precision), a dt-halving check
and the beat frequency between two poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

from gaah.bath import BathParams, check_kernel_cut, spectral_density
from gaah.dynamics import NORM_BLOWUP, TimeGrid, evolve, survival_probability
from gaah.errors import NumericsError, ParameterError, UnstableEvolutionError
from gaah.model import EigenDecomposition, ModelParams
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


#: Upper integration limit of the level-shift integral, in units of omega_c.
#: Beyond it the exponential tail is handled by a separate quadrature.
CUTOFF_MULTIPLE = 40.0

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)


def _spectral_density_slope(b: BathParams, omega: float) -> float:
    """dJ/domega, used to desingularize the subtracted integrand."""
    w = float(omega)
    e = math.exp(-w / b.omega_c)
    return b.eta * b.omega_c ** (1.0 - b.s) * e * (b.s * w ** (b.s - 1.0) - w ** b.s / b.omega_c)


def _checked_quad(f, lo, hi, **kw):
    out = quad(f, lo, hi, full_output=1, **kw)
    val, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 1e-9:
        raise NumericsError(
            f"self-energy quadrature did not converge on [{lo}, {hi}]: "
            f"{out[3]!s} (achieved error estimate {abserr:.3e})"
        )
    return val


def dispersive_part_by_quadrature(eta: float, omega_c: float, s: float, x: float) -> float:
    """Real (principal-value) part of int_0^inf J(w)/(x - w) dw at real x,
    by adaptive quadrature on the real axis, an oracle that shares no node
    with the package's rational sum.  Its own error grows below |x| = 1e-3.

    For x > 0 the singularity is subtracted:

        P int_0^W J/(x-w) = int_0^W [J(w)-J(x)]/(x-w) + J(x) * ln(x/(W-x)),

    with W = 40*omega_c; the first integrand is smooth (removable singularity
    with value -J'(x)) and the exponentially small tail beyond W is added by a
    separate quadrature.
    """
    b = BathParams(eta=eta, omega_c=omega_c, s=s)
    W = CUTOFF_MULTIPLE * omega_c
    if x <= 0.0:
        main = _checked_quad(lambda w: spectral_density(b, w) / (x - w),
                             0.0, W, points=[omega_c], **_QUAD_OPTS)
    else:
        jx = spectral_density(b, x)
        slope = _spectral_density_slope(b, x)
        # The stencil must stay at w > 0, where w**(s-1) is real for any s.
        h = min(1e-5 * (1.0 + x), 0.5 * x)
        curv = (_spectral_density_slope(b, x + h) - _spectral_density_slope(b, x - h)) / (2.0 * h)

        def subtracted(w):
            d = x - w
            if abs(d) < 1e-7 * (1.0 + x):
                # Taylor of [J(x-d) - J(x)]/d to dodge cancellation at the node.
                return -slope + 0.5 * d * curv
            return (spectral_density(b, w) - jx) / d

        pts = sorted({min(max(x, 1e-12), W - 1e-12), omega_c})
        main = _checked_quad(subtracted, 0.0, W, points=pts, **_QUAD_OPTS)
        main += jx * math.log(x / (W - x))
    tail = _checked_quad(lambda w: spectral_density(b, w) / (x - w),
                         W, math.inf, **_QUAD_OPTS)
    return main + tail


def direct_steps(dec: EigenDecomposition, W: np.ndarray, T: np.ndarray, init: np.ndarray,
                 grid: TimeGrid, dtype=complex, bound: float = NORM_BLOWUP):
    """SP and squared norm of ``evolve``'s step recursion, one step at a time.

    Each step takes C_m and the endpoint-free c_hist from two full-length dot
    products over the stored history, with the same implicit stage as
    ``evolve``.  The eigensystem, the lag weights W, T and the state enter as
    given and are then carried in ``dtype``: ``np.clongdouble`` gives a
    reference whose rounding error lies below that of float64 where long
    double is wider than double.  Raises ``UnstableEvolutionError`` where the
    squared norm exceeds ``bound``.
    """
    real = np.finfo(dtype).dtype
    dt = real.type(grid.dt)
    U = dec.states.astype(dtype)
    W, T = W.astype(dtype), T.astype(dtype)
    Wrev = W[::-1].copy()
    L = grid.steps

    def conv(S, q, m_hist, S_end=None):
        # C at time index q from S[0..m_hist]; with S_end, q == m_hist + 1.
        if q == 0:
            return dtype(0.0)
        if S_end is None:
            c = np.dot(S[:q + 1], Wrev[L - q:L + 1])
        else:
            c = np.dot(S[:m_hist + 1], Wrev[L - q:L]) + S_end * W[0]
        return c + S[0] * (T[q] - W[q])

    N = len(init)
    P = (U * np.exp(-1j * dec.energies.astype(real) * dt)) @ U.T
    ones = np.ones(N, dtype=dtype)
    P_ones = P @ ones
    alpha = np.asarray(init, dtype=dtype).copy()
    S = np.zeros(L + 1, dtype=dtype)
    S[0] = alpha.sum()
    sp = np.empty(L + 1)
    norm = np.empty(L + 1)
    sp[0] = survival_probability(alpha, init)
    norm[0] = float(np.vdot(alpha, alpha).real)
    for m in range(L):
        C_m = conv(S, m, m)
        c_hist = conv(S, m + 1, m, S_end=0.0)
        A = P @ alpha - 0.5 * dt * C_m * P_ones
        S_new = (A.sum() - 0.5 * dt * N * c_hist) / (1.0 + 0.5 * dt * N * W[0])
        alpha = A - 0.5 * dt * (c_hist + W[0] * S_new) * ones
        nsq = float(np.vdot(alpha, alpha).real)
        if nsq > bound:
            raise UnstableEvolutionError(m + 1, nsq)
        S[m + 1] = alpha.sum()
        sp[m + 1] = survival_probability(alpha, init)
        norm[m + 1] = nsq
    return sp, norm


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
