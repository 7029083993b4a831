"""Test-side closed forms and self-checks that the package does not ship.

The integrator takes the memory kernel through its closed-form product
moments, the self-energy is a rational sum over rotated-ray modes, and the
pole search reports poles, not beat frequencies; these helpers give the
tests the kernel itself, the subtracted principal-value quadrature of the
dispersive self-energy, the step-by-step recursion of the integrator with a
direct history sum (in float64 or in extended precision), a dt-halving check,
the beat frequency between two poles, the pole search's seeds level by
level and the determinant scan row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import quad
from scipy.special import gamma

from gaah.bath import (BathParams, ResiduePrescription, SigmaMode, check_kernel_cut,
                       self_energy_eval, spectral_density)
from gaah.dynamics import NORM_BLOWUP, TimeGrid, evolve, survival_probability
from gaah.errors import NumericsError, ParameterError, UnstableEvolutionError
from gaah.model import EigenDecomposition, ModelParams, build_hamiltonian, diagonalize
from gaah.spectrum import (DeterminantGrid, PoleSearchRegion, ResonancePole,
                           _deflated_secular, _secular_scaled, collective_weights)


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


def seeds_level_by_level(model: ModelParams, bath: BathParams, region: PoleSearchRegion,
                         prescription: ResiduePrescription = ResiduePrescription.HALF,
                         sigma_mode: SigmaMode = SigmaMode.AUTO) -> list[complex]:
    """The pole search's seeds one level at a time, over the levels from the
    last one below the window through the first one above it: the resummed
    Newton step of the secular function from each level (a level where
    Sigma cannot be evaluated gives none), then the midpoint of each gap
    between them where Sigma can be."""
    dec = diagonalize(build_hamiltonian(model))
    lam, w = dec.energies, collective_weights(dec)
    below = [k for k in range(model.N) if lam[k] < region.re_min]
    above = [k for k in range(model.N) if lam[k] > region.re_max]
    levels = range(below[-1] if below else 0, above[0] + 1 if above else model.N)
    seeds, mids = [], []
    for k in levels:
        E = complex(lam[k])
        try:
            sigma = self_energy_eval(bath, E, prescription, sigma_mode)
        except ParameterError:
            continue
        h, h_E, _ = _deflated_secular(lam, w, E, sigma, k)
        seeds.append(complex(E - h / h_E))
    for k in levels[:-1]:
        mid = 0.5 * (lam[k] + lam[k + 1])
        try:
            self_energy_eval(bath, mid, prescription, sigma_mode)
        except ParameterError:
            continue
        mids.append(complex(mid))
    return seeds + mids


def scan_grid_row_by_row(model: ModelParams, bath: BathParams, region: PoleSearchRegion,
                         n_re: int = 200, n_im: int = 80,
                         prescription: ResiduePrescription = ResiduePrescription.HALF,
                         sigma_mode: SigmaMode = SigmaMode.AUTO) -> DeterminantGrid:
    """The determinant scan with Sigma taken row by row: once per column
    under the real-axis mode, and once per row of constant Im E when
    continued."""
    dec = diagonalize(build_hamiltonian(model))
    mode = sigma_mode.resolve(bath)
    re = np.linspace(region.re_min, region.re_max, n_re)
    im = np.linspace(region.im_min, region.im_max, n_im)
    if mode is SigmaMode.REAL_AXIS:
        sigma = self_energy_eval(bath, re, prescription, mode)
    out = np.empty((n_im, n_re))
    ph = np.empty((n_im, n_re), dtype=complex)
    for i, y in enumerate(im):
        E = re + 1j * y
        if mode is not SigmaMode.REAL_AXIS:
            sigma = self_energy_eval(bath, E, prescription, mode)
        out[i], ph[i] = _secular_scaled(dec, E, sigma)
    return DeterminantGrid(re=re, im=im, log_abs=out, phase=ph)


#: A pole with Im E at or above -ROTATED_IM_TOL counts as real: the
#: rotated-bath oracle keeps, and is compared on, the poles below it.
ROTATED_IM_TOL = 1e-13


def rotated_bath_poles(model: ModelParams, bath: BathParams, region: PoleSearchRegion,
                       h: float = 0.1, xi_lo: float = -18.0) -> list[complex]:
    """The FULL-prescription poles in ``region`` as eigenvalues of
    H_eff = [[H_S, 1 g^T], [g 1^T, diag omega]], an oracle that shares no
    step with the pole search.

    The bath modes sit on the ray omega_j = omega_c e^{z_j},
    z_j = xi_j - i pi/4, with xi_j = xi_lo + h j up to ln(2 (s + 30)) (222
    modes at s = 1), and g_j^2 = h eta omega_c^2 e^{(s+1) z_j - e^{z_j}}:
    the trapezoid rule for int J(w) / (E - w) dw rotated onto the ray, which
    continues Sigma to the second sheet above it.  Kept are the eigenvalues
    in the window, below Im E = -ROTATED_IM_TOL and off the ray's own
    eigenvalues (|arg E + pi/4| > 0.05), by descending Re E.
    """
    theta = math.pi / 4.0
    K = int((math.log(2.0 * (bath.s + 30.0)) - xi_lo) / h) + 1
    z = xi_lo + h * np.arange(K) - 1j * theta
    g = np.sqrt(h * bath.eta * bath.omega_c ** 2 * np.exp((bath.s + 1.0) * z - np.exp(z)))
    N = model.N
    H = np.zeros((N + K, N + K), dtype=complex)
    H[:N, :N] = build_hamiltonian(model)
    H[:N, N:], H[N:, :N] = g, g[:, None]
    H[N:, N:] = np.diag(bath.omega_c * np.exp(z))
    E = scipy.linalg.eigvals(H)
    keep = ((region.re_min <= E.real) & (E.real <= region.re_max)
            & (region.im_min <= E.imag) & (E.imag < -ROTATED_IM_TOL)
            & (np.abs(np.angle(E) + theta) > 0.05))
    return sorted(E[keep], key=lambda e: -e.real)
