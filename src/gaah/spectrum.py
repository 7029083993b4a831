"""Resonance poles of the collectively coupled lattice.

The Laplace transform of the evolution closes on the characteristic matrix

    M(E) = H_S + Sigma(E) * U - E * I,

where U is the all-ones matrix (every pair of sites talks through the same
bath) and Sigma is the bath self-energy.  Decaying eigenmodes show up as
zeros of det M(E) in the lower half plane.

Sigma at complex E is evaluated under a SigmaMode: pinned to the real axis
(any s; exact for narrow resonances) or analytically continued through the
s = 1 closed form (faithful for broad resonances too).  The real-axis
variant makes det M smooth but *not* holomorphic in E, so root finding
treats (Re E, Im E) as two real unknowns with a full, analytic 2x2
Jacobian; in the continued variant that iteration is the complex Newton.

Everything is evaluated from one eigendecomposition H_S = sum_m lambda_m
u_m u_m^T.  Because U = |1><1| has rank one,

    det M(E) = prod_m (lambda_m - E) * F(E),    F(E) = 1 + Sigma(E) * g(E),
    g(E) = <1| (H_S - E)^{-1} |1> = sum_m w_m / (lambda_m - E),

with w_m = (u_m . 1)^2 the collective weight of eigenstate m: the secular
equation of a rank-one update of a symmetric matrix (Bunch, Nielsen &
Sorensen, Numer. Math. 31, 1978).  At a zero of F the mode vector is
(H_S - E)^{-1} |1>, which M maps to F |1> = 0.  A search therefore
diagonalizes once and hands the EigenDecomposition down through the ``dec``
keyword; a determinant costs O(N) per point.

One kernel evaluates the secular equation: h = (lambda_k - E) F(E), the
level k nearest E factored out, which stays finite on that level and at
eta = 0.  The determinant is prod_{m != k} (lambda_m - E) * h, the Newton
polish drives h to zero, and the seeds are one fixed-Sigma Newton step of h
from each level: the zeros of F sit one per level of H_S, so
``find_poles`` polishes those seeds plus each gap midpoint, over every gap
that meets the window, and needs no scan of it.  It polishes them all at
once: each Newton round is a handful of array operations over the seeds
still iterating, with one evaluation of Sigma for all of them, while each
seed keeps its own step, iteration count and outcome.  ``refine_pole`` is
the same iteration on one seed.  Null vectors are formed for the kept
poles alone.  ``scan_grid`` samples the determinant landscape for the
figure data only.

The secular form is the only route that ships.  The dense matrix M(E), its
LU determinant, inverse iteration for the null vector, the sign-crossing
cells of a scanned grid and the finite-difference Newton on det M live in
the tests as oracles.  ``self_consistent_pole`` (fixed-point iteration on
the dressed eigenproblem) stays here as the public cross-check of poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (BathParams, ResiduePrescription, SigmaMode, _self_energy_slope,
                   _sigma_defined, self_energy_eval)
from .errors import NumericsError, ParameterError, PrescriptionViolationError
from .model import (
    EigenDecomposition,
    ModelParams,
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
)

#: A refined pole with Im E above this is a genuine prescription violation,
#: below it is clamped to the real axis.
IM_CLAMP = 1e-12
#: Refined poles closer than this (relative to 1 + |E|) are one pole, and a
#: pole this far outside the search window still counts as inside.
CLUSTER_TOL = 1e-6
#: A pole iteration stops once its step, relative to 1 + |E|, falls below this.
POLE_TOL = 1e-12
#: Iteration caps of the Newton polish and of the fixed-point cross-check.
NEWTON_MAX_ITER = 100
FIXED_POINT_MAX_ITER = 200
#: The default search window: SEARCH_MARGIN either side of the top level, and
#: down to Im E = -SEARCH_DEPTH.
SEARCH_MARGIN = 3.0
SEARCH_DEPTH = 0.2


def _decomposition(model: ModelParams,
                   dec: EigenDecomposition | None) -> EigenDecomposition:
    return dec if dec is not None else diagonalize(build_hamiltonian(model))


def _level_terms(lam: np.ndarray, w: np.ndarray, E, k):
    """lambda_k - E, the differences lambda - E with 1 in place of it, and
    q = w / (lambda - E) with 0 in place of q_k."""
    d = lam - np.asarray(E)[..., None]
    own = k if np.ndim(E) == 0 else (np.arange(len(E)), k)
    d_k = d[own]
    d[own] = 1.0
    q = w / d
    q[own] = 0.0
    return d_k, d, q


def _deflated_h(lam: np.ndarray, w: np.ndarray, E, sigma, k):
    """h = (lambda_k - E) F(E) = (lambda_k - E)(1 + Sigma r) + Sigma w_k with
    r = sum_{m != k} w_m / (lambda_m - E).  E and k are scalars or 1-d
    arrays of one length, Sigma a scalar or per point."""
    d_k, _, q = _level_terms(lam, w, E, k)
    return d_k * (1.0 + sigma * q.sum(axis=-1)) + sigma * w[k]


def _deflated_secular(lam: np.ndarray, w: np.ndarray, E, sigma, k):
    """h as :func:`_deflated_h` gives it, and its partials dh/dE at fixed
    Sigma and dh/dSigma."""
    d_k, d, q = _level_terms(lam, w, E, k)
    r = q.sum(axis=-1)
    h = d_k * (1.0 + sigma * r) + sigma * w[k]
    return h, d_k * sigma * (q / d).sum(axis=-1) - 1.0 - sigma * r, d_k * r + w[k]


def _secular_scaled(dec: EigenDecomposition, energy: np.ndarray,
                    sigma) -> tuple[np.ndarray, np.ndarray]:
    """(ln|det M|, det M / |det M|) at each E of the 1-d array ``energy``,
    with Sigma there given as a scalar or per point.

    det M = prod_{m != k} (lambda_m - E) * h with k the level nearest E and
    h the deflated secular function, finite on that level; h is formed as
    :func:`_deflated_h` forms it, from the same differences.  A zero
    determinant reads (-inf, 1); a second level exactly at E is a zero
    factor, whatever h reads there.
    """
    lam, w = dec.energies, collective_weights(dec)
    k = np.abs(lam - energy.real[:, None]).argmin(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_k, z, q = _level_terms(lam, w, energy, k)
        z[np.arange(len(energy)), k] = d_k * (1.0 + sigma * q.sum(axis=-1)) + sigma * w[k]
    mags = np.abs(z)
    zero = (mags == 0.0).any(axis=1)
    mags[zero] = 1.0
    log_abs = np.log(mags).sum(axis=1)
    phase = (z / mags).prod(axis=1)
    log_abs[zero] = -math.inf
    phase[zero] = 1.0
    return log_abs, phase


def char_determinant_scaled(model: ModelParams, bath: BathParams, energy: complex,
                            prescription: ResiduePrescription = ResiduePrescription.HALF,
                            sigma_mode: SigmaMode = SigmaMode.AUTO,
                            dec: EigenDecomposition | None = None,
                            ) -> tuple[float, complex]:
    """det M(E) in scaled form (log_abs, phase) with det = exp(log_abs) * phase
    and |phase| = 1, so grid scans over 21 sites never overflow.  From the
    secular form, log_abs = sum_{m != k} ln|lambda_m - E| + ln|h(E)|."""
    dec = _decomposition(model, dec)
    sigma = self_energy_eval(bath, energy, prescription, sigma_mode)
    log_abs, phase = _secular_scaled(dec, np.array([complex(energy)]), sigma)
    return float(log_abs[0]), complex(phase[0])


def collective_weights(dec: EigenDecomposition) -> np.ndarray:
    """w_m = (sum_n v_mn)^2: how strongly eigenstate m couples to the
    collective (uniform) bath channel."""
    return np.asarray(dec.states.sum(axis=0)) ** 2


@dataclass(frozen=True)
class PoleSearchRegion:
    """Rectangle in the complex energy plane (im_max <= 0 scans the decaying
    half plane up to the real axis)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ParameterError("pole search region must have positive extent")


def default_search_region(model: ModelParams,
                          dec: EigenDecomposition | None = None) -> PoleSearchRegion:
    """Window around the top of the closed-system spectrum: the long-lived
    collective modes live within a few hopping amplitudes of the highest
    eigenvalue, and their widths stay well inside SEARCH_DEPTH.  The window is
    clipped to Re E > 0 where the continued self-energy is single valued;
    widen it explicitly (with the real-axis mode) to chase anything below."""
    top = float(_decomposition(model, dec).energies[-1])
    return PoleSearchRegion(re_min=max(top - SEARCH_MARGIN, 1e-6),
                            re_max=top + SEARCH_MARGIN,
                            im_min=-SEARCH_DEPTH, im_max=0.0)


@dataclass
class DeterminantGrid:
    """Scaled determinant sampled on a rectangular grid.

    ``log_abs`` holds ln|det M| and ``phase`` the unit-modulus factor
    det / |det|; both have shape (len(im), len(re)).  The phase carries the
    signs of Re(det) and Im(det), which the figure data record as the
    zero-contour view of the landscape.
    """

    re: np.ndarray
    im: np.ndarray
    log_abs: np.ndarray
    phase: np.ndarray

    def sign_re(self) -> np.ndarray:
        """Sign of Re det on the grid (+1, 0, -1)."""
        return np.sign(self.phase.real).astype(int)

    def sign_im(self) -> np.ndarray:
        """Sign of Im det on the grid (+1, 0, -1)."""
        return np.sign(self.phase.imag).astype(int)


def scan_grid(model: ModelParams, bath: BathParams, region: PoleSearchRegion,
              n_re: int = 200, n_im: int = 80,
              prescription: ResiduePrescription = ResiduePrescription.HALF,
              sigma_mode: SigmaMode = SigmaMode.AUTO) -> DeterminantGrid:
    """Sample ln|det M(E)| over the region, for the determinant landscapes of
    the figure data.  Sigma is taken once per scan, in one call: for the
    whole grid when continued, and once per column under the real-axis
    mode, where it depends only on Re(E) (the closed form at s = 1, the
    rotated-ray sum at s != 1).  The determinant is then formed one row of
    constant Im E at a time."""
    if n_re < 2 or n_im < 2:
        raise ParameterError("grid needs at least 2 points per axis")
    dec = diagonalize(build_hamiltonian(model))
    mode = sigma_mode.resolve(bath)
    re = np.linspace(region.re_min, region.re_max, n_re)
    im = np.linspace(region.im_min, region.im_max, n_im)
    E = re + 1j * im[:, None]
    sigma = self_energy_eval(bath, re if mode is SigmaMode.REAL_AXIS else E,
                             prescription, mode)
    rows = [_secular_scaled(dec, e, sig) for e, sig in zip(E, np.broadcast_to(sigma, E.shape))]
    return DeterminantGrid(re=re, im=im, log_abs=np.array([r[0] for r in rows]),
                           phase=np.array([r[1] for r in rows]))


def perturbative_pole_seeds(model: ModelParams, bath: BathParams,
                            region: PoleSearchRegion,
                            prescription: ResiduePrescription = ResiduePrescription.HALF,
                            sigma_mode: SigmaMode = SigmaMode.AUTO,
                            dec: EigenDecomposition | None = None) -> list[complex]:
    """Pole estimates from the rank-one structure, one per eigenstate.

    Each is one Newton step lambda_k - h / h_E of the secular function
    h = (lambda_k - E) F(E) from E = lambda_k at fixed Sigma(lambda_k):

        E = lambda_k + w_k Sigma / (1 + Sigma r),

    with r the resolvent minus its singular term.  Resumming r matters:
    collective weights reach w ~ 20, so the bare first-order shift
    w_k * Sigma can be wildly wrong.  One seed per eigenstate also keeps the
    members of a near-degenerate doublet apart, which a grid coarser than
    their splitting would merge.

    On top of the per-eigenstate estimates the midpoints of consecutive
    eigenvalues are seeded as well: the zeros of 1 + Sigma * g interlace the
    lambda_m, so each gap holds at most one pole and the midpoint is a safe
    basin for the Newton polish even where the per-state estimate drifts to
    a neighbouring gap.  Neither family can go: at the 12 table points in
    both modes, the level seeds alone lose 13 of 200 poles and the
    midpoints alone 24, over the seed range below as over the window's
    levels alone.

    Both families cover every gap that meets the window: the levels from
    the last one below ``re_min`` through the first one above ``re_max``,
    and the midpoints between consecutive ones.  A pole shifted into the
    window from a level just outside it thus gets its seeds too; the search
    drops what lands outside.  Each family is kept where Sigma is defined
    (``bath._sigma_defined``), and the levels take one evaluation of Sigma
    and of h together.
    """
    dec = _decomposition(model, dec)
    lam, w = dec.energies, collective_weights(dec)
    lo = max(int(np.searchsorted(lam, region.re_min)) - 1, 0)
    hi = min(int(np.searchsorted(lam, region.re_max, side="right")), lam.size - 1)
    k = np.arange(lo, hi + 1)
    k = k[_sigma_defined(bath, lam[k], sigma_mode)]
    E = lam[k].astype(complex)
    sigma = self_energy_eval(bath, E, prescription, sigma_mode)
    h, h_E, _ = _deflated_secular(lam, w, E, sigma, k)
    mid = 0.5 * (lam[lo:hi] + lam[lo + 1:hi + 1])
    mid = mid[_sigma_defined(bath, mid, sigma_mode)]
    return [complex(z) for z in E - h / h_E] + [complex(z) for z in mid]


@dataclass(frozen=True)
class ResonancePole:
    """A refined zero of det M(E) with its mode vector."""

    energy: complex
    vector: np.ndarray
    overlap: float
    iterations: int
    converged: bool
    residual: float        # |h| = |(lambda_k - E) F(E)| at the solution


def null_vector(model: ModelParams, bath: BathParams, energy: complex,
                dec: EigenDecomposition | None = None) -> np.ndarray:
    """Normalized null direction of M(E) at a pole E,

        v ~ (H_S - E)^{-1} |1> = sum_m u_m (u_m . 1) / (lambda_m - E),

    for which M v = F(E) |1> vanishes.  With the bath off, or with E exactly
    on a level, it is the H_S eigenvector nearest Re(E).  The overall phase
    makes the largest component real positive."""
    dec = _decomposition(model, dec)
    z = dec.energies - energy
    if bath.eta == 0.0 or np.any(z == 0.0):
        k = int(np.argmin(np.abs(dec.energies - energy.real)))
        v = dec.states[:, k].astype(complex)
    else:
        v = dec.states @ (dec.states.sum(axis=0) / z)
        v /= np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    v *= np.exp(-1j * np.angle(v[k]))
    return v


def state_overlap(vector: np.ndarray, state: np.ndarray) -> float:
    """|<state|vector>|^2 with both sides normalized; a zero side is a
    ParameterError."""
    v_norm, s_norm = np.linalg.norm(vector), np.linalg.norm(state)
    if v_norm == 0.0 or s_norm == 0.0:
        raise ParameterError("cannot normalize a zero vector")
    v = np.asarray(vector) / v_norm
    s = np.asarray(state) / s_norm
    return float(np.abs(np.vdot(s, v)) ** 2)


def _resonance(model: ModelParams, bath: BathParams, dec: EigenDecomposition,
               energy: complex, iterations: int, converged: bool,
               residual: float) -> ResonancePole:
    """A polished pole with its mode vector and its overlap with the
    highest excited state."""
    vec = null_vector(model, bath, energy, dec=dec)
    return ResonancePole(energy=energy, vector=vec,
                         overlap=state_overlap(vec, highest_excited_state(dec)),
                         iterations=iterations, converged=converged, residual=residual)


def _polish(dec: EigenDecomposition, bath: BathParams, seeds,
            prescription: ResiduePrescription, mode: SigmaMode):
    """Drive h(E) = (lambda_k - E) F(E), k the level nearest the iterate, to
    zero from every seed at once, by a damped Newton iteration in
    (Re E, Im E); solved from its nearer pole, h stays finite on a level and
    at eta = 0.  The 2x2 Jacobian is analytic: d_x h = h_E + h_Sigma Sigma',
    d_y h = i h_E, plus i h_Sigma Sigma' where Sigma is continued, and then
    the step is the complex Newton's.  A step that raises |h| is halved, up
    to five times.

    Each round evaluates Sigma once for all seeds still iterating, and once
    more per halving for those that halve.  A seed keeps its own step,
    iteration count and outcome.  Returns, per seed, the final iterate
    (clamped to the real axis within IM_CLAMP above it), the iterations
    taken, the residual |h| there and its fate: "" for a converged pole, or
    why it stopped: "domain" (Sigma undefined at an iterate, which is then
    the iterate kept), "singular" (a zero Jacobian), "unconverged"
    (NEWTON_MAX_ITER rounds) or "violation" (Im E above IM_CLAMP, converged
    or not).
    """
    lam, w = dec.energies, collective_weights(dec)
    E = np.array(seeds, dtype=complex)
    iterations = np.full(E.size, NEWTON_MAX_ITER)
    resid = np.full(E.size, math.inf)
    fate = np.full(E.size, "unconverged", dtype=object)
    sigma = np.zeros(E.size, dtype=complex)
    defined = _sigma_defined(bath, E, mode)
    fate[~defined], iterations[~defined] = "domain", 0
    active = np.flatnonzero(defined)
    if active.size:
        sigma[active] = self_energy_eval(bath, E[active], prescription, mode)
    for it in range(1, NEWTON_MAX_ITER + 1):
        if not active.size:
            break
        E_a, sigma_a = E[active], sigma[active]
        k = np.abs(lam - E_a.real[:, None]).argmin(axis=1)
        h, h_E, h_sigma = _deflated_secular(lam, w, E_a, sigma_a, k)
        d_x = h_E + h_sigma * _self_energy_slope(bath, E_a, sigma_a, prescription, mode)
        d_y = 1j * (d_x if mode is SigmaMode.CONTINUED else h_E)
        # Cramer's rule for d_x * step.real + d_y * step.imag = -h.
        det = (d_x.conjugate() * d_y).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ((d_y.conjugate() * h).imag - 1j * (d_x.conjugate() * h).imag) / det
        # Backtrack, seed by seed, while the full step overshoots.  A seed
        # whose Jacobian is singular or whose trial leaves Sigma's domain
        # does not move and stops there.
        scale, resid_a = np.ones(active.size), np.full(active.size, math.inf)
        E_next, moved = E_a.copy(), det != 0.0
        trying = np.flatnonzero(moved)
        for _ in range(6):
            E_next[trying] = E_a[trying] + scale[trying] * step[trying]
            defined = _sigma_defined(bath, E_next[trying], mode)
            if not defined.all():
                moved[trying[~defined]] = False
                trying = trying[defined]
                if not trying.size:
                    break
            sigma_a[trying] = self_energy_eval(bath, E_next[trying], prescription, mode)
            resid_a[trying] = np.abs(_deflated_h(lam, w, E_next[trying], sigma_a[trying],
                                                 k[trying]))
            trying = trying[~(resid_a[trying] <= np.abs(h[trying])) & (scale[trying] >= 0.05)]
            if not trying.size:
                break
            scale[trying] *= 0.5
        if not moved.all():
            stopped = active[~moved]
            fate[stopped] = np.where(det[~moved] == 0.0, "singular", "domain")
            E[stopped], iterations[stopped] = E_next[~moved], it
        index = active[moved]
        E[index], sigma[index], resid[index] = E_next[moved], sigma_a[moved], resid_a[moved]
        done = scale[moved] * np.abs(step[moved]) < POLE_TOL * (1.0 + np.abs(E_next[moved]))
        fate[index[done]], iterations[index[done]] = "", it
        active = index[~done]
    running = (fate == "") | (fate == "unconverged")
    fate[running & (E.imag > IM_CLAMP)] = "violation"
    clamp = running & (0.0 < E.imag) & (E.imag <= IM_CLAMP)
    E[clamp] = E[clamp].real
    return E, iterations, resid, fate


def refine_pole(model: ModelParams, bath: BathParams, seed: complex,
                prescription: ResiduePrescription = ResiduePrescription.HALF,
                sigma_mode: SigmaMode = SigmaMode.AUTO,
                dec: EigenDecomposition | None = None) -> ResonancePole:
    """Polish one seed into a pole: the damped Newton iteration of
    :func:`find_poles` (see ``_polish``) on this seed alone.  The overlap
    is taken with the highest excited state.

    Raises the bath's ParameterError if an iterate leaves Sigma's domain,
    NumericsError on a singular Jacobian, and PrescriptionViolationError if
    the pole sits above the real axis by more than the clamping threshold.
    """
    dec = _decomposition(model, dec)
    mode = sigma_mode.resolve(bath)
    E, iterations, resid, fate = _polish(dec, bath, [seed], prescription, mode)
    energy = complex(E[0])
    if fate[0] == "domain":
        self_energy_eval(bath, energy, prescription, mode)  # raises Sigma's own error
    if fate[0] == "singular":
        raise NumericsError(f"singular Newton Jacobian near E = {energy}")
    if fate[0] == "violation":
        raise PrescriptionViolationError(energy)
    return _resonance(model, bath, dec, energy, int(iterations[0]), fate[0] == "",
                      float(resid[0]))


def self_consistent_pole(model: ModelParams, bath: BathParams, seed: complex,
                         prescription: ResiduePrescription = ResiduePrescription.HALF,
                         sigma_mode: SigmaMode = SigmaMode.AUTO) -> complex:
    """Independent pole route: iterate E <- eig(H_S + Sigma(E) U) picking the
    eigenvalue nearest the current E.  Converges linearly; used to
    cross-check the Newton refinement, not to replace it."""
    H = build_hamiltonian(model).astype(complex)
    U = np.ones((model.N, model.N), dtype=complex)
    E = complex(seed)
    for _ in range(FIXED_POINT_MAX_ITER):
        sigma = self_energy_eval(bath, E, prescription, sigma_mode)
        evals = np.linalg.eigvals(H + sigma * U)
        E_next = complex(evals[np.argmin(np.abs(evals - E))])
        if abs(E_next - E) < POLE_TOL * (1.0 + abs(E_next)):
            return E_next
        E = E_next
    raise NumericsError(f"self-consistent pole iteration stalled near E = {E}")


def _seed_fates(model: ModelParams, bath: BathParams, region: PoleSearchRegion,
                prescription: ResiduePrescription, mode: SigmaMode,
                dec: EigenDecomposition):
    """The seeds of a search polished together, as ``_polish`` returns them,
    with two more fates for a converged seed: "outside" the window (by more
    than CLUSTER_TOL), or "duplicate" of an earlier seed's pole; the seeds
    whose pole is kept read "kept"."""
    seeds = perturbative_pole_seeds(model, bath, region, prescription, mode, dec=dec)
    E, iterations, resid, fate = _polish(dec, bath, seeds, prescription, mode)
    kept: list[complex] = []
    for i in np.flatnonzero(fate == ""):
        e = complex(E[i])
        if not (region.re_min - CLUSTER_TOL <= e.real <= region.re_max + CLUSTER_TOL
                and region.im_min - CLUSTER_TOL <= e.imag <= region.im_max + CLUSTER_TOL):
            fate[i] = "outside"
        elif any(abs(e - p) < CLUSTER_TOL * (1.0 + abs(e)) for p in kept):
            fate[i] = "duplicate"
        else:
            fate[i] = "kept"
            kept.append(e)
    return E, iterations, resid, fate


def find_poles(model: ModelParams, bath: BathParams, region: PoleSearchRegion,
               prescription: ResiduePrescription = ResiduePrescription.HALF,
               sigma_mode: SigmaMode = SigmaMode.AUTO,
               dec: EigenDecomposition | None = None) -> list[ResonancePole]:
    """Locate all poles in a region: Newton polish of every rank-one seed
    (``perturbative_pole_seeds``: a resummed estimate per level of H_S and
    each gap midpoint, over every gap that meets the region, so the level
    just outside each real edge is seeded too), all seeds in one batched
    iteration, keep the converged poles inside the region, then drop
    duplicates in seed order.
    The zeros of 1 + Sigma g follow the levels one by one, so the seeds
    need no scan of the region.  Sorted by descending Re(E).  H_S is
    diagonalized once for the whole search, or not at all when ``dec`` is
    given.  A mode that ``bath`` cannot take (continued at s != 1), or a
    window whose real edges the mode cannot evaluate Sigma at (continued at
    Re E <= 0, either mode beyond the guard range), raises the bath's
    ParameterError up front; every seed then lies where Sigma is defined."""
    mode = sigma_mode.resolve(bath)
    self_energy_eval(bath, np.array([region.re_min, region.re_max]), prescription, mode)
    dec = _decomposition(model, dec)
    E, iterations, resid, fate = _seed_fates(model, bath, region, prescription, mode, dec)
    poles = [_resonance(model, bath, dec, complex(E[i]), int(iterations[i]), True,
                        float(resid[i]))
             for i in np.flatnonzero(fate == "kept")]
    poles.sort(key=lambda p: -p.energy.real)
    return poles
