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

H_full is never formed.  The modes couple only to the uniform state, so in
a basis of that state, the levels of H_S orthogonal to it, and the modes,
H_full is an arrowhead matrix.  Its eigenvalues are the roots of a secular
equation, one between each pair of neighbouring poles, and only the N site
rows of its eigenvectors are kept.

The roots are solved in blocks of B consecutive ones.  Each model step of a
root sums exactly over the poles near its block's span, those within the
span's length L of it, about 3B on an even bath.  The sums over the far
poles are smooth across the span: they are tabulated once per block at the
P + 1 Chebyshev points of the span and interpolated.  That is O(B) per root
and step plus O((N + M) P) per block for the tables, O((N + M)^2 P / B) in
all, against O(N + M) per root and step when every pole is summed, with
O(N (N + M)) memory.  A far pole lies at least L from a span of length L,
so each far term is analytic inside the span's Bernstein ellipse of
parameter rho = 3 + sqrt(8), and the interpolation error falls as rho^-P:
4e-19 relative at P = 24, below the 8 eps noise floor of the convergence
test.  At N = 7, M = 2000 the diagonalization takes 40-60 ms, at N = 21,
M = 8000 on [0, 200] 0.2-0.3 s.  The propagation over 25,001 times (dt = 0.002, t = 50) then takes
0.1-0.12 s, and a whole validation at N = 7 0.21-0.29 s; it peaks at about
124 MB RSS, 18 MB above the imports (one core, one BLAS thread).

A discrete bath is periodic with recurrence time 2*pi / dw; comparisons are
refused beyond it because agreement there would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathParams, check_kernel_cut, spectral_density
from .dynamics import TimeGrid, Trajectory, observables, prefixed
# The scalar observables stay importable from this module: perfbench traces
# the oracle's observables by rebinding these names.
from .dynamics import ipr, position_variance, survival_probability  # noqa: F401
from .errors import NumericsError, ParameterError
from .model import ModelParams, build_hamiltonian

#: Times per block of the propagation.  One table of the phases
#: exp(-i E p dt), p < _PHASE_BLOCK, serves every block: _PHASE_BLOCK rows of
#: N + M phases, about 8 MB at N + M = 2007.
_PHASE_BLOCK = 256

#: Bytes of the right-hand side of one propagation product, the shifted
#: eigenvector rows of several blocks side by side: 18 blocks at N = 7,
#: N + M = 2007, one at N = 21, N + M = 8021.
_SHIFT_BYTES = 4 << 20

#: Inner roots per block of the secular solve.  A block's work arrays hold
#: _ROOT_BLOCK x (its near poles) doubles, about 3 _ROOT_BLOCK near poles on
#: an even bath.
_ROOT_BLOCK = 64

#: Poles within _NEAR_MARGIN times a block's span length of the span are
#: summed exactly.  The others are interpolated with degree _FAR_DEGREE:
#: error (3 + sqrt(8))^-24 = 4e-19 relative at margin 1, below the 8 eps
#: noise floor of the convergence test.
_NEAR_MARGIN = 1.0
_FAR_DEGREE = 24

#: Model steps allowed per root; they converge in a handful, and the
#: bisection safeguard halves the bracket at worst.
_SECULAR_MAX_ITER = 100

_EPS = float(np.finfo(float).eps)


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


def _arrowhead_form(model: ModelParams, dbath: DiscreteBath
                    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """H_full as an arrowhead matrix, for :func:`arrowhead_eig`.

    The modes couple only to the uniform state |c> = 1/sqrt(N), with
    strength sqrt(N) g_k.  In the basis {|c>, eigenstates of H_S on the
    complement of |c> (energies z_j, states B[:, j]), modes}, H_full is the
    arrowhead matrix with head <c|H_S|c>, diagonal (z, w) and arrow
    (<j|H_S|c>, sqrt(N) g).  Returns (head, diagonal, arrow, c, rows), where
    column l of ``rows`` holds the site components of basis state l + 1:
    B[:, j] for a level, zero for a mode.
    """
    H = build_hamiltonian(model)
    N = model.N
    c = np.full(N, 1.0 / np.sqrt(N))
    # The Householder reflection that swaps e_1 and c: its last N - 1
    # columns are an orthonormal basis of the complement of c.
    w = c.copy()
    w[0] -= 1.0
    complement = (np.eye(N) - (2.0 / (w @ w)) * np.outer(w, w))[:, 1:]
    try:
        z, W = np.linalg.eigh(complement.T @ H @ complement)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"system diagonalization failed: {exc}") from exc
    B = complement @ W
    Hc = H @ c
    rows = np.zeros((N, N - 1 + dbath.modes))
    rows[:, :N - 1] = B
    return (float(c @ Hc), np.concatenate([z, dbath.omegas]),
            np.concatenate([B.T @ Hc, np.sqrt(N) * dbath.couplings]), c, rows)


def arrowhead_eig(head: float, diag: np.ndarray, arrow: np.ndarray,
                  head_row: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the symmetric arrowhead matrix

        A = [[head,  arrow^T      ],
             [arrow, diag(diag)   ]]

    in ascending order, and the rows R @ V of its eigenvectors V, where
    R = [head_row, rows] maps the arrowhead basis to the rows wanted (for
    the oracle, the lattice sites).  No (n + 1)-square array is formed.

    Decoupled poles (|arrow_l| at rounding level) and coincident ones
    (rotated pairwise until one carries the whole coupling, as LAPACK's
    ``dlaed2`` does) are eigenpairs as they stand.  Every other eigenvalue
    is the one root of the secular function

        f(E) = E - head + sum_l arrow_l^2 / (diag_l - E)

    between two neighbouring poles, or beyond the outer ones; its
    eigenvector is (1, arrow / (E - diag)), normalized.
    """
    d = np.asarray(diag, dtype=float)
    order = np.argsort(d, kind="stable")
    d = d[order]
    u = np.asarray(arrow, dtype=float)[order]
    rows = np.asarray(rows, dtype=float)[:, order]
    head_row = np.asarray(head_row, dtype=float)
    scale = max(abs(head), float(np.max(np.abs(d), initial=0.0)),
                float(np.max(np.abs(u), initial=0.0)))
    tol = 8.0 * _EPS * scale
    coupled = _deflate(d, u, rows, tol)
    roots, vectors = _secular_roots(head, d[coupled], u[coupled], head_row,
                                    rows[:, coupled])
    evals = np.concatenate([d[~coupled], roots])
    V = np.concatenate([rows[:, ~coupled], vectors], axis=1)
    order = np.argsort(evals, kind="stable")
    return evals[order], V[:, order]


def _deflate(d: np.ndarray, u: np.ndarray, rows: np.ndarray,
             tol: float) -> np.ndarray:
    """Decouple the poles whose coupling is below ``tol``, and rotate each
    pair of (nearly) coincident poles so that the upper one carries both
    couplings; d, u and rows change in place.  Returns the mask of the
    poles still coupled, which are then pairwise well separated."""
    coupled = np.abs(u) > tol
    dl, ul = d.tolist(), u.tolist()
    idx = np.flatnonzero(coupled).tolist()
    for a, b in zip(idx, idx[1:]):
        ua, ub = ul[a], ul[b]
        r2 = ua * ua + ub * ub
        # The rotated pair keeps an off-diagonal u_a u_b (d_a - d_b) / r^2,
        # dropped when below tol.
        if abs(ua * ub * (dl[b] - dl[a])) > tol * r2:
            continue
        r = np.sqrt(r2)
        ca, cb = ua / r, ub / r
        dl[a], dl[b] = cb * cb * dl[a] + ca * ca * dl[b], ca * ca * dl[a] + cb * cb * dl[b]
        ul[a], ul[b] = 0.0, r
        rows[:, [a, b]] = rows[:, [a, b]] @ np.array([[cb, ca], [-ca, cb]])
        coupled[a] = False
    d[:], u[:] = dl, ul
    return coupled


def _secular_roots(head: float, d: np.ndarray, u: np.ndarray,
                   head_row: np.ndarray, rows: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 roots of f(E) = E - head + sum_l u_l^2 / (d_l - E) for
    ascending, well separated poles d with nonzero u, and the rows
    (head_row + rows @ (u / (E - d))) / |(1, u / (E - d))| of their
    eigenvectors.

    The inner roots come ``_ROOT_BLOCK`` at a time.  Root k lies in
    (d_{k-1}, d_k), so a block ka..kb-1 spans [d_{ka-1}, d_{kb-1}], of
    length L.  The poles within ``_NEAR_MARGIN`` L of the span are summed
    exactly; the sums over the others enter through a :class:`_FarField`.
    The two outer roots, below and above all poles, keep every pole near.
    """
    n = d.size
    if n == 0:
        return np.array([head]), head_row[:, np.newaxis].copy()
    u2 = u * u
    arrow_norm = float(np.sqrt(np.sum(u2)))
    # Only the poles with a nonzero row column enter the row sums: for the
    # oracle the levels and the modes that deflation rotated into them.
    live = np.flatnonzero(np.any(rows != 0.0, axis=0))
    urows = rows[:, live] * u[live]
    evals = np.empty(n + 1)
    V = np.empty((head_row.size, n + 1))

    def solve(k, lo, hi, far):
        dn, un = d[lo:hi], u[lo:hi]
        origin, x = _solve_block(head, dn, u2[lo:hi], k - lo, arrow_norm, far)
        X = un / ((dn - dn[origin][:, np.newaxis]) - x[:, np.newaxis])  # u / (d - E)
        evals[k] = dn[origin] + x
        sums = rows[:, lo:hi] @ X.T
        norm2 = 1.0 + np.einsum("ij,ij->i", X, X)
        if far is not None:
            far_sums, far_norm2 = far.vectors((dn[origin] - far.anchor) + x)
            sums += far_sums
            norm2 += far_norm2
        V[:, k] = (head_row[:, np.newaxis] - sums) / np.sqrt(norm2)

    solve(np.array([0, n]), 0, n, None)
    for ka in range(1, n, _ROOT_BLOCK):
        kb = min(ka + _ROOT_BLOCK, n)
        a, b = d[ka - 1], d[kb - 1]
        margin = _NEAR_MARGIN * (b - a)
        lo = int(np.searchsorted(d, a - margin, side="left"))
        hi = int(np.searchsorted(d, b + margin, side="right"))
        far = (_FarField(d, u2, live, urows, lo, hi, a, b - a) if hi - lo < n
               else None)
        solve(np.arange(ka, kb), lo, hi, far)
    return evals, V


class _FarField:
    """The sums over the poles outside [lo, hi), all at least
    ``_NEAR_MARGIN`` L from a block's span [anchor, anchor + L], as
    barycentric interpolants in the offset s = E - anchor through the
    ``_FAR_DEGREE`` + 1 Chebyshev points of the span.

    They are sum u^2 / (d - E) and sum u^2 / (d - E)^2, each over the far
    poles below and above the span, and the row sums sum rows u / (d - E),
    which need only the ``live`` poles, those whose ``urows = rows * u``
    column is not zero.  All are tabulated at the nodes by matrix products.
    Each far term is analytic inside the Bernstein ellipse of the span
    through its pole, so the interpolation error falls as rho^-P with
    rho = 1 + 2 m + sqrt((1 + 2 m)^2 - 1) at margin m.
    """

    def __init__(self, d: np.ndarray, u2: np.ndarray, live: np.ndarray,
                 urows: np.ndarray, lo: int, hi: int, anchor: float, length: float):
        P = _FAR_DEGREE
        self.anchor = anchor
        self.nodes = 0.5 * length * (1.0 - np.cos(np.pi * np.arange(P + 1) / P))
        self.weights = (-1.0) ** np.arange(P + 1)
        self.weights[[0, P]] *= 0.5
        split = np.zeros((d.size - hi + lo, 2))
        split[:lo, 0] = u2[:lo]
        split[lo:, 1] = u2[hi:]
        q = np.concatenate([d[:lo], d[hi:]]) - anchor - self.nodes[:, np.newaxis]
        np.reciprocal(q, out=q)  # 1 / (d - E)
        table = q @ split
        np.square(q, out=q)
        self.table = np.concatenate([table, q @ split], axis=1)
        far = (live < lo) | (live >= hi)
        q = 1.0 / ((d[live[far]] - anchor) - self.nodes[:, np.newaxis])
        self.row_table = q @ urows[:, far].T

    def _interpolation(self, s: np.ndarray) -> np.ndarray:
        """Barycentric weights of the offsets s, one row each; a point on a
        node takes that node's value."""
        diff = s[:, np.newaxis] - self.nodes
        hit = diff == 0.0
        diff[hit] = 1.0
        c = self.weights / diff
        on = hit.any(axis=1)
        c[on] = hit[on]
        return c / c.sum(axis=1, keepdims=True)

    def sums(self, s: np.ndarray):
        """The far parts of f, of the sums of u^2 / (d - E)^2 over the
        poles below and above E, and of the sum of |u^2 / (d - E)|."""
        f_below, f_above, below, above = (self._interpolation(s) @ self.table).T
        return f_below + f_above, below, above, f_above - f_below

    def vectors(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The far parts of rows @ (u / (d - E)) and of |u / (d - E)|^2."""
        c = self._interpolation(s)
        return (c @ self.row_table).T, c @ (self.table[:, 2] + self.table[:, 3])


def _secular_terms(head: float, d: np.ndarray, u2: np.ndarray, k: np.ndarray,
                   origin: np.ndarray, x: np.ndarray, far: _FarField | None):
    """f at E = d[origin] + x, for roots k, which lie above the poles j < k,
    with d the near poles and ``far`` the sums over the others (None when
    there are none).

    The pole differences d - E are formed from d - d[origin] so that they
    keep their relative accuracy.  Also returns the sums of u^2 / (d - E)^2
    over the poles below and above E, and the sum of |u^2 / (d - E)|.
    """
    delta = d - d[origin][:, np.newaxis]
    delta -= x[:, np.newaxis]
    t = u2 / delta
    f = (d[origin] - head + x) + t.sum(axis=1)
    mag = np.abs(t).sum(axis=1)
    t /= delta
    lower = np.arange(d.size) < k[:, np.newaxis]
    below = np.where(lower, t, 0.0).sum(axis=1)
    above = np.where(lower, 0.0, t).sum(axis=1)
    if far is not None:
        f_far, below_far, above_far, mag_far = far.sums((d[origin] - far.anchor) + x)
        f += f_far
        below += below_far
        above += above_far
        mag += mag_far
    return f, below, above, mag


def _solve_block(head: float, d: np.ndarray, u2: np.ndarray, k: np.ndarray,
                 arrow_norm: float, far: _FarField | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Roots k of the secular equation, each as an offset x from the pole
    nearer to it (its origin), as LAPACK's ``dlaed4`` keeps them; d and u2
    hold the poles near the roots, ``far`` the sums over the others.

    Root k lies above the poles 0..k-1 and below k..n-1.  Each step solves
    a model that matches f and f' at the current x: the poles on the
    origin's side lumped into the origin, those on the other side into the
    neighbouring pole (plus the linear term's slope), or, outside the
    outermost poles, one pole plus the exact linear term.  A step that
    leaves the bracket the signs of f have set bisects it instead.
    """
    n = d.size
    lower = np.maximum(k - 1, 0)
    upper = np.minimum(k, n - 1)
    side = np.where(k == 0, -1.0, np.where(k == n, 1.0, 0.0))
    inner = side == 0.0
    origin = np.where(k == 0, upper, lower)
    half = 0.5 * (d[upper] - d[lower])
    # The first point: an inner root's midpoint, an outer root's bound.  No
    # eigenvalue lies farther than |arrow| from the spectrum of
    # diag(head, d), the arrow being a perturbation of that norm.
    lo = np.where(side < 0.0, min(head, d[0]) - arrow_norm - d[0], 0.0)
    hi = np.where(side > 0.0, max(head, d[-1]) + arrow_norm - d[-1], half)
    x = lo + hi
    f, below, above, mag = _secular_terms(head, d, u2, k, origin, x, far)
    # An inner root nearer its upper pole (f < 0 at the midpoint) takes
    # that pole as origin.
    flip = inner & (f < 0.0)
    other = np.where(inner, upper, origin)
    origin, other = np.where(flip, other, origin), np.where(flip, origin, other)
    x = np.where(flip, -half, x)
    lo, hi = np.where(flip, x, lo), np.where(flip, 0.0, hi)
    D = d[other] - d[origin]
    todo = np.arange(k.size)
    for _ in range(_SECULAR_MAX_ITER):
        xs, Dk, sk = x[todo], D[todo], side[todo]
        neg = f < 0.0
        lo[todo] = np.where(neg, xs, lo[todo])
        hi[todo] = np.where(neg, hi[todo], xs)
        s = xs * xs * np.where(xs > 0.0, below, above)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Inner: c - s / x + S / (D - x) = 0, the root between 0 and D,
            # in the form free of cancellation for either sign of b.
            S = (Dk - xs) ** 2 * (np.where(xs > 0.0, above, below) + 1.0)
            c = f + s / xs - S / (Dk - xs)
            b = c * Dk + s + S
            r = np.sqrt(b * b - 4.0 * c * s * Dk)
            step_inner = np.where(b >= 0.0, 2.0 * s * Dk / (b + r), 0.5 * (b - r) / c)
            # Outer: c + x - s / x = 0, the root on the side of the bracket.
            c = f - xs + s / xs
            q = np.sqrt(c * c + 4.0 * s)
            cs = sk * c
            step_outer = sk * np.where(cs <= 0.0, 0.5 * (q - cs), 2.0 * s / (q + cs))
        new = np.where(sk == 0.0, step_inner, step_outer)
        noise = 8.0 * _EPS * (mag + abs(head) + np.abs(d[origin[todo]]) + np.abs(xs))
        done = (np.abs(f) <= noise) | (np.abs(new - xs) <= 2.0 * _EPS * np.abs(xs))
        inside = np.isfinite(new) & (new > lo[todo]) & (new < hi[todo])
        x[todo] = np.where(done, xs, np.where(inside, new, 0.5 * (lo[todo] + hi[todo])))
        todo = todo[~done]
        if todo.size == 0:
            return origin, x
        f, below, above, mag = _secular_terms(head, d, u2, k[todo], origin[todo],
                                              x[todo], far)
    raise NumericsError(
        f"secular equation: {todo.size} of {k.size} roots did not converge "
        f"in {_SECULAR_MAX_ITER} iterations")


def _blocks_per_product(columns: int, rows: int) -> int:
    """Blocks of times that one propagation product takes: as many as keep
    its right-hand side, ``columns`` x (blocks x ``rows``) complex values,
    within ``_SHIFT_BYTES``."""
    return max(1, _SHIFT_BYTES // (16 * columns * rows))


def _propagate(evals: np.ndarray, V_sys: np.ndarray, init: np.ndarray,
               grid: TimeGrid) -> np.ndarray:
    """System amplitudes V_sys exp(-i E t) V_sys^T init.

    The times come in blocks of ``_PHASE_BLOCK``, t = t_b + p dt.  The
    phases exp(-i E p dt) are tabulated once, and each block's shift goes
    into the right-hand side Y_b = diag(c exp(-i E t_b)) V_sys^T, with
    c = V_sys^T init: one product table @ [Y_b ... Y_b+G-1] gives G blocks
    of times (G from :func:`_blocks_per_product`).  Columns of V_sys that
    are zero on every site, the decoupled modes, are left out.  At N = 7,
    N + M = 2007 and 25,001 times that is 6 products of 256 x 2007 by
    at most 2007 x 126, 0.1-0.12 s on one BLAS thread, with a peak of 17 MB.
    """
    coupled = np.any(V_sys != 0.0, axis=0)
    evals, V_sys_T = evals[coupled], np.ascontiguousarray(V_sys[:, coupled].T)
    K, N = V_sys_T.shape
    c = V_sys_T @ np.asarray(init, dtype=complex)
    n = grid.steps + 1
    rows = min(_PHASE_BLOCK, n)
    table = -1j * grid.dt * np.outer(np.arange(rows), evals)
    np.exp(table, out=table)
    starts = grid.times()[::rows]
    group = min(_blocks_per_product(K, N), starts.size)
    alphas = np.empty((starts.size * rows, N), dtype=complex)
    blocks = alphas.reshape(starts.size, rows, N)
    rhs = np.empty((K, group, N), dtype=complex)
    for b0 in range(0, starts.size, group):
        t = starts[b0:b0 + group]
        Y = rhs[:, :t.size]
        shift = np.exp(-1j * np.outer(evals, t)) * c[:, np.newaxis]
        np.multiply(shift[:, :, np.newaxis], V_sys_T[:, np.newaxis, :], out=Y)
        blocks[b0:b0 + t.size] = (table @ Y.reshape(K, -1)).reshape(
            rows, t.size, N).transpose(1, 0, 2)
    return alphas[:n]


def evolve_full(model: ModelParams, dbath: DiscreteBath, init: np.ndarray,
                grid: TimeGrid) -> Trajectory:
    """Evolve system + discrete bath and record system-block observables.

    The propagator comes from one exact diagonalization of the full
    (N + M)-dimensional Hamiltonian as an arrowhead matrix
    (:func:`arrowhead_eig`), which keeps only the N site rows of its
    eigenvectors.
    """
    init = np.asarray(init, dtype=complex)
    if init.shape != (model.N,):
        raise ParameterError(f"initial state must have shape ({model.N},)")
    if grid.t_max > dbath.recurrence_time:
        raise ParameterError(
            f"t_max = {grid.t_max:g} exceeds the discrete-bath recurrence time "
            f"{dbath.recurrence_time:g}; increase oracle.modes")
    evals, V_sys = arrowhead_eig(*_arrowhead_form(model, dbath))
    alphas = _propagate(evals, V_sys, init, grid)
    series = observables(alphas, init)
    params = {**prefixed("model", model), "grid.dt": grid.dt, "grid.steps": grid.steps,
              "oracle.modes": dbath.modes, "oracle.omega_max": dbath.omega_max}
    return Trajectory(grid=grid, collective=alphas.sum(axis=1), params=params, **series)


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
    # The integrator side needs the cut kernel: refuse an s without its
    # closed form before either side runs.
    check_kernel_cut(bath.s, omega_max)
    # Neither side holds an (N + M)- or steps-squared array: the exact side
    # keeps N x (N + M) eigenvector rows, one block of phases and the
    # shifted rows of a few blocks (17 MB at N = 7, N + M = 2007, t = 50),
    # the integrator block-sized history spectra and FFT plans
    # (2 * HISTORY_BLOCK points).
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
