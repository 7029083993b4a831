"""Time evolution of a single excitation under collective bath coupling.

After eliminating the bath, the site amplitudes obey

    i d/dt alpha_n = lam*(alpha_{n+1} + alpha_{n-1}) + V_n alpha_n
                     - i int_0^t S(tau) f(t - tau) dtau,

with periodic neighbours, the full deformed potential V_n, the collective sum
S(tau) = sum_n alpha_n(tau) and the bath memory kernel f.  Every bath mode
couples to the sum of all sites, so the dissipative term is one scalar
convolution per time step, shared by every site.

Integration scheme
------------------
The local (Hamiltonian) part is propagated exactly with exp(-i H dt), built
once from the eigendecomposition; the memory term is advanced by the
implicit trapezoidal rule on the Duhamel integral.  Because the new
time-level enters the history convolution only through the scalar S, the
implicit stage reduces to linear equations in S alone and is solved
exactly: no predictor, no fixed-point sweeps.  The history convolution
itself is discretized by piecewise-linear product integration: per lag
interval the zeroth and first kernel moments are taken in closed form, so
the sharply peaked kernel head at lags ~ 1/omega_c is integrated exactly and
the quadrature error follows the smoothness of S alone.  The moments are closed-form for the full kernel
at any s and, at s = 1, for the kernel truncated at a frequency omega_max
(exponential-integral terms), which is the bath the discrete-bath oracle
samples; so the oracle validates the same quadrature that production runs
use.  The exact local propagator keeps the eta = 0 limit unitary to machine
precision at any step size, which an explicit stepper on the stiff local
terms cannot do.

The steps are taken in blocks of ``HISTORY_BLOCK`` steps (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985), with no Python loop over
the steps of a block.  In the eigenbasis of H, with beta = U^T alpha,
c = U^T 1 and z = exp(-i lambda dt), one step reads

    beta(m+1) = z (beta(m) - (dt/2) c C_m) - (dt/2) c C_{m+1},

so over a block the amplitudes follow in closed form from the block's
history values C, and S = c^T beta closes the system: the block's S solve
one lower-triangular Toeplitz system (delta + K * W) * S = g - K * far.
Here K_k = dt sum_mu c_mu^2 z_mu^k is the collective propagator, g the
free propagation of the carried state and ``far`` the history before the
block.  The matrix is the same for every block, so the first HISTORY_BLOCK
coefficients of its inverse series R are computed once per run, by causal
forward substitution in chunks of ``SERIES_CHUNK``, together with the
2B-point spectra of R, R * K and W[:B].  A block then costs its far
history, five transforms of 2B points (S = R * g - (R * K) * far and
C = far + W * S as products of spectra) and a few (block x N) array
operations.  Against the same step recursion carried in long double, over
three blocks at eta = 0.1, eta = 0.5 and s = 0.5, the transforms leave
5.7-6.9e-13 in SP and 3.5-4.4e-13 in the norm; the direct sums they
replaced left 5.0-5.9e-13 and 2.9-3.8e-13.  A block whose S is non-finite
or out of bound is redone by direct causal sums, so its first bad step is
reported where it happened and no overflow reaches a transform.

The far history is a uniformly partitioned overlap-save convolution: with
B = HISTORY_BLOCK, block i reaches block k > i through the 2B - 1 lags
(d-1)B+1 .. (d+1)B-1 of W, d = k - i, and one 2B-point cyclic convolution
of block i with that window of W holds them without wrap-around.  The
spectra of the windows are taken once per run and that of each block once,
so block k costs k spectrum products, one FFT and one inverse FFT of 2B
points.  The quadrature is unchanged; only the order of arithmetic
differs.  A run of n steps costs O(n^2 / HISTORY_BLOCK + n log
HISTORY_BLOCK), plus HISTORY_BLOCK^2 / 2 multiply-adds once for the inverse
series: a t = 1200, dt = 0.01 trajectory at N = 21 takes about 0.16 s,
under 1.5 us per step, on one core of a 2-core Xeon VM.  Each block's norms
are checked before its S enters the history of a later block, and
observables are computed one vectorized call per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.special

from .bath import BathParams, check_kernel_cut
from .errors import NumericsError, ParameterError, UnstableEvolutionError
from .model import ModelParams, build_hamiltonian, diagonalize

#: Hard stability bound on the squared norm during stepping.
NORM_BLOWUP = 1.0 + 1e-4

#: Steps per history block: over n steps the far history costs about
#: n^2 / HISTORY_BLOCK spectrum products, the in-block solve five transforms
#: of 2 * HISTORY_BLOCK points per block, and the inverse series about
#: HISTORY_BLOCK^2 / 2 multiply-adds once per run.
HISTORY_BLOCK = 2048

#: Coefficients per chunk of the inverse series' forward substitution.
SERIES_CHUNK = 64

#: Polynomial order of the Savitzky-Golay fit in ``beat_envelope``.
ENVELOPE_ORDER = 2
#: ``dominant_period`` keeps maxima whose prominence exceeds this share of
#: the series range.
PEAK_PROMINENCE_FRAC = 0.05


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with ``steps`` intervals of length ``dt``."""

    dt: float
    steps: int

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ParameterError(f"grid.dt: must be > 0; got {self.dt}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ParameterError(f"grid.steps: must be an integer >= 1; got {self.steps}")

    @property
    def t_max(self) -> float:
        return self.dt * self.steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @staticmethod
    def from_t_max(dt: float, t_max: float) -> "TimeGrid":
        """The grid of steps ``dt`` nearest the horizon ``t_max``: t_max / dt
        rounded to a whole number of steps, at least one, so its ``t_max``
        may differ from the one asked for.  Here the rules of ``grid.dt``
        and ``grid.t_max`` are stated, each > 0, and no config restates
        them; a config also refuses a horizon that this rounding would
        move (``RunConfig``)."""
        if not dt > 0.0:
            raise ParameterError(f"grid.dt: must be > 0; got {dt}")
        if not t_max > 0.0:
            raise ParameterError(f"grid.t_max: must be > 0; got {t_max}")
        steps = t_max / dt
        if not steps < np.iinfo(np.intp).max:
            raise ParameterError(f"grid.t_max / grid.dt = {steps:g} steps is more "
                                 "than an array can index")
        return TimeGrid(dt=dt, steps=max(1, int(round(steps))))


@dataclass
class Trajectory:
    """Recorded observables of one evolution run.

    Every series has length ``grid.steps + 1``.  A trajectory holds data
    only: what reproduces the run is its configuration, which the writers
    take as the file's header.
    """

    grid: TimeGrid
    sp: np.ndarray
    ipr: np.ndarray
    norm: np.ndarray
    variance: np.ndarray
    collective: np.ndarray

    def times(self) -> np.ndarray:
        return self.grid.times()


def survival_probability(alpha: np.ndarray, reference: np.ndarray) -> float:
    """|<reference|alpha>|^2 against a normalized reference state.

    ``alpha`` is *not* renormalized: loss of norm to the bath lowers the
    result.
    """
    return float(np.abs(np.vdot(reference, alpha)) ** 2)


def ipr(alpha: np.ndarray) -> float:
    """sum |alpha_n|^4 of the raw amplitudes (degree-4 homogeneous, so it
    decays together with the norm)."""
    w = np.abs(np.asarray(alpha)) ** 2
    return float(np.sum(w * w))


def position_variance(alpha: np.ndarray) -> float:
    """Occupation-weighted variance of the site index n = 1..N, with both the
    mean and the second moment normalized by the surviving weight."""
    w = np.abs(np.asarray(alpha)) ** 2
    total = float(np.sum(w))
    if total == 0.0:
        raise ParameterError("position variance of a zero vector is undefined")
    n = np.arange(1, len(w) + 1, dtype=float)
    mean = float(np.sum(w * n)) / total
    return float(np.sum(w * (n - mean) ** 2)) / total


def observables(alphas: np.ndarray, reference: np.ndarray) -> dict[str, np.ndarray]:
    """Row-wise "sp", "ipr", "norm" and "variance" of a (steps, N) array of
    amplitudes: the vectorized form of ``survival_probability``, ``ipr``,
    the squared norm and ``position_variance``, with the same conventions.
    """
    alphas = np.asarray(alphas)
    w = np.abs(alphas) ** 2
    total = np.sum(w, axis=1)
    if np.any(total == 0.0):
        raise ParameterError("position variance of a zero vector is undefined")
    n = np.arange(1, alphas.shape[1] + 1, dtype=float)
    mean = (w @ n) / total
    return {
        "sp": np.abs(alphas @ np.conj(reference)) ** 2,
        "ipr": np.sum(w * w, axis=1),
        "norm": total,
        "variance": np.sum(w * (n - mean[:, np.newaxis]) ** 2, axis=1) / total,
    }


def _product_tables(bath: BathParams, dt: float, steps: int,
                    omega_max: float = math.inf):
    """Piecewise-linear product-integration weights.

    Per lag interval [j*dt, (j+1)*dt] the kernel moments
    I0_j = int f(u) du and I1_j = int (u - j*dt) f(u) du are taken in closed
    form, so the quadrature error scales with the smoothness of the history
    S, not with the sharply peaked kernel head.  G0 and G1 are
    antiderivatives of f and u*f in z = i*u + 1/omega_c.  A finite
    ``omega_max`` (s = 1 only) takes the moments of the kernel truncated at
    that frequency, f = eta * (1 - e^{-Wz} (1 + Wz)) / z^2 with W = omega_max:
    d/dz[e^{-Wz}/z] = -e^{-Wz} (1 + Wz) / z^2 gives G0 its extra term, and the
    first moment adds the exponential integral E1(Wz).
    """
    s, b = bath.s, 1.0 / bath.omega_c
    amp = bath.eta / bath.omega_c ** (s - 1.0) * math.gamma(s + 1.0)
    u = dt * np.arange(steps + 2)
    z = 1j * u + b
    G0 = (1j / s) * z ** (-s)
    if s == 1.0:
        G1 = -np.log(z) - b / z
    else:
        G1 = z ** (1.0 - s) / (s - 1.0) - (b / s) * z ** (-s)
    if not math.isinf(omega_max):
        check_kernel_cut(s, omega_max)
        decay = np.exp(-omega_max * z)
        G0 -= 1j * decay / z
        G1 += b * (decay / z) - decay - scipy.special.exp1(omega_max * z)
    I0 = amp * np.diff(G0)
    I1 = amp * np.diff(G1) - u[:-1] * I0
    a_j = I0 - I1 / dt        # weight of S at lag j
    b_j = I1 / dt             # weight of S at lag j + 1
    W = np.empty(steps + 1, dtype=complex)
    W[0] = a_j[0]
    W[1:] = a_j[1:steps + 1] + b_j[0:steps]
    T = np.empty(steps + 1, dtype=complex)
    T[0] = 0.0
    T[1:] = b_j[0:steps]
    return W, T


class _History:
    """The memory term of one block of steps at a time.

    On the lag grid C_q = sum_{j<=q} S_j W_{q-j} + S_0 D_q, with lag weights
    W and the start-point correction D = T - W.  For the steps q = a..b-1 of
    a block, ``far`` gives the part that the history S[0:a] fixed before the
    block began, and ``solve`` the block's S and C from the free propagation
    of its first amplitudes.  Single-block runs hold no window spectra.
    """

    def __init__(self, W: np.ndarray, T: np.ndarray, Z: np.ndarray, c: np.ndarray,
                 dt: float, steps: int):
        block, N = Z.shape
        # The collective propagator: K_0 = (dt/2) N, K_k = dt sum c_mu^2 z_mu^k.
        K = np.empty(block, dtype=complex)
        K[0] = 0.5 * dt * N
        K[1:] = dt * (Z[:block - 1] @ (c * c))
        self.K = K
        self.S_bound = N * NORM_BLOWUP
        self.W = W[:block].copy()
        self.T = T
        # S_m = g_m - sum_j K_{m-j} C_j and C = far + W * S within a block,
        # so (delta + K * W) * S = g - K * far; R inverts delta + K * W.
        # Sequences of block length, zero-padded to 2B points, convolve
        # cyclically without wrap-around in their first B outputs.
        K_hat = _spectrum(K, block)
        self.W_hat = _spectrum(self.W, block)
        with np.errstate(all="ignore"):   # an unstable rule may overflow R
            A = scipy.fft.ifft(K_hat * self.W_hat)[:block]
            A[0] += 1.0
            self.R = _inverse_series(A)
            self.R_hat = _spectrum(self.R, block)
            self.RK_hat = _spectrum(scipy.fft.ifft(self.R_hat * K_hat)[:block], block)
        if steps > block:
            blocks = -(-steps // block)
            # Row d - 1 holds the lags (d-1)B+1 .. (d+1)B of W, zero past the
            # last step, through which block k sees block k - d: a strided
            # view of W, with no index array.
            padded = np.zeros(blocks * block + 1, dtype=complex)
            padded[:steps + 1] = W
            windows = np.lib.stride_tricks.sliding_window_view(
                padded[1:], 2 * block)[::block]
            self.W_spec = scipy.fft.fft(windows)
            self.S_spec = np.empty_like(self.W_spec)

    def far(self, S: np.ndarray, a: int, b: int) -> np.ndarray:
        """sum_{j<a} S_j W_{q-j} + S_0 D_q for q = a..b-1.

        Blocks come in order, each with S[0:a] final: the spectrum of the
        block before this one is stored here for every later block.  The
        start-point term is S_0 (W_q + D_q) = S_0 T_q; each earlier block
        adds its 2B-point cyclic convolution with one window of W, whose
        outputs B-1 .. 2B-2 hold no wrapped product.
        """
        block = len(self.W)
        start = S[0] * self.T[a:b]
        k = (a - 1) // block
        if k == 0:
            return start
        self.S_spec[k - 1] = _spectrum(S[a - block:a], block)
        spec = np.einsum("ij,ij->j", self.S_spec[:k], self.W_spec[k - 1::-1])
        return scipy.fft.ifft(spec)[block - 1:block - 1 + b - a] + start

    def solve(self, g: np.ndarray, S: np.ndarray, a: int, b: int):
        """S and C at the steps a..b-1 of a block whose S would be g
        without the memory term: five transforms of 2B points."""
        n, block = b - a, len(self.W)
        far = self.far(S, a, b)
        # By transforms, as accurate as direct sums against a long-double
        # reference (module docstring).
        S_blk = scipy.fft.ifft(self.R_hat * _spectrum(g, block)
                               - self.RK_hat * _spectrum(far, block))[:n]
        # |S|^2 <= N |alpha|^2: past this bound (or non-finite) the block
        # holds a bad step.  A transform would spread the rounding error of
        # its large S over every step of the block, so the block is redone
        # by direct causal sums, which keep each step independent of later
        # ones; no overflow reaches a transform.
        if not np.all(np.abs(S_blk) ** 2 <= self.S_bound):
            S_blk = _causal(self.R, g - _causal(self.K, far, n), n)
            return S_blk, far + _causal(self.W, S_blk, n)
        return S_blk, far + scipy.fft.ifft(self.W_hat * _spectrum(S_blk, block))[:n]


def _spectrum(x: np.ndarray, block: int) -> np.ndarray:
    """The 2B-point spectrum of a sequence of at most B = ``block`` terms."""
    return scipy.fft.fft(x, n=2 * block)


def _causal(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the convolution x * y by direct summation, whose
    rounding error stays relative to the terms it sums."""
    return np.convolve(x[:n], y[:n])[:n]


def _inverse_series(A: np.ndarray) -> np.ndarray:
    """First len(A) coefficients of the power series 1 / A(x), by causal
    forward substitution, ``SERIES_CHUNK`` coefficients at a time.

    With R = 1 / A, sum_{j<=q} A_{q-j} R_j = 0 for q >= 1.  The coefficients
    before a chunk reach it through one "valid" convolution; the chunk's own
    triangle is then a convolution of that sum with R[:SERIES_CHUNK], the
    inverse series of A[:SERIES_CHUNK].
    """
    n = len(A)
    R = np.empty_like(A)
    R[0] = 1.0 / A[0]
    for q in range(1, min(n, SERIES_CHUNK)):
        R[q] = -R[0] * np.dot(A[1:q + 1], R[q - 1::-1])
    for m in range(SERIES_CHUNK, n, SERIES_CHUNK):
        e = min(m + SERIES_CHUNK, n)
        known = np.convolve(A[1:e], R[:m], "valid")   # q = m..e-1
        R[m:e] = -np.convolve(R[:e - m], known)[:e - m]
    return R


def _checked_state(init: np.ndarray, N: int) -> np.ndarray:
    """A fresh complex copy of ``init``, refused with ParameterError unless it
    is a normalized state of N sites: the one check of an initial state, for
    the integrator and the oracle alike."""
    alpha = np.array(init, dtype=complex)
    if alpha.shape != (N,):
        raise ParameterError(f"initial state must have shape ({N},)")
    nrm0 = np.linalg.norm(alpha)
    if not math.isclose(nrm0, 1.0, rel_tol=0.0, abs_tol=1e-8):
        raise ParameterError(f"initial state must be normalized, |init| = {nrm0}")
    return alpha


def evolve(model: ModelParams, bath: BathParams, init: np.ndarray, grid: TimeGrid,
           kernel_omega_max: float = math.inf) -> Trajectory:
    """Integrate the memory-kernel equation from a normalized initial state.

    The steps are taken a history block at a time: one Toeplitz solve gives
    the collective sums S of the whole block, and the amplitudes of the block
    follow from S in closed form (see the module docstring).

    Parameters
    ----------
    kernel_omega_max : optional frequency cutoff of the kernel (s = 1 only);
        the bath of a discrete-mode sampling of [0, kernel_omega_max], as the
        oracle uses.

    Raises
    ------
    UnstableEvolutionError : if the squared norm exceeds 1 + 1e-4 at any step.
    NumericsError : if an amplitude becomes non-finite.
    """
    alpha = _checked_state(init, model.N)
    dec = diagonalize(build_hamiltonian(model))
    dt, steps = grid.dt, grid.steps
    U = dec.states
    c = U.sum(axis=0)                 # U^T 1
    block = min(HISTORY_BLOCK, steps)
    # Z[p] = z^(p+1) with z = exp(-i lambda dt): the local propagator over
    # p + 1 steps in the eigenbasis.
    Z = np.exp(-1j * dt * np.outer(np.arange(1, block + 1), dec.energies))
    gamma = U.T @ alpha               # beta(0) - (dt/2) c C_0, with C_0 = 0

    coupled = bath.eta != 0.0
    if coupled:
        history = _History(*_product_tables(bath, dt, steps, kernel_omega_max),
                           Z, c, dt, steps)

    S = np.zeros(steps + 1, dtype=complex)
    S[0] = alpha.sum()
    series = {name: np.concatenate([value, np.empty(steps)])
              for name, value in observables(alpha[np.newaxis], alpha).items()}

    for a in range(1, steps + 1, block):
        b = min(a + block, steps + 1)
        L = b - a
        # A blown-up block may overflow; its first bad step is reported below,
        # before its S reaches the far history of a later block.
        with np.errstate(all="ignore"):
            beta = Z[:L] * gamma                  # z^(p+1) gamma(a-1)
            S_blk = beta @ c
            if coupled:
                S_blk, C = history.solve(S_blk, S, a, b)
                # y(p) = sum_{q<=p} z^(p-q) C_q, with block-local phases;
                # then beta = z^(p+1) gamma(a-1) - dt c (y - C/2).
                y = np.conj(Z[:L])
                y *= C[:, np.newaxis]
                np.cumsum(y, axis=0, out=y)
                y *= Z[:L]
                gamma = beta[-1] - dt * c * y[-1]
                y -= 0.5 * C[:, np.newaxis]
                y *= -dt * c
                y += beta
                beta = y
            else:
                gamma = beta[-1]
            values = observables(beta @ U.T, alpha)
        nsq = values["norm"]
        bad = np.flatnonzero(~np.isfinite(nsq) | (nsq > NORM_BLOWUP))
        if bad.size:
            step, worst = a + int(bad[0]), float(nsq[bad[0]])
            if not math.isfinite(worst):
                raise NumericsError(f"non-finite amplitude at step {step}")
            raise UnstableEvolutionError(step, worst)
        S[a:b] = S_blk
        for name, value in values.items():
            series[name][a:b] = value

    return Trajectory(grid=grid, collective=S, **series)


def beat_envelope(series: np.ndarray, dt: float, window: float = 5.0) -> np.ndarray:
    """Beat-scale component of an observable series.

    A local quadratic fit (Savitzky-Golay) over ``window`` time units
    averages out the persistent few-percent ripple that bound-state
    interference superimposes on the slow two-mode beat, while preserving
    crest heights far better than a plain moving average and without the
    fake edge extrema a boxcar produces at t = 0.  The window must span
    several ripple periods (the ripple sits near the band-top frequencies,
    period about 1-2 time units) yet stay well under the beat period.
    """
    series = np.asarray(series, dtype=float)
    if dt <= 0.0:
        raise ParameterError("dt must be > 0")
    length = int(round(window / dt)) | 1
    if length <= ENVELOPE_ORDER + 1:
        raise ParameterError(
            f"smoothing window {window} spans too few samples at dt = {dt}")
    if length > series.size:
        raise ParameterError(
            f"smoothing window {window} exceeds the series span")
    # Imported here, not with the module: scipy.signal loads scipy.stats and
    # scipy.interpolate, about 0.7 s and 40 MB that no gaah command needs.
    import scipy.signal
    return scipy.signal.savgol_filter(series, length, ENVELOPE_ORDER)


def dominant_period(times: np.ndarray, series: np.ndarray,
                    min_separation: float | None = None) -> float:
    """Mean spacing of the prominent maxima of an oscillating series.

    Peaks are kept when their prominence exceeds ``PEAK_PROMINENCE_FRAC`` of
    the series range; at least two are required.  ``min_separation`` (in
    time units) additionally keeps only the highest peak within each such
    distance, which reads off the beat spacing of a series that still
    carries faster structure.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    if times.shape != series.shape or times.ndim != 1:
        raise ParameterError("times and series must be matching 1-d arrays")
    span = float(np.max(series) - np.min(series))
    if span == 0.0:
        raise ParameterError("series is constant; no oscillation period")
    distance = None
    if min_separation is not None:
        if min_separation <= 0.0:
            raise ParameterError("min_separation must be > 0")
        dt = float(times[1] - times[0]) if times.size > 1 else 1.0
        distance = max(1, int(round(min_separation / dt)))
    import scipy.signal  # imported here for the reason given in beat_envelope
    peaks, _ = scipy.signal.find_peaks(series, prominence=PEAK_PROMINENCE_FRAC * span,
                                       distance=distance)
    if len(peaks) < 2:
        raise ParameterError(
            f"found {len(peaks)} prominent maxima; need at least 2 for a period")
    return float(np.mean(np.diff(times[peaks])))
