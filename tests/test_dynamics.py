"""Time grids, observables, the memory-kernel integrator, and beat readout."""

from __future__ import annotations

import math
import pickle
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from scipy.integrate import quad

from gaah.dynamics import (
    HISTORY_BLOCK,
    NORM_BLOWUP,
    TimeGrid,
    _History,
    _product_tables,
    beat_envelope,
    dominant_period,
    evolve,
    ipr,
    observables,
    position_variance,
    survival_probability,
)
from gaah.bath import BathParams
from gaah.errors import ParameterError, UnstableEvolutionError
from gaah.model import ModelParams, build_hamiltonian, diagonalize, state_ipr

from helpers import convergence_check, direct_steps, memory_kernel

DECOUPLED = BathParams(eta=0.0)


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(dt=0.5, steps=4)
        assert grid.t_max == 2.0
        assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_from_t_max(self):
        grid = TimeGrid.from_t_max(0.02, 400.0)
        assert grid.steps == 20000
        assert grid.t_max == pytest.approx(400.0)

    def test_from_t_max_rounds(self):
        assert TimeGrid.from_t_max(0.3, 1.0).steps == 3

    def test_validation(self):
        with pytest.raises(ParameterError, match="grid.dt"):
            TimeGrid(dt=0.0, steps=5)
        with pytest.raises(ParameterError, match="grid.steps"):
            TimeGrid(dt=0.1, steps=0)
        with pytest.raises(ParameterError):
            TimeGrid.from_t_max(0.1, -1.0)

    @pytest.mark.parametrize("dt, t_max", [(1e-10, 1e300), (1e-300, 1e10)])
    def test_unrepresentable_step_count(self, dt, t_max):
        # t_max / dt overflows to inf, or exceeds any array index.
        with pytest.raises(ParameterError, match="grid.t_max / grid.dt"):
            TimeGrid.from_t_max(dt, t_max)


class TestObservables:
    def test_survival_probability_trivials(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert survival_probability(e0, e0) == pytest.approx(1.0)
        assert survival_probability(e1, e0) == 0.0
        assert survival_probability(0.5 * e0, e0) == pytest.approx(0.25)

    def test_ipr_matches_state_ipr_when_normalized(self, es_state):
        assert ipr(es_state) == pytest.approx(state_ipr(es_state), abs=1e-14)

    @given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=2, max_size=20),
           st.floats(0.1, 3.0))
    def test_ipr_degree_four_homogeneity(self, values, c):
        v = np.asarray(values)
        assert ipr(c * v) == pytest.approx(c ** 4 * ipr(v), rel=1e-9, abs=1e-12)

    def test_variance_uniform(self):
        # Uniform occupation of n = 1..N: variance (N^2 - 1) / 12.
        n = 21
        v = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
        assert position_variance(v) == pytest.approx((n * n - 1) / 12.0, rel=1e-12)

    def test_variance_single_site(self):
        v = np.zeros(9, dtype=complex)
        v[4] = 1.0
        assert position_variance(v) == 0.0

    def test_variance_scale_invariant(self):
        v = np.array([0.2, 0.5, 0.1, 0.8], dtype=complex)
        assert position_variance(0.3 * v) == pytest.approx(
            position_variance(v), rel=1e-12)

    def test_variance_zero_vector(self):
        with pytest.raises(ParameterError, match="zero vector"):
            position_variance(np.zeros(4, dtype=complex))

    def test_vectorized_rows_match_scalar_functions(self, es_state):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((40, 21)) + 1j * rng.standard_normal((40, 21))
        rows *= rng.uniform(0.01, 1.0, size=(40, 1)) / np.linalg.norm(rows, axis=1)[:, None]
        rows[0] = es_state
        rows[1] = 0.0
        rows[1, 4] = 0.3j   # a single site: zero variance
        values = observables(rows, es_state)
        for i, a in enumerate(rows):
            scalar = {"sp": survival_probability(a, es_state), "ipr": ipr(a),
                      "norm": float(np.vdot(a, a).real),
                      "variance": position_variance(a)}
            for name, expected in scalar.items():
                assert values[name][i] == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_vectorized_zero_row(self, es_state):
        rows = np.vstack([es_state, np.zeros_like(es_state)])
        with pytest.raises(ParameterError, match="zero vector"):
            observables(rows, es_state)


class TestEvolveValidation:
    def test_wrong_shape(self, model, bath):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="shape"):
            evolve(model, bath, np.ones(5, dtype=complex), grid)

    def test_unnormalized(self, model, bath):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="normalized"):
            evolve(model, bath, np.full(model.N, 1.0, dtype=complex), grid)

    def test_truncation_requires_ohmic(self, model, es_state):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="s = 1 only"):
            evolve(model, BathParams(s=0.5), es_state, grid, kernel_omega_max=80.0)
        with pytest.raises(ParameterError, match="omega_max must be > 0"):
            evolve(model, BathParams(), es_state, grid, kernel_omega_max=-1.0)

    def test_unstable_error_payload(self):
        err = UnstableEvolutionError(7, 1.5)
        assert err.step == 7
        assert err.norm_sq == 1.5
        assert "step 7" in str(err)

    def test_unstable_error_survives_pickle(self):
        # As it crosses from a sweep worker to the parent process.
        err = pickle.loads(pickle.dumps(UnstableEvolutionError(7, 1.5)))
        assert type(err) is UnstableEvolutionError
        assert (err.step, err.norm_sq, str(err)) == (7, 1.5, str(UnstableEvolutionError(7, 1.5)))


class TestEvolveClosedSystem:
    def test_eigenstate_is_stationary(self, model, es_state):
        grid = TimeGrid.from_t_max(0.01, 20.0)
        traj = evolve(model, DECOUPLED, es_state, grid)
        assert np.max(np.abs(traj.sp - 1.0)) <= 1e-10
        assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.ipr - traj.ipr[0])) <= 1e-10

    def test_generic_state_norm_conserved(self, model):
        init = np.full(model.N, 1.0 / np.sqrt(model.N), dtype=complex)
        grid = TimeGrid.from_t_max(0.05, 30.0)
        traj = evolve(model, DECOUPLED, init, grid)
        assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12
        assert np.min(traj.sp) < 0.999  # it actually moves

    def test_exact_over_the_full_horizon(self, model):
        # At eta = 0 every step is exp(-i H dt): over all 120,000 steps of a
        # t = 1200 run the trajectory must stay on U e^{-i lambda t} U^T alpha_0.
        rng = np.random.default_rng(5)
        init = rng.standard_normal(model.N) + 1j * rng.standard_normal(model.N)
        init /= np.linalg.norm(init)
        grid = TimeGrid.from_t_max(0.01, 1200.0)
        traj = evolve(model, DECOUPLED, init, grid)
        dec = diagonalize(build_hamiltonian(model))
        beta = dec.states.T @ init
        overlap = np.zeros(grid.steps + 1, dtype=complex)
        collective = np.zeros(grid.steps + 1, dtype=complex)
        for lam, b, c in zip(dec.energies, beta, dec.states.sum(axis=0)):
            phase = np.exp(-1j * lam * grid.times())
            overlap += abs(b) ** 2 * phase
            collective += c * b * phase
        assert np.max(np.abs(traj.sp - np.abs(overlap) ** 2)) <= 1e-12
        assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.collective - collective)) <= 1e-11


@pytest.fixture(scope="module")
def traj(model, bath, es_state):
    return evolve(model, bath, es_state, TimeGrid.from_t_max(0.01, 20.0))


class TestEvolveCoupled:
    def test_initial_samples(self, traj, es_state):
        assert traj.sp[0] == pytest.approx(1.0, abs=1e-14)
        assert traj.norm[0] == pytest.approx(1.0, abs=1e-14)
        assert traj.ipr[0] == pytest.approx(state_ipr(es_state), abs=1e-12)

    def test_norm_bounded_and_decaying(self, traj):
        assert np.max(traj.norm) <= 1.0 + 1e-6
        assert traj.norm[-1] < 1.0

    def test_sp_within_norm(self, traj):
        assert np.all(traj.sp <= traj.norm + 1e-12)

    def test_collective_series(self, traj, model, es_state):
        assert traj.collective[0] == pytest.approx(complex(es_state.sum()), abs=1e-14)
        # |S|^2 <= N * |alpha|^2 (Cauchy-Schwarz against the flat vector).
        assert np.all(np.abs(traj.collective) ** 2 <= model.N * traj.norm + 1e-9)

    def test_kernel_rules_converge_together(self, model, bath, es_state):
        # The lag-grid trapezoid rule is an independent route to the same
        # history integral; its gap to the shipped product rule is dominated
        # by the trapezoid head error and must shrink as dt^2.
        gaps = []
        for dt in (0.01, 0.005):
            grid = TimeGrid.from_t_max(dt, 5.0)
            product = evolve(model, bath, es_state, grid)
            trapezoid, _ = _direct_evolve(
                model, bath, es_state, grid,
                tables=_trapezoid_tables(bath, grid.dt, grid.steps))
            gaps.append(np.max(np.abs(product.sp - trapezoid)))
        assert 0.0 < gaps[0] < 0.05
        assert gaps[0] / gaps[1] > 3.0

    # The two tests below take "window" as the kernel's frequency window
    # [0, kernel_omega_max], the bath a discrete-mode sampling holds.

    def test_full_window_matches_untruncated(self, model, bath, es_state):
        # At 40 omega_c the truncated moments differ from the full ones by
        # terms of order e^{-40}.
        grid = TimeGrid.from_t_max(0.02, 10.0)
        full = evolve(model, bath, es_state, grid)
        windowed = evolve(model, bath, es_state, grid,
                          kernel_omega_max=40.0 * bath.omega_c)
        assert np.max(np.abs(full.sp - windowed.sp)) <= 1e-12

    def test_moderate_window_is_different(self, model, bath, es_state):
        # Cutting the bath at 2 omega_c removes about 60% of its spectral
        # weight: the dynamics stay bounded but visibly change.
        grid = TimeGrid.from_t_max(0.02, 10.0)
        full = evolve(model, bath, es_state, grid)
        windowed = evolve(model, bath, es_state, grid,
                          kernel_omega_max=2.0 * bath.omega_c)
        assert np.max(windowed.norm) <= 1.0 + 1e-6
        assert np.max(np.abs(full.sp - windowed.sp)) > 1e-3


def _trapezoid_tables(bath, dt, steps):
    """Lag-grid trapezoid weights on the kernel table: an independent
    quadrature of the history integral, second order in dt with a larger
    head constant than the product rule."""
    f = memory_kernel(bath, dt * np.arange(steps + 1))
    W = dt * f.astype(complex)
    W[0] = 0.5 * dt * f[0]
    T = 0.5 * dt * f.astype(complex)
    return W, T


def _cut_history(W, T, max_lag):
    """Tables that drop every lag beyond ``max_lag``: a biased history that
    pumps norm when the cut is short."""
    W, T = W.copy(), T.copy()
    W[max_lag + 1:] = 0.0
    T[max_lag + 1:] = 0.0
    return W, T


def _direct_evolve(model, bath, init, grid, kernel_omega_max=math.inf, tables=None):
    """Reference stepper with the direct O(n^2) history convolution, the
    default product weights and the stability bound read at call time.
    ``tables`` = (W, T) substitutes other lag weights."""
    if tables is None:
        tables = _product_tables(bath, grid.dt, grid.steps, kernel_omega_max)
    return direct_steps(diagonalize(build_hamiltonian(model)), *tables, init, grid,
                        bound=NORM_BLOWUP)


B = HISTORY_BLOCK


def _moment(bath, omega_max, lo, hi, weight):
    """int_lo^hi weight(u) f(u) du by adaptive quadrature, real and
    imaginary parts separately."""
    def part(take):
        return quad(lambda u: take(weight(u) * memory_kernel(bath, u, omega_max)),
                    lo, hi, epsabs=1e-17, epsrel=1e-13, limit=200)[0]
    return part(np.real) + 1j * part(np.imag)


class TestProductTables:
    @pytest.mark.parametrize("omega_max", [80.0, 20.0])
    def test_truncated_moments_match_quadrature(self, bath, omega_max):
        # W and T are linear in the moments: a_j = I0_j - I1_j/dt and
        # b_j = I1_j/dt give W_j = a_j + b_{j-1} and T_j = b_{j-1}, so I0 and
        # I1 come back out of the tables exactly.
        dt, steps = 0.002, 25000
        W, T = _product_tables(bath, dt, steps, omega_max)
        b_j = np.append(T[1:], np.nan)          # b_j for j = 0..steps-1
        a_j = np.append(W[0], W[1:] - T[1:])    # a_j for j = 0..steps
        for j in (0, 1, 100, steps - 1):
            I1 = b_j[j] * dt
            I0 = a_j[j] + b_j[j]
            lo, hi = j * dt, (j + 1) * dt
            assert abs(I0 - _moment(bath, omega_max, lo, hi, lambda u: 1.0)) <= 1e-15
            assert abs(I1 - _moment(bath, omega_max, lo, hi, lambda u: u - lo)) <= 1e-15


class TestBlockedHistory:
    """The blocked FFT history against the direct convolution."""

    @pytest.mark.parametrize("steps, kw", [
        (B - 1, {}),
        (B, {}),
        (B + 1, {}),
        (3 * B + 7, {}),
        (3 * B + 7, {"kernel_omega_max": 80.0}),
        (3 * B + 7, {"kernel_omega_max": 20.0}),
        (3 * B + 7, {"bath": BathParams(s=0.5)}),   # the s != 1 moments
        (3 * B + 7, {"bath": BathParams(eta=0.5)}),
    ])
    def test_matches_direct_convolution(self, model, bath, es_state, steps, kw):
        kw = dict(kw)
        bath = kw.pop("bath", bath)
        grid = TimeGrid(dt=0.01, steps=steps)
        traj = evolve(model, bath, es_state, grid, **kw)
        sp, norm = _direct_evolve(model, bath, es_state, grid, **kw)
        assert np.max(np.abs(traj.sp - sp)) <= 1e-12
        assert np.max(np.abs(traj.norm - norm)) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is plain double on this platform")
    @pytest.mark.parametrize("bath", [BathParams(), BathParams(eta=0.5),
                                      BathParams(s=0.5)])
    def test_matches_extended_precision_steps(self, model, eig, bath, es_state):
        # The same step recursion carried in long double from the same
        # float64 eigensystem and lag weights: a reference whose own rounding
        # error (about 1e-13 for the float64 recursion) is out of the way.
        # The blocked solve reads 3.5-7e-13 against it in SP and norm.
        grid = TimeGrid(dt=0.01, steps=3 * B + 7)
        traj = evolve(model, bath, es_state, grid)
        tables = _product_tables(bath, grid.dt, grid.steps)
        sp, norm = direct_steps(eig, *tables, es_state, grid, dtype=np.clongdouble)
        assert np.max(np.abs(traj.sp - sp)) <= 1e-12
        assert np.max(np.abs(traj.norm - norm)) <= 1e-12

    def test_blowup_at_the_direct_step(self, model, bath, es_state, monkeypatch):
        # The product rule is stable, so the guard is driven with tables cut
        # at half a cutoff time: at dt = 0.002 they pump norm past the bound
        # after the first block boundary.
        grid = TimeGrid.from_t_max(0.002, 10.0)
        tables = _cut_history(*_product_tables(bath, grid.dt, grid.steps), 250)
        with pytest.raises(UnstableEvolutionError) as direct:
            _direct_evolve(model, bath, es_state, grid, tables=tables)
        monkeypatch.setattr("gaah.dynamics._product_tables",
                            lambda *args: tuple(t.copy() for t in tables))
        with pytest.raises(UnstableEvolutionError) as blocked:
            evolve(model, bath, es_state, grid)
        assert direct.value.step > B
        assert blocked.value.step == direct.value.step

    def test_blowup_inside_one_block(self, model, es_state, monkeypatch):
        # Tables cut after two lags at eta = 10 pump norm so hard that the
        # amplitudes overflow in the block of the first bad step.  The block
        # must report that step as the direct loop does, without letting the
        # overflow raise a warning or reach the far history of a later block.
        bath = BathParams(eta=10.0)
        grid = TimeGrid(dt=0.01, steps=2 * B)
        tables = _cut_history(*_product_tables(bath, grid.dt, grid.steps), 2)
        with pytest.raises(UnstableEvolutionError) as direct:
            _direct_evolve(model, bath, es_state, grid, tables=tables)
        # The reference with the bound lifted: its first non-finite norm is
        # in the same block.
        monkeypatch.setitem(globals(), "NORM_BLOWUP", math.inf)
        with np.errstate(all="ignore"):
            _, norm = _direct_evolve(model, bath, es_state, grid, tables=tables)
        overflow = int(np.flatnonzero(~np.isfinite(norm))[0])
        assert (overflow - 1) // B == (direct.value.step - 1) // B

        monkeypatch.setattr("gaah.dynamics._product_tables",
                            lambda *args: tuple(t.copy() for t in tables))
        fft_inputs_finite = []
        fft = scipy.fft.fft
        monkeypatch.setattr(scipy.fft, "fft", lambda x, *args, **kw: (
            fft_inputs_finite.append(bool(np.all(np.isfinite(x))))
            or fft(x, *args, **kw)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableEvolutionError) as blocked:
                evolve(model, bath, es_state, grid)
        assert blocked.value.step == direct.value.step
        assert blocked.value.norm_sq == pytest.approx(direct.value.norm_sq, rel=1e-12)
        assert all(fft_inputs_finite)

    @pytest.mark.parametrize("omega_max", [math.inf, 80.0])
    @pytest.mark.parametrize("steps", [B // 2, B, B + 1, 2 * B,
                                       12 * B - 1, 12 * B, 12 * B + 1])
    def test_far_matches_direct_sum(self, model, eig, bath, steps, omega_max):
        # Every window of W, d = 1..11, meets a random history: the far sums
        # of each block against sum_{j<a} S_j W_{q-j} + S_0 D_q, summed term
        # by term, relative to the sum of the magnitudes of those terms.
        dt = 0.01
        W, T = _product_tables(bath, dt, steps, omega_max)
        block = min(B, steps)
        Z = np.exp(-1j * dt * np.outer(np.arange(1, block + 1), eig.energies))
        history = _History(W, T, Z, eig.states.sum(axis=0), dt, steps)
        rng = np.random.default_rng(steps)
        S = rng.normal(size=steps + 1) + 1j * rng.normal(size=steps + 1)
        D = T - W
        for a in range(1, steps + 1, block):
            b = min(a + block, steps + 1)
            # "valid" outputs i of W[1:b] * S[:a] are the sums at q = a + i.
            direct = np.convolve(W[1:b], S[:a], "valid") + S[0] * D[a:b]
            scale = np.convolve(np.abs(W[1:b]), np.abs(S[:a]), "valid")
            assert np.all(np.abs(history.far(S, a, b) - direct) <= 1e-13 * scale)
        assert hasattr(history, "W_spec") == (steps > B)


class TestConvergence:
    def test_decoupled_converges(self, model, es_state):
        report = convergence_check(model, DECOUPLED, es_state,
                                   TimeGrid.from_t_max(0.02, 10.0))
        assert report.max_sp_deviation < 1e-6
        assert report.passed

    def test_coarse_step_fails(self, model, bath, es_state):
        report = convergence_check(model, bath, es_state,
                                   TimeGrid.from_t_max(0.1, 20.0))
        assert report.dt_fine == pytest.approx(0.05)
        assert report.max_sp_deviation > report.threshold
        assert not report.passed


class TestBeatEnvelope:
    def test_removes_ripple_keeps_beat(self):
        dt = 0.01
        t = np.arange(0, 120.0 + dt / 2, dt)
        beat = 0.3 + 0.2 * np.cos(2 * np.pi * t / 80.0)
        noisy = beat + 0.05 * np.cos(2 * np.pi * t / 1.5)
        smooth = beat_envelope(noisy, dt)
        # The local quadratic fit suppresses the 0.05 ripple by ~5x while
        # tracking the beat crest to better than 1%.
        assert np.max(np.abs(smooth - beat)) < 0.012
        assert np.max(smooth) == pytest.approx(np.max(beat), abs=0.01)

    def test_window_validation(self):
        series = np.zeros(1000)
        with pytest.raises(ParameterError, match="dt"):
            beat_envelope(series, 0.0)
        with pytest.raises(ParameterError, match="too few samples"):
            beat_envelope(series, 1.0, window=2.0)
        with pytest.raises(ParameterError, match="exceeds"):
            beat_envelope(np.zeros(10), 0.01, window=5.0)


class TestDominantPeriod:
    def test_pure_tone(self):
        t = np.arange(0, 50.0, 0.01)
        assert dominant_period(t, np.cos(2 * np.pi * t / 7.0)) == pytest.approx(
            7.0, rel=1e-3)

    def test_beat_with_ripple(self):
        dt = 0.02
        t = np.arange(0, 400.0, dt)
        series = (0.3 + 0.2 * np.cos(2 * np.pi * t / 80.0)
                  + 0.03 * np.cos(2 * np.pi * t / 1.7))
        # Without a separation constraint the ripple peaks dominate.
        assert dominant_period(t, series) < 3.0
        # With it, the beat spacing is recovered.
        smoothed = beat_envelope(series, dt)
        period = dominant_period(t, smoothed, min_separation=40.0)
        assert period == pytest.approx(80.0, rel=0.02)

    def test_constant_series(self):
        t = np.arange(10.0)
        with pytest.raises(ParameterError, match="constant"):
            dominant_period(t, np.ones_like(t))

    def test_too_few_peaks(self):
        t = np.arange(0, 10.0, 0.1)
        with pytest.raises(ParameterError, match="at least 2"):
            dominant_period(t, t ** 2)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match="matching"):
            dominant_period(np.arange(5.0), np.arange(6.0))

    def test_bad_separation(self):
        t = np.arange(0, 10.0, 0.1)
        with pytest.raises(ParameterError, match="min_separation"):
            dominant_period(t, np.cos(t), min_separation=0.0)
