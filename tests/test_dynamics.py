"""Time grids, observables, the memory-kernel integrator, and beat readout."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaah.dynamics import (
    HISTORY_BLOCK,
    NORM_BLOWUP,
    TimeGrid,
    _product_tables,
    _trapezoid_tables,
    beat_envelope,
    convergence_check,
    dominant_period,
    evolve,
    ipr,
    memory_rhs,
    observables,
    position_variance,
    survival_probability,
)
from gaah.bath import BathParams
from gaah.errors import ParameterError, UnstableEvolutionError
from gaah.model import ModelParams, build_hamiltonian, diagonalize, state_ipr

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

    @given(st.integers(2, 30))
    def test_memory_rhs_site_independent(self, n):
        c = 0.3 - 0.7j
        rhs = memory_rhs(c, n)
        assert rhs.shape == (n,)
        assert np.all(rhs == rhs[0])
        assert rhs[0] == -c


class TestEvolveValidation:
    def test_wrong_shape(self, model, bath):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="shape"):
            evolve(model, bath, np.ones(5, dtype=complex), grid)

    def test_unnormalized(self, model, bath):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="normalized"):
            evolve(model, bath, np.full(model.N, 1.0, dtype=complex), grid)

    def test_unknown_record(self, model, bath, es_state):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="record"):
            evolve(model, bath, es_state, grid, record=("sp", "bogus"))

    def test_unknown_kernel_rule(self, model, bath, es_state):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="kernel rule"):
            evolve(model, bath, es_state, grid, kernel_rule="simpson")

    def test_product_rule_rejects_truncation(self, model, bath, es_state):
        grid = TimeGrid(dt=0.1, steps=2)
        with pytest.raises(ParameterError, match="trapezoid"):
            evolve(model, bath, es_state, grid, kernel_rule="product",
                   kernel_omega_max=80.0)

    def test_unstable_error_payload(self):
        err = UnstableEvolutionError(7, 1.5)
        assert err.step == 7
        assert err.norm_sq == 1.5
        assert "step 7" in str(err)


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

    def test_metadata_snapshot(self, traj, model, bath):
        assert traj.params["model.Delta"] == model.Delta
        assert traj.params["bath.eta"] == bath.eta
        assert traj.params["solver.kernel_rule"] == "product"

    def test_site_history(self, model, bath, es_state):
        grid = TimeGrid(dt=0.05, steps=10)
        traj = evolve(model, bath, es_state, grid, record=("norm", "sites"))
        assert traj.alpha_history.shape == (11, model.N)
        assert np.allclose(traj.alpha_history[0], es_state, atol=0)
        norms = np.sum(np.abs(traj.alpha_history) ** 2, axis=1)
        assert np.allclose(norms, traj.norm, atol=1e-12)
        assert traj.sp is None

    def test_kernel_rules_converge_together(self, model, bath, es_state):
        # The two history quadratures are independent routes; their gap is
        # dominated by the trapezoid head error and must shrink as dt^2.
        gaps = []
        for dt in (0.01, 0.005):
            grid = TimeGrid.from_t_max(dt, 5.0)
            product = evolve(model, bath, es_state, grid, kernel_rule="product")
            trapezoid = evolve(model, bath, es_state, grid, kernel_rule="trapezoid")
            gaps.append(np.max(np.abs(product.sp - trapezoid.sp)))
        assert 0.0 < gaps[0] < 0.05
        assert gaps[0] / gaps[1] > 3.0

    def test_full_window_matches_untruncated(self, model, bath, es_state):
        grid = TimeGrid.from_t_max(0.02, 10.0)
        full = evolve(model, bath, es_state, grid)
        windowed = evolve(model, bath, es_state, grid, memory_window=grid.t_max)
        assert np.max(np.abs(full.sp - windowed.sp)) <= 1e-12

    def test_moderate_window_is_different(self, model, bath, es_state):
        grid = TimeGrid.from_t_max(0.02, 10.0)
        full = evolve(model, bath, es_state, grid)
        windowed = evolve(model, bath, es_state, grid, memory_window=2.0)
        assert np.max(windowed.norm) <= 1.0 + 1e-6
        assert np.max(np.abs(full.sp - windowed.sp)) > 1e-3

    def test_aggressive_window_destabilizes(self, model, bath, es_state):
        # Cutting the history at half a cutoff time biases the convolution
        # enough to pump norm; the guard must catch it rather than return
        # garbage.
        grid = TimeGrid.from_t_max(0.02, 10.0)
        with pytest.raises(UnstableEvolutionError):
            evolve(model, bath, es_state, grid, memory_window=0.5)

    def test_markovian_mode_differs(self, model, bath, es_state):
        grid = TimeGrid.from_t_max(0.02, 10.0)
        full = evolve(model, bath, es_state, grid)
        mark = evolve(model, bath, es_state, grid, markovian=True)
        assert np.max(mark.norm) <= 1.0 + 1e-6
        assert np.max(np.abs(full.sp - mark.sp)) > 1e-4


def _direct_evolve(model, bath, init, grid, kernel_rule="product", memory_window=None,
                   kernel_omega_max=math.inf):
    """Reference stepper with the direct O(n^2) history convolution.

    Each step takes C_m and the endpoint-free c_hist from two full-length dot
    products over the stored history, and records SP and the norm with the
    scalar observables; same quadrature and implicit stage as ``evolve``.
    """
    if kernel_rule == "trapezoid":
        W, T = _trapezoid_tables(bath, grid.dt, grid.steps, kernel_omega_max)
    else:
        W, T = _product_tables(bath, grid.dt, grid.steps)
    Wrev = W[::-1].copy()
    L = grid.steps
    max_lag = None
    if memory_window is not None and memory_window > 0.0:
        max_lag = max(1, int(round(memory_window / grid.dt)))

    def conv(S, q, m_hist, S_end=None):
        # C at time index q from S[0..m_hist]; with S_end, q == m_hist + 1.
        if q == 0:
            return 0.0 + 0.0j
        lo = 0 if max_lag is None else max(0, q - max_lag)
        if S_end is None:
            c = np.dot(S[lo:q + 1], Wrev[L - (q - lo):L + 1])
        else:
            c = np.dot(S[lo:m_hist + 1], Wrev[L - (q - lo):L]) + S_end * W[0]
        if lo == 0:
            c += S[0] * (T[q] - W[q])
        return c

    dec = diagonalize(build_hamiltonian(model))
    dt = grid.dt
    P = (dec.states * np.exp(-1j * dec.energies * dt)) @ dec.states.T
    ones = np.ones(model.N, dtype=complex)
    P_ones = P @ ones
    alpha = np.asarray(init, dtype=complex).copy()
    S = np.zeros(grid.steps + 1, dtype=complex)
    S[0] = alpha.sum()
    sp = np.empty(grid.steps + 1)
    norm = np.empty(grid.steps + 1)
    sp[0] = survival_probability(alpha, init)
    norm[0] = float(np.vdot(alpha, alpha).real)
    for m in range(grid.steps):
        C_m = conv(S, m, m)
        c_hist = conv(S, m + 1, m, S_end=0.0)
        A = P @ alpha - 0.5 * dt * C_m * P_ones
        S_new = (A.sum() - 0.5 * dt * model.N * c_hist) / (1.0 + 0.5 * dt * model.N * W[0])
        alpha = A - 0.5 * dt * (c_hist + W[0] * S_new) * ones
        nsq = float(np.vdot(alpha, alpha).real)
        if nsq > NORM_BLOWUP:
            raise UnstableEvolutionError(m + 1, nsq)
        S[m + 1] = alpha.sum()
        sp[m + 1] = survival_probability(alpha, init)
        norm[m + 1] = nsq
    return sp, norm


B = HISTORY_BLOCK


class TestBlockedHistory:
    """The blocked FFT history against the direct convolution."""

    @pytest.mark.parametrize("steps, kw", [
        (B - 1, {}),
        (B, {}),
        (B + 1, {}),
        (3 * B + 7, {}),
        (3 * B + 7, {"kernel_rule": "trapezoid"}),
        (3 * B + 7, {"memory_window": 5.0}),     # 500 lags, within one block
        (3 * B + 7, {"memory_window": 30.0}),    # 3000 lags, past one block
        (3 * B + 7, {"kernel_rule": "trapezoid", "kernel_omega_max": 80.0}),
    ])
    def test_matches_direct_convolution(self, model, bath, es_state, steps, kw):
        grid = TimeGrid(dt=0.01, steps=steps)
        traj = evolve(model, bath, es_state, grid, **kw)
        sp, norm = _direct_evolve(model, bath, es_state, grid, **kw)
        assert np.max(np.abs(traj.sp - sp)) <= 1e-12
        assert np.max(np.abs(traj.norm - norm)) <= 1e-12

    def test_blowup_at_the_direct_step(self, model, bath, es_state):
        # At dt = 0.002 the half-cutoff window pumps norm past the bound
        # after the first block boundary.
        grid = TimeGrid.from_t_max(0.002, 10.0)
        with pytest.raises(UnstableEvolutionError) as direct:
            _direct_evolve(model, bath, es_state, grid, memory_window=0.5)
        with pytest.raises(UnstableEvolutionError) as blocked:
            evolve(model, bath, es_state, grid, memory_window=0.5)
        assert direct.value.step > B
        assert blocked.value.step == direct.value.step


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
