"""Discrete-bath oracle: discretization quality and solver cross-validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from gaah.bath import BathParams, spectral_density
from gaah.dynamics import TimeGrid, evolve
from gaah.errors import ParameterError
from gaah.model import (
    ModelParams,
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
)
from gaah.oracle import (
    _PHASE_BLOCK,
    _evolve_eig,
    compare_trajectories,
    discretize_bath,
    evolve_full,
    full_hamiltonian,
    validate_against_oracle,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelParams(N=7)


@pytest.fixture(scope="module")
def small_init(small_model):
    return highest_excited_state(diagonalize(build_hamiltonian(small_model)))


class TestDiscretization:
    def test_validation(self, bath):
        with pytest.raises(ParameterError, match="oracle.modes"):
            discretize_bath(bath, 0, 80.0)
        with pytest.raises(ParameterError, match="oracle.omega_max"):
            discretize_bath(bath, 100, 0.0)

    def test_midpoint_positions(self, bath):
        db = discretize_bath(bath, 10, 5.0)
        assert db.omegas[0] == pytest.approx(0.25)
        assert db.omegas[-1] == pytest.approx(4.75)
        assert np.all(np.diff(db.omegas) == pytest.approx(0.5))

    def test_recurrence_time(self, bath):
        db = discretize_bath(bath, 2000, 80.0)
        assert db.recurrence_time == pytest.approx(2.0 * np.pi / 0.04, rel=1e-12)

    def test_decoupled_bath_has_zero_couplings(self):
        db = discretize_bath(BathParams(eta=0.0), 50, 80.0)
        assert np.all(db.couplings == 0.0)

    def test_weights_reproduce_spectral_integral(self, bath):
        # Criterion: sum g_k^2 matches int_0^W J to 1e-3; at M = 2000 the
        # midpoint rule is far better than that, and halving the spacing
        # cuts the error by ~4x.
        W = 80.0
        exact, _ = quad(lambda w: spectral_density(bath, w), 0.0, W, limit=400)
        errs = []
        for modes in (500, 1000, 2000):
            db = discretize_bath(bath, modes, W)
            errs.append(abs(float(np.sum(db.couplings ** 2)) - exact) / exact)
        assert errs[0] < 1e-3
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestFullHamiltonian:
    def test_block_structure(self, small_model, bath):
        db = discretize_bath(bath, 20, 40.0)
        H = full_hamiltonian(small_model, db)
        N = small_model.N
        assert H.shape == (N + 20, N + 20)
        assert np.array_equal(H, H.T)
        assert np.array_equal(H[:N, :N], build_hamiltonian(small_model).matrix)
        # every site couples to mode k with the same g_k
        for k in range(20):
            assert np.all(H[:N, N + k] == db.couplings[k])
        assert np.array_equal(np.diag(H)[N:], db.omegas)


class TestEvolveFull:
    def test_decoupled_matches_closed_solver(self, small_model, small_init):
        # With eta = 0 the discrete modes carry no weight, so the oracle and
        # the memory-kernel solver must agree to machine precision.
        b0 = BathParams(eta=0.0)
        grid = TimeGrid.from_t_max(0.01, 10.0)
        exact = evolve_full(small_model, discretize_bath(b0, 100, 40.0),
                            small_init, grid)
        solver = evolve(small_model, b0, small_init, grid)
        assert compare_trajectories(exact, solver) <= 1e-12

    def test_system_norm_bounded(self, small_model, small_init, bath):
        grid = TimeGrid.from_t_max(0.01, 10.0)
        traj = evolve_full(small_model, discretize_bath(bath, 200, 40.0),
                           small_init, grid)
        assert traj.norm[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(traj.norm) <= 1.0 + 1e-9

    @pytest.mark.parametrize("steps", [_PHASE_BLOCK - 1, _PHASE_BLOCK,
                                       _PHASE_BLOCK + 1, 3 * _PHASE_BLOCK + 5])
    def test_blocked_phases_match_per_time_loop(self, small_model, small_init,
                                                bath, steps):
        H = full_hamiltonian(small_model, discretize_bath(bath, 300, 40.0))
        grid = TimeGrid(dt=0.01, steps=steps)
        blocked = _evolve_eig(H, small_model.N, small_init, grid)
        assert blocked.shape == (steps + 1, small_model.N)
        assert np.max(np.abs(blocked - _per_time_eig(H, small_model.N, small_init,
                                                    grid))) <= 1e-13

    def test_refuses_past_recurrence(self, small_model, small_init, bath):
        db = discretize_bath(bath, 100, 80.0)  # recurrence ~ 7.85
        with pytest.raises(ParameterError, match="oracle.modes"):
            evolve_full(small_model, db, small_init, TimeGrid.from_t_max(0.01, 20.0))

    def test_bad_shape(self, small_model, small_init, bath):
        db = discretize_bath(bath, 50, 40.0)
        grid = TimeGrid.from_t_max(0.01, 1.0)
        with pytest.raises(ParameterError, match="shape"):
            evolve_full(small_model, db, np.ones(3, dtype=complex), grid)


def _per_time_eig(H, N, init, grid):
    """The eig propagation one time at a time: exp(-i E t) for each t."""
    evals, V = np.linalg.eigh(H)
    c = V[:N, :].T @ init
    return np.array([V[:N, :] @ (np.exp(-1j * evals * t) * c) for t in grid.times()])


class TestCompare:
    def test_identical_trajectories(self, small_model, small_init, bath):
        grid = TimeGrid.from_t_max(0.01, 2.0)
        traj = evolve(small_model, bath, small_init, grid)
        assert compare_trajectories(traj, traj) == 0.0

    def test_grid_mismatch(self, small_model, small_init, bath):
        a = evolve(small_model, bath, small_init, TimeGrid.from_t_max(0.01, 2.0))
        b = evolve(small_model, bath, small_init, TimeGrid.from_t_max(0.02, 2.0))
        with pytest.raises(ParameterError, match="grids"):
            compare_trajectories(a, b)

    def test_measures_survival_probability(self, small_model, small_init, bath):
        grid = TimeGrid.from_t_max(0.01, 2.0)
        a = evolve(small_model, bath, small_init, grid)
        b = dataclasses.replace(a, sp=a.sp + np.linspace(0.0, 0.25, a.sp.size),
                                ipr=a.ipr + 1.0)
        assert compare_trajectories(a, b) == pytest.approx(0.25, abs=1e-15)


class TestValidation:
    def test_mode_refinement_tightens_agreement(self, small_model, small_init,
                                                bath):
        # Consistent truncation: both sides simulate the identical bath, so
        # refining the mode grid must monotonically shrink the gap toward
        # the integrator's own dt floor.
        grid = TimeGrid.from_t_max(0.002, 30.0)
        devs = []
        for modes in (500, 1000, 2000):
            report = validate_against_oracle(small_model, bath, small_init,
                                             grid, modes=modes, omega_max=80.0)
            devs.append(report.max_sp_deviation)
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 5e-4

    def test_report_fields_and_pass(self, small_model, small_init, bath):
        grid = TimeGrid.from_t_max(0.002, 20.0)
        report = validate_against_oracle(small_model, bath, small_init, grid,
                                         modes=1000, omega_max=80.0)
        assert report.modes == 1000
        assert report.omega_max == 80.0
        assert report.recurrence_time == pytest.approx(2.0 * np.pi / 0.08)
        assert report.threshold == 1e-3
        assert report.max_sp_deviation < 1e-3
        assert report.passed

    def test_coarse_settings_fail(self, small_model, small_init, bath):
        report = validate_against_oracle(small_model, bath, small_init,
                                         TimeGrid.from_t_max(0.01, 10.0),
                                         modes=200, omega_max=40.0,
                                         threshold=1e-5)
        assert report.max_sp_deviation > 1e-5
        assert not report.passed

    def test_consistent_truncation_isolates_solver_error(self, small_model,
                                                         small_init, bath):
        # Cutting the integrator's kernel at the oracle's omega_max leaves
        # only solver error; the full kernel adds the spectral weight above
        # omega_max to the gap, which roughly triples it here.
        grid = TimeGrid.from_t_max(0.002, 30.0)
        exact = evolve_full(small_model, discretize_bath(bath, 2000, 80.0),
                            small_init, grid)
        matched = evolve(small_model, bath, small_init, grid, kernel_omega_max=80.0)
        full = evolve(small_model, bath, small_init, grid)
        matched_gap = compare_trajectories(matched, exact)
        assert matched_gap < 5e-4
        assert compare_trajectories(full, exact) > 2.0 * matched_gap

    def test_passes_at_a_phase_the_trapezoid_rule_missed(self, bath):
        # At phi = 3 pi / 2 the lag-grid trapezoid rule on the truncated
        # kernel left a gap of 1.4e-3; the product rule stays well inside
        # the 1e-3 threshold.
        model = ModelParams(N=7, phi=1.5 * np.pi)
        init = highest_excited_state(diagonalize(build_hamiltonian(model)))
        report = validate_against_oracle(model, bath, init,
                                         TimeGrid.from_t_max(0.002, 50.0),
                                         modes=2000, omega_max=80.0)
        assert report.max_sp_deviation < 1e-3
        assert report.passed
