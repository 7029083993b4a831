"""Discrete-bath oracle: discretization quality and solver cross-validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gaah import oracle
from gaah.bath import BathParams, spectral_density
from gaah.dynamics import TimeGrid, evolve
from gaah.errors import NumericsError, ParameterError
from gaah.model import (
    ModelParams,
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
)
from gaah.oracle import (
    _PHASE_BLOCK,
    _arrowhead_form,
    _blocks_per_product,
    _propagate,
    arrowhead_eig,
    compare_trajectories,
    discretize_bath,
    evolve_full,
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


def full_hamiltonian(model, dbath):
    """The dense (N + M)-square H_full, the oracle's dense reference."""
    N, M = model.N, dbath.modes
    H = np.zeros((N + M, N + M))
    H[:N, :N] = build_hamiltonian(model)
    H[:N, N:] = dbath.couplings[np.newaxis, :]
    H[N:, :N] = dbath.couplings[:, np.newaxis]
    H[N + np.arange(M), N + np.arange(M)] = dbath.omegas
    return H


def _arrowhead_matrix(head, diag, arrow):
    A = np.diag(np.concatenate([[head], diag]))
    A[0, 1:] = A[1:, 0] = arrow
    return A


def _dense_propagation(A, R, init, grid):
    """α(t) from np.linalg.eigh of the dense matrix A, whose basis R maps
    to the rows wanted."""
    evals, W = np.linalg.eigh(A)
    return evals, _propagate(evals, R @ W, init, grid)


class TestFullHamiltonian:
    def test_block_structure(self, small_model, bath):
        db = discretize_bath(bath, 20, 40.0)
        H = full_hamiltonian(small_model, db)
        N = small_model.N
        assert H.shape == (N + 20, N + 20)
        assert np.array_equal(H, H.T)
        assert np.array_equal(H[:N, :N], build_hamiltonian(small_model))
        # every site couples to mode k with the same g_k
        for k in range(20):
            assert np.all(H[:N, N + k] == db.couplings[k])
        assert np.array_equal(np.diag(H)[N:], db.omegas)

    @pytest.mark.parametrize("N", [2, 7, 8])
    def test_arrowhead_form_is_h_full_in_a_rotated_basis(self, bath, N):
        model = ModelParams(N=N, beta=0.5, phi=0.0) if N == 8 else ModelParams(N=N)
        db = discretize_bath(bath, 20, 40.0)
        head, diag, arrow, c, rows = _arrowhead_form(model, db)
        assert diag.shape == arrow.shape == (N - 1 + 20,)
        assert np.array_equal(rows[:, N - 1:], np.zeros((N, 20)))
        # The basis: c and the complement's levels on the sites, then the modes.
        Q = np.zeros((N + 20, N + 20))
        Q[:N, 0] = c
        Q[:N, 1:N] = rows[:, :N - 1]
        Q[N:, N:] = np.eye(20)
        assert np.max(np.abs(Q.T @ Q - np.eye(N + 20))) <= 1e-14
        A = Q.T @ full_hamiltonian(model, db) @ Q
        assert np.max(np.abs(A - _arrowhead_matrix(head, diag, arrow))) <= 1e-13


class TestArrowheadEig:
    """The structured diagonalization against np.linalg.eigh of the dense
    H_full: eigenvalues to 1e-12, α(t) to 1e-11 for t <= 50."""

    CASES = {
        # (N, a, Delta, eta, modes, extra model parameters)
        "sizing_a0": (7, 0.0, 2.5, 0.1, 2000, {}),
        "sizing_a0.5": (7, 0.5, 1.0, 0.5, 2000, {}),
        "sizing_N21": (21, 0.0, 2.5, 0.1, 2000, {}),
        "decoupled": (7, 0.0, 2.5, 0.0, 400, {}),
        # Mirror-symmetric chain: levels odd under the mirror are orthogonal
        # to the uniform state and couple to nothing.
        "orthogonal_level": (8, 0.0, 2.5, 0.1, 400, {"beta": 0.5, "phi": 0.0}),
        "N2": (2, 0.0, 2.5, 0.1, 400, {}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_eigh(self, case):
        N, a, Delta, eta, modes, extra = self.CASES[case]
        model = ModelParams(N=N, a=a, Delta=Delta, **extra)
        db = discretize_bath(BathParams(eta=eta), modes, 80.0)
        init = highest_excited_state(diagonalize(build_hamiltonian(model)))
        grid = TimeGrid.from_t_max(0.01, 50.0)
        evals, V_sys = arrowhead_eig(*_arrowhead_form(model, db))
        alphas = _propagate(evals, V_sys, init, grid)
        dense_evals, dense_alphas = _dense_propagation(
            full_hamiltonian(model, db), np.eye(N, N + modes), init, grid)
        assert np.max(np.abs(evals - dense_evals)) <= 1e-12
        assert np.max(np.abs(alphas - dense_alphas)) <= 1e-11
        assert np.max(np.sum(np.abs(alphas) ** 2, axis=1)) <= 1.0 + 1e-12

    def test_orthogonal_level_is_decoupled(self):
        model = ModelParams(N=8, beta=0.5, phi=0.0)
        _, _, arrow, _, _ = _arrowhead_form(model, discretize_bath(BathParams(), 50, 80.0))
        assert np.min(np.abs(arrow[:7])) <= 1e-14

    @pytest.mark.parametrize("placement", ["mode_on_level", "equal_modes"])
    def test_coincident_poles(self, small_model, small_init, bath, placement):
        # Poles that coincide exactly must be rotated apart before the
        # secular solve: a mode frequency on a level of the complement, or
        # two equal mode frequencies, each pair with both couplings nonzero.
        N = small_model.N
        head, diag, arrow, c, rows = _arrowhead_form(small_model,
                                                     discretize_bath(bath, 60, 20.0))
        diag = diag.copy()
        if placement == "mode_on_level":
            diag[N + 4] = diag[2]
            assert arrow[2] != 0.0 and arrow[N + 4] != 0.0
        else:
            diag[N + 11] = diag[N + 10]
        grid = TimeGrid.from_t_max(0.01, 20.0)
        evals, V_sys = arrowhead_eig(head, diag, arrow, c, rows)
        alphas = _propagate(evals, V_sys, small_init, grid)
        dense_evals, dense_alphas = _dense_propagation(
            _arrowhead_matrix(head, diag, arrow), np.column_stack([c, rows]),
            small_init, grid)
        assert np.max(np.abs(evals - dense_evals)) <= 1e-12
        assert np.max(np.abs(alphas - dense_alphas)) <= 1e-11
        assert np.max(np.sum(np.abs(alphas) ** 2, axis=1)) <= 1.0 + 1e-12

    def test_random_arrowheads(self):
        # Equal and nearly equal poles, zero and tiny couplings, and weak
        # couplings that leave a root far from both of its poles.
        rng = np.random.default_rng(20261018)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            diag = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
            if n > 2 and rng.random() < 0.5:
                diag[rng.integers(n)] = diag[rng.integers(n)]
            if n > 3 and rng.random() < 0.3:
                i = rng.integers(n - 1)
                diag[i + 1] = diag[i] + 1e-15 * rng.normal()
            arrow = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
            kind = rng.random(n)
            arrow[kind < 0.15] = 0.0
            arrow[(kind > 0.15) & (kind < 0.3)] *= 10.0 ** rng.uniform(-16, -8)
            _check_whole_eigenvectors(5.0 * rng.normal(), diag, arrow)

    @pytest.mark.parametrize("spectrum", ["outliers_below_band", "cluster",
                                          "tiny_couplings"])
    def test_irregular_large_arrowheads(self, spectrum):
        # Spectra large enough that most blocks of roots take the far field,
        # and uneven enough that poles near a block in energy are far from
        # it in index: near windows chosen by index read residuals up to
        # 6e-6 and orthogonality up to 6e-3 here.
        rng = np.random.default_rng(20261019)
        for _ in range(2):
            if spectrum == "outliers_below_band":
                diag = np.concatenate([-10.0 ** rng.uniform(1, 3, 40),
                                       rng.uniform(0.0, 10.0, 700)])
                arrow = 0.1 * rng.normal(size=diag.size)
            elif spectrum == "cluster":
                # 50 poles within 1e-6 among 400 spread over [-50, 50].
                diag = np.concatenate([rng.uniform(-50.0, 50.0, 400),
                                       3.0 + 1e-6 * rng.random(50)])
                arrow = rng.normal(size=diag.size)
            else:
                diag = np.concatenate([20.0 * rng.normal(size=300),
                                       rng.uniform(0.0, 5.0, 500)])
                arrow = rng.normal(size=diag.size) * 10.0 ** rng.uniform(-16, 0, diag.size)
                arrow[rng.random(diag.size) < 0.1] = 0.0
            order = rng.permutation(diag.size)
            _check_whole_eigenvectors(5.0 * rng.normal(), diag[order], arrow[order])

    def test_no_coupled_pole(self):
        evals, V = arrowhead_eig(0.5, np.array([1.0, 2.0]), np.zeros(2),
                                 np.array([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(evals, [0.5, 1.0, 2.0])
        assert np.array_equal(V, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_unconverged_roots_raise(self, small_model, bath, monkeypatch):
        monkeypatch.setattr(oracle, "_SECULAR_MAX_ITER", 1)
        with pytest.raises(NumericsError, match="secular equation"):
            arrowhead_eig(*_arrowhead_form(small_model, discretize_bath(bath, 50, 80.0)))


def _check_whole_eigenvectors(head, diag, arrow):
    """arrowhead_eig against np.linalg.eigvalsh of the dense matrix.  With
    the identity as rows, V holds the whole eigenvectors."""
    A = _arrowhead_matrix(head, diag, arrow)
    identity = np.eye(diag.size + 1)
    evals, V = arrowhead_eig(head, diag, arrow, identity[:, 0], identity[:, 1:])
    scale = np.linalg.norm(A, 2)
    assert np.max(np.abs(evals - np.linalg.eigvalsh(A))) <= 1e-13 * scale
    assert np.max(np.abs(A @ V - V * evals)) <= 1e-13 * scale
    assert np.max(np.abs(V.T @ V - identity)) <= 1e-12


class TestFarField:
    """The interpolated far sums, directly and through the whole solve
    against the exact route, every pole near (the near margin made
    infinite): the same eigenvalues, site rows and alpha(t) at N = 21."""

    @pytest.mark.parametrize("modes, omega_max", [(2000, 80.0), (4000, 200.0)])
    def test_matches_all_pole_sums(self, modes, omega_max, monkeypatch):
        model = ModelParams(N=21)
        args = _arrowhead_form(model, discretize_bath(BathParams(), modes, omega_max))
        init = highest_excited_state(diagonalize(build_hamiltonian(model)))
        grid = TimeGrid.from_t_max(0.01, 50.0)
        evals, V_sys = arrowhead_eig(*args)
        monkeypatch.setattr(oracle, "_NEAR_MARGIN", math.inf)
        exact_evals, exact_V = arrowhead_eig(*args)
        assert np.max(np.abs(evals - exact_evals)) <= 1e-15 * np.max(np.abs(exact_evals))
        sign = np.where(np.sum(V_sys * exact_V, axis=0) < 0.0, -1.0, 1.0)
        assert np.max(np.abs(V_sys * sign - exact_V)) <= 1e-13
        alphas = _propagate(evals, V_sys, init, grid)
        exact_alphas = _propagate(exact_evals, exact_V, init, grid)
        assert np.max(np.abs(alphas - exact_alphas)) <= 1e-13

    def test_interpolants_match_far_sums(self):
        # A block spanning [d[200], d[263]] of 1000 uneven poles: the far
        # sums between the nodes to 4e-15 relative, the rounding of both
        # sides (the interpolation error is 4e-19), and on a node exactly
        # its tabulated value.
        rng = np.random.default_rng(5)
        d = np.sort(np.concatenate([rng.uniform(0.0, 10.0, 900),
                                    rng.uniform(-500.0, 500.0, 100)]))
        u = rng.normal(size=d.size)
        rows = rng.normal(size=(3, d.size))
        rows[:, rng.random(d.size) < 0.5] = 0.0
        a, b = d[200], d[263]
        lo = int(np.searchsorted(d, a - (b - a)))
        hi = int(np.searchsorted(d, b + (b - a), side="right"))
        live = np.flatnonzero(np.any(rows != 0.0, axis=0))
        far = oracle._FarField(d, u * u, live, rows[:, live] * u[live], lo, hi, a, b - a)
        s = np.concatenate([np.sort(rng.uniform(0.0, b - a, 50)), far.nodes])
        q = 1.0 / np.delete((d - a) - s[:, np.newaxis], np.s_[lo:hi], axis=1)
        t = q * np.delete(u * u, np.s_[lo:hi])
        f, below, above, mag = far.sums(s)
        # f sums terms of both signs: its scale is the sum of their sizes.
        assert np.max(np.abs(f - t.sum(axis=1)) / mag) <= 4e-15
        assert np.max(np.abs(below - (t * q)[:, :lo].sum(axis=1)) / below) <= 4e-15
        assert np.max(np.abs(above - (t * q)[:, lo:].sum(axis=1)) / above) <= 4e-15
        assert np.max(np.abs(mag - np.abs(t).sum(axis=1)) / mag) <= 4e-15
        terms = np.delete(rows, np.s_[lo:hi], axis=1)[:, np.newaxis, :] * (
            q * np.delete(u, np.s_[lo:hi]))
        row_sums, norm2 = far.vectors(s)
        assert np.max(np.abs(row_sums - terms.sum(axis=2))
                      / np.abs(terms).sum(axis=2)) <= 4e-15
        assert np.max(np.abs(norm2 - below - above) / norm2) <= 4e-15
        on_node = far._interpolation(far.nodes)
        assert np.array_equal(on_node, np.eye(far.nodes.size))


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

    # Steps around the edges of a phase block (B times) and of a group of
    # G blocks, as many as one product takes for the N + M = 307 of H below.
    B, G = _PHASE_BLOCK, _blocks_per_product(7 + 300, 7)

    @pytest.mark.parametrize("steps", [1, B - 1, B, B + 1, 3 * B + 5, G * B - 1,
                                       G * B, G * B + 1, (G + 1) * B + 5])
    def test_blocked_phases_match_per_time_loop(self, small_model, small_init,
                                                bath, steps):
        self._check_blocked_phases(small_model, small_init, bath, steps)

    def test_blocked_phases_with_complex_init(self, small_model, small_init, bath):
        # A complex initial state makes c = V_sys^T init complex.
        init = small_init * np.exp(1j * np.arange(small_model.N))
        self._check_blocked_phases(small_model, init, bath,
                                   (self.G + 1) * self.B + 5)

    @staticmethod
    def _check_blocked_phases(model, init, bath, steps):
        H = full_hamiltonian(model, discretize_bath(bath, 300, 40.0))
        N = model.N
        assert H.shape[0] == 7 + 300
        # dt = 0.01, or less where the grid would reach past the bath's
        # recurrence time (47), which evolve_full refuses.
        grid = TimeGrid(dt=min(0.01, 40.0 / steps), steps=steps)
        evals, V = np.linalg.eigh(H)
        blocked = _propagate(evals, V[:N, :], init, grid)
        assert blocked.shape == (steps + 1, N)
        assert np.max(np.abs(blocked - _per_time_eig(H, N, init, grid))) <= 1e-13

    def test_decoupled_columns_are_left_out(self, small_model, small_init):
        # At omega_c = 0.05 the couplings above omega ~ 37 underflow to 0:
        # those modes deflate to eigenvectors with no site component.  Their
        # eigenvalues are made NaN, which would poison any product they
        # entered.
        db = discretize_bath(BathParams(omega_c=0.05), 400, 80.0)
        evals, V_sys = arrowhead_eig(*_arrowhead_form(small_model, db))
        decoupled = ~np.any(V_sys != 0.0, axis=0)
        assert np.count_nonzero(decoupled) >= 200
        grid = TimeGrid.from_t_max(0.01, 20.0)
        full = _per_time_eig_rows(evals, V_sys, small_init, grid)
        alphas = _propagate(np.where(decoupled, np.nan, evals), V_sys, small_init, grid)
        assert np.max(np.abs(alphas - full)) <= 1e-13

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
    """The eig propagation with the phases exp(-i E t) taken at each t."""
    evals, V = np.linalg.eigh(H)
    return _per_time_eig_rows(evals, V[:N, :], init, grid)


def _per_time_eig_rows(evals, V_sys, init, grid):
    """V_sys exp(-i E t) V_sys^T init over all columns, the phases taken at
    each t, a thousand times per product."""
    c = V_sys.T @ init
    chunks = np.split(grid.times(), np.arange(1000, grid.steps + 1, 1000))
    return np.concatenate([(np.exp(-1j * np.outer(t, evals)) * c) @ V_sys.T
                           for t in chunks])


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

    def test_non_ohmic_is_refused_before_either_side_runs(self, small_model,
                                                           small_init, monkeypatch):
        # The integrator side's cut kernel is closed-form at s = 1 alone, so
        # the exact side's diagonalization and propagation would be wasted.
        def refuse(*args):
            raise AssertionError("the exact side ran at s != 1")

        monkeypatch.setattr(oracle, "arrowhead_eig", refuse)
        with pytest.raises(ParameterError, match="closed-form for s = 1 only"):
            validate_against_oracle(small_model, BathParams(s=2.0), small_init,
                                    TimeGrid.from_t_max(0.002, 10.0))

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
