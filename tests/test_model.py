"""Closed-lattice construction, diagonalization, and eigenstate measures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaah.errors import ParameterError
from gaah.model import (
    GOLDEN_MEAN_CONJUGATE,
    ModelParams,
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
    mobility_edge,
    onsite_profile,
    state_ipr,
)

# Pinned spectrum facts for the default lattice (N = 21, lam = 1,
# Delta = 2.5, a = 0), frozen from an independent diagonalization.
TOP_ENERGY = 2.9655906334675954
BOTTOM_ENERGY = -2.958389421033902


class TestParams:
    def test_defaults(self, model):
        assert model.N == 21
        assert model.lam == 1.0
        assert model.Delta == 2.5
        assert model.a == 0.0
        assert model.beta == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=0)
        assert model.phi == math.pi

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_N(self, bad):
        with pytest.raises(ParameterError, match="model.N"):
            ModelParams(N=bad)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.2, -7.0])
    def test_rejects_deformation_outside_open_interval(self, bad):
        with pytest.raises(ParameterError, match="model.a"):
            ModelParams(a=bad)

    def test_frozen(self, model):
        with pytest.raises(AttributeError):
            model.N = 5


class TestOnsitePotential:
    def test_site_one_plain_potential(self):
        # Independent route: cos(2*pi*beta*1 + pi) = -cos(2*pi*beta).
        expected = -math.cos(2.0 * math.pi * GOLDEN_MEAN_CONJUGATE)
        got = onsite_profile(ModelParams(Delta=1.0))[0]
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.7373688780783198, abs=1e-12)

    def test_site_one_default_strength(self, model):
        assert onsite_profile(model)[0] == pytest.approx(
            1.8434221951958008, abs=1e-12)

    def test_site_one_deformed(self):
        c = -math.cos(2.0 * math.pi * GOLDEN_MEAN_CONJUGATE)
        expected = c / (1.0 - 0.5 * c)
        got = onsite_profile(ModelParams(Delta=1.0, a=0.5))[0]
        assert got == pytest.approx(expected, abs=1e-14)

    def test_zero_strength_is_flat(self):
        params = ModelParams(Delta=0.0)
        assert np.all(onsite_profile(params) == 0.0)

    def test_profile_matches_scalar(self):
        # The deformed potential site by site with scalar math, n = 1..N.
        model = ModelParams(a=0.3)
        profile = onsite_profile(model)
        assert profile.shape == (model.N,)
        for n in range(1, model.N + 1):
            c = math.cos(2.0 * math.pi * model.beta * n + model.phi)
            assert profile[n - 1] == pytest.approx(
                model.Delta * c / (1.0 - model.a * c), abs=1e-14)


class TestHamiltonian:
    def test_shape_and_symmetry(self, model):
        H = build_hamiltonian(model)
        assert H.shape == (model.N, model.N)
        assert np.array_equal(H, H.T)

    def test_ring_structure(self, model):
        H = build_hamiltonian(model)
        off = H - np.diag(np.diag(H))
        # Exactly 2N hopping entries: the two neighbours of each site.
        assert np.count_nonzero(off) == 2 * model.N
        assert H[0, model.N - 1] == model.lam
        assert H[3, 4] == model.lam

    def test_flat_ring_spectrum(self):
        # lam = 1, Delta = 0, N = 3: eigenvalues 2*cos(2*pi*k/3) = {2, -1, -1}.
        eig = diagonalize(build_hamiltonian(ModelParams(N=3, Delta=0.0)))
        assert eig.energies == pytest.approx([-1.0, -1.0, 2.0], abs=1e-12)

    def test_diagonal_matches_profile(self, model):
        H = build_hamiltonian(model)
        assert np.allclose(np.diag(H), onsite_profile(model), atol=1e-14)


class TestDiagonalize:
    def test_ascending_and_orthonormal(self, eig, model):
        assert np.all(np.diff(eig.energies) >= 0.0)
        gram = eig.states.T @ eig.states
        assert np.allclose(gram, np.eye(model.N), atol=1e-12)

    def test_residuals(self, model, eig):
        H = build_hamiltonian(model)
        residual = H @ eig.states - eig.states * eig.energies
        assert np.max(np.abs(residual)) <= 1e-10

    def test_sign_convention(self, eig):
        for i in range(eig.states.shape[1]):
            col = eig.states[:, i]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_pinned_extremes(self, eig):
        assert eig.energies[-1] == pytest.approx(TOP_ENERGY, abs=1e-12)
        assert eig.energies[0] == pytest.approx(BOTTOM_ENERGY, abs=1e-12)

    def test_scalar_matrix(self):
        eig = diagonalize(3.5 * np.eye(4))
        assert np.allclose(eig.energies, 3.5, atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError, match="symmetric"):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMobilityEdge:
    def test_no_edge_without_deformation(self, model):
        assert mobility_edge(model) is None

    def test_edge_value(self):
        # sign(lam) * (2|lam| - |Delta|) / a
        assert mobility_edge(ModelParams(a=0.5, Delta=1.0)) == pytest.approx(2.0)
        assert mobility_edge(ModelParams(a=0.5, Delta=6.0)) == pytest.approx(-8.0)
        assert mobility_edge(ModelParams(a=-0.5, Delta=1.0)) == pytest.approx(-2.0)

    def test_hopping_sign_flips_edge(self):
        plus = mobility_edge(ModelParams(a=0.5, Delta=1.0, lam=1.0))
        minus = mobility_edge(ModelParams(a=0.5, Delta=1.0, lam=-1.0))
        assert minus == pytest.approx(-plus)


class TestStateIpr:
    def test_uniform(self):
        n = 21
        assert state_ipr(np.full(n, 1.0)) == pytest.approx(1.0 / n, abs=1e-14)

    def test_single_site(self):
        v = np.zeros(10)
        v[3] = 2.0
        assert state_ipr(v) == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ParameterError, match="zero vector"):
            state_ipr(np.zeros(5))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_bounds(self, values):
        v = np.asarray(values)
        if np.linalg.norm(v) == 0.0:
            return
        ipr = state_ipr(v)
        assert 1.0 / len(v) - 1e-12 <= ipr <= 1.0 + 1e-12

    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=20),
           st.floats(1e-3, 1e3))
    def test_scale_invariance(self, values, scale):
        v = np.asarray(values)
        if np.linalg.norm(v) == 0.0:
            return
        assert state_ipr(scale * v) == pytest.approx(state_ipr(v), rel=1e-9)

    def test_tiny_vector(self):
        # Its squares are subnormal: 1.9e-156 squared is 3.8e-312.
        v = np.array([0.0, 1.9400474806536402e-156])
        assert state_ipr(v) == 1.0
        assert state_ipr(0.015625 * v) == 1.0


class TestHighestExcitedState:
    def test_matches_top_column(self, eig):
        top = highest_excited_state(eig)
        assert top.dtype == complex
        assert np.allclose(top, eig.states[:, -1], atol=0)

    def test_normalized_eigenvector(self, model, eig, es_state):
        assert np.linalg.norm(es_state) == pytest.approx(1.0, abs=1e-12)
        H = build_hamiltonian(model)
        residual = H @ es_state - eig.energies[-1] * es_state
        assert np.max(np.abs(residual)) <= 1e-10

    def test_localized_top_state(self, es_state):
        # Delta = 2.5 > 2*lam: the top state is localized, far from uniform.
        assert state_ipr(es_state) > 0.3
