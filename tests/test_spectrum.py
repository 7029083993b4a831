"""Characteristic determinant, pole search, and resonance refinement."""

from __future__ import annotations

import cmath
import collections
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from gaah import spectrum
from gaah.bath import BathParams, ResiduePrescription, SigmaMode, self_energy_eval
from gaah.errors import NumericsError, ParameterError, PrescriptionViolationError
from gaah.model import (
    EigenDecomposition,
    ModelParams,
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
)
from gaah.reference import REFERENCE_POLES
from gaah.spectrum import (
    CLUSTER_TOL,
    PoleSearchRegion,
    ResonancePole,
    char_determinant_scaled,
    collective_weights,
    default_search_region,
    find_poles,
    null_vector,
    perturbative_pole_seeds,
    refine_pole,
    scan_grid,
    self_consistent_pole,
    state_overlap,
)

from helpers import (ROTATED_IM_TOL, rotated_bath_poles, scan_grid_row_by_row,
                     seeds_level_by_level, transition_frequency)

HALF = ResiduePrescription.HALF
FULL = ResiduePrescription.FULL

# The two longest-lived default-lattice poles (a = 0, Delta = 2.5, eta = 0.1).
POLE_1 = 2.952238 - 5.062298e-6j
POLE_2 = 2.882305 - 5.312399e-5j

# The top two default-lattice poles off s = 1 (a = 0, Delta = 2.5,
# eta = 0.1, default window), by (s, prescription), as the subtracted
# principal-value quadrature found them; every search holds 10 poles.
NON_OHMIC_POLES = {
    (0.5, "half"): (2.9522361931450054 - 9.589058480115723e-06j,
                    2.882283568599994 - 0.00010028469655943408j),
    (0.5, "full"): (2.9522293856884656 - 9.66673433544008e-06j,
                    2.882211922766392 - 0.00010246524270825615j),
    (0.75, "half"): (2.9522375498249707 - 6.954985702668479e-06j,
                     2.8822981655415463 - 7.288416207670866e-05j),
    (0.75, "full"): (2.952232350630786 - 9.11505568676449e-06j,
                     2.8822437741139093 - 9.654493626791288e-05j),
    (1.5, "half"): (2.952238140298099 - 2.5459331808551566e-06j,
                    2.8823055437828002 - 2.668135704692418e-05j),
    (1.5, "full"): (2.9522370180762527 - 4.727282426533054e-06j,
                    2.8822940220683466 - 4.9712722627360796e-05j),
    (2.0, "half"): (2.952236495432182 - 1.0861873960385661e-06j,
                    2.882288158025486 - 1.130109788612918e-05j),
    (2.0, "full"): (2.952236249038135 - 2.134219130102696e-06j,
                    2.8822856773652314 - 2.223102657002407e-05j),
}

DECOUPLED = BathParams(eta=0.0)


def _characteristic_matrix(model, bath, E, prescription=HALF,
                           sigma_mode=SigmaMode.AUTO):
    """Oracle: the dense M(E) = H_S + Sigma(E) U - E I, U all ones."""
    sigma = self_energy_eval(bath, E, prescription, sigma_mode)
    M = build_hamiltonian(model) + sigma * np.ones((model.N, model.N), dtype=complex)
    M[np.diag_indices(model.N)] -= E
    return M


def _char_determinant(model, bath, E, prescription=HALF, sigma_mode=SigmaMode.AUTO):
    """det M(E) itself, unscaled from the shipped secular form."""
    log_abs, phase = char_determinant_scaled(model, bath, E, prescription, sigma_mode)
    return cmath.exp(log_abs) * phase


def _secular_resolvent(model, bath, dec, E):
    """g(E) = <1| (H_S - E)^{-1} |1> read back from the shipped secular
    determinant, det M = prod_m (lambda_m - E) * (1 + Sigma g)."""
    F = _char_determinant(model, bath, E, HALF, SigmaMode.CONTINUED) / complex(
        np.prod(dec.energies - E))
    return (F - 1.0) / self_energy_eval(bath, E, HALF, SigmaMode.CONTINUED)


def _crossing_points(grid):
    """Oracle: centers of the grid cells whose four corners straddle zero
    (touching counts) in both Re det and Im det, skipping cells where the
    determinant vanishes on every corner."""
    rs, ims = grid.phase.real, grid.phase.imag
    points = []
    for i in range(len(grid.im) - 1):
        for j in range(len(grid.re) - 1):
            r = rs[i:i + 2, j:j + 2]
            m = ims[i:i + 2, j:j + 2]
            if np.all(r == 0.0) and np.all(m == 0.0):
                continue
            if r.min() <= 0.0 <= r.max() and m.min() <= 0.0 <= m.max():
                points.append(complex(0.5 * (grid.re[j] + grid.re[j + 1]),
                                      0.5 * (grid.im[i] + grid.im[i + 1])))
    return points


def _lu_determinant_scaled(model, bath, E, prescription=HALF,
                           sigma_mode=SigmaMode.AUTO):
    """Oracle: det M(E) from a dense LU factorization of M, in the scaled
    (log|det|, phase) form of char_determinant_scaled."""
    M = _characteristic_matrix(model, bath, E, prescription, sigma_mode)
    lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    diag = np.diag(lu)
    mags = np.abs(diag)
    phase = complex(np.prod(diag / mags))
    # each row interchange flips the determinant sign
    if int(np.sum(piv != np.arange(len(piv)))) % 2:
        phase = -phase
    return float(np.sum(np.log(mags))), phase


def _grid_minima_loop(grid):
    """Oracle: interior strict local minima of ln|det| by a cell loop, sorted
    from deepest up (a stable sort keeps ties in row-major order)."""
    A = grid.log_abs
    seeds = []
    for i in range(1, A.shape[0] - 1):
        for j in range(1, A.shape[1] - 1):
            block = A[i - 1:i + 2, j - 1:j + 2].ravel()
            if np.all(A[i, j] < np.delete(block, 4)):
                seeds.append((A[i, j], complex(grid.re[j], grid.im[i])))
    seeds.sort(key=lambda t: t[0])
    return [e for _, e in seeds]


def _polished_one_by_one(refine, model, bath, region, seeds, sigma_mode):
    """Oracle: find_poles' filters over seeds that ``refine`` polishes one
    at a time: a seed that raises, does not converge or lands outside the
    window is dropped, and a pole within CLUSTER_TOL of an earlier seed's is
    a duplicate; sorted by descending Re(E)."""
    poles = []
    for seed in seeds:
        try:
            pole = refine(model, bath, seed, HALF, sigma_mode)
        except (ParameterError, NumericsError, PrescriptionViolationError):
            continue
        E = pole.energy
        inside = (region.re_min - CLUSTER_TOL <= E.real <= region.re_max + CLUSTER_TOL
                  and region.im_min - CLUSTER_TOL <= E.imag
                  <= region.im_max + CLUSTER_TOL)
        if pole.converged and inside and not any(
                abs(E - p.energy) < CLUSTER_TOL * (1.0 + abs(E)) for p in poles):
            poles.append(pole)
    poles.sort(key=lambda p: -p.energy.real)
    return poles


def _grid_seeded_poles(model, bath, region, sigma_mode=SigmaMode.AUTO):
    """Oracle: the retired search.  It polished the interior strict minima
    of ln|det| on a 200x80 scan first and the rank-one seeds after them,
    with find_poles' window filter and duplicate rule."""
    grid = scan_grid(model, bath, region, 200, 80, HALF, sigma_mode)
    seeds = _grid_minima_loop(grid) + perturbative_pole_seeds(
        model, bath, region, HALF, sigma_mode)
    return _polished_one_by_one(refine_pole, model, bath, region, seeds, sigma_mode)


def _resummed_seeds(model, bath, region, prescription=HALF,
                    sigma_mode=SigmaMode.AUTO):
    """Oracle: the per-level seeds in their first-order form,
    lambda_k + w_k Sigma / (1 + Sigma g_reg), with g_reg the resolvent at
    lambda_k without its own level (np.delete), summed exactly (math.fsum:
    where its terms cancel, a plain sum errs by more than the search's
    seed), then the gap midpoints; both over the levels from the last
    below the window through the first above it, where Sigma can be
    evaluated."""
    dec = diagonalize(build_hamiltonian(model))
    w = collective_weights(dec)
    lam = dec.energies
    below = [k for k in range(model.N) if lam[k] < region.re_min]
    above = [k for k in range(model.N) if lam[k] > region.re_max]
    levels = range(below[-1] if below else 0, above[0] + 1 if above else model.N)
    seeds, mids = [], []
    for k in levels:
        try:
            sig = self_energy_eval(bath, complex(lam[k]), prescription, sigma_mode)
        except ParameterError:
            continue
        g_reg = math.fsum(np.delete(w, k) / (np.delete(lam, k) - lam[k]))
        seeds.append(complex(lam[k]) + w[k] * sig / (1.0 + sig * g_reg))
    for k in levels[:-1]:
        mid = 0.5 * (lam[k] + lam[k + 1])
        try:
            self_energy_eval(bath, mid, prescription, sigma_mode)
        except ParameterError:
            continue
        mids.append(complex(mid))
    return seeds + mids


def _inverse_iteration_null_vector(model, bath, E, prescription=HALF,
                                   sigma_mode=SigmaMode.AUTO, sweeps=3):
    """Oracle: null direction of M(E) by inverse iteration, started from the
    H_S eigenvector nearest Re(E), with null_vector's phase convention."""
    dec = diagonalize(build_hamiltonian(model))
    v = dec.states[:, int(np.argmin(np.abs(dec.energies - E.real)))].astype(complex)
    lu_piv = scipy.linalg.lu_factor(
        _characteristic_matrix(model, bath, E, prescription, sigma_mode),
        check_finite=False)
    for _ in range(sweeps):
        v = scipy.linalg.lu_solve(lu_piv, v, check_finite=False)
        v /= np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    return v * np.exp(-1j * np.angle(v[k]))


def _stencil_refine_pole(model, bath, seed, prescription=HALF,
                         sigma_mode=SigmaMode.AUTO, dec=None):
    """Oracle: the retired refinement.  A damped 2D Newton on the scaled
    det M(E) with a five-point central-difference Jacobian, the stencil
    sharing one common scale, and the same backtracking and clamping."""
    dec = dec if dec is not None else diagonalize(build_hamiltonian(model))

    def det(E, scale):
        log_abs, phase = char_determinant_scaled(model, bath, E, prescription,
                                                 sigma_mode, dec=dec)
        return cmath.exp(log_abs - scale) * phase

    x, y = float(seed.real), float(seed.imag)
    it, converged, resid = 0, False, np.inf
    for it in range(1, spectrum.NEWTON_MAX_ITER + 1):
        h = 1e-7 * (1.0 + np.hypot(x, y))
        pts = [complex(x, y), complex(x + h, y), complex(x - h, y),
               complex(x, y + h), complex(x, y - h)]
        scaled = [char_determinant_scaled(model, bath, E, prescription, sigma_mode,
                                          dec=dec) for E in pts]
        scale = max(la for la, _ in scaled)
        if scale == -np.inf:
            converged, resid = True, 0.0
            break
        D = [cmath.exp(la - scale) * ph for la, ph in scaled]
        F = np.array([D[0].real, D[0].imag])
        resid = float(np.hypot(*F))
        J = np.array([
            [(D[1].real - D[2].real) / (2 * h), (D[3].real - D[4].real) / (2 * h)],
            [(D[1].imag - D[2].imag) / (2 * h), (D[3].imag - D[4].imag) / (2 * h)],
        ])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"singular Newton Jacobian near E = {complex(x, y)}") \
                from exc
        lam_bt = 1.0
        for _ in range(6):
            xn, yn = x + lam_bt * step[0], y + lam_bt * step[1]
            if abs(det(complex(xn, yn), scale)) <= resid or lam_bt < 0.05:
                break
            lam_bt *= 0.5
        x, y = x + lam_bt * step[0], y + lam_bt * step[1]
        if lam_bt * np.hypot(*step) < spectrum.POLE_TOL * (1.0 + np.hypot(x, y)):
            converged = True
            break
    if y > spectrum.IM_CLAMP:
        raise PrescriptionViolationError(complex(x, y))
    if 0.0 < y <= spectrum.IM_CLAMP:
        y = 0.0
    energy = complex(x, y)
    vec = null_vector(model, bath, energy, dec=dec)
    return ResonancePole(energy=energy, vector=vec,
                         overlap=state_overlap(vec, highest_excited_state(dec)),
                         iterations=it, converged=converged, residual=resid)


def _cluster_means(xs, tol=0.02):
    xs = sorted(xs)
    clusters = [[xs[0]]]
    for x in xs[1:]:
        if x - clusters[-1][-1] <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [sum(c) / len(c) for c in clusters]


class TestCharacteristicMatrix:
    def test_decoupled_structure(self, model):
        E = 1.3 - 0.2j
        M = _characteristic_matrix(model, DECOUPLED, E)
        H = build_hamiltonian(model)
        assert np.allclose(M, H - E * np.eye(model.N), atol=0)

    def test_rank_one_dressing(self, model, bath):
        E = 2.9 - 0.01j
        sigma = self_energy_eval(bath, E, HALF, SigmaMode.CONTINUED)
        M = _characteristic_matrix(model, bath, E, HALF, SigmaMode.CONTINUED)
        H = build_hamiltonian(model)
        # Every entry is shifted by the same sigma; the diagonal further
        # subtracts E.
        assert np.allclose(M - (H - E * np.eye(model.N)), sigma, atol=1e-14)


class TestDeterminant:
    def test_decoupled_equals_eigen_product(self, model, eig):
        for E in (0.3 - 0.1j, 2.0 + 0.05j, -1.7 - 0.4j):
            direct = _char_determinant(model, DECOUPLED, E)
            expected = complex(np.prod(eig.energies - E))
            assert direct == pytest.approx(expected, rel=1e-9)

    def test_tiny_at_eigenvalue(self, model, eig):
        at = char_determinant_scaled(model, DECOUPLED, complex(eig.energies[-1]))[0]
        between = char_determinant_scaled(
            model, DECOUPLED, complex(0.5 * (eig.energies[-1] + eig.energies[-2])))[0]
        assert at < between - 20.0  # |det| smaller by > e^20

    @pytest.mark.parametrize("E", [2.9 - 0.01j, 2.5 - 1e-4j, 3.2 - 0.15j])
    def test_lu_vs_rank_one_lemma(self, model, bath, E):
        # The secular route (rank-one update of the eigenvalue product)
        # against the dense LU oracle.  Both scaled as (log|det|, phase).
        la_lu, ph_lu = _lu_determinant_scaled(model, bath, E)
        la_lm, ph_lm = char_determinant_scaled(model, bath, E)
        assert la_lu == pytest.approx(la_lm, abs=1e-9)
        assert abs(ph_lu - ph_lm) < 1e-9

    @pytest.mark.parametrize("level", [-1, 0])
    def test_lu_vs_secular_exactly_on_a_level(self, model, bath, eig, level):
        # g(E) has a pole at every lambda_m, but det M stays finite there.
        E = complex(eig.energies[level])
        sigma_mode = SigmaMode.CONTINUED if E.real > 0 else SigmaMode.REAL_AXIS
        la_lu, ph_lu = _lu_determinant_scaled(model, bath, E, HALF, sigma_mode)
        la, ph = char_determinant_scaled(model, bath, E, HALF, sigma_mode)
        assert la == pytest.approx(la_lu, abs=1e-9)
        assert abs(ph - ph_lu) < 1e-9

    def test_decoupled_zero_exactly_on_a_level(self, model, eig):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            la, ph = char_determinant_scaled(model, DECOUPLED,
                                             complex(eig.energies[-1]))
        assert la == -np.inf
        assert ph == 1.0

    def test_exact_hits_on_the_flat_ring(self):
        # The Delta = 0 ring of 4 sites, diagonalized by hand so that its
        # levels -2, 0, 0, 2 are exactly degenerate and every state but the
        # uniform one has w = 0 exactly.  A single hit on a w = 0 level and
        # the double hit on the degenerate pair are zeros of det M; the hit
        # on the uniform level is not.
        r, h = 1.0 / np.sqrt(2.0), 0.5
        states = np.array([[h, r, 0.0, h], [-h, 0.0, r, h],
                           [h, -r, 0.0, h], [-h, 0.0, -r, h]])
        energies = np.array([-2.0, 0.0, 0.0, 2.0])
        H = build_hamiltonian(ModelParams(N=4, Delta=0.0))
        assert np.max(np.abs(H @ states - states * energies)) <= 1e-15
        dec = EigenDecomposition(energies=energies, states=states)
        assert np.array_equal(collective_weights(dec), [0.0, 0.0, 0.0, 4.0])
        sigma = -0.3 - 0.1j
        E = np.array([-2.0, 0.0, 2.0, 0.7 - 0.2j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_abs, phase = spectrum._secular_scaled(dec, E.astype(complex), sigma)
        assert list(log_abs[:2]) == [-np.inf, -np.inf]
        assert list(phase[:2]) == [1.0, 1.0]
        for i in (2, 3):
            dense = complex(np.linalg.det(H + sigma - E[i] * np.eye(4)))
            assert cmath.exp(log_abs[i]) * phase[i] == pytest.approx(dense, rel=1e-13)

    def test_h_alone_has_the_kernel_bits(self, eig, bath):
        # The scan and the Newton's backtracking take h without its
        # partials; the determinant and the poles must not move a bit.
        lam, w = eig.energies, collective_weights(eig)
        E = np.linspace(lam[0] - 1.0, lam[-1] + 1.0, 301) - 0.03j
        E[::60] = lam[::4]  # exactly on levels too
        k = np.abs(lam - E.real[:, None]).argmin(axis=1)
        sigma = self_energy_eval(bath, E, HALF, SigmaMode.REAL_AXIS)
        with np.errstate(divide="ignore", invalid="ignore"):
            row = spectrum._deflated_h(lam, w, E, sigma, k)
            assert np.array_equal(row, spectrum._deflated_secular(lam, w, E, sigma, k)[0])
            for i in range(0, E.size, 25):
                scalar = spectrum._deflated_h(lam, w, E[i], sigma[i], k[i])
                assert scalar == spectrum._deflated_secular(lam, w, E[i], sigma[i], k[i])[0]

    def test_scaled_determinant_takes_h_from_the_kernel(self, eig, bath):
        # The scan forms lambda - E once per cell and h from those same
        # differences; it must give the bits of the product of the
        # differences with h put in by _deflated_h.
        lam, w = eig.energies, collective_weights(eig)
        E = np.linspace(lam[0] - 1.0, lam[-1] + 1.0, 301) - 0.03j
        E[::60] = lam[::4]
        k = np.abs(lam - E.real[:, None]).argmin(axis=1)
        sigma = self_energy_eval(bath, E, HALF, SigmaMode.REAL_AXIS)
        z = lam - E[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            z[np.arange(E.size), k] = spectrum._deflated_h(lam, w, E, sigma, k)
            log_abs, phase = spectrum._secular_scaled(eig, E, sigma)
        assert np.array_equal(log_abs, np.log(np.abs(z)).sum(axis=1))
        assert np.array_equal(phase, (z / np.abs(z)).prod(axis=1))

    def test_conjugate_symmetry_decoupled(self, model):
        # Real symmetric matrix: det(conj E) = conj(det E) exactly.
        E = 2.9 - 0.05j
        d = _char_determinant(model, DECOUPLED, E)
        d_conj = _char_determinant(model, DECOUPLED, E.conjugate())
        assert d_conj == pytest.approx(d.conjugate(), rel=1e-12)

    def test_conjugate_symmetry_broken_by_retarded_bath(self, model, bath):
        # The dressed determinant is built from the retarded self-energy,
        # whose -i*c*J(Re E) branch is fixed regardless of the sign of Im E,
        # so Schwarz reflection does not hold once eta > 0.
        E = 2.9 - 0.05j
        d = _char_determinant(model, bath, E, sigma_mode=SigmaMode.REAL_AXIS)
        d_conj = _char_determinant(model, bath, E.conjugate(),
                                   sigma_mode=SigmaMode.REAL_AXIS)
        assert abs(d_conj - d.conjugate()) / abs(d) > 0.1

    def test_scaled_form_consistent(self, model, bath):
        E = 2.95 - 1e-5j
        log_abs, phase = char_determinant_scaled(model, bath, E)
        assert abs(phase) == pytest.approx(1.0, abs=1e-12)
        dense = complex(np.linalg.det(_characteristic_matrix(model, bath, E)))
        assert cmath.exp(log_abs) * phase == pytest.approx(dense, rel=1e-9)


class TestCollectiveChannel:
    def test_weights_sum_to_site_count(self, model, eig):
        w = collective_weights(eig)
        assert np.all(w >= 0.0)
        assert float(np.sum(w)) == pytest.approx(model.N, rel=1e-12)

    def test_resolvent_against_linear_solve(self, model, bath, eig):
        # Dual route: g(E) inside the secular determinant vs a direct solve
        # of (H - E) x = 1.
        E = 3.5 - 0.1j
        H = build_hamiltonian(model).astype(complex)
        x = np.linalg.solve(H - E * np.eye(model.N), np.ones(model.N))
        assert _secular_resolvent(model, bath, eig, E) == pytest.approx(
            complex(x.sum()), rel=1e-10)

    def test_resolvent_residue(self, model, bath, eig):
        # (lambda_m - E) g(E) -> w_m as E -> lambda_m.
        w = collective_weights(eig)
        lam = float(eig.energies[-1])
        E = complex(lam + 1e-9)
        value = (lam - E) * _secular_resolvent(model, bath, eig, E)
        assert value.real == pytest.approx(w[-1], rel=1e-5)


class TestSearchRegion:
    def test_validation(self):
        with pytest.raises(ParameterError, match="extent"):
            PoleSearchRegion(2.0, 1.0, -0.1, 0.0)
        with pytest.raises(ParameterError, match="extent"):
            PoleSearchRegion(1.0, 2.0, 0.0, 0.0)

    def test_default_region_brackets_top_level(self, model, eig):
        region = default_search_region(model)
        top = float(eig.energies[-1])
        assert region.re_min > 0.0  # keeps the continued mode usable
        assert region.re_min < top < region.re_max
        assert region.im_min == pytest.approx(-0.2)
        assert region.im_max == 0.0

    def test_default_region_clips_at_zero(self):
        # A weak lattice puts top - margin below zero; the window must stop
        # at the positive axis instead.
        region = default_search_region(ModelParams(Delta=0.5))
        assert region.re_min == pytest.approx(1e-6)


@pytest.fixture(scope="module")
def fine_window():
    return PoleSearchRegion(2.85, 3.0, -1e-4, 0.0)


@pytest.fixture(scope="module")
def poles(model, bath):
    return find_poles(model, bath, default_search_region(model))


class TestScanGrid:
    def test_validation(self, model, bath):
        region = PoleSearchRegion(2.8, 3.0, -0.1, 0.0)
        with pytest.raises(ParameterError, match="at least 2"):
            scan_grid(model, bath, region, n_re=1, n_im=10)

    def test_shapes_and_phase(self, model, bath, fine_window):
        grid = scan_grid(model, bath, fine_window, n_re=40, n_im=12)
        assert grid.log_abs.shape == (12, 40)
        assert grid.phase.shape == (12, 40)
        assert np.allclose(np.abs(grid.phase), 1.0, atol=1e-12)
        assert set(np.unique(grid.sign_re())) <= {-1, 0, 1}
        assert set(np.unique(grid.sign_im())) <= {-1, 0, 1}

    def test_crossings_cluster_at_the_two_poles(self, model, bath, fine_window):
        grid = scan_grid(model, bath, fine_window, n_re=120, n_im=48)
        points = _crossing_points(grid)
        assert points
        means = _cluster_means([p.real for p in points])
        assert len(means) == 2
        assert means[0] == pytest.approx(POLE_2.real, abs=0.01)
        assert means[1] == pytest.approx(POLE_1.real, abs=0.01)

    def test_crossing_clusters_stable_under_refinement(self, model, bath,
                                                       fine_window):
        grid = scan_grid(model, bath, fine_window, n_re=240, n_im=96)
        means = _cluster_means([p.real for p in _crossing_points(grid)])
        assert len(means) == 2
        assert means[0] == pytest.approx(POLE_2.real, abs=0.005)
        assert means[1] == pytest.approx(POLE_1.real, abs=0.005)

    @pytest.mark.parametrize("sigma_mode", [SigmaMode.CONTINUED, SigmaMode.REAL_AXIS])
    def test_matches_lu_oracle(self, model, bath, fine_window, sigma_mode):
        grid = scan_grid(model, bath, fine_window, n_re=30, n_im=12,
                         sigma_mode=sigma_mode)
        lu = [[_lu_determinant_scaled(model, bath, complex(x, y), HALF, sigma_mode)
               for x in grid.re] for y in grid.im]
        log_abs = np.array([[la for la, _ in row] for row in lu])
        phase = np.array([[ph for _, ph in row] for row in lu])
        assert np.max(np.abs(grid.log_abs - log_abs)) <= 1e-10
        # Signs are compared where the component is not lost in roundoff.
        for part in ("real", "imag"):
            ours, theirs = getattr(grid.phase, part), getattr(phase, part)
            clear = np.abs(theirs) > 1e-8
            assert np.all(np.sign(ours[clear]) == np.sign(theirs[clear]))

    @pytest.mark.parametrize("b, sigma_mode", [
        (BathParams(), SigmaMode.AUTO), (BathParams(), SigmaMode.REAL_AXIS),
        (BathParams(s=0.5), SigmaMode.AUTO)], ids=["ohmic", "ohmic-real-axis", "s0.5"])
    def test_sigma_once_per_scan_changes_no_grid_value(self, model, b, sigma_mode):
        # Sigma is taken for the whole scan in one call; row by row it gave
        # the same grid, bit for bit.
        region = default_search_region(model)
        grid = scan_grid(model, b, region, prescription=FULL, sigma_mode=sigma_mode)
        rows = scan_grid_row_by_row(model, b, region, prescription=FULL, sigma_mode=sigma_mode)
        assert np.array_equal(grid.log_abs, rows.log_abs)
        assert np.array_equal(grid.phase, rows.phase)

    def test_decoupled_crossings_at_top_eigenvalue(self, model, eig):
        # Window narrow enough to hold exactly one closed-system level (the
        # next one sits 0.025 below the top).
        top = float(eig.energies[-1])
        region = PoleSearchRegion(top - 0.012, top + 0.012, -1e-4, 0.0)
        grid = scan_grid(model, DECOUPLED, region, n_re=80, n_im=16)
        points = _crossing_points(grid)
        assert points
        assert all(abs(p.real - top) < 0.005 for p in points)


class TestRefinePole:
    def test_top_pole(self, model, bath):
        pole = refine_pole(model, bath, 2.95 - 1e-5j)
        assert pole.converged
        assert pole.energy.real == pytest.approx(POLE_1.real, abs=5e-6)
        assert pole.energy.imag == pytest.approx(POLE_1.imag, rel=1e-3)
        assert pole.energy.imag <= 0.0
        assert pole.overlap == pytest.approx(0.498776, abs=1e-4)

    def test_second_pole(self, model, bath):
        pole = refine_pole(model, bath, 2.883 - 5e-5j)
        assert pole.energy.real == pytest.approx(POLE_2.real, abs=5e-6)
        assert pole.energy.imag == pytest.approx(POLE_2.imag, rel=1e-3)

    def test_null_vector_annihilated(self, model, bath):
        pole = refine_pole(model, bath, 2.95 - 1e-5j)
        M = _characteristic_matrix(model, bath, pole.energy)
        assert np.linalg.norm(pole.vector) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(M @ pole.vector) <= 1e-8

    def test_decoupled_pole_is_real_eigenvalue(self, model, eig):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pole = refine_pole(model, DECOUPLED, 2.96 - 1e-3j)
        assert pole.energy.imag == 0.0
        assert pole.energy.real == pytest.approx(float(eig.energies[-1]), abs=1e-9)
        assert np.allclose(pole.vector, eig.states[:, -1], atol=1e-9)

    def test_decoupled_seed_exactly_on_the_top_level(self, model, eig):
        # There g(E) is infinite; the search must still stop on the level.
        top = float(eig.energies[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pole = refine_pole(model, DECOUPLED, complex(top))
        assert pole.converged
        assert pole.energy == top
        assert np.array_equal(pole.vector, eig.states[:, -1].astype(complex))
        assert pole.overlap == pytest.approx(1.0, abs=1e-12)

    def test_far_pole_converges_quadratically(self, model, bath):
        # Far below the real axis the h_Sigma Sigma' term weighs in the
        # Jacobian.  Without it the continued Newton still converges to the
        # second-sheet pole near 25.41 - 11.75i, but in about 40 steps.
        seed = 25.0 - 11.0j
        full = ResiduePrescription.FULL
        pole = refine_pole(model, bath, seed, full, SigmaMode.CONTINUED)
        oracle = _stencil_refine_pole(model, bath, seed, full, SigmaMode.CONTINUED)
        assert pole.converged
        assert pole.iterations <= 8
        assert abs(pole.energy - oracle.energy) <= 1e-12 * (1.0 + abs(oracle.energy))

    def test_agrees_with_self_consistent_route(self, model, bath):
        # Independent routes: 2D Newton on det M vs fixed-point iteration on
        # the dressed eigenvalue problem.
        newton = refine_pole(model, bath, 2.95 - 1e-5j).energy
        fixed = self_consistent_pole(model, bath, 2.95 - 1e-5j)
        assert abs(newton - fixed) < 1e-9

    def test_seed_outside_the_sigma_domain_raises_the_bath_error(self, model, bath):
        with pytest.raises(ParameterError, match="continued self-energy needs Re"):
            refine_pole(model, bath, -1.0 - 0.01j)
        with pytest.raises(ParameterError, match="outside guard range"):
            refine_pole(model, bath, 500.0 - 0.01j, HALF, SigmaMode.REAL_AXIS)

    @pytest.mark.parametrize("case", [
        (ModelParams(), BathParams(), SigmaMode.CONTINUED),
        (ModelParams(), BathParams(eta=1.0), SigmaMode.CONTINUED),
        (ModelParams(a=0.5, Delta=1.0), BathParams(), SigmaMode.REAL_AXIS),
        (ModelParams(), BathParams(s=0.75), SigmaMode.REAL_AXIS),
        (ModelParams(), BathParams(eta=0.0), SigmaMode.CONTINUED),
    ], ids=["default", "eta1", "real-axis", "s0.75", "decoupled"])
    def test_batched_polish_is_the_one_seed_call(self, case):
        # Polishing seeds together changes no seed's arithmetic: each ends
        # bit for bit where refine_pole takes it alone, after as many
        # iterations, or raises there what the batch records as its fate.
        # The wild seeds leave Sigma's domain or cross the real axis.
        model, bath, mode = case
        dec = diagonalize(build_hamiltonian(model))
        seeds = perturbative_pole_seeds(model, bath, default_search_region(model),
                                        HALF, mode, dec=dec)
        seeds += [complex(x, y) for x in np.linspace(0.5, 4.0, 8) for y in (0.3, -1.0, -2.0)]
        E, iterations, resid, fate = spectrum._polish(dec, bath, seeds, HALF, mode)
        raised = {"domain": ParameterError, "violation": PrescriptionViolationError}
        for i, seed in enumerate(seeds):
            if fate[i] in raised:
                with pytest.raises(raised[fate[i]]):
                    refine_pole(model, bath, seed, HALF, mode, dec=dec)
                continue
            pole = refine_pole(model, bath, seed, HALF, mode, dec=dec)
            assert (pole.energy, pole.iterations, pole.residual, pole.converged) == (
                E[i], iterations[i], resid[i], fate[i] == "")
        if bath.eta == 0.1 and mode is SigmaMode.CONTINUED:
            assert set(fate) == {"", "domain", "violation"}

    def test_violation_error_payload(self):
        err = PrescriptionViolationError(1.0 + 0.5j)
        assert err.energy == 1.0 + 0.5j
        assert "1" in str(err)


class TestPoleTrends:
    def test_weak_coupling_limit(self, model, eig):
        # As eta -> 0 the top pole slides onto the closed-system eigenvalue
        # and its width approaches the golden-rule rate
        # c * w_top * J(lambda_top), with c the residue factor and w_top the
        # collective weight of the top eigenstate.  (The width itself is not
        # monotone in eta: by eta ~ 1e-3 the collective dressing already
        # suppresses it far below the golden-rule line.)
        from gaah.bath import spectral_density
        top = float(eig.energies[-1])
        w_top = collective_weights(eig)[-1]
        distances, ratios = [], []
        for eta in (1e-4, 1e-5, 1e-6):
            b = BathParams(eta=eta)
            pole = refine_pole(model, b, top - 1e-6j)
            golden = HALF.residue_factor * w_top * spectral_density(b, top)
            distances.append(abs(pole.energy - top))
            ratios.append(abs(pole.energy.imag) / golden)
        assert distances[0] > distances[1] > distances[2]
        assert ratios[1] == pytest.approx(1.0, abs=0.1)
        assert ratios[2] == pytest.approx(1.0, abs=0.02)

    def test_gap_grows_with_potential_strength(self, bath):
        gaps = []
        for delta in (1.0, 2.5, 6.0):
            model = ModelParams(Delta=delta)
            poles = find_poles(model, bath, default_search_region(model))
            assert len(poles) >= 2
            gaps.append(transition_frequency(poles[0], poles[1]))
        assert gaps[0] < gaps[1] < gaps[2]

    def test_stronger_coupling_narrows_strong_lattice_lines(self):
        # Delta = 6 sits in the overdamped regime: raising eta from 0.1 to
        # 0.5 *narrows* the second resonance.
        model = ModelParams(Delta=6.0)
        weak = refine_pole(model, BathParams(eta=0.1), 5.9587 - 4e-3j)
        strong = refine_pole(model, BathParams(eta=0.5), 5.9539 - 8e-4j)
        assert abs(strong.energy.imag) < abs(weak.energy.imag)


class TestFindPoles:
    def test_top_two_match_reference(self, poles):
        assert len(poles) >= 2
        assert poles[0].energy.real == pytest.approx(POLE_1.real, abs=5e-6)
        assert poles[0].energy.imag == pytest.approx(POLE_1.imag, rel=1e-3)
        assert poles[1].energy.real == pytest.approx(POLE_2.real, abs=5e-6)
        assert poles[1].energy.imag == pytest.approx(POLE_2.imag, rel=1e-3)

    def test_sorted_and_deduplicated(self, poles):
        res = [p.energy.real for p in poles]
        assert res == sorted(res, reverse=True)
        for i, p in enumerate(poles):
            assert p.converged
            assert p.energy.imag <= 0.0
            for q in poles[i + 1:]:
                assert abs(p.energy - q.energy) > 1e-6

    def test_beat_frequency(self, poles):
        assert transition_frequency(poles[0], poles[1]) == pytest.approx(
            0.069933, abs=1e-5)

    @pytest.mark.parametrize("case", [
        *[(key, SigmaMode.AUTO, 1.0) for key in sorted(REFERENCE_POLES)],
        ((0.5, 1.0, 0.1), SigmaMode.REAL_AXIS, 1.0),
        ((0.0, 2.5, 0.1), SigmaMode.AUTO, 0.75),
    ], ids=lambda c: "a{:g}-Delta{:g}-eta{:g}-{}-s{:g}".format(*c[0], c[1].value, c[2]))
    def test_matches_the_grid_seeded_search(self, case):
        # Seeding from the rank-one structure alone loses no pole that the
        # retired determinant-scan seeds reached.
        (a, delta, eta), sigma_mode, s = case
        model = ModelParams(a=a, Delta=delta)
        bath = BathParams(eta=eta, s=s)
        region = default_search_region(model)
        found = find_poles(model, bath, region, HALF, sigma_mode)
        expected = _grid_seeded_poles(model, bath, region, sigma_mode)
        assert len(found) == len(expected) >= 2
        for p, q in zip(found, expected):
            assert abs(p.energy - q.energy) <= 1e-12

    @pytest.mark.parametrize("case", [
        *[(key, SigmaMode.AUTO, 1.0) for key in sorted(REFERENCE_POLES)],
        *[(key, SigmaMode.REAL_AXIS, 1.0)
          for key in ((0.0, 1.0, 0.1), (0.5, 0.5, 0.1), (0.5, 1.0, 0.1))],
        ((0.0, 2.5, 0.1), SigmaMode.REAL_AXIS, 0.75),
    ], ids=lambda c: "a{:g}-Delta{:g}-eta{:g}-{}-s{:g}".format(*c[0], c[1].value, c[2]))
    def test_matches_the_stencil_newton(self, case):
        # The analytic-Jacobian Newton on the deflated secular function finds
        # the poles the retired five-point-stencil Newton on det M found from
        # the same seeds, polished one at a time.
        (a, delta, eta), sigma_mode, s = case
        model = ModelParams(a=a, Delta=delta)
        bath = BathParams(eta=eta, s=s)
        region = default_search_region(model)
        found = find_poles(model, bath, region, HALF, sigma_mode)
        seeds = perturbative_pole_seeds(model, bath, region, HALF, sigma_mode)
        expected = _polished_one_by_one(_stencil_refine_pole, model, bath, region,
                                        seeds, sigma_mode)
        assert len(found) == len(expected) >= 2
        for p, q in zip(found, expected):
            assert abs(p.energy - q.energy) <= 1e-12 * (1.0 + abs(q.energy))
            assert abs(p.overlap - q.overlap) <= 1e-12

    @pytest.mark.parametrize("case", [
        *[(key, SigmaMode.AUTO) for key in sorted(REFERENCE_POLES)],
        *[(key, SigmaMode.REAL_AXIS)
          for key in ((0.0, 1.0, 0.1), (0.5, 0.5, 0.1), (0.5, 1.0, 0.1))],
    ], ids=lambda c: "a{:g}-Delta{:g}-eta{:g}-{}".format(*c[0], c[1].value))
    def test_seeds_are_the_resummed_estimate(self, case):
        # One fixed-Sigma Newton step of the secular function from a level is
        # the resummed first-order estimate, up to the order of the sum over
        # the other levels.  The scale is POLE_TOL's, 1 + |E|: against |E|
        # alone seeds near 0.2-0.3 differ by up to 1.5e-15.
        (a, delta, eta), sigma_mode = case
        model = ModelParams(a=a, Delta=delta)
        bath = BathParams(eta=eta)
        region = default_search_region(model)
        seeds = perturbative_pole_seeds(model, bath, region, HALF, sigma_mode)
        expected = _resummed_seeds(model, bath, region, HALF, sigma_mode)
        assert len(seeds) == len(expected) >= 2
        for seed, ref in zip(seeds, expected):
            assert abs(seed - ref) <= 1e-15 * (1.0 + abs(ref))

    @pytest.mark.parametrize("key", sorted(NON_OHMIC_POLES), ids="s{0[0]:g}-{0[1]}".format)
    def test_non_ohmic_poles_are_pinned(self, model, key):
        s, prescription = key
        found = find_poles(model, BathParams(s=s), default_search_region(model),
                           ResiduePrescription(prescription))
        assert len(found) == 10
        for pole, expected in zip(found, NON_OHMIC_POLES[key]):
            assert abs(pole.energy.real - expected.real) <= 1e-12
            assert abs(pole.energy.imag - expected.imag) <= 1e-11 * abs(expected.imag)

    @pytest.mark.parametrize("key, fates", [
        ((0.0, 2.5, 0.1), {"kept": 10, "duplicate": 11}),
        ((0.5, 6.0, 0.1), {"kept": 3, "duplicate": 3, "outside": 3}),
    ])
    def test_every_seed_has_a_recorded_fate(self, key, fates):
        # Half the seeds or more polish onto a pole another seed found first.
        a, delta, eta = key
        model, bath = ModelParams(a=a, Delta=delta), BathParams(eta=eta)
        dec = diagonalize(build_hamiltonian(model))
        region = default_search_region(model, dec=dec)
        *_, fate = spectrum._seed_fates(model, bath, region, HALF, SigmaMode.CONTINUED, dec)
        assert collections.Counter(fate) == fates
        assert len(find_poles(model, bath, region, dec=dec)) == fates["kept"]

    @pytest.mark.parametrize("eta, prescription, expected", [
        (0.5, FULL, 7.128484 - 8.400e-3j), (0.5, HALF, 7.134729 - 9.737e-3j),
        (1.0, FULL, 7.126104 - 4.210e-3j), (1.0, HALF, 7.129237 - 4.893e-3j),
        (2.0, FULL, 7.124917 - 2.108e-3j), (2.0, HALF, 7.126487 - 2.452e-3j),
    ], ids=[f"eta{eta:g}-{p}" for eta in (0.5, 1, 2) for p in ("full", "half")])
    def test_pole_shifted_into_the_window_from_below(self, eta, prescription, expected):
        # Its level lies below the default window, which starts at 7.107;
        # seeded from the window's own levels and gaps, the search found 4
        # poles and lost this one.
        model, bath = ModelParams(a=0.0, Delta=10.0), BathParams(eta=eta)
        poles = find_poles(model, bath, default_search_region(model), prescription)
        assert len(poles) == 5
        pole = min(poles, key=lambda p: abs(p.energy - expected)).energy
        assert abs(pole - expected) <= 1e-6  # the table's rounding
        assert abs(pole - self_consistent_pole(model, bath, pole, prescription)) <= 1e-9

    def test_poles_are_the_rotated_bath_eigenvalues(self):
        # The FULL poles in the window are the eigenvalues of the lattice
        # plus the bath discretized on a rotated ray, one Im threshold on
        # both sides: a search at N = 55 also returns poles at |Im E| ~ 1e-16.
        count = 0
        for a, delta, eta in itertools.product((0.0, 0.5), (1.0, 2.5, 4.0, 6.0, 10.0),
                                               (0.1, 0.5, 1.0, 2.0)):
            model, bath = ModelParams(a=a, Delta=delta), BathParams(eta=eta)
            region = default_search_region(model)
            expected = rotated_bath_poles(model, bath, region)
            found = [p.energy for p in find_poles(model, bath, region, FULL)
                     if p.energy.imag < -ROTATED_IM_TOL]
            assert len(found) == len(expected), (a, delta, eta)
            for e, ref in zip(found, expected):
                assert abs(e - ref) <= 1e-13 * (1.0 + abs(ref))
            count += len(found)
        assert count == 259

    def test_continued_mode_off_ohmic_is_refused_up_front(self, model, monkeypatch):
        # The mode is checked once, not swallowed seed by seed.
        def refuse(*args, **kwargs):
            raise AssertionError("a seed was polished")

        monkeypatch.setattr(spectrum, "_polish", refuse)
        with pytest.raises(ParameterError, match="continued self-energy requires s = 1"):
            find_poles(model, BathParams(s=0.5), default_search_region(model),
                       HALF, SigmaMode.CONTINUED)

    def test_never_scans(self, model, bath, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_poles scanned the determinant grid")

        monkeypatch.setattr(spectrum, "scan_grid", refuse)
        poles = find_poles(model, bath, default_search_region(model))
        assert poles[0].energy.real == pytest.approx(POLE_1.real, abs=5e-6)

    def test_seeds_cover_the_doublet(self, model, bath):
        # Both members of the near-degenerate top doublet get a seed inside
        # the Newton basin (a few hundredths suffices; the polish does the
        # rest, as the reference-match test above shows).
        region = default_search_region(model)
        seeds = perturbative_pole_seeds(model, bath, region)
        assert min(abs(s - POLE_1) for s in seeds) < 0.01
        assert min(abs(s - POLE_2) for s in seeds) < 0.05

    def test_seeds_match_the_level_by_level_loop(self):
        # One array pass gives the seeds of a loop over the levels, bit for
        # bit: the 12 table points at s = 1 in both modes and at four other s
        # on the real axis, both prescriptions, the default window and one
        # holding most of the spectrum; then larger lattices at eta = 1.
        cases = [(ModelParams(a=a, Delta=delta), BathParams(eta=eta, s=s), mode, p)
                 for a, delta, eta in sorted(REFERENCE_POLES)
                 for s, mode in ((1.0, SigmaMode.CONTINUED), (1.0, SigmaMode.REAL_AXIS),
                                 (0.5, SigmaMode.REAL_AXIS), (0.75, SigmaMode.REAL_AXIS),
                                 (1.5, SigmaMode.REAL_AXIS), (2.0, SigmaMode.REAL_AXIS))
                 for p in ResiduePrescription]
        cases += [(ModelParams(N=n), BathParams(eta=1.0), SigmaMode.AUTO, HALF)
                  for n in (7, 34, 55, 89)]
        checked = 0
        for model, bath, mode, p in cases:
            top = default_search_region(model)
            for region in (top, PoleSearchRegion(0.5, top.re_max, -0.2, 0.0)):
                seeds = perturbative_pole_seeds(model, bath, region, p, mode)
                assert seeds == seeds_level_by_level(model, bath, region, p, mode)
                checked += 1
        assert checked == 296

    @pytest.mark.parametrize("re_min, re_max", [(-6.0, -1.0), (-10.0, 4.0)])
    def test_window_outside_the_continued_domain_is_refused(self, model, bath,
                                                            monkeypatch, re_min, re_max):
        # The window is checked once against Sigma's domain, before any seed:
        # the continued Sigma needs Re E > 0 on the whole window.
        def refuse(*args, **kwargs):
            raise AssertionError("a seed was polished")

        monkeypatch.setattr(spectrum, "_polish", refuse)
        region = PoleSearchRegion(re_min, re_max, -0.2, 0.0)
        with pytest.raises(ParameterError, match="continued self-energy needs Re"):
            find_poles(model, bath, region)

    def test_window_beyond_the_guard_range_is_refused(self, model):
        region = PoleSearchRegion(-150.0, 4.0, -0.2, 0.0)
        for s in (1.0, 0.5):
            with pytest.raises(ParameterError, match="outside guard range"):
                find_poles(model, BathParams(s=s), region, HALF, SigmaMode.REAL_AXIS)

    def test_real_axis_mode_keeps_the_poles_below_zero(self, model, bath):
        # The window the continued mode refuses is searched whole on the real
        # axis, where Re E <= 0 is in Sigma's domain.
        poles = find_poles(model, bath, PoleSearchRegion(-10.0, 4.0, -0.2, 0.0),
                           HALF, SigmaMode.REAL_AXIS)
        assert sum(p.energy.real <= 0.0 for p in poles) == 10


class TestOverlapHelpers:
    def test_state_overlap_trivials(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert state_overlap(a, a) == pytest.approx(1.0)
        assert state_overlap(a, b) == 0.0
        assert state_overlap(3.0 * a, a) == pytest.approx(1.0)

    @pytest.mark.parametrize("zero_side", [0, 1])
    def test_state_overlap_refuses_a_zero_vector(self, zero_side):
        # It returned nan, with a RuntimeWarning, where state_ipr raises.
        pair = [np.ones(3, dtype=complex), np.ones(3, dtype=complex)]
        pair[zero_side][:] = 0.0
        with pytest.raises(ParameterError, match="zero vector"):
            state_overlap(*pair)

    def test_transition_frequency_accepts_raw_and_refined(self, model, bath):
        p = refine_pole(model, bath, 2.95 - 1e-5j)
        assert transition_frequency(p, p.energy - 0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize("seed", [POLE_1, POLE_2])
    def test_null_vector_matches_inverse_iteration(self, model, bath, seed):
        E = refine_pole(model, bath, seed).energy
        v = null_vector(model, bath, E)
        oracle = _inverse_iteration_null_vector(model, bath, E)
        assert state_overlap(v, oracle) >= 1.0 - 1e-12

    def test_null_vector_phase_convention(self, model, bath):
        v = null_vector(model, bath, POLE_1)
        k = int(np.argmax(np.abs(v)))
        assert v[k].imag == pytest.approx(0.0, abs=1e-12)
        assert v[k].real > 0.0

    def test_resonance_pole_is_frozen(self, model, bath):
        pole = refine_pole(model, bath, 2.95 - 1e-5j)
        assert isinstance(pole, ResonancePole)
        with pytest.raises(AttributeError):
            pole.energy = 0.0
