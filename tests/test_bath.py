"""Spectral density, memory kernel, and self-energy.

The kernel and self-energy each have independent evaluation routes
(closed form vs direct quadrature or the rotated-ray rational sum); the
tests here pin them against each other rather than against copied
constants wherever possible.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1, expi, gamma, hyperu

from gaah.bath import (
    BathParams,
    ResiduePrescription,
    SigmaMode,
    _dispersive_part,
    _self_energy_slope,
    _sigma_defined,
    self_energy,
    self_energy_closed_form,
    self_energy_eval,
    spectral_density,
)
from gaah.dynamics import _product_tables
from gaah.errors import ParameterError

from helpers import dispersive_part_by_quadrature, memory_kernel

HALF = ResiduePrescription.HALF
FULL = ResiduePrescription.FULL


def spectral_weight(b: BathParams, omega_max: float = math.inf) -> float:
    """int_0^omega_max J(w) dw by adaptive quadrature; for s = 1 and
    omega_max = inf this is eta * omega_c**2."""
    val, _ = quad(lambda w: spectral_density(b, w), 0.0, omega_max,
                  points=[b.omega_c] if math.isfinite(omega_max) else None,
                  epsabs=1e-13, epsrel=1e-12, limit=400)
    return val


def slope_at(b: BathParams, E, p: ResiduePrescription, mode: SigmaMode) -> complex:
    """The self-energy slope at E from the Sigma a Newton iteration holds there."""
    return _self_energy_slope(b, E, self_energy_eval(b, E, p, mode), p, mode)


def ei_slope(b: BathParams, z: complex, p: ResiduePrescription) -> complex:
    """Oracle: the s = 1 slope from its own exponential integral,
    eta (e^{-u} Ei(u) (1 - u) + 1) - i c eta e^{-u} (1 - u), u = z/omega_c,
    with the residue term dropped at Re z <= 0."""
    u = z / b.omega_c
    decay = cmath.exp(-u)
    value = b.eta * (decay * complex(expi(u)) * (1.0 - u) + 1.0)
    if z.real > 0.0:
        value -= 1j * p.residue_factor * b.eta * decay * (1.0 - u)
    return value


def kernel_by_fourier_quadrature(b: BathParams, t: float,
                                 omega_max: float = 400.0) -> complex:
    """Independent route: f(t) = int_0^W J(w) e^{-iwt} dw by oscillatory
    quadrature.  W = 400 leaves a tail below 1e-15 for the default cutoff."""
    re, _ = quad(lambda w: spectral_density(b, w), 0.0, omega_max,
                 weight="cos", wvar=t, limit=2000)
    im, _ = quad(lambda w: spectral_density(b, w), 0.0, omega_max,
                 weight="sin", wvar=t, limit=2000)
    return re - 1j * im


class TestParams:
    def test_defaults(self, bath):
        assert (bath.eta, bath.omega_c, bath.s) == (0.1, 10.0, 1.0)

    def test_validation(self):
        with pytest.raises(ParameterError, match="bath.eta"):
            BathParams(eta=-0.1)
        with pytest.raises(ParameterError, match="bath.omega_c"):
            BathParams(omega_c=0.0)
        with pytest.raises(ParameterError, match="bath.s"):
            BathParams(s=0.0)

    def test_decoupled_is_allowed(self):
        assert BathParams(eta=0.0).eta == 0.0


class TestSpectralDensity:
    def test_zero_frequency(self, bath):
        assert spectral_density(bath, 0.0) == 0.0

    def test_ohmic_value_at_cutoff(self, bath):
        # s = 1: J(omega_c) = eta * omega_c * e^-1.
        assert spectral_density(bath, 10.0) == pytest.approx(
            0.1 * 10.0 * math.exp(-1.0), rel=1e-14)

    def test_sub_ohmic_value(self):
        b = BathParams(eta=0.2, omega_c=5.0, s=0.5)
        w = 2.0
        expected = 0.2 * 5.0 ** 0.5 * w ** 0.5 * math.exp(-w / 5.0)
        assert spectral_density(b, w) == pytest.approx(expected, rel=1e-14)

    def test_array_input(self, bath):
        w = np.array([0.0, 1.0, 10.0])
        out = spectral_density(bath, w)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(spectral_density(bath, 10.0), rel=1e-15)

    def test_negative_frequency_rejected(self, bath):
        with pytest.raises(ParameterError, match="omega"):
            spectral_density(bath, -0.1)

    @given(st.floats(0.0, 200.0), st.floats(0.25, 3.0))
    def test_nonnegative(self, w, s):
        assert spectral_density(BathParams(s=s), w) >= 0.0

    def test_total_weight_ohmic(self, bath):
        # int_0^inf eta w e^{-w/wc} dw = eta * wc^2 = 10.
        assert spectral_weight(bath) == pytest.approx(10.0, rel=1e-10)

    def test_truncated_weight_smaller(self, bath):
        assert spectral_weight(bath, 30.0) < spectral_weight(bath)


class TestMemoryKernel:
    def test_initial_value(self, bath):
        # f(0) = eta * Gamma(s+1) * omega_c^2 = 10 at the defaults.
        assert memory_kernel(bath, 0.0) == pytest.approx(10.0 + 0.0j, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 3.0])
    def test_closed_form_vs_fourier_quadrature_ohmic(self, bath, t):
        assert memory_kernel(bath, t) == pytest.approx(
            kernel_by_fourier_quadrature(bath, t), abs=1e-6)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_closed_form_vs_fourier_quadrature_other_exponents(self, s):
        b = BathParams(eta=0.3, omega_c=4.0, s=s)
        for t in (0.2, 1.5):
            assert memory_kernel(b, t) == pytest.approx(
                kernel_by_fourier_quadrature(b, t, omega_max=200.0), abs=1e-6)

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_truncated_kernel_vs_quadrature(self, bath, t):
        got = memory_kernel(bath, t, omega_max=80.0)
        expected = kernel_by_fourier_quadrature(bath, t, omega_max=80.0)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_truncation_limit_recovers_full(self, bath):
        for t in (0.0, 0.7):
            assert memory_kernel(bath, t, omega_max=4000.0) == pytest.approx(
                memory_kernel(bath, t), abs=1e-12)

    def test_truncation_requires_ohmic(self):
        with pytest.raises(ParameterError, match="s = 1"):
            memory_kernel(BathParams(s=0.5), 1.0, omega_max=80.0)
        with pytest.raises(ParameterError, match="omega_max"):
            memory_kernel(BathParams(), 1.0, omega_max=0.0)

    def test_negative_time_rejected(self, bath):
        with pytest.raises(ParameterError, match="t >= 0"):
            memory_kernel(bath, -0.5)

    def test_array_input(self, bath):
        t = np.linspace(0.0, 2.0, 5)
        out = memory_kernel(bath, t)
        assert out.shape == (5,)
        assert out[0] == pytest.approx(10.0 + 0.0j, abs=1e-12)

    @given(st.floats(0.0, 100.0))
    def test_bounded_by_initial_value(self, t):
        b = BathParams()
        assert abs(memory_kernel(b, t)) <= abs(memory_kernel(b, 0.0)) + 1e-12

    @pytest.mark.parametrize("t", [0.4, 1.1, 5.0])
    def test_cumulative_integral(self, bath, t):
        # The integrator's product weights integrate a constant history
        # exactly, so sum_{j<q} W_j + T_q is int_0^{t_q} f in closed form,
        # for the full and the truncated kernel alike.
        dt = 0.01
        q = round(t / dt)
        for omega_max in (math.inf, 80.0):
            re, _ = quad(lambda u: memory_kernel(bath, u, omega_max).real, 0.0, t,
                         limit=400)
            im, _ = quad(lambda u: memory_kernel(bath, u, omega_max).imag, 0.0, t,
                         limit=400)
            W, T = _product_tables(bath, dt, q, omega_max)
            assert np.sum(W[:q]) + T[q] == pytest.approx(re + 1j * im, abs=1e-10)


class TestSelfEnergy:
    @pytest.mark.parametrize("x", [-5.0, -0.5, 0.5, 2.9522, 6.0, 9.0])
    def test_closed_form_vs_quadrature(self, bath, x):
        # Criterion: two independent routes (exp-integral closed form vs
        # subtracted principal-value quadrature) agree to 1e-8.
        assert self_energy(bath, x, HALF) == pytest.approx(
            self_energy_closed_form(bath, x, HALF), abs=1e-8)

    def test_pinned_negative_axis_value(self, bath):
        assert self_energy(bath, -5.0, HALF) == pytest.approx(
            -0.538544683758 + 0.0j, abs=1e-9)

    def test_value_at_zero(self, bath):
        # Both routes reduce to -eta * omega_c at E = 0.
        assert self_energy(bath, 0.0, HALF) == pytest.approx(-1.0 + 0.0j, abs=1e-9)
        assert self_energy_closed_form(bath, 0.0, HALF) == pytest.approx(
            -1.0 + 0.0j, abs=1e-12)

    def test_decoupled_bath(self):
        assert self_energy(BathParams(eta=0.0), 2.0, HALF) == 0.0

    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_decoupled_bath_beyond_the_guard_range(self, s):
        # With the bath off every route gives 0 at any Re E: no route guards
        # an energy that the coupling never reaches.
        b = BathParams(eta=0.0, s=s)
        values = [self_energy(b, 150.0, HALF)]
        values += [self_energy_eval(b, E, HALF, SigmaMode.REAL_AXIS)
                   for E in (150.0, 150.0 - 0.1j, np.array([150.0, 2.0]))]
        if s == 1.0:
            values += [self_energy_closed_form(b, 150.0, HALF),
                       self_energy_eval(b, 150.0 - 0.1j, HALF, SigmaMode.CONTINUED)]
        for value in values:
            assert np.all(value == 0.0)

    def test_negative_axis_is_real(self, bath):
        assert self_energy(bath, -3.0, HALF).imag == 0.0

    def test_residue_term_structure(self, bath):
        # At x > 0 the imaginary part is exactly -c * J(x).
        x = 2.5
        for p in (HALF, FULL):
            assert self_energy(bath, x, p).imag == pytest.approx(
                -p.residue_factor * spectral_density(bath, x), rel=1e-12)

    @given(st.floats(0.05, 50.0))
    def test_prescriptions_differ_only_by_residue_factor(self, x):
        b = BathParams()
        half = self_energy(b, x, HALF)
        full = self_energy(b, x, FULL)
        assert half.real == full.real
        assert full.imag == pytest.approx(2.0 * half.imag, rel=1e-12)
        assert half.imag < 0.0

    def test_sub_ohmic_quadrature_runs(self):
        b = BathParams(s=0.5)
        sigma = self_energy(b, 3.0, HALF)
        assert sigma.imag == pytest.approx(
            -HALF.residue_factor * spectral_density(b, 3.0), rel=1e-12)
        with pytest.raises(ParameterError, match="s = 1"):
            self_energy_closed_form(b, 3.0)

    def test_guard_range(self, bath):
        with pytest.raises(ParameterError, match="guard"):
            self_energy(bath, 150.0)
        with pytest.raises(ParameterError, match="guard"):
            self_energy_closed_form(bath, -150.0)

    @pytest.mark.parametrize("real_axis", [False, True])
    def test_closed_form_array_matches_scalar_calls(self, bath, real_axis):
        E = np.array([[-5.0, 0.0, 1e-6 - 0.1j], [2.9522 - 1e-5j, 6.0 + 0.2j, 99.0]])
        if real_axis:
            E = E.real
        out = self_energy_closed_form(bath, E, FULL)
        assert out.shape == E.shape
        for e, value in zip(E.ravel(), out.ravel()):
            expected = self_energy_closed_form(bath, complex(e), FULL)
            assert value == pytest.approx(expected, rel=1e-15, abs=1e-15)

    def test_closed_form_residue_term_on_the_real_axis(self, bath):
        # On the real axis the continued spectral density is J(x) itself.
        for x in (0.5, 2.9522, 9.0):
            for p in (HALF, FULL):
                assert self_energy_closed_form(bath, x, p).imag == pytest.approx(
                    -p.residue_factor * spectral_density(bath, x), rel=1e-15)
        assert self_energy_closed_form(bath, -3.0, HALF).imag == 0.0

    def test_closed_form_array_guards(self, bath):
        with pytest.raises(ParameterError, match="guard"):
            self_energy_closed_form(bath, np.array([1.0, 150.0]))
        with pytest.raises(ParameterError, match="Re"):
            self_energy_eval(bath, np.array([1.0, -0.1 - 1e-3j]), HALF,
                             SigmaMode.CONTINUED)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_dispersive_part_at_clipped_window_edge(self, s):
        # The default pole window starts at Re E = 1e-6, where the rational
        # sum's nodes nearest x lie at |w| ~ x and the value must stay real.
        value = _dispersive_part(0.1, 10.0, s, 1e-6)
        assert isinstance(value, float)
        assert math.isfinite(value)

    @pytest.mark.parametrize("x", [-50.0, -5.0, -0.5, 1e-6, 0.5, 2.9522, 6.0, 9.0,
                                   30.0, 95.0])
    def test_dispersive_part_super_ohmic_exact_form(self, x):
        # The quadrature is the route for s != 1.  At s = 2, w^2 = (w - x)(w + x)
        # + x^2 reduces it to the s = 1 integral:
        # (eta/omega_c) (x^2 e^{-u} Ei(u) - x omega_c - omega_c^2), u = x/omega_c.
        eta, omega_c = 0.1, 10.0
        u = x / omega_c
        exact = eta / omega_c * (x * x * math.exp(-u) * expi(u) - x * omega_c
                                 - omega_c ** 2)
        value = _dispersive_part(eta, omega_c, 2.0, x)
        assert abs(value - exact) <= 1e-12 * (1.0 + abs(exact))

    @pytest.mark.parametrize("p", [HALF, FULL])
    @pytest.mark.parametrize("y", [0.0, -1e-3, -0.1])
    def test_closed_form_slope_vs_central_differences(self, bath, p, y):
        # Sigma is holomorphic off the cut, so the slope is the difference
        # quotient along the real and along the imaginary direction alike.
        # The points span the default window of the default lattice.
        for x in (0.05, 0.5, 1.5, 2.9522, 4.0, 5.95):
            E = complex(x, y)
            slope = slope_at(bath, E, p, SigmaMode.CONTINUED)
            step = 1e-5 * (1.0 + abs(E))
            for d in (step, 1j * step):
                quotient = (self_energy_closed_form(bath, E + d, p)
                            - self_energy_closed_form(bath, E - d, p)) / (2.0 * d)
                assert abs(slope - quotient) <= 1e-8 * (1.0 + abs(slope))

    @pytest.mark.parametrize("p", [HALF, FULL])
    def test_closed_form_slope_on_the_real_axis(self, bath, p):
        # The real-axis self-energy at s = 1 is the closed form at Re E, whose
        # slope along x is the same expression at real x.
        for x in (-5.0, -0.5, 0.05, 0.5, 2.9522, 6.0, 9.0, 30.0):
            step = 1e-5 * (1.0 + abs(x))
            quotient = (self_energy_eval(bath, x + step - 0.1j, p, SigmaMode.REAL_AXIS)
                        - self_energy_eval(bath, x - step - 0.1j, p, SigmaMode.REAL_AXIS)
                        ) / (2.0 * step)
            slope = slope_at(bath, x, p, SigmaMode.REAL_AXIS)
            assert abs(slope - quotient) <= 1e-8 * (1.0 + abs(slope))

    def test_closed_form_slope_vs_first_sheet_form(self, bath):
        # The first-sheet self-energy Sigma_I = eta (-omega_c - E e^{-u} E1(-u))
        # has its cut on E >= 0, and Sigma_I' = -eta (e^{-u} E1(-u) (1 - u) - 1).
        # Below the real axis Ei(u) = -E1(-u) - i pi, so at Re E > 0 the closed
        # form's slope there is Sigma_I' - i (pi + c) eta e^{-u} (1 - u): the
        # second sheet's Sigma_II' = Sigma_I' - 2 pi i eta e^{-u} (1 - u) at
        # c = pi.  On the negative axis the two forms coincide.
        eta, omega_c = bath.eta, bath.omega_c

        def sigma_1(E):
            u = E / omega_c
            return eta * (-omega_c - E * np.exp(-u) * exp1(-u))

        def slope_1(E):
            u = E / omega_c
            return -eta * (np.exp(-u) * exp1(-u) * (1.0 - u) - 1.0)

        for E in (0.5 - 1e-3j, 2.9522 - 0.1j, 6.0 - 1e-3j, -0.5 - 0.1j, -3.0 + 0j):
            step = 1e-5 * (1.0 + abs(E))
            quotient = (sigma_1(E + step) - sigma_1(E - step)) / (2.0 * step)
            assert abs(slope_1(E) - quotient) <= 1e-8 * (1.0 + abs(quotient))
            sheet = np.exp(-E / omega_c) * (1.0 - E / omega_c)
            for p in (HALF, FULL):
                shift = (math.pi * (E.imag < 0.0)
                         + p.residue_factor * (E.real > 0.0))
                expected = slope_1(E) - 1j * shift * eta * sheet
                # The guard of the continued mode stops at Re E > 0; the closed
                # form itself runs on across the negative axis.
                slope = _self_energy_slope(bath, E, self_energy_closed_form(bath, E, p),
                                           p, SigmaMode.CONTINUED)
                assert abs(slope - expected) <= 1e-13 * (1.0 + abs(expected))

    @pytest.mark.parametrize("mode", [SigmaMode.CONTINUED, SigmaMode.REAL_AXIS])
    @pytest.mark.parametrize("p", [HALF, FULL])
    def test_slope_from_sigma_matches_the_ei_form(self, bath, p, mode):
        # The slope is taken from the Sigma in hand, with no exponential
        # integral of its own.  Sigma carries a rounding error of about
        # eps * eta * omega_c, which the division by z magnifies near 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e-6, 1e-3, 0.05, 0.5, 2.9522, 5.95, 9.0, 30.0, 95.0,
                      -0.5, -5.0, -95.0):
                for y in (0.0, -1e-3, -0.1, -1.0, -11.0):
                    if mode is SigmaMode.CONTINUED and x <= 0.0:
                        continue
                    E = complex(x, y)
                    z = E if mode is SigmaMode.CONTINUED else complex(x)
                    expected = ei_slope(bath, z, p)
                    bound = (1e-14 * (1.0 + abs(expected))
                             + 1e-15 * bath.eta * bath.omega_c / abs(z))
                    assert abs(slope_at(bath, E, p, mode) - expected) <= bound
            at_zero = slope_at(bath, 0.0, p, SigmaMode.REAL_AXIS)
        assert math.isnan(at_zero.real) and math.isnan(at_zero.imag)
        assert slope_at(BathParams(eta=0.0), 0.0, p, mode) == 0.0

    @pytest.mark.parametrize("x", [-5.0, 0.5, 2.9522, 30.0])
    def test_quadrature_slope_super_ohmic(self, x):
        # Off s = 1 the slope is that of the rational sum; at
        # s = 2 it has the exact form (eta/omega_c) (e^{-u} Ei(u) (2x - x^2/omega_c)
        # + x - omega_c) - i c J'(x), with J' = (eta/omega_c) e^{-u} (2x - x^2/omega_c).
        b = BathParams(s=2.0)
        u = x / b.omega_c
        poly = math.exp(-u) * (2.0 * x - x * x / b.omega_c)
        exact = b.eta / b.omega_c * (poly * expi(u) + x - b.omega_c)
        if x > 0.0:
            exact -= 1j * HALF.residue_factor * b.eta / b.omega_c * poly
        slope = slope_at(b, x - 0.1j, HALF, SigmaMode.REAL_AXIS)
        assert abs(slope - exact) <= 1e-8 * (1.0 + abs(exact))

    def test_real_axis_mode_is_the_closed_form_at_s_1(self, bath):
        # The real-axis route at s = 1 runs no quadrature: it is the closed
        # form at Re E, with its guard and its zero residue term at x <= 0.
        for E in (-5.0 - 0.1j, 0.0, 0.5 - 1e-3j, 2.9522, 9.0 - 0.2j):
            for p in (HALF, FULL):
                assert self_energy_eval(bath, E, p, SigmaMode.REAL_AXIS) == (
                    self_energy_closed_form(bath, E.real, p))
        with pytest.raises(ParameterError, match="guard"):
            self_energy_eval(bath, 150.0 - 0.1j, HALF, SigmaMode.REAL_AXIS)

    def test_real_part_continuous_at_zero(self, bath):
        below = self_energy(bath, -1e-4, HALF)
        above = self_energy(bath, 1e-4, HALF)
        assert above.real == pytest.approx(below.real, abs=1e-3)



class TestRationalSelfEnergy:
    """The rotated-ray sum against routes that share none of its nodes."""

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 1.5, 4.0])
    def test_exponent_recurrence(self, s):
        # w^(s+1) = w^s (x - (x - w)) splits Sigma_{s+1} into (x/omega_c)
        # Sigma_s minus the weight eta omega_c Gamma(s+1), residue terms
        # included; the two sides run on differently spanned rays.
        eta, omega_c = 0.1, 10.0
        lower = BathParams(eta=eta, omega_c=omega_c, s=s)
        upper = BathParams(eta=eta, omega_c=omega_c, s=s + 1.0)
        for a in (95.0, 5.0, 0.5, 1e-3, 1e-6):
            for x in (a, -a):
                value = self_energy(upper, x, FULL)
                expected = (x / omega_c * self_energy(lower, x, FULL)
                            - eta * omega_c * gamma(s + 1.0))
                assert abs(value - expected) <= 1e-13 * (1.0 + abs(value))

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_value_at_zero(self, s):
        # Sigma(0) = -eta omega_c^(1-s) int w^(s-1) e^(-w/omega_c) dw.
        b = BathParams(s=s)
        expected = -b.eta * b.omega_c * gamma(s)
        assert abs(self_energy(b, 0.0) - expected) <= 1e-10 * (1.0 + abs(expected))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.5, 2.0])
    def test_negative_axis_confluent_form(self, s):
        # At x < 0, Sigma = -eta omega_c Gamma(s+1) y^s U(s+1, s+1, y) with
        # y = -x/omega_c.  Beyond x = -30 scipy's hyperu itself drifts.
        b = BathParams(s=s)
        for x in -np.logspace(-6, math.log10(30.0), 25):
            y = -x / b.omega_c
            expected = -b.eta * b.omega_c * gamma(s + 1.0) * y ** s * hyperu(s + 1.0, s + 1.0, y)
            assert abs(self_energy(b, x, FULL) - expected) <= 1e-12 * (1.0 + abs(expected))

    @pytest.mark.parametrize("s", [0.5, 0.75, 1.5, 2.0])
    def test_matches_subtracted_quadrature(self, s):
        # Below |x| = 1e-3 the quadrature, not the sum, is the inaccurate side.
        for a in np.logspace(-3, math.log10(99.0), 12):
            for x in (float(a), -float(a)):
                expected = dispersive_part_by_quadrature(0.1, 10.0, s, x)
                value = _dispersive_part(0.1, 10.0, s, x)
                assert abs(value - expected) <= 1e-13 * (1.0 + abs(expected))

    @pytest.mark.parametrize("p", [HALF, FULL])
    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_slope_vs_central_difference(self, s, p):
        # The analytic slope of the sum, with its imaginary part scaled to
        # the prescription, is the difference quotient of self_energy.
        b = BathParams(s=s)
        for x in (-95.0, -30.0, -5.0, -0.5, -0.05, 0.05, 0.5, 2.9522, 6.0, 30.0, 95.0):
            step = 1e-5 * (1.0 + abs(x))
            quotient = (self_energy(b, x + step, p) - self_energy(b, x - step, p)) / (2.0 * step)
            slope = slope_at(b, x - 0.1j, p, SigmaMode.REAL_AXIS)
            assert abs(slope - quotient) <= 1e-8 * (1.0 + abs(slope))
            if x < 0.0:
                assert slope.imag == 0.0

#: Every bath and mode pair Sigma takes: s = 1 in both modes, s != 1 on
#: the real axis, and the bath off.
MODE_CASES = [(BathParams(), SigmaMode.CONTINUED), (BathParams(), SigmaMode.REAL_AXIS),
              (BathParams(s=0.75), SigmaMode.REAL_AXIS),
              (BathParams(eta=0.0), SigmaMode.CONTINUED),
              (BathParams(eta=0.0), SigmaMode.REAL_AXIS)]
MODE_IDS = ["ohmic-continued", "ohmic-real-axis", "s0.75-real-axis",
            "decoupled-continued", "decoupled-real-axis"]


class TestSigmaMode:
    def test_auto_resolution(self):
        assert SigmaMode.AUTO.resolve(BathParams()) is SigmaMode.CONTINUED
        assert SigmaMode.AUTO.resolve(BathParams(s=1.5)) is SigmaMode.REAL_AXIS
        assert SigmaMode.REAL_AXIS.resolve(BathParams()) is SigmaMode.REAL_AXIS
        assert SigmaMode.CONTINUED.resolve(BathParams()) is SigmaMode.CONTINUED

    def test_continued_matches_real_axis_on_real_axis(self, bath):
        E = 2.9522
        a = self_energy_eval(bath, E, HALF, SigmaMode.REAL_AXIS)
        b = self_energy_eval(bath, E, HALF, SigmaMode.CONTINUED)
        assert b == pytest.approx(a, abs=1e-8)

    def test_continued_requires_ohmic(self):
        with pytest.raises(ParameterError, match="s = 1"):
            self_energy_eval(BathParams(s=0.5), 2.0, HALF, SigmaMode.CONTINUED)

    def test_continued_requires_positive_real_part(self, bath):
        with pytest.raises(ParameterError, match="Re"):
            self_energy_eval(bath, -1.0 - 0.1j, HALF, SigmaMode.CONTINUED)

    @pytest.mark.parametrize("b, mode", MODE_CASES, ids=MODE_IDS)
    def test_domain_mask_is_where_eval_raises(self, b, mode):
        # The batched pole polish drops a seed where the mask reads False,
        # and refine_pole raises there: the two must be one rule.
        guard = 10.0 * b.omega_c
        xs = (-2.0 * guard, -guard, -1.0, -1e-300, 0.0, 1e-300, 2.9522, guard,
              np.nextafter(guard, math.inf), math.nan, math.inf, -math.inf)
        E = np.array([complex(x, y) for x in xs for y in (0.0, -0.1)])
        defined = _sigma_defined(b, E, mode)
        for point, flag in zip(E, defined):
            try:
                with np.errstate(invalid="ignore"):  # the nan point's Sigma
                    self_energy_eval(b, np.array([point]), HALF, mode)
                    self_energy_eval(b, point, HALF, mode)
            except ParameterError:
                assert not flag, point
            else:
                assert flag, point
        assert defined.any() and (b.eta == 0.0 or not defined.all())

    @pytest.mark.parametrize("b, mode", MODE_CASES, ids=MODE_IDS)
    @pytest.mark.parametrize("p", [HALF, FULL])
    def test_slope_of_an_array_is_the_slope_point_by_point(self, b, mode, p):
        E = np.array([0.5 - 1e-3j, 2.9522 - 0.1j, 6.0, 30.0 - 1.0j, 95.0 - 1e-6j])
        if mode is SigmaMode.REAL_AXIS:
            E = np.append(E, [-0.5 - 0.1j, -95.0])
        sigma = self_energy_eval(b, E, p, mode)
        slopes = _self_energy_slope(b, E, sigma, p, mode)
        assert slopes.shape == E.shape
        # A scalar takes numpy's scalar arithmetic, which may round the
        # complex division differently in the last bit, before the s = 1
        # slope adds eta.
        for x, sig, slope in zip(E, sigma, slopes):
            alone = _self_energy_slope(b, complex(x), complex(sig), p, mode)
            assert abs(slope - alone) <= 1e-15 * (b.eta + abs(alone))

    def test_continued_smooth_off_axis(self, bath):
        # Small excursions off the axis move the value only slightly.
        on = self_energy_eval(bath, 2.9522, HALF, SigmaMode.CONTINUED)
        off = self_energy_eval(bath, 2.9522 - 1e-4j, HALF, SigmaMode.CONTINUED)
        assert abs(off - on) < 1e-3
