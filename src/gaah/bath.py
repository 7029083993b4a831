"""Ohmic-family environment: spectral density and self-energy.

The bath enters the dynamics only through the spectral density

    J(w) = eta * w * (w / omega_c)^(s-1) * exp(-w / omega_c),

its Fourier transform (the memory kernel, whose closed-form moments
``dynamics`` integrates), and the regularized level-shift
integral int_0^inf J(w) / (E - w) dw that dresses the lattice spectrum.  For
E > 0 the integrand is singular and the integral is defined through the
Cauchy principal value plus a residue term -i*c*J(E).  The textbook
half-residue limit gives c = pi; an alternative convention with c = pi/2 is
kept selectable because published reference data for this system was fitted
best by one of the two (see :class:`ResiduePrescription`).

At s = 1 the integral has an exponential-integral closed form, which the
pole search evaluates.  At every s the real-axis value Sigma(x + i0), the
principal value plus the residue -i*pi*J(x), is also a rational sum, which
:func:`self_energy` and so the pole search off s = 1 evaluate: turn the
contour onto the ray w = omega_c e^{xi - i theta}, below the pole at
x + i0 (complex scaling), and take the trapezoid rule in xi,

    Sigma_K(x) = sum_j g_j^2 / (x - w_j),   g_j^2 = h w_j J(w_j),

with J continued analytically (principal w^s).  At theta = pi/4 the
integrand is analytic in a strip of half width pi/4 about the ray, bounded
by the pole of 1/(x - w) on one side and by exp(-w/omega_c) turning to
growth at arg w = -pi/2 on the other, so the step h = 0.07 errs by about
exp(-2 pi (pi/4) / h) = 2e-31.  The ray spans xi in [xi_lo, ln(2(s+30))]
with xi_lo = min(-50/(s+1), -37/s).  Below it lies the weight
(r_min/omega_c)^(s+1) <= e^-50 of eta omega_c^2, an error near
eta omega_c^2 e^-50 / |x|, under 2e-15 eta omega_c for |x| >= 1e-7
omega_c; at smaller |x|, down to x = 0, the missing part of
int J(w)/w dw, eta omega_c e^{s xi_lo}/s <= eta omega_c e^-37/s, is below
rounding against |Sigma(0)| = eta omega_c Gamma(s).  Above the ray lies
the tail r^s e^{-r cos(theta)/omega_c}, negligible against Gamma(s+1) for
s <= 4.  That is 5345 modes at s = 0.1, 1116 at s = 0.5, 588 at s = 1
and 142 at s = 8; against a 30-digit reference, Sigma is then exact to
9e-16 of 1 + |Sigma| for 1e-6 <= |x| <= 10 omega_c at 0.1 <= s <= 4, and
to 1.1e-14 at s = 8.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expi

from .errors import ParameterError

#: Guard range for self-energy evaluation, in units of omega_c.
ENERGY_GUARD_MULTIPLE = 10.0

#: Angle of the rotated ray w = omega_c e^{xi - i theta} and trapezoid step
#: in xi of the rational self-energy; the ray's ends follow s (see
#: ``_ray_modes`` and the module docstring for the error bounds).
_RAY_ANGLE = 0.25 * math.pi
_RAY_STEP = 0.07


@dataclass(frozen=True)
class BathParams:
    """Coupling strength ``eta`` (dimensionless), spectral cutoff ``omega_c``
    and Ohmicity exponent ``s`` (s = 1 is the Ohmic case)."""

    eta: float = 0.1
    omega_c: float = 10.0
    s: float = 1.0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ParameterError(f"bath.eta must be >= 0, got {self.eta}")
        if self.omega_c <= 0.0:
            raise ParameterError(f"bath.omega_c must be > 0, got {self.omega_c}")
        if self.s <= 0.0:
            raise ParameterError(f"bath.s must be > 0, got {self.s}")


class ResiduePrescription(enum.Enum):
    """Residue coefficient of the regularized level-shift integral.

    HALF takes Im = -(pi/2) J(E), FULL the standard -pi J(E).  Exactly one
    variant is active per run and is recorded in all output metadata.
    """

    HALF = "half"
    FULL = "full"

    @property
    def residue_factor(self) -> float:
        return 0.5 * math.pi if self is ResiduePrescription.HALF else math.pi


def spectral_density(b: BathParams, omega):
    """J(omega) for scalar or array ``omega`` >= 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ParameterError("spectral density is defined for omega >= 0 only")
    # Written as eta * omega_c^(1-s) * w^s * exp(...) so w = 0 is exact for any s > 0.
    out = b.eta * b.omega_c ** (1.0 - b.s) * w ** b.s * np.exp(-w / b.omega_c)
    return out if out.ndim else float(out)


def check_kernel_cut(s: float, omega_max: float) -> None:
    """Refuse a kernel cut at ``omega_max`` that has no closed form: the
    cut is closed-form at s = 1 alone, and only at a positive frequency."""
    if s != 1.0:
        raise ParameterError("truncated memory kernel is closed-form for s = 1 only")
    if omega_max <= 0.0:
        raise ParameterError(f"omega_max must be > 0, got {omega_max}")


@lru_cache(maxsize=8)
def _ray_modes(eta: float, omega_c: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w_j = omega_c e^{xi_j - i theta} and weights g_j^2 = h w_j J(w_j)
    of the rational self-energy, with xi_j spaced h over
    [xi_lo, ln(2(s+30))].  The low end xi_lo = min(-50/(s+1), -37/s) drops
    both the weight e^{(s+1) xi_lo} <= e^-50 of eta omega_c^2 that J(w)
    holds below the ray and, what bounds Sigma near x = 0 at s < 1, the
    part eta omega_c e^{s xi_lo}/s <= eta omega_c e^-37/s of
    int J(w)/w dw: both are below rounding."""
    lo, hi = min(-50.0 / (s + 1.0), -37.0 / s), math.log(2.0 * (s + 30.0))
    z = lo + _RAY_STEP * np.arange(int((hi - lo) / _RAY_STEP) + 1) - 1j * _RAY_ANGLE
    u = np.exp(z)
    w, g2 = omega_c * u, _RAY_STEP * eta * omega_c ** 2 * np.exp((s + 1.0) * z - u)
    w.flags.writeable = g2.flags.writeable = False  # shared by every caller
    return w, g2


@lru_cache(maxsize=16384)
def _dispersive_part(eta: float, omega_c: float, s: float, x: float) -> float:
    """Real (principal-value) part of int_0^inf J(w)/(x - w) dw at real x:
    the real part of the rational sum Sigma_K(x)."""
    w, g2 = _ray_modes(eta, omega_c, s)
    return float(np.sum(g2 / (x - w)).real)


def self_energy(b: BathParams, E: complex,
                p: ResiduePrescription = ResiduePrescription.HALF) -> complex:
    """Regularized level-shift integral evaluated on the real axis.

    The integral is taken at x = Re(E) (the resonance imaginary parts this
    feeds are tiny, so the real-axis value is the working definition); for
    x > 0 the residue term -i * c * J(x) is added with c set by ``p``.  The
    imaginary part is therefore <= 0 whenever eta > 0.  With the bath off
    (eta = 0) it is 0 at every E, inside the guard range or not, as every
    other route gives it.
    """
    if b.eta == 0.0:
        return 0.0 + 0.0j
    x = float(np.real(E))
    if abs(x) > ENERGY_GUARD_MULTIPLE * b.omega_c:
        raise ParameterError(
            f"Re(E) = {x} outside guard range +-{ENERGY_GUARD_MULTIPLE * b.omega_c}"
        )
    value = complex(_dispersive_part(b.eta, b.omega_c, b.s, x))
    if x > 0.0:
        value -= 1j * p.residue_factor * spectral_density(b, x)
    return value


def self_energy_closed_form(b: BathParams, E,
                            p: ResiduePrescription = ResiduePrescription.HALF):
    """Exponential-integral closed form of the s = 1 self-energy at E.

    For real E the principal-value part reduces to

        eta * (E * exp(-E/omega_c) * Ei(E/omega_c) - omega_c),

    which serves as an independent check of the rational sum.  At
    complex E the same expression, with the residue term built from the
    analytically continued spectral density eta * E * exp(-E/omega_c), is
    the continued self-energy of ``SigmaMode.CONTINUED``.  Accepts scalar or
    array ``E``; a scalar gives a complex.
    """
    if b.s != 1.0:
        raise ParameterError("closed form is available for s = 1 only")
    # [()] makes a scalar E a numpy scalar, whose arithmetic costs far less
    # than that of a 0-d array; an array E passes through unchanged.
    z = np.asarray(E, dtype=complex)[()]
    if b.eta == 0.0:
        return np.zeros_like(z) if np.ndim(z) else 0.0 + 0.0j
    x = z.real
    if (np.abs(x) > ENERGY_GUARD_MULTIPLE * b.omega_c).any():
        worst = float(np.abs(x).max())
        raise ParameterError(
            f"Re(E) = {worst} outside guard range +-{ENERGY_GUARD_MULTIPLE * b.omega_c}"
        )
    u = z / b.omega_c
    decay = np.exp(-u)
    # At z = 0 the product is 0 (expi(0) is infinite), leaving -eta * omega_c.
    disp = b.eta * (z * decay * expi(np.where(z == 0.0, 1.0, u)) - b.omega_c)
    value = disp - 1j * p.residue_factor * (b.eta * z * decay) * (x > 0.0)
    return value if np.ndim(value) else complex(value)


class SigmaMode(enum.Enum):
    """How the self-energy is evaluated at complex E during root finding.

    REAL_AXIS pins the integral to x = Re(E); valid for any s, exact for
    narrow resonances, and the only choice for Re(E) <= 0.  At s = 1 it is
    the closed form at x, which equals the rational sum of
    :func:`self_energy` to rounding; other s take the rational sum.  CONTINUED
    evaluates the s = 1 closed form at complex E, which stays faithful for
    broad resonances as well; it requires Re(E) > 0 (the exponential
    integral's branch cut sits on the negative real axis).  AUTO picks
    CONTINUED whenever it is available.
    """

    AUTO = "auto"
    REAL_AXIS = "real-axis"
    CONTINUED = "continued"

    def resolve(self, b: BathParams) -> "SigmaMode":
        """The mode to evaluate with under ``b``; CONTINUED at s != 1 is
        refused with ParameterError."""
        if self is SigmaMode.AUTO:
            return SigmaMode.CONTINUED if b.s == 1.0 else SigmaMode.REAL_AXIS
        if self is SigmaMode.CONTINUED and b.s != 1.0:
            raise ParameterError("continued self-energy requires s = 1")
        return self


def self_energy_eval(b: BathParams, E,
                     p: ResiduePrescription = ResiduePrescription.HALF,
                     mode: SigmaMode = SigmaMode.AUTO):
    """Self-energy at (possibly complex) E under the chosen evaluation mode.
    Every mode also takes a 1-d array of E.  Where :func:`_sigma_defined`
    reads False it raises ParameterError."""
    mode = mode.resolve(b)
    if mode is SigmaMode.REAL_AXIS:
        if b.s == 1.0:
            return self_energy_closed_form(b, np.real(E), p)
        if isinstance(E, np.ndarray):
            return np.array([self_energy(b, x, p) for x in E.real], dtype=complex)
        return self_energy(b, E, p)
    lowest = np.asarray(E).real.min(initial=math.inf)
    if b.eta != 0.0 and lowest <= 0.0:
        raise ParameterError(
            f"continued self-energy needs Re(E) > 0, got Re(E) = {float(lowest)}; "
            "use REAL_AXIS")
    return self_energy_closed_form(b, E, p)


def _sigma_defined(b: BathParams, E, mode: SigmaMode = SigmaMode.AUTO) -> np.ndarray:
    """Per point of the 1-d array E, whether :func:`self_energy_eval` under
    ``mode`` takes it without raising: everywhere with the bath off, else
    where |Re E| is within the guard range and, continued, Re E > 0.  A nan
    Re E passes, as it passes the guards."""
    x = np.real(E)
    if b.eta == 0.0:
        return np.ones(np.shape(x), dtype=bool)
    defined = ~(np.abs(x) > ENERGY_GUARD_MULTIPLE * b.omega_c)
    if mode.resolve(b) is SigmaMode.CONTINUED:
        defined &= ~(x <= 0.0)
    return defined


def _self_energy_slope(b: BathParams, E, sigma,
                       p: ResiduePrescription = ResiduePrescription.HALF,
                       mode: SigmaMode = SigmaMode.AUTO):
    """The slope of :func:`self_energy_eval` at E, a scalar or a 1-d array,
    given its value ``sigma`` there: dSigma/dE when continued, dSigma/dRe(E)
    on the real axis.  At s = 1 the closed form Sigma = eta z e^{-u} (Ei(u) -
    i c) - eta omega_c, u = z/omega_c (c = 0 at Re z <= 0), has the slope

        (Sigma + eta omega_c) (1 - u) / z + eta,

    from d/du Ei(u) = e^u / u, with z = E when continued and z = Re E on
    the real axis; it is nan at z = 0, where the slope diverges.  Other s
    take the slope of the rational sum, Sigma_K'(x) = -sum_j g_j^2 /
    (x - w_j)^2, whose imaginary part -pi J'(x) at x > 0 is scaled to the
    residue factor c.  The caller has evaluated Sigma(E), so its guards
    hold.  A scalar E gives a scalar."""
    E = np.asarray(E, dtype=complex)
    z = E if mode.resolve(b) is SigmaMode.CONTINUED else E.real.astype(complex)
    if b.eta == 0.0:
        return np.zeros_like(z)[()]
    if b.s != 1.0:
        w, g2 = _ray_modes(b.eta, b.omega_c, b.s)
        d = z.real[..., None] - w
        slope = -np.sum(g2 / (d * d), axis=-1)
        scale = p.residue_factor / math.pi * (z.real > 0.0)
        return (slope.real + 1j * (scale * slope.imag))[()]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (sigma + b.eta * b.omega_c) * (1.0 - z / b.omega_c) / z + b.eta
    return np.where(z == 0.0, complex(math.nan, math.nan), slope)[()]
