"""Photon reabsorption geometry for an ellipsoidal Gaussian cloud.

A photon scattered once inside an optically dense cloud is reabsorbed
with a probability set by the column density along its emission
direction.  Weighting the sigma+ dipole emission pattern, which enters
as (1 + cos^2 theta)^2 in absorption times emission, over direction and
projecting onto the trap axes gives three effective
reabsorbed-photon numbers per laser photon: kappa_y (radial momentum
transfer), kappa_z (axial momentum transfer) and kappa (total number of
rescattering events).  Optical densities along the axes come from the
same column-density bookkeeping.

With u = cos(theta) and e = (sigma_y/sigma_z)^2 - 1 each angular
integral is sigma_y times a sum of moments of 1/sqrt(1 + e u^2), and
every moment has a closed form: the total and axial ones are elementary,
the radial ones are the complete symmetric elliptic integrals R_F and
R_D (DLMF 19.25.1), evaluated here by the arithmetic-geometric mean in
pure math.  Near the sphere, where the moment recurrences divide by e
and cancel, the binomial series in e is summed instead.
The adaptive quadrature _angular_integral is kept as the test oracle and
imports scipy only when called.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .atoms import AtomSpecies, _Checked
from .trap import TWO_PI_CUBED_SQRT

HALF_PI = math.pi / 2.0
KAPPA0_PREFACTOR = 9.0 / (128.0 * math.sqrt(2.0 * math.pi))

# Angular integrals over [0, pi] of (1 + cos^2)^2 times each projection
# weight per unit sigma for a sphere (e = 0, sigma(theta) constant):
# 13*pi/16, 7/3 and 56/15.  The closed forms reduce to them at e = 0, and
# the tests and selfcheck hold both the closed forms and the quadrature
# oracle to them.
SPHERE_INTEGRAL_RADIAL = 13.0 * math.pi / 16.0
SPHERE_INTEGRAL_AXIAL = 7.0 / 3.0
SPHERE_INTEGRAL_TOTAL = 56.0 / 15.0

# Below |e| = SERIES_CUT the radial and total integrals are summed as
# binomial series in e; 0.15**20 < 1e-16, so 20 terms reach double
# precision.  At the cut the recurrences still agree with a 40-digit
# quadrature to 7e-15 relative.
SERIES_CUT = 0.15
_SERIES_TERMS = 20

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-11, limit=200)


class CloudShape(_Checked, namedtuple("CloudShape", (
    "sigma_y",       # radial standard deviation [m]
    "sigma_z",       # axial standard deviation [m]
    "peak_density",  # [1/m^3]
))):
    """Gaussian cloud sizes and peak density entering the reabsorption integrals."""

    __slots__ = ()

    def _check(self):
        if self.sigma_y <= 0 or self.sigma_z <= 0:
            raise ValueError("cloud sizes must be positive")
        if self.peak_density < 0:
            raise ValueError("peak_density must be >= 0")
        if not all(map(math.isfinite, self)):
            raise ValueError("cloud sizes and peak_density must be finite")


def _aspect_shape(n: float, n0_ref: float, aspect_mode: str, alpha: float) -> CloudShape:
    if aspect_mode == "fixed_n0":
        sigma_y = (n / (TWO_PI_CUBED_SQRT * n0_ref * alpha)) ** (1.0 / 3.0)
        n0 = n0_ref
    else:  # fixed_N: keep the alpha = 1 radius, let density dilute
        sigma_y = (n / (TWO_PI_CUBED_SQRT * n0_ref)) ** (1.0 / 3.0)
        n0 = n0_ref / alpha
    return CloudShape(sigma_y, alpha * sigma_y, n0)


class KappaSet(namedtuple("KappaSet", (
    "kappa_y", "kappa_z", "kappa",
    "kappa0",  # column prefactor [1/m]
))):
    """Effective reabsorbed-photon numbers per incident laser photon."""

    __slots__ = ()


def kappa0(n0: float, cross_section: float) -> float:
    """Column prefactor of the reabsorption integrals [1/m]."""
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    return n0 * cross_section * KAPPA0_PREFACTOR


def _angular_integral(shape: CloudShape, projection) -> float:
    """Adaptive quadrature of one angular integral over [0, pi] [m].

    The oracle the closed forms are tested against; not on any run path.
    """
    from scipy.integrate import quad

    # All integrands are symmetric about pi/2, so integrate half the range.
    def integrand(theta: float) -> float:
        # the cloud's size along theta: the polar chord of its ellipse
        c, s = math.cos(theta), math.sin(theta)
        chord = 1.0 / math.sqrt(c * c / shape.sigma_z**2 + s * s / shape.sigma_y**2)
        return (1.0 + c * c) ** 2 * chord * projection(theta)

    value, _ = quad(integrand, 0.0, HALF_PI, **_QUAD_OPTS)
    return 2.0 * value


def _series_coefficients() -> tuple[tuple[float, float], ...]:
    # Coefficient of e^j of the radial and total half-range integrals,
    # highest power first for Horner: the binomial coefficient of
    # (1 + x)^(-1/2) times the moments of the sphere, Wallis integrals
    # W_n = int_0^{pi/2} cos^{2n} for the radial sum M0 + M1 - M2 - M3
    # and int_0^1 u^{2j} (1 + u^2)^2 du for the total.
    wallis = [HALF_PI]
    for n in range(1, _SERIES_TERMS + 3):
        wallis.append(wallis[-1] * (2 * n - 1) / (2 * n))
    coefficients = []
    binomial = 1.0
    for j in range(_SERIES_TERMS):
        radial = wallis[j] + wallis[j + 1] - wallis[j + 2] - wallis[j + 3]
        total = 1.0 / (2 * j + 1) + 2.0 / (2 * j + 3) + 1.0 / (2 * j + 5)
        coefficients.append((binomial * radial, binomial * total))
        binomial *= -(2 * j + 1) / (2 * j + 2)
    return tuple(reversed(coefficients))


_SERIES = _series_coefficients()


def _complete_rf_rd(y: float) -> tuple[float, float]:
    """R_F(0, y, 1) and R_D(0, y, 1) by the arithmetic-geometric mean.

    R_F = pi / (2 AGM(1, sqrt(y))) and R_D = 3 R_F s / (1 - y) with
    s = sum 2^(n-1) c_n^2, c_0^2 = 1 - y (DLMF 19.8.4-5, 19.25.1); at
    most 12 iterations for y from 5e-324 to 1.7e308.  For y >> 1 the
    sum s cancels by a factor that grows like ln(y), so R_D is good to
    8e-16 relative for y in [1e-4, 1e4] but only to 4e-14 at y = 1e292.
    """
    a, g = 1.0, math.sqrt(y)
    s, weight = 0.5 * (1.0 - y), 0.5
    while abs(a - g) > 2.0**-52 * a:
        a, g, c = (a + g) / 2.0, math.sqrt(a * g), (a - g) / 2.0
        weight *= 2.0
        s += weight * c * c
    r_f = HALF_PI / a
    return r_f, 3.0 * r_f * s / (1.0 - y)


def _closed_form_integrals(sigma_y: float, sigma_z: float) -> tuple[float, float, float]:
    """The radial, axial and total angular integrals over [0, pi] [m].

    The same three numbers _angular_integral gives for the projections
    sin^2, sin*|cos| and sin, in closed form.  Each is 2 sigma_y times a
    half-range sum over u = cos(theta) with e = (sigma_y/sigma_z)^2 - 1:
    radial M0 + M1 - M2 - M3 with M_k = int_0^{pi/2} cos^{2k}/sqrt(1 + e cos^2),
    total N0 + 2 N1 + N2 with N_k = int_0^1 u^{2k}/sqrt(1 + e u^2), and
    axial (1/2) int_0^1 (1 + v)^2/sqrt(1 + e v) dv.
    """
    ratio = sigma_y / sigma_z
    y = ratio * ratio  # 1 + e
    if not 0.0 < y < math.inf:
        raise ValueError(
            f"cloud aspect ratio sigma_z/sigma_y = {sigma_z / sigma_y:g} is out of range"
        )
    e = y - 1.0

    # Axial: sqrt(1 + e v) = 1 + t (ratio - 1) turns the half-range
    # integral into q int_0^1 (1 + a t + b t^2)^2 dt, a polynomial with no
    # division by e, so it needs no series.
    q = 1.0 / (1.0 + ratio)
    a = 2.0 * q
    b = q * (ratio - 1.0)
    axial = q * (1.0 + a + (a * a + 2.0 * b) / 3.0 + a * b / 2.0 + b * b / 5.0)

    if abs(e) < SERIES_CUT:
        radial = total = 0.0
        for c_radial, c_total in _SERIES:
            radial = radial * e + c_radial
            total = total * e + c_total
    else:
        # N0 in closed form, then 2k e N_k = sqrt(1 + e) - (2k - 1) N_{k-1}.
        s = math.sqrt(abs(e))
        n0 = (math.asinh(s) if e > 0.0 else math.asin(s)) / s
        n1 = (ratio - n0) / (2.0 * e)
        n2 = (ratio - 3.0 * n1) / (4.0 * e)
        total = n0 + 2.0 * n1 + n2
        # M0 = R_F(0, 1 + e, 1), M1 = R_D(0, 1 + e, 1) / 3, then
        # (2k + 1) e M_{k+1} = (2k - 1) M_{k-1} - 2k (1 - e) M_k.
        r_f, r_d = _complete_rf_rd(y)
        m0, m1 = r_f, r_d / 3.0
        m2 = (m0 - 2.0 * (1.0 - e) * m1) / (3.0 * e)
        m3 = (3.0 * m1 - 4.0 * (1.0 - e) * m2) / (5.0 * e)
        radial = m0 + m1 - m2 - m3
    two_sigma = 2.0 * sigma_y
    return two_sigma * radial, two_sigma * axial, two_sigma * total


def _kappas(sigma_y: float, sigma_z: float, peak_density: float,
            cross_section: float) -> KappaSet:
    """kappa_set of an unchecked shape, for a caller that has the cross section."""
    k0 = kappa0(peak_density, cross_section)
    radial, axial, total = _closed_form_integrals(sigma_y, sigma_z)
    return KappaSet(k0 * (2.0 / math.pi) * radial, k0 * axial, k0 * total, k0)


def kappa_set(shape: CloudShape, species: AtomSpecies) -> KappaSet:
    """Reabsorption coefficients for a cloud shape, from the closed forms."""
    return _kappas(shape.sigma_y, shape.sigma_z, shape.peak_density,
                   species.resonant_cross_section)


def optical_density(shape: CloudShape, species: AtomSpecies, axis: str) -> float:
    """Peak resonant optical density along one trap axis.

    Column density through the cloud center times the resonant cross
    section.
    """
    if axis not in ("y", "z"):
        raise ValueError("axis must be 'y' or 'z'")
    sigma_i = shape.sigma_y if axis == "y" else shape.sigma_z
    return species.resonant_cross_section * shape.peak_density * math.sqrt(2.0 * math.pi) * sigma_i
