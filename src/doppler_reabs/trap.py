"""Harmonic magnetic trap geometry and cloud bookkeeping.

Trap frequencies, the one map from a thermal cloud's temperatures to
its Gaussian sizes and peak density (thermal_shape), and the thermal de
Broglie wavelength.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import constants as const
from .atoms import AtomSpecies, _Checked

TWO_PI_CUBED_SQRT = (2.0 * math.pi) ** 1.5
VOLUME_UNDERFLOW = "temperatures too small: the cloud's volume underflows to 0"


class TrapConfig(_Checked, namedtuple("TrapConfig", (
        "curvature_x", "curvature_y", "curvature_z", "offset_field", "magnetic_moment"))):
    """Harmonic magnetic trap: field curvatures, offset field, moment.

    Curvatures are in T/m^2 (numerically equal to G/cm^2), offset_field
    in T, magnetic_moment in J/T.
    """

    __slots__ = ()

    def _check(self):
        if not (self.curvature_x > 0 and self.curvature_y > 0 and self.curvature_z > 0):
            raise ValueError("curvatures must be positive")
        if not self.offset_field > 0:
            raise ValueError("offset_field must be positive")
        if not self.magnetic_moment > 0:
            raise ValueError("magnetic_moment must be positive")


class CloudState(_Checked, namedtuple("CloudState", (
    "atom_number",
    "T_y", "T_z",          # [K]
    "sigma_y", "sigma_z",  # Gaussian standard deviations [m]
    "peak_density",        # [1/m^3]
))):
    """Thermal cloud in the trap: atom number, temperatures, sizes, density (x follows y)."""

    __slots__ = ()

    def _check(self):
        if not self.atom_number > 0:
            raise ValueError("atom_number must be positive")
        if not (self.T_y > 0 and self.T_z > 0):
            raise ValueError("temperatures must be positive")
        # a NaN size or density is left to the finite check below
        if min(self.sigma_y, self.sigma_z) <= 0:
            raise ValueError("cloud sizes must be positive")
        if self.peak_density < 0:
            raise ValueError("peak_density must be >= 0")
        if not all(map(math.isfinite, (self.sigma_y, self.sigma_z, self.peak_density))):
            raise ValueError("cloud sizes and peak_density must be finite")


def trap_from_lab_units(
    curvature_x_G_per_cm2: float,
    curvature_y_G_per_cm2: float,
    curvature_z_G_per_cm2: float,
    offset_field_G: float,
    magnetic_moment_muB: float,
) -> TrapConfig:
    """Build a TrapConfig from the units traps are usually quoted in."""
    return TrapConfig(
        curvature_x=curvature_x_G_per_cm2 * const.GAUSS_PER_CM2,
        curvature_y=curvature_y_G_per_cm2 * const.GAUSS_PER_CM2,
        curvature_z=curvature_z_G_per_cm2 * const.GAUSS_PER_CM2,
        offset_field=offset_field_G * const.GAUSS,
        magnetic_moment=magnetic_moment_muB * const.MU_B,
    )


def trap_frequencies(trap: TrapConfig, species: AtomSpecies) -> tuple[float, float, float]:
    """Angular trap frequencies (omega_x, omega_y, omega_z) [rad/s]."""
    mu = trap.magnetic_moment
    m = species.mass
    return (
        math.sqrt(mu * trap.curvature_x / m),
        math.sqrt(mu * trap.curvature_y / m),
        math.sqrt(mu * trap.curvature_z / m),
    )


def peak_density(atom_number: float, sigma_x: float, sigma_y: float, sigma_z: float) -> float:
    """Peak density of a Gaussian cloud [1/m^3]."""
    return atom_number / (TWO_PI_CUBED_SQRT * sigma_x * sigma_y * sigma_z)


def thermal_shape(
    trap: TrapConfig, atom_number: float, T_y: float, T_z: float
) -> tuple[float, float, float]:
    """(sigma_y, sigma_z, peak_density) of a thermal cloud at T_y and T_z.

    Equipartition on each axis, k_B*T = mu*curvature*sigma^2; the x axis
    follows T_y.  The one map from temperatures to a cloud's shape.
    ValueError where a temperature is so small that the cloud's volume
    underflows to 0.
    """
    mu = trap.magnetic_moment
    sigma_z = math.sqrt(const.K_B * T_z / (mu * trap.curvature_z))
    sigma_y = math.sqrt(const.K_B * T_y / (mu * trap.curvature_y))
    sigma_x = math.sqrt(const.K_B * T_y / (mu * trap.curvature_x))
    try:
        return sigma_y, sigma_z, peak_density(atom_number, sigma_x, sigma_y, sigma_z)
    except ZeroDivisionError:
        raise ValueError(VOLUME_UNDERFLOW) from None


def cloud_from_temperatures(
    trap: TrapConfig,
    atom_number: float,
    T_x: float,
    T_y: float,
    T_z: float,
) -> CloudState:
    """CloudState in thermal equilibrium with the trap; the model ties T_x to T_y."""
    if T_x != T_y:
        raise ValueError("T_x must equal T_y: the model ties the x axis to y")
    if min(T_y, T_z) <= 0:
        raise ValueError("temperatures must be positive")
    return CloudState(atom_number, T_y, T_z, *thermal_shape(trap, atom_number, T_y, T_z))


def thermal_debroglie_wavelength(temperature: float, species: AtomSpecies) -> float:
    """Thermal de Broglie wavelength [m]."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return const.PLANCK / math.sqrt(2.0 * math.pi * species.mass * const.K_B * temperature)
