"""Harmonic magnetic trap geometry and cloud bookkeeping.

Trap frequencies, the temperature to Gaussian-size mapping of a thermal
cloud, peak density and the thermal de Broglie wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants as const
from .atoms import AtomSpecies

TWO_PI_CUBED_SQRT = (2.0 * math.pi) ** 1.5


@dataclass(frozen=True)
class TrapConfig:
    """Harmonic magnetic trap: field curvatures, offset field, moment.

    Curvatures are in T/m^2 (numerically equal to G/cm^2), offset_field
    in T, magnetic_moment in J/T.
    """

    curvature_x: float
    curvature_y: float
    curvature_z: float
    offset_field: float
    magnetic_moment: float

    def __post_init__(self):
        if min(self.curvature_x, self.curvature_y, self.curvature_z) <= 0:
            raise ValueError("curvatures must be positive")
        if self.offset_field <= 0:
            raise ValueError("offset_field must be positive")
        if self.magnetic_moment <= 0:
            raise ValueError("magnetic_moment must be positive")


@dataclass(frozen=True)
class CloudState:
    """Thermal cloud in the trap: atom number, temperatures, sizes, density."""

    atom_number: float
    T_x: float        # [K]
    T_y: float
    T_z: float
    sigma_x: float    # Gaussian standard deviation [m]
    sigma_y: float
    sigma_z: float
    peak_density: float  # [1/m^3]

    def __post_init__(self):
        if self.atom_number <= 0:
            raise ValueError("atom_number must be positive")
        if min(self.T_x, self.T_y, self.T_z) <= 0:
            raise ValueError("temperatures must be positive")
        if min(self.sigma_x, self.sigma_y, self.sigma_z) <= 0:
            raise ValueError("cloud sizes must be positive")
        if self.peak_density < 0:
            raise ValueError("peak_density must be >= 0")


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


def sigma_from_temperature(temperature: float, curvature: float, magnetic_moment: float) -> float:
    """Gaussian cloud size along one axis for a thermal cloud [m]."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if curvature <= 0 or magnetic_moment <= 0:
        raise ValueError("curvature and magnetic_moment must be positive")
    return math.sqrt(const.K_B * temperature / (magnetic_moment * curvature))


def peak_density(atom_number: float, sigma_x: float, sigma_y: float, sigma_z: float) -> float:
    """Peak density of a Gaussian cloud [1/m^3]."""
    return atom_number / (TWO_PI_CUBED_SQRT * sigma_x * sigma_y * sigma_z)


def cloud_from_temperatures(
    trap: TrapConfig,
    atom_number: float,
    T_x: float,
    T_y: float,
    T_z: float,
) -> CloudState:
    """CloudState in thermal equilibrium with the trap at the given temperatures."""
    mu = trap.magnetic_moment
    sx = sigma_from_temperature(T_x, trap.curvature_x, mu)
    sy = sigma_from_temperature(T_y, trap.curvature_y, mu)
    sz = sigma_from_temperature(T_z, trap.curvature_z, mu)
    return CloudState(
        atom_number=atom_number,
        T_x=T_x,
        T_y=T_y,
        T_z=T_z,
        sigma_x=sx,
        sigma_y=sy,
        sigma_z=sz,
        peak_density=peak_density(atom_number, sx, sy, sz),
    )


def thermal_debroglie_wavelength(temperature: float, species: AtomSpecies) -> float:
    """Thermal de Broglie wavelength [m]."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return const.PLANCK / math.sqrt(2.0 * math.pi * species.mass * const.K_B * temperature)
