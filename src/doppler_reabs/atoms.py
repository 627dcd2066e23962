"""Atomic species data and single-transition light-atom arithmetic.

Covers the closed cooling transition J -> J+1 of a spin-polarized atom:
its recoil, Doppler and cross-section constants, Lande g-factors and
Zeeman-shifted effective detunings.  The atom is assumed to stay in the
stretched state; nothing here checks that assumption.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import constants as const


class _Checked(tuple):
    """Base of the value types: a subclass, listed before its namedtuple,
    gives _check, which then runs on every construction, _make and
    _replace included."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self


class AtomSpecies(_Checked, namedtuple("AtomSpecies", (
    "name",
    "mass",                  # [kg]
    "wavelength",            # [m]
    "linewidth",             # Gamma [rad/s]
    "saturation_intensity",  # [W/m^2]
    "j_ground", "j_excited", "l_ground", "s_ground", "l_excited", "s_excited",
    "m_j",                   # polarized ground sublevel
))):
    """Transition and mass data for one cooling transition.

    The model is restricted to J_excited = J_ground + 1; the atom is
    assumed polarized in the ground sublevel m_j.
    """

    __slots__ = ()

    def _check(self):
        if not (self.mass > 0 and self.wavelength > 0 and self.linewidth > 0):
            raise ValueError("mass, wavelength and linewidth must be positive")
        if not self.saturation_intensity > 0:
            raise ValueError("saturation_intensity must be positive")
        if not self.j_ground >= 0:
            raise ValueError("j_ground must be >= 0")
        if self.j_excited != self.j_ground + 1:
            raise ValueError("only J_excited = J_ground + 1 is supported")
        if not abs(self.m_j) <= self.j_ground:
            raise ValueError("|m_j| must not exceed j_ground")

    @property
    def g_ground(self) -> float:
        return lande_g(self.l_ground, self.s_ground, self.j_ground)

    @property
    def g_excited(self) -> float:
        return lande_g(self.l_excited, self.s_excited, self.j_excited)

    @property
    def recoil_energy(self) -> float:
        """(hbar k)^2 / 2m with k = 2 pi / lambda [J]."""
        return (const.HBAR * (2.0 * math.pi / self.wavelength)) ** 2 / (2.0 * self.mass)

    @property
    def doppler_temperature(self) -> float:
        """hbar Gamma / (2 k_B) [K]."""
        return const.HBAR * self.linewidth / (2.0 * const.K_B)

    @property
    def resonant_cross_section(self) -> float:
        """6 pi (lambda / 2 pi)^2 [m^2]."""
        return 6.0 * math.pi * (self.wavelength / (2.0 * math.pi)) ** 2


class LaserConfig(_Checked, namedtuple("LaserConfig", "intensity detuning attenuation_factor",
                             defaults=(1.0,))):
    """Cooling light parameters.

    intensity is the measured single-beam intensity normalized to the
    saturation intensity; attenuation_factor divides it to give the
    intensity actually seen by the atoms; detuning is in units of Gamma,
    before any Zeeman shift.
    """

    __slots__ = ()

    def _check(self):
        if not self.intensity >= 0:
            raise ValueError("intensity must be >= 0")
        if not math.isfinite(self.detuning):
            raise ValueError("detuning must be finite")
        if not self.attenuation_factor >= 1:
            raise ValueError("attenuation_factor must be >= 1")

    @property
    def effective_intensity(self) -> float:
        """Intensity at the atoms after attenuation, in saturation units."""
        return self.intensity / self.attenuation_factor


def species_from_lab_units(
    name: str,
    mass_u: float,
    wavelength_nm: float,
    linewidth_MHz: float,
    saturation_intensity_W_per_m2: float,
    j_ground: int,
    j_excited: int,
    l_ground: int,
    s_ground: int,
    l_excited: int,
    s_excited: int,
    m_j: int,
) -> AtomSpecies:
    """Build an AtomSpecies from the units transition data is quoted in.

    linewidth_MHz is Gamma/(2 pi) in MHz.
    """
    return AtomSpecies(
        name=name,
        mass=mass_u * const.ATOMIC_MASS,
        wavelength=wavelength_nm * 1e-9,
        linewidth=2.0 * math.pi * linewidth_MHz * 1e6,
        saturation_intensity=saturation_intensity_W_per_m2,
        j_ground=int(j_ground),
        j_excited=int(j_excited),
        l_ground=int(l_ground),
        s_ground=int(s_ground),
        l_excited=int(l_excited),
        s_excited=int(s_excited),
        m_j=int(m_j),
    )


def lande_g(l: int, s: int, j: int) -> float:
    """Lande g-factor of a fine-structure level (L, S, J)."""
    if j == 0:
        raise ValueError("g-factor undefined for J = 0")
    return 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2.0 * j * (j + 1))


def zeeman_shift(species: AtomSpecies, m_g: int, q: int, field: float) -> float:
    """Zeeman shift of the transition m_g -> m_g + q, in units of Gamma."""
    gg = species.g_ground
    ge = species.g_excited
    return const.MU_B * field * (ge * (m_g + q) - gg * m_g) / (
        const.HBAR * species.linewidth
    )


def effective_detuning(
    laser_detuning: float,
    field: float,
    species: AtomSpecies,
    m_g: int,
    q: int,
) -> float:
    """Laser detuning from the Zeeman-shifted transition, in units of Gamma."""
    if abs(m_g) > species.j_ground or abs(m_g + q) > species.j_excited:
        raise ValueError("transition out of range")
    return laser_detuning - zeeman_shift(species, m_g, q, field)
