"""Built-in named presets.

Presets are plain key-value data in the same lab units as the config
format, so a config can pull one in by name and override single keys;
both levels of each table are read-only, as parses share what they resolve.
The chromium numbers describe the 7S3 -> 7P4 cooling transition of the
bosonic isotope; the trap is a cloverleaf-coil configuration with a
tight radial and a weak axial curvature.
"""

from __future__ import annotations

from types import MappingProxyType

from .atoms import AtomSpecies, species_from_lab_units
from .trap import TrapConfig, trap_from_lab_units

SPECIES_PRESETS = MappingProxyType({
    "Cr52": MappingProxyType({
        "name": "Cr52",
        "mass_u": 52.0,
        "wavelength_nm": 425.55,
        "linewidth_MHz": 5.02,
        "saturation_intensity_W_per_m2": 85.2,
        "j_ground": 3,
        "j_excited": 4,
        "l_ground": 0,
        "s_ground": 3,
        "l_excited": 1,
        "s_excited": 3,
        "m_j": 3,
    }),
})

TRAP_PRESETS = MappingProxyType({
    "stuttgart_cloverleaf": MappingProxyType({
        "curvature_x_G_per_cm2": 750.0,
        "curvature_y_G_per_cm2": 750.0,
        "curvature_z_G_per_cm2": 110.0,
        "offset_field_G": 28.0,
        "magnetic_moment_muB": 6.0,
    }),
})


def cr52() -> AtomSpecies:
    """Chromium-52 on its blue cooling transition."""
    return species_from_lab_units(**SPECIES_PRESETS["Cr52"])


def stuttgart_cloverleaf() -> TrapConfig:
    """Cloverleaf magnetic trap the chromium cloud sits in."""
    return trap_from_lab_units(**TRAP_PRESETS["stuttgart_cloverleaf"])
