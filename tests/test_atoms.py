"""Transition arithmetic: Lande g-factors, Zeeman shifts, effective detunings."""

from __future__ import annotations

import pytest

from doppler_reabs import (
    effective_detuning,
    lande_g,
    species_from_lab_units,
    zeeman_shift,
)
from doppler_reabs import constants as const


def test_lande_g_chromium_levels(species):
    assert lande_g(0, 3, 3) == pytest.approx(2.0)
    assert lande_g(1, 3, 4) == pytest.approx(1.75)
    assert species.g_ground == pytest.approx(2.0)
    assert species.g_excited == pytest.approx(1.75)
    with pytest.raises(ValueError):
        lande_g(1, 1, 0)


def test_species_validation():
    good = dict(
        name="x", mass_u=52.0, wavelength_nm=425.55, linewidth_MHz=5.02,
        saturation_intensity_W_per_m2=85.2, j_ground=3, j_excited=4,
        l_ground=0, s_ground=3, l_excited=1, s_excited=3, m_j=3,
    )
    species_from_lab_units(**good)
    with pytest.raises(ValueError):
        species_from_lab_units(**{**good, "j_excited": 3})
    with pytest.raises(ValueError):
        species_from_lab_units(**{**good, "m_j": 4})
    with pytest.raises(ValueError):
        species_from_lab_units(**{**good, "mass_u": -1.0})


def test_derived_constants_frozen(species):
    assert species.recoil_energy / const.K_B == pytest.approx(1.0168225e-06, rel=1e-6)
    assert species.doppler_temperature == pytest.approx(1.20461001e-04, rel=1e-6)
    assert species.resonant_cross_section == pytest.approx(8.6465444e-14, rel=1e-6)


def test_zeeman_shift_stretched(species, trap):
    # net g-factor of the stretched sigma+ transition is exactly 1
    shift = zeeman_shift(species, 3, +1, trap.offset_field)
    assert shift == pytest.approx(7.80667049, rel=1e-6)
    by_hand = const.MU_B * trap.offset_field / (const.HBAR * species.linewidth)
    assert shift == pytest.approx(by_hand, rel=1e-12)


def test_zeeman_shift_linear_in_field(species):
    s1 = zeeman_shift(species, 3, +1, 10e-4)
    s2 = zeeman_shift(species, 3, +1, 20e-4)
    assert s2 == pytest.approx(2 * s1, rel=1e-12)


def test_effective_detuning_stretched(species, trap):
    delta = effective_detuning(7.0, trap.offset_field, species, 3, +1)
    assert delta == pytest.approx(-0.806670487, rel=1e-6)


def test_effective_detuning_zero_field(species):
    assert effective_detuning(7.0, 0.0, species, 3, +1) == pytest.approx(7.0)


def test_effective_detuning_pi_transition(species, trap):
    # the pi line shifts the other way: g_e m - g_g m = -0.75 m
    delta = effective_detuning(7.0, trap.offset_field, species, 3, 0)
    assert delta == pytest.approx(12.8550029, rel=1e-6)


def test_effective_detuning_linear_in_laser(species, trap):
    d1 = effective_detuning(7.0, trap.offset_field, species, 3, +1)
    d2 = effective_detuning(5.5, trap.offset_field, species, 3, +1)
    assert d1 - d2 == pytest.approx(1.5, rel=1e-12)


def test_effective_detuning_rejects_bad_transition(species):
    with pytest.raises(ValueError):
        effective_detuning(0.0, 0.0, species, 4, +1)
