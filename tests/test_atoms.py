"""Transition arithmetic: branching ratios, Zeeman shifts, scattering."""

from __future__ import annotations

import math

import pytest

from doppler_reabs import (
    LaserConfig,
    cg_squared,
    depolarization_assessment,
    effective_detuning,
    lande_g,
    scattering_rate,
    species_from_lab_units,
    zeeman_shift,
)
from doppler_reabs import constants as const


def _racah_cg_squared(j: int, m: int, q: int) -> float:
    """Independent oracle: general Clebsch-Gordan formula, specialised to
    coupling (j, m) with (1, q) to total (j+1, m+q), squared."""
    j1, m1, j2, m2, jt, mt = j, m, 1, q, j + 1, m + q
    f = math.factorial
    prefactor = (
        (2 * jt + 1)
        * f(j1 + j2 - jt) * f(j1 - j2 + jt) * f(-j1 + j2 + jt)
        / f(j1 + j2 + jt + 1)
    )
    norm = (
        f(jt + mt) * f(jt - mt)
        * f(j1 - m1) * f(j1 + m1)
        * f(j2 - m2) * f(j2 + m2)
    )
    total = 0.0
    for k in range(0, j1 + j2 - jt + 1):
        denom_args = (
            k,
            j1 + j2 - jt - k,
            j1 - m1 - k,
            j2 + m2 - k,
            jt - j2 + m1 + k,
            jt - j1 - m2 + k,
        )
        if any(a < 0 for a in denom_args):
            continue
        total += (-1) ** k / math.prod(f(a) for a in denom_args)
    return prefactor * norm * total**2


def test_cg_matches_independent_recursion_oracle():
    for j in range(1, 6):
        for m in range(-j, j + 1):
            for q in (-1, 0, 1):
                assert cg_squared(j, m, q) == pytest.approx(
                    _racah_cg_squared(j, m, q), rel=1e-12
                )


def test_cg_sum_rule():
    # summed over polarizations the branching weight is (2J+3)/(2J+1)
    for j in range(1, 6):
        for m in range(-j, j + 1):
            total = sum(cg_squared(j, m, q) for q in (-1, 0, 1))
            assert total == pytest.approx((2 * j + 3) / (2 * j + 1), rel=1e-12)


def test_cg_stretched_values():
    assert cg_squared(3, 3, +1) == pytest.approx(1.0, rel=1e-12)
    assert cg_squared(3, 3, 0) == pytest.approx(0.25, rel=1e-12)
    assert cg_squared(3, 3, -1) == pytest.approx(1.0 / 28.0, rel=1e-12)


def test_cg_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cg_squared(3, 4, 0)
    with pytest.raises(ValueError):
        cg_squared(3, 0, 2)


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


def test_scattering_rate_frozen(species):
    rate = scattering_rate(species, 4e-3, -0.8, 1.0)
    assert rate == pytest.approx(3.54399891e4, rel=1e-6)


def test_scattering_rate_properties(species):
    assert scattering_rate(species, 0.0, -0.8, 1.0) == 0.0
    assert scattering_rate(species, 1e-3, -0.8, 0.0) == 0.0
    r1 = scattering_rate(species, 1e-3, -0.8, 1.0)
    r2 = scattering_rate(species, 2e-3, -0.8, 1.0)
    assert r2 == pytest.approx(2 * r1, rel=1e-12)
    # even in detuning, maximal on resonance
    assert scattering_rate(species, 1e-3, +0.8, 1.0) == pytest.approx(r1, rel=1e-12)
    assert scattering_rate(species, 1e-3, 0.0, 1.0) > r1
    with pytest.raises(ValueError):
        scattering_rate(species, -1e-3, -0.8, 1.0)


def test_depolarization_pure_light_is_safe(species, trap):
    laser = LaserConfig(intensity=4e-3, detuning=-0.8, polarization_purity=0.0)
    report = depolarization_assessment(species, laser, trap.offset_field, 0.1)
    assert report.ratio == 0.0
    assert report.loss_fraction == 0.0


def test_depolarization_ratio_falls_with_field(species):
    laser = LaserConfig(intensity=4e-3, detuning=-0.8, polarization_purity=0.1)
    fields = [5e-4, 10e-4, 28e-4, 60e-4, 120e-4]
    ratios = [
        depolarization_assessment(species, laser, b, 0.1).ratio for b in fields
    ]
    assert all(r > 0 for r in ratios)
    assert all(b > a for a, b in zip(ratios[1:], ratios))


def test_depolarization_loss_bounds(species, trap):
    laser = LaserConfig(intensity=4e-3, detuning=-0.8, polarization_purity=0.1)
    report = depolarization_assessment(species, laser, trap.offset_field, 0.3)
    assert 0.0 < report.loss_fraction < 1.0
    with pytest.raises(ValueError):
        depolarization_assessment(species, laser, trap.offset_field, 0.0)
