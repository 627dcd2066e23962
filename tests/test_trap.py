"""Trap frequencies, cloud geometry and phase-space density."""

from __future__ import annotations

import math

import pytest

from doppler_reabs import (
    CloudState,
    cloud_from_temperatures,
    constants,
    peak_density,
    thermal_debroglie_wavelength,
    thermal_shape,
    trap_frequencies,
    trap_from_lab_units,
)
from doppler_reabs.trap import _psd_of


def test_trap_frequencies_frozen(trap, species):
    wx, wy, wz = trap_frequencies(trap, species)
    assert wx / (2 * math.pi) == pytest.approx(110.645549, rel=1e-6)
    assert wy / (2 * math.pi) == pytest.approx(110.645549, rel=1e-6)
    assert wz / (2 * math.pi) == pytest.approx(42.3740194, rel=1e-6)


def test_trap_frequency_scaling(trap, species):
    stiffer = trap_from_lab_units(
        curvature_x_G_per_cm2=1500.0,
        curvature_y_G_per_cm2=1500.0,
        curvature_z_G_per_cm2=220.0,
        offset_field_G=28.0,
        magnetic_moment_muB=6.0,
    )
    for w_ref, w_stiff in zip(
        trap_frequencies(trap, species), trap_frequencies(stiffer, species)
    ):
        assert w_stiff == pytest.approx(math.sqrt(2.0) * w_ref, rel=1e-12)


def test_trap_validation():
    with pytest.raises(ValueError):
        trap_from_lab_units(750.0, 750.0, -110.0, 28.0, 6.0)
    with pytest.raises(ValueError):
        trap_from_lab_units(750.0, 750.0, 110.0, 0.0, 6.0)


def test_sigma_temperature_roundtrip(trap):
    # equipartition: mu * curvature * sigma^2 = k_B * T
    mu = trap.magnetic_moment
    for temperature in (1e-6, 120e-6, 1e-3):
        sigma_y, sigma_z, _ = thermal_shape(trap, 1e8, 2.0 * temperature, temperature)
        back = mu * trap.curvature_z * sigma_z**2 / constants.K_B
        assert back == pytest.approx(temperature, rel=1e-12)
        back = mu * trap.curvature_y * sigma_y**2 / constants.K_B
        assert back == pytest.approx(2.0 * temperature, rel=1e-12)


def test_sigma_frozen_at_1mK(trap):
    sigma_y, sigma_z, _ = thermal_shape(trap, 1e8, 1e-3, 1e-3)
    assert sigma_y == pytest.approx(5.75177121e-4, rel=1e-6)
    assert sigma_z == pytest.approx(1.50188227e-3, rel=1e-6)


def test_peak_density_frozen(hot_cloud):
    assert hot_cloud.peak_density == pytest.approx(1.27788302e16, rel=1e-6)


def test_peak_density_scaling():
    n1 = peak_density(1e8, 1e-4, 1e-4, 1e-4)
    assert peak_density(2e8, 1e-4, 1e-4, 1e-4) == pytest.approx(2 * n1, rel=1e-12)
    assert peak_density(1e8, 2e-4, 1e-4, 1e-4) == pytest.approx(n1 / 2, rel=1e-12)


def test_cloud_from_temperatures_consistency(trap):
    # the x axis follows T_y, through curvature_x
    cloud = cloud_from_temperatures(trap, 1e8, 9e-4, 9e-4, 1e-4)
    shape = (cloud.sigma_y, cloud.sigma_z, cloud.peak_density)
    assert shape == thermal_shape(trap, 1e8, 9e-4, 1e-4)
    sigma_x = math.sqrt(constants.K_B * 9e-4 / (trap.magnetic_moment * trap.curvature_x))
    assert cloud.peak_density == pytest.approx(
        peak_density(1e8, sigma_x, cloud.sigma_y, cloud.sigma_z), rel=1e-12
    )


def _psd(cloud, species):
    return _psd_of(species)(cloud.peak_density, cloud.T_z, cloud.T_y)


def test_phase_space_density_frozen(hot_cloud, species):
    assert _psd(hot_cloud, species) == pytest.approx(
        5.73437117e-9, rel=1e-6
    )


def test_phase_space_density_cooling_law(trap, species):
    # at constant atom number an isotropic temperature drop by c raises
    # the peak phase-space density by c^3
    hot = cloud_from_temperatures(trap, 1e8, 1e-3, 1e-3, 1e-3)
    cold = cloud_from_temperatures(trap, 1e8, 2e-4, 2e-4, 2e-4)
    gain = _psd(cold, species) / _psd(hot, species)
    assert gain == pytest.approx(5.0**3, rel=1e-9)


def test_debroglie_frozen(species):
    assert thermal_debroglie_wavelength(120e-6, species) == pytest.approx(
        2.21007805e-8, rel=1e-6
    )
    with pytest.raises(ValueError):
        thermal_debroglie_wavelength(0.0, species)


def test_cloud_validation(trap):
    for args in (
        (0.0, 1e-3, 1e-3, 1e-3),     # no atoms
        (1e8, 2e-3, 1e-3, 1e-3),     # T_x != T_y: the model ties x to y
        (1e8, 1e-3, 1e-3, 0.0),      # T_z = 0
        (1e8, 0.0, 0.0, 1e-3),       # T_y = 0
        (1e8, 1e-3, -1e-3, 1e-3),    # a negative T_y, also != T_x
        (1e8, -1e-3, -1e-3, 1e-3),
        (1e8, 1e-3, 1e-3, -1e-3),
        # positive, but so small that the cloud degenerates
        (1e8, 5e-324, 5e-324, 1e-3),  # sigma_y and sigma_x underflow to 0
        (1e8, 1e-3, 1e-3, 5e-324),    # sigma_z underflows to 0
        (1e8, 1e-300, 1e-300, 1e-3),  # the peak density overflows to inf
    ):
        with pytest.raises(ValueError):
            cloud_from_temperatures(trap, *args)
    with pytest.raises(ValueError):
        thermal_shape(trap, 1e8, 1e-3, 5e-324)
    with pytest.raises(ValueError):
        CloudState(1e8, 1e-3, 1e-3, 4.1e-4, 7e-4, math.inf)
