"""Shared fixtures: the chromium presets and the two reference cooling runs."""

from __future__ import annotations

import pytest

from doppler_reabs import (
    CloudShape,
    LaserConfig,
    cloud_from_temperatures,
    cr52,
    effective_detuning,
    kappa_set,
    simulate,
    stuttgart_cloverleaf,
)


@pytest.fixture(scope="session")
def species():
    return cr52()


@pytest.fixture(scope="session")
def trap():
    return stuttgart_cloverleaf()


@pytest.fixture(scope="session")
def steady_shape():
    # measured steady-state cloud: 700 um axial, 410 um radial, 5.6e10 cm^-3
    return CloudShape(sigma_y=410e-6, sigma_z=700e-6, peak_density=5.6e16)


@pytest.fixture(scope="session")
def steady_kappas(steady_shape, species):
    return kappa_set(steady_shape, species)


@pytest.fixture(scope="session")
def measured_laser():
    # single-beam intensity 4e-3 I_sat before a factor-3 attenuation,
    # detuned +7 Gamma in the laser frame
    return LaserConfig(intensity=4e-3, detuning=7.0, attenuation_factor=3.0)


@pytest.fixture(scope="session")
def delta_pol(species, trap):
    return effective_detuning(7.0, trap.offset_field, species, species.m_j, +1)


@pytest.fixture(scope="session")
def hot_cloud(trap):
    # experiment starting conditions: 1e8 atoms at 1 mK on every axis
    return cloud_from_temperatures(trap, 1e8, 1e-3, 1e-3, 1e-3)


@pytest.fixture(scope="session")
def frozen_run(hot_cloud, trap, species, measured_laser, delta_pol):
    """Cooling run with the cloud shape and kappas pinned at the start."""
    return simulate(
        hot_cloud, trap, species, measured_laser, 0.6,
        self_consistent=False, sample_stride=10, delta_pol=delta_pol,
    )


@pytest.fixture(scope="session")
def self_consistent_run(hot_cloud, trap, species, measured_laser, delta_pol):
    """Cooling run with shape, density and kappas tracking the temperatures."""
    return simulate(
        hot_cloud, trap, species, measured_laser, 0.6,
        self_consistent=True, sample_stride=10, delta_pol=delta_pol,
    )
