"""Release gate: thirteen checks pinning the toolkit to its reference numbers.

Each test is one acceptance line under ``pytest -v`` and asserts a single
externally anchored value or behavior at its stated tolerance.  The
chromium species and the cloverleaf trap presets are the fixed inputs
throughout; tolerances are deliberately loose where the anchors are
experimental and tight where the anchors are exact closed forms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from doppler_reabs import (
    KappaSet,
    LaserConfig,
    ScanPoint,
    effective_detuning,
    fit_exponential,
    fit_intensity_scan,
    optical_density,
    parse_config,
    rates,
    run_aspect_scan,
    run_dynamics,
    run_fit,
    run_intensity_scan,
    run_od_scan,
    run_steady_state,
    steady_state,
    steady_state_with_heating,
    thermal_debroglie_wavelength,
    trap_frequencies,
)
from doppler_reabs.reabsorption import (
    SPHERE_INTEGRAL_AXIAL,
    SPHERE_INTEGRAL_RADIAL,
    SPHERE_INTEGRAL_TOTAL,
    _angular_integral,
)
from doppler_reabs.reabsorption import CloudShape


def test_01_trap_frequencies_match_the_cloverleaf_trap(trap, species):
    _, omega_y, omega_z = trap_frequencies(trap, species)
    assert omega_y / (2 * math.pi) == pytest.approx(110.0, rel=0.02)
    assert omega_z / (2 * math.pi) == pytest.approx(42.0, rel=0.02)


def test_02_effective_detuning_is_minus_0p8_linewidths(trap, species):
    delta = effective_detuning(7.0, trap.offset_field, species, species.m_j, +1)
    assert delta == pytest.approx(-0.8, abs=0.1)


def test_03_reabsorption_coefficients_at_the_measured_cloud(steady_kappas):
    assert 0.09 <= steady_kappas.kappa_y <= 0.12
    assert 0.22 <= steady_kappas.kappa <= 0.28


def test_04_sphere_quadrature_matches_closed_forms():
    sphere = CloudShape(sigma_y=1e-4, sigma_z=1e-4, peak_density=1e16)
    radius = sphere.sigma_y
    radial = _angular_integral(sphere, lambda t: math.sin(t) ** 2) / radius
    axial = _angular_integral(sphere, lambda t: math.sin(t) * abs(math.cos(t))) / radius
    total = _angular_integral(sphere, math.sin) / radius
    assert radial == pytest.approx(SPHERE_INTEGRAL_RADIAL, rel=1e-9)
    assert axial == pytest.approx(SPHERE_INTEGRAL_AXIAL, rel=1e-9)
    assert total == pytest.approx(SPHERE_INTEGRAL_TOTAL, rel=1e-9)
    assert radial == pytest.approx(2.553, abs=5e-4)
    assert axial == pytest.approx(2.333, abs=5e-4)
    assert total == pytest.approx(3.733, abs=5e-4)


def test_05_steady_state_floor_and_measured_cloud_anchors(species, steady_kappas):
    # without reabsorption at half-linewidth detuning the axial limit is
    # exactly seven tenths of the Doppler temperature
    no_reabs = KappaSet(kappa_y=0.0, kappa_z=0.0, kappa=0.0, kappa0=0.0)
    floor = steady_state(no_reabs, -0.5, species)
    assert floor.T_z_inf == pytest.approx(
        0.7 * species.doppler_temperature, rel=1e-12
    )
    # at the measured cloud, same detuning convention: the radial limit
    # sits between 2.1 and 2.5 Doppler temperatures, the axial near 88 uK
    ss = steady_state(steady_kappas, -0.5, species)
    assert 2.1 <= ss.T_y_inf / species.doppler_temperature <= 2.5
    assert ss.T_z_inf == pytest.approx(88e-6, rel=0.10)


def test_06_radial_minimum_near_sphere_and_axial_aspect_insensitivity():
    text = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = 4e-3
detuning_Gamma = 7
attenuation_factor = 3

[cloud]
atom_number = 1e8
peak_density_per_cm3 = 5.6e10

[scenario]
kind = aspect_scan
grid_min = 0.1
grid_max = 10
grid_count = 41
grid_scale = log
"""
    csv_text = run_aspect_scan(parse_config(text))
    rows = [
        line.split(",") for line in csv_text.splitlines()
        if line and not line.startswith("#") and not line.startswith("alpha")
    ]
    alphas = [float(r[0]) for r in rows]
    t_z = [float(r[1]) for r in rows]
    t_y = [float(r[2]) for r in rows]
    best_alpha = alphas[t_y.index(min(t_y))]
    assert 0.5 <= best_alpha <= 2.0
    assert (max(t_z) - min(t_z)) / min(t_z) < 0.10


def test_07_cooling_time_constants_in_the_measured_bands(frozen_run):
    tau_y = fit_exponential(frozen_run, axis="y").parameters["tau"]
    tau_z = fit_exponential(frozen_run, axis="z", window=(0.0, 0.06)).parameters["tau"]
    assert 0.025 <= tau_y <= 0.100
    assert 0.005 <= tau_z <= 0.015


def test_08_radial_cooling_rate_linear_in_intensity(
    steady_kappas, delta_pol, species, trap
):
    # a decade around the experimental operating point, below the
    # trap-bandwidth cap on the damping rate
    xs = np.linspace(2e-4, 2e-3, 10)
    ys = np.array([
        rates(
            LaserConfig(intensity=x, detuning=0.0, attenuation_factor=1.0),
            steady_kappas, delta_pol, species, trap,
        ).cool_rate_y
        for x in xs
    ])
    slope = float(xs @ ys) / float(xs @ xs)
    ss_res = float(np.sum((ys - slope * xs) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.9999


def test_09_ode_fixed_point_matches_closed_forms(frozen_run, delta_pol, species):
    kappas = frozen_run.samples[0].kappas
    ss = steady_state(kappas, delta_pol, species)
    final = frozen_run.samples[-1]
    assert final.T_z == pytest.approx(ss.T_z_inf, rel=1e-6)
    assert final.T_y == pytest.approx(ss.T_y_inf, rel=1e-6)


def test_10_intensity_fit_recovers_generating_parameters(species):
    xs = np.geomspace(1e-4, 1e-2, 8)
    clean = np.array([
        steady_state_with_heating(0.11, 0.24, 2.6e-26, x, -0.8, species)
        for x in xs
    ])
    exact = fit_intensity_scan(
        [ScanPoint(x=float(x), y=float(y)) for x, y in zip(xs, clean)],
        0.24, -0.8, species,
    )
    assert exact.parameters["kappa_y"] == pytest.approx(0.11, rel=1e-8)
    assert exact.parameters["heating_power"] == pytest.approx(2.6e-26, rel=1e-8)

    rng = np.random.default_rng(0)
    ys = clean * (1.0 + 0.03 * rng.standard_normal(xs.size))
    noisy = fit_intensity_scan(
        [
            ScanPoint(x=float(x), y=float(y), y_err=float(0.03 * c))
            for x, y, c in zip(xs, ys, clean)
        ],
        0.24, -0.8, species,
    )
    assert noisy.parameters["kappa_y"] == pytest.approx(0.11, rel=0.05)
    assert noisy.parameters["heating_power"] == pytest.approx(2.6e-26, rel=0.15)


def test_11_radial_optical_density_in_band(steady_shape, species):
    assert 4.0 <= optical_density(steady_shape, species, "y") <= 5.5


def test_12_phase_space_density_gain_in_band(self_consistent_run, species):
    def psd(sample):
        t_geo = (sample.T_y ** 2 * sample.T_z) ** (1.0 / 3.0)
        return sample.peak_density * thermal_debroglie_wavelength(t_geo, species) ** 3

    first, last = self_consistent_run.samples[0], self_consistent_run.samples[-1]
    gain = psd(last) / psd(first)
    assert 30.0 <= gain <= 300.0


def test_13_every_runner_is_deterministic():
    preamble = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = 4e-3
detuning_Gamma = 7
attenuation_factor = 3
"""
    scenarios = {
        run_steady_state: preamble + """
[cloud]
sigma_y_um = 410
sigma_z_um = 700
peak_density_per_cm3 = 5.6e10

[scenario]
kind = steady_state
""",
        run_dynamics: preamble + """
[cloud]
atom_number = 1e8
temperature_uK = 1000

[scenario]
kind = dynamics
duration_ms = 20
sample_stride = 10
""",
        run_aspect_scan: preamble + """
[cloud]
atom_number = 1e8
peak_density_per_cm3 = 5.6e10

[scenario]
kind = aspect_scan
grid_min = 0.5
grid_max = 2
grid_count = 4
""",
        run_intensity_scan: preamble + """
[scenario]
kind = intensity_scan
kappa_y = 0.11
kappa_z = 0.17
kappa = 0.24
heating_power_J_per_s = 2.6e-26
grid_min = 1e-3
grid_max = 1e-2
grid_count = 5
grid_scale = log
""",
        run_od_scan: preamble + """
[scenario]
kind = od_scan
od_ref = 4.5
kappa_y_at_ref = 0.11
kappa_at_ref = 0.24
grid_min = 1
grid_max = 20
grid_count = 4
grid_scale = log
""",
    }
    for runner, text in scenarios.items():
        config = parse_config(text)
        assert runner(config) == runner(config)

    fit_config = parse_config(
        scenarios[run_intensity_scan].replace(
            "heating_power_J_per_s = 2.6e-26",
            "heating_power_J_per_s = 2.6e-26\nnoise_fraction = 0.03",
        ).replace("grid_min = 1e-3", "grid_min = 1e-4")
    )
    assert run_fit(fit_config, seed=3) == run_fit(fit_config, seed=3)
