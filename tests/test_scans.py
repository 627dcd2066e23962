"""Each scan row, bit for bit, against the public model functions at its grid point.

The scans bind their constants once per scan and evaluate each point
through the helpers behind steady_state, steady_state_with_heating,
steady_state_vs_od and rates; these tests hold every cell of every row
to what the public functions give at that point.
"""

from __future__ import annotations

import math
import random

import pytest

from doppler_reabs import (
    KappaSet,
    LaserConfig,
    kappa_set,
    parse_config,
    rates,
    steady_state,
    steady_state_vs_od,
    steady_state_with_heating,
)
from doppler_reabs import runners
from doppler_reabs.constants import HBAR
from doppler_reabs.dynamics import rate_caps
from doppler_reabs.reabsorption import SERIES_CUT, _aspect_shape

HEAD = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = {intensity}
detuning_pol_Gamma = {delta}
attenuation_factor = 3
"""


def _rows(run, config, monkeypatch):
    """The rows a runner renders, as the floats it renders them from."""
    rows = []
    monkeypatch.setattr(runners, "_render_csv", lambda header, columns, body: rows.extend(body))
    run(config)
    return rows


def _bits(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


def _grid(rng, low, high, log):
    count = rng.randint(5, 40)
    scale = "log" if log else "linear"
    return f"grid_min = {low!r}\ngrid_max = {high!r}\ngrid_count = {count}\ngrid_scale = {scale}\n"


def _intensity_configs():
    rng = random.Random(2601)
    for k in range(12):
        kappa_y = rng.uniform(0.01, 1.0)
        heating = 0.0 if k % 3 == 0 else 10.0 ** rng.uniform(-28, -25)
        # linear grids from intensity 0; the radial cooling rate caps at
        # 440 /s in this trap, which kappa_y * I above about 1e-3 reaches
        grid = _grid(rng, 1e-4 if k % 2 else 0.0, 10.0 ** rng.uniform(-2, 0.5), k % 2)
        yield parse_config(HEAD.format(intensity=4e-3, delta=-rng.uniform(0.1, 3.0)) + f"""
[scenario]
kind = intensity_scan
kappa_y = {kappa_y!r}
kappa = {kappa_y + rng.uniform(0.0, 2.0)!r}
heating_power_J_per_s = {heating!r}
""" + grid)


def _od_configs():
    rng = random.Random(2602)
    for k in range(12):
        intensity = 0.0 if k == 5 else 10.0 ** rng.uniform(-4, -1)  # no light: T inf with heating
        heating = 0.0 if k % 3 == 0 else 10.0 ** rng.uniform(-28, -25)
        grid = _grid(rng, 0.5 if k % 2 else 0.0, rng.uniform(5.0, 40.0), k % 2)  # from OD 0
        yield parse_config(HEAD.format(intensity=intensity, delta=-rng.uniform(0.1, 3.0)) + f"""
[scenario]
kind = od_scan
od_ref = {rng.uniform(1.0, 10.0)!r}
kappa_y_at_ref = {rng.uniform(0.01, 0.5)!r}
kappa_at_ref = {rng.uniform(0.1, 1.0)!r}
heating_power_J_per_s = {heating!r}
""" + grid)


def _aspect_configs():
    rng = random.Random(2603)
    for k in range(8):
        mode = ("fixed_n0", "fixed_N")[k % 2]
        # log grids across the sphere, and a linear grid near it: both
        # the series branch (|e| < SERIES_CUT) and the AGM branch
        grid = _grid(rng, 0.1, 10.0, True) if k < 6 else _grid(rng, 0.9, 1.1, False)
        yield parse_config(HEAD.format(intensity=4e-3, delta=-rng.uniform(0.1, 3.0)) + f"""
[cloud]
atom_number = {10.0 ** rng.uniform(6, 9)!r}
peak_density_per_cm3 = {10.0 ** rng.uniform(9, 12)!r}

[scenario]
kind = aspect_scan
aspect_mode = {mode}
""" + grid)


def test_intensity_scan_rows_are_the_public_functions_at_each_point(monkeypatch):
    capped = zero = 0
    for config in _intensity_configs():
        kappas = KappaSet(kappa_y=config.kappa_y, kappa_z=0.0, kappa=config.kappa, kappa0=0.0)
        expected = []
        for intensity in config.grid.values():
            rate = rates(LaserConfig(intensity, config.laser.detuning, 1.0), kappas,
                         config.delta_pol, config.species, config.trap)
            expected.append((intensity, steady_state_with_heating(
                config.kappa_y, config.kappa, config.heating_power, intensity,
                config.delta_pol, config.species), rate.cool_rate_y))
            capped += rate.capped_y
            zero += intensity == 0
        assert _bits(_rows(runners.run_intensity_scan, config, monkeypatch)) == _bits(expected)
    assert capped and zero


def test_od_scan_rows_are_the_public_function_at_each_point(monkeypatch):
    zero = 0
    for config in _od_configs():
        expected = [(od, steady_state_vs_od(
            config.kappa_y_at_ref / config.od_ref, config.kappa_at_ref / config.od_ref, od,
            config.heating_power, config.laser.effective_intensity, config.delta_pol,
            config.species)) for od in config.grid.values()]
        zero += sum(od == 0 for od in config.grid.values())
        assert _bits(_rows(runners.run_od_scan, config, monkeypatch)) == _bits(expected)
    assert zero


def test_aspect_scan_rows_are_the_public_functions_at_each_point(monkeypatch):
    branches = set()
    for config in _aspect_configs():
        expected = []
        for alpha in config.grid.values():
            shape = _aspect_shape(config.atom_number, config.cloud_peak_density,
                                  config.aspect_mode, alpha)
            ss = steady_state(kappa_set(shape, config.species), config.delta_pol, config.species)
            expected.append((alpha, ss.T_z_inf, ss.T_y_inf))
            branches.add((config.aspect_mode, abs(alpha ** -2 - 1.0) < SERIES_CUT))
        assert _bits(_rows(runners.run_aspect_scan, config, monkeypatch)) == _bits(expected)
    assert len(branches) == 4  # both modes, each on both branches


@pytest.mark.parametrize("configs, public", [
    (_intensity_configs, lambda c, x: steady_state_with_heating(
        c.kappa_y, c.kappa, c.heating_power, x, c.delta_pol, c.species)),
    (_od_configs, lambda c, x: steady_state_vs_od(
        c.kappa_y_at_ref / c.od_ref, c.kappa_at_ref / c.od_ref, x, c.heating_power,
        c.laser.effective_intensity, c.delta_pol, c.species)),
], ids=["intensity", "od"])
def test_noise_free_synthetic_points_are_the_public_function(configs, public):
    for config in configs():
        points = runners._synthetic_points(config, seed=0)  # noise_fraction 0: no draws
        expected = [(x, public(config, x)) for x in config.grid.values()]
        expected = [(x, y) for x, y in expected if x > 0 and 0 < y < float("inf")]
        assert _bits((p.x, p.y) for p in points) == _bits(expected)
        assert all(p.y_err is None for p in points)


def _former_radial(kappa_y, kappa, extra, species, delta):
    if kappa_y <= 0:
        return math.inf
    factor = (1.0 + 4.0 * delta**2) / (4.0 * abs(delta))
    return (kappa_y + 0.3 * (1.0 + kappa) + extra) / kappa_y * (
        species.doppler_temperature / 2.0) * factor


def _former_extra(heating_power, intensity, species):
    if intensity <= 0:
        return math.inf if heating_power > 0 else 0.0
    return heating_power / (species.recoil_energy * species.linewidth) / intensity


def test_public_functions_keep_their_former_arithmetic(species, trap):
    # the model's expressions as they stood before the scans shared them,
    # operation for operation: each public function gives their bits
    rng = random.Random(2604)
    for _ in range(300):
        delta = -rng.uniform(0.05, 5.0)
        factor = (1.0 + 4.0 * delta**2) / (4.0 * abs(delta))
        kappas = KappaSet(*(rng.choice((0.0, rng.uniform(0.0, 3.0))) for _ in range(3)), 1.0)
        ky, kz, k = kappas.kappa_y, kappas.kappa_z, kappas.kappa
        heating = rng.choice((0.0, 10.0 ** rng.uniform(-28, -24)))
        intensity = rng.choice((0.0, 10.0 ** rng.uniform(-5, 1)))
        od = rng.choice((0.0, rng.uniform(0.0, 30.0)))
        t_z = (1.0 + kz + 0.4 * (1.0 + k)) / (1.0 + kz) * (
            species.doppler_temperature / 2.0) * factor
        assert _bits([steady_state(kappas, delta, species)]) == _bits(
            [(t_z, _former_radial(ky, k, 0.0, species, delta))])
        extra = _former_extra(heating, intensity, species)
        assert _bits([(steady_state_with_heating(ky, k, heating, intensity, delta, species),
                       steady_state_vs_od(ky, k, od, heating, intensity, delta, species))]) == \
            _bits([(_former_radial(ky, k, extra, species, delta),
                    _former_radial(ky * od, k * od, extra, species, delta) if od > 0
                    else math.inf)])
        gamma, lorentz = species.linewidth, 1.0 + 4.0 * delta**2
        drive, per_photon = gamma * (-32.0 * delta), species.recoil_energy / (HBAR * gamma)
        scatter = 2.0 * intensity * gamma / lorentz
        cool_z = drive * (1.0 + kz) * 2.0 * intensity * per_photon / lorentz**2
        cool_y = drive * ky * 2.0 * intensity * per_photon / lorentz**2
        heat_z = ((1.0 + kz) + 0.4 * (1.0 + k)) * scatter * 4.0
        heat_y = (ky + 0.3 * (1.0 + k)) * scatter * 4.0
        cap_z, cap_y = rate_caps(trap, species)
        if cool_z > cap_z:
            heat_z, cool_z = heat_z * (cap_z / cool_z), cap_z
        if cool_y > cap_y:
            heat_y, cool_y = heat_y * (cap_y / cool_y), cap_y
        rate = rates(LaserConfig(intensity, 7.0, 1.0), kappas, delta, species, trap)
        assert _bits([rate[:4]]) == _bits([(cool_z, cool_y, heat_z, heat_y)])
