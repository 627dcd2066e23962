"""Least-squares fits: exponential traces, intensity scans, OD scans."""

from __future__ import annotations

import math

import numpy as np
import pytest

from doppler_reabs import (
    DegenerateDataError,
    KappaSet,
    ScanPoint,
    fit_exponential,
    fit_intensity_scan,
    fit_od_scan,
    load_scan_points,
    steady_state_vs_od,
    steady_state_with_heating,
)
from doppler_reabs import parse_config, rates
from doppler_reabs.dynamics import TemperatureTrace, TraceSample
from doppler_reabs.runners import fit_scenario
from test_cli import DYNAMICS

# The root search may take at most this many gradient evaluations,
# bracket ends included; the bisection it replaced took 55-58, and 106
# on a decay time near 1 s.
MAX_TAU_EVALUATIONS = 20


def _trace(times, temps):
    kappas = KappaSet(kappa_y=0.0, kappa_z=0.0, kappa=0.0, kappa0=0.0)
    return TemperatureTrace(samples=tuple(
        TraceSample(
            t=float(t), T_z=float(v), T_y=float(v),
            sigma_z=1e-4, sigma_y=1e-4, peak_density=0.0, kappas=kappas,
        )
        for t, v in zip(times, temps)
    ))


def _exponential_trace(t0=1e-3, t_inf=334e-6, tau=0.05, n=50, t_max=0.25):
    times = np.linspace(0.0, t_max, n)
    return times, np.array([t_inf + (t0 - t_inf) * math.exp(-t / tau) for t in times])


def test_exponential_noiseless_recovery():
    times, temps = _exponential_trace()
    fit = fit_exponential(_trace(times, temps), axis="y")
    assert fit.converged
    assert fit.parameters["T_inf"] == pytest.approx(334e-6, rel=1e-6)
    assert fit.parameters["T0"] == pytest.approx(1e-3, rel=1e-6)
    assert fit.parameters["tau"] == pytest.approx(0.05, rel=1e-6)
    assert fit.residual_norm < 1e-12
    assert fit.standard_errors is None


def test_exponential_noisy_recovery_seeded():
    # tolerance established by sweeping 100 seeds: the worst-case tau
    # error at 2% multiplicative noise and 50 samples stays below 10%
    times, temps = _exponential_trace()
    rng = np.random.default_rng(0)
    noisy = temps * (1.0 + 0.02 * rng.standard_normal(times.size))
    fit = fit_exponential(_trace(times, noisy), axis="y")
    assert fit.converged
    assert fit.parameters["tau"] == pytest.approx(0.05, rel=0.10)


def test_exponential_constant_trace_unidentifiable():
    times = np.linspace(0.0, 0.25, 20)
    with pytest.raises(DegenerateDataError):
        fit_exponential(_trace(times, np.full(20, 3e-4)), axis="y")


def test_exponential_needs_four_samples():
    times, temps = _exponential_trace(n=3, t_max=0.01)
    with pytest.raises(ValueError):
        fit_exponential(_trace(times, temps), axis="y")


def test_exponential_window_selects_samples():
    times, temps = _exponential_trace()
    # corrupt everything after 150 ms, then fit only the clean window
    corrupted = temps.copy()
    corrupted[times > 0.15] = 5e-3
    fit = fit_exponential(_trace(times, corrupted), axis="y", window=(0.0, 0.15))
    assert fit.parameters["tau"] == pytest.approx(0.05, rel=1e-6)


def test_exponential_location_invariance():
    # shifting the time origin re-labels T0 but cannot move tau or T_inf
    times, temps = _exponential_trace()
    fit_a = fit_exponential(_trace(times, temps), axis="y")
    fit_b = fit_exponential(_trace(times + 0.3, temps), axis="y")
    assert fit_b.parameters["tau"] == pytest.approx(fit_a.parameters["tau"], rel=1e-6)
    assert fit_b.parameters["T_inf"] == pytest.approx(fit_a.parameters["T_inf"], rel=1e-6)
    assert fit_b.parameters["T0"] > fit_a.parameters["T0"]


def test_exponential_fit_axis_selection():
    times, temps = _exponential_trace()
    kappas = KappaSet(kappa_y=0.0, kappa_z=0.0, kappa=0.0, kappa0=0.0)
    trace = TemperatureTrace(samples=tuple(
        TraceSample(t=float(t), T_z=float(v), T_y=2e-3,
                    sigma_z=1e-4, sigma_y=1e-4, peak_density=0.0, kappas=kappas)
        for t, v in zip(times, temps)
    ))
    fit = fit_exponential(trace, axis="z")
    assert fit.parameters["tau"] == pytest.approx(0.05, rel=1e-6)
    with pytest.raises(DegenerateDataError):
        fit_exponential(trace, axis="y")


@pytest.mark.parametrize("duration_ms, bisection_tau", [
    ("60", 0.03825391923165475),
    ("150", 0.03825391923165517),
])
def test_exponential_tau_of_cli_fits_pinned(duration_ms, bisection_tau):
    # the radial fits of the tests/test_cli.py dynamics configs, against
    # the tau that bisection in log tau down to adjacent floats found
    config = parse_config(DYNAMICS.replace("duration_ms = 60", f"duration_ms = {duration_ms}"))
    fit = fit_scenario(config)
    assert fit.converged
    assert fit.parameters["tau"] == pytest.approx(bisection_tau, rel=1e-12, abs=0)
    assert fit.iterations <= MAX_TAU_EVALUATIONS


@pytest.mark.parametrize("axis, bisection_tau", [
    ("y", 0.03825391923165509),
    ("z", 0.005899841549283594),
])
def test_exponential_tau_of_frozen_trace_is_the_inverse_cooling_rate(
    frozen_run, measured_laser, delta_pol, species, trap, axis, bisection_tau
):
    # a frozen shape relaxes at its initial cooling rate C exactly
    rs = rates(measured_laser, frozen_run.samples[0].kappas, delta_pol, species, trap)
    fit = fit_exponential(frozen_run, axis=axis)
    tau = fit.parameters["tau"]
    assert tau == pytest.approx(bisection_tau, rel=1e-12, abs=0)
    assert tau == pytest.approx(1.0 / getattr(rs, f"cool_rate_{axis}"), rel=1e-12, abs=0)
    assert fit.iterations <= MAX_TAU_EVALUATIONS


def test_exponential_tau_near_one_second_stops_at_the_bracket_floor():
    # log tau ~ 0: a purely relative tolerance would chase the root to
    # the smallest floats
    times, temps = _exponential_trace(tau=1.0, n=61, t_max=3.0)
    fit = fit_exponential(_trace(times, temps), axis="y")
    assert fit.converged
    assert fit.parameters["tau"] == pytest.approx(1.0, rel=1e-12, abs=0)
    assert fit.iterations <= MAX_TAU_EVALUATIONS


def _intensity_points(species, noise=0.0, seed=0, n=8, lo=1e-4, hi=1e-2,
                      kappa_y=0.11, heating=2.6e-26):
    xs = np.geomspace(lo, hi, n)
    clean = np.array([
        steady_state_with_heating(kappa_y, 0.24, heating, x, -0.8, species)
        for x in xs
    ])
    if noise == 0.0:
        return [ScanPoint(x=float(x), y=float(y)) for x, y in zip(xs, clean)]
    rng = np.random.default_rng(seed)
    ys = clean * (1.0 + noise * rng.standard_normal(xs.size))
    return [
        ScanPoint(x=float(x), y=float(y), y_err=float(noise * c))
        for x, y, c in zip(xs, ys, clean)
    ]


def test_intensity_noiseless_recovery(species):
    fit = fit_intensity_scan(_intensity_points(species), 0.24, -0.8, species)
    assert fit.converged
    assert fit.iterations == 1
    assert fit.parameters["kappa_y"] == pytest.approx(0.11, rel=1e-8)
    assert fit.parameters["heating_power"] == pytest.approx(2.6e-26, rel=1e-8)


def test_intensity_noisy_recovery_seeded(species):
    # tolerances from a 100-seed sweep at 3% noise on this grid: 97 of
    # 100 seeds land inside 5% / 15%; the pinned seed sits well inside
    fit = fit_intensity_scan(
        _intensity_points(species, noise=0.03, seed=0), 0.24, -0.8, species
    )
    assert fit.converged
    assert fit.parameters["kappa_y"] == pytest.approx(0.11, rel=0.05)
    assert fit.parameters["heating_power"] == pytest.approx(2.6e-26, rel=0.15)


def test_intensity_fit_preconditions(species):
    points = _intensity_points(species)
    with pytest.raises(ValueError):
        fit_intensity_scan(points[:2], 0.24, -0.8, species)
    narrow = [ScanPoint(x=1e-3 * (1 + 0.1 * i), y=3e-4) for i in range(4)]
    with pytest.raises(ValueError):
        fit_intensity_scan(narrow, 0.24, -0.8, species)


def test_intensity_fit_round_trip(species):
    first = fit_intensity_scan(
        _intensity_points(species, noise=0.03, seed=5), 0.24, -0.8, species
    )
    regenerated = _intensity_points(
        species,
        kappa_y=first.parameters["kappa_y"],
        heating=first.parameters["heating_power"],
    )
    second = fit_intensity_scan(regenerated, 0.24, -0.8, species)
    for name in ("kappa_y", "heating_power"):
        assert second.parameters[name] == pytest.approx(
            first.parameters[name], rel=1e-8
        )


def test_weighted_errors_scale(species):
    base = _intensity_points(species, noise=0.03, seed=3)
    doubled = [
        ScanPoint(x=p.x, y=p.y, y_err=2 * p.y_err) for p in base
    ]
    fit_a = fit_intensity_scan(base, 0.24, -0.8, species)
    fit_b = fit_intensity_scan(doubled, 0.24, -0.8, species)
    for name in ("kappa_y", "heating_power"):
        assert fit_b.parameters[name] == pytest.approx(
            fit_a.parameters[name], rel=1e-6
        )
        assert fit_b.standard_errors[name] == pytest.approx(
            2 * fit_a.standard_errors[name], rel=1e-4
        )


def test_mixed_error_bars_rejected(species):
    points = _intensity_points(species)
    mixed = points[:-1] + [ScanPoint(x=points[-1].x, y=points[-1].y, y_err=1e-5)]
    with pytest.raises(ValueError):
        fit_intensity_scan(mixed, 0.24, -0.8, species)


def _od_points(species, kappa_y_star=0.11 / 4.5, n=10):
    ods = np.geomspace(1.0, 20.0, n)
    return [
        ScanPoint(x=float(od), y=float(steady_state_vs_od(
            kappa_y_star, 0.24 / 4.5, od, 2.6e-26, 1.33e-3, -0.8, species
        )))
        for od in ods
    ]


def test_od_refit_recovers_shifted_coefficient(species):
    # data generated with a 20% larger kappa_y_star than the reference
    true_star = 1.2 * 0.11 / 4.5
    fit = fit_od_scan(
        _od_points(species, kappa_y_star=true_star),
        0.24, 4.5, 2.6e-26, 1.33e-3, -0.8, species,
    )
    assert fit.converged
    assert fit.iterations == 1
    assert fit.parameters["kappa_y_star"] == pytest.approx(true_star, rel=1e-8)
    assert fit.parameters["kappa_star"] == pytest.approx(0.24 / 4.5, rel=1e-12)


def test_od_scan_rejects_bad_reference(species):
    with pytest.raises(ValueError):
        fit_od_scan(_od_points(species), 0.24, 0.0, 0.0, 1e-3, -0.8, species)
    with pytest.raises(ValueError):
        fit_od_scan([], 0.24, 4.5, 0.0, 1e-3, -0.8, species)
    # heating with no light: the model diverges at every optical density
    with pytest.raises(DegenerateDataError):
        fit_od_scan(_od_points(species), 0.24, 4.5, 2.6e-26, 0.0, -0.8, species)


def test_scan_point_validation():
    with pytest.raises(ValueError):
        ScanPoint(x=-1.0, y=1e-4)
    with pytest.raises(ValueError):
        ScanPoint(x=1.0, y=0.0)
    with pytest.raises(ValueError):
        ScanPoint(x=1.0, y=1e-4, y_err=0.0)


def test_load_scan_points_roundtrip(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("# provenance line\nx,y,y_err\n0.001,0.0003,1e-5\n0.01,0.0002,\n")
    points = load_scan_points(path)
    assert len(points) == 2
    assert points[0].y_err == pytest.approx(1e-5)
    assert points[1].y_err is None
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_scan_points(path)


def test_exponential_straight_line_unconverged():
    # a straight line is the tau -> infinity limit: no minimum in the bracket
    times = np.linspace(0.0, 0.004, 20)
    fit = fit_exponential(_trace(times, 1e-3 - 0.01 * times), axis="y")
    assert not fit.converged
    assert fit.standard_errors is None
    assert fit.parameters["tau"] == pytest.approx(1e3 * 0.004, rel=1e-12)
    assert fit.iterations == 2  # the gradient at the two bracket ends


def test_scan_fits_without_physical_kappa_unconverged(species):
    # points below the infinite-kappa_y floor need kappa_y < 0
    floor = steady_state_with_heating(1e12, 0.24, 0.0, 1e-3, -0.8, species)
    points = [ScanPoint(x=x, y=0.9 * floor) for x in (1e-4, 1e-3, 1e-2)]
    fit = fit_intensity_scan(points, 0.24, -0.8, species)
    assert not fit.converged
    assert fit.parameters["kappa_y"] < 0
    assert fit.iterations == 1
    fit = fit_od_scan(points, 0.24, 4.5, 0.0, 1.33e-3, -0.8, species)
    assert not fit.converged
    assert fit.parameters["kappa_y_star"] < 0
