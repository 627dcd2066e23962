"""Least-squares fits: exponential traces, intensity scans, OD scans."""

from __future__ import annotations

import math

import numpy as np
import pytest

from doppler_reabs import (
    DegenerateDataError,
    ScanPoint,
    fit_exponential,
    fit_intensity_scan,
    fit_od_scan,
    load_scan_points,
    steady_state_vs_od,
    steady_state_with_heating,
)
from doppler_reabs import fitting, parse_config, rates
from doppler_reabs.dynamics import TemperatureTrace, detuning_factor
from doppler_reabs.fitting import _fit_csv, fit_scenario
from doppler_reabs.runners import _simulate as simulate_config
from test_cli import DYNAMICS

# The root search may take at most this many gradient evaluations,
# bracket ends included; the bisection it replaced took 55-58, and 106
# on a decay time near 1 s.
MAX_TAU_EVALUATIONS = 20


SHAPE = (1e-4, 1e-4, 0.0, 0.0, 0.0, 0.0, 0.0)  # one shared shape row: no reabsorption


def _trace(times, temps):
    temps = tuple(map(float, temps))
    return TemperatureTrace(t=tuple(map(float, times)), T_z=temps, T_y=temps, shapes=(SHAPE,))


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
    trace = TemperatureTrace(t=tuple(map(float, times)), T_z=tuple(map(float, temps)),
                             T_y=(2e-3,) * times.size, shapes=(SHAPE,))
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


def test_load_scan_points_reads_crlf_as_lf(tmp_path):
    text = "# measured\nx,y,y_err\n0.001,0.0003,1e-5\n0.01,0.0002,\n\n0.1,0.00015,2e-6\n"
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    points = load_scan_points(lf)
    assert len(points) == 3
    assert load_scan_points(crlf) == points


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


# --- the scan fits against numpy's least squares -------------------------

KAPPA, DELTA, HEATING, OD_INTENSITY = 0.24, -0.8, 2.6e-26, 1.33e-3


def _lstsq_oracle(species, columns, points, change):
    """(values, standard errors) of numpy.linalg.lstsq on the weighted
    model y - base ~ base * columns @ q, columns scaled to unit norm;
    change(q) gives the parameters and the Jacobian dp/dq."""
    base = species.doppler_temperature / 2.0 * detuning_factor(DELTA)
    design = base * np.column_stack(columns)
    target = np.array([pt.y for pt in points]) - base
    weighted = points[0].y_err is not None
    w = 1.0 / np.array([pt.y_err for pt in points]) if weighted else np.ones(len(points))
    a, b = design * w[:, None], target * w
    norms = np.linalg.norm(a, axis=0)
    q = np.linalg.lstsq(a / norms, b, rcond=None)[0] / norms
    cov = np.linalg.inv((a / norms).T @ (a / norms)) / np.outer(norms, norms)
    if not weighted:
        r = design @ q - target
        cov = cov * (r @ r) / (len(points) - len(columns))
    values, jac = change(q)
    return values, np.sqrt(np.diag(jac @ cov @ jac.T))


def _intensity_oracle(species, points):
    x = np.array([pt.x for pt in points])
    power = species.recoil_energy * species.linewidth

    def change(q):
        u, v = q
        return (1 / u, v * power / u), np.array([[-1 / u**2, 0.0], [-v * power / u**2, power / u]])

    return _lstsq_oracle(species, [np.full(x.size, 0.3 * (1 + KAPPA)), 1 / x], points, change)


def _od_oracle(species, points):
    column = [steady_state_vs_od(1.0, KAPPA / 4.5, pt.x, HEATING, OD_INTENSITY, DELTA, species)
              for pt in points]
    base = species.doppler_temperature / 2.0 * detuning_factor(DELTA)

    def change(q):
        return (1 / q[0],), np.array([[-1 / q[0] ** 2]])

    return _lstsq_oracle(species, [np.array(column) / base - 1.0], points, change)


def _noisy(xs, truth, weighted, rng):
    ys = truth * (1.0 + 0.03 * rng.standard_normal(truth.size))
    return [ScanPoint(float(x), float(y), float(0.03 * t) if weighted else None)
            for x, y, t in zip(xs, ys, truth)]


def _assert_matches_oracle(fit, names, oracle):
    values, errors = oracle
    for name, value, error in zip(names, values, errors):
        assert fit.parameters[name] == pytest.approx(value, rel=1e-12, abs=0), name
        assert fit.standard_errors[name] == pytest.approx(error, rel=1e-12, abs=0), name


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("span", [3.0, 10.0, 1e2, 1e4])
@pytest.mark.parametrize("n", [3, 10, 100, 1000])
def test_intensity_fit_matches_lstsq(species, n, span, weighted):
    rng = np.random.default_rng([n, int(span), weighted])
    xs = 1e-3 * np.geomspace(1.0, span, n)
    truth = np.array([steady_state_with_heating(0.11, KAPPA, HEATING, x, DELTA, species)
                      for x in xs])
    points = _noisy(xs, truth, weighted, rng)
    fit = fit_intensity_scan(points, KAPPA, DELTA, species)
    assert fit.converged
    _assert_matches_oracle(fit, ("kappa_y", "heating_power"), _intensity_oracle(species, points))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("n", [3, 10, 100, 1000])
def test_od_fit_matches_lstsq(species, n, weighted):
    rng = np.random.default_rng([n, weighted])
    ods = np.geomspace(1.0, 20.0, n)
    truth = np.array([steady_state_vs_od(0.11 / 4.5, KAPPA / 4.5, od, HEATING, OD_INTENSITY,
                                         DELTA, species) for od in ods])
    points = _noisy(ods, truth, weighted, rng)
    fit = fit_od_scan(points, KAPPA, 4.5, HEATING, OD_INTENSITY, DELTA, species)
    assert fit.converged
    _assert_matches_oracle(fit, ("kappa_y_star",), _od_oracle(species, points))


# degenerate data the lstsq solve took without raising: the closed form
# gives a FitResult of the same kind, or the same exception, with numpy's
# inf and nan where Python would raise OverflowError or ZeroDivisionError,
# and without the warnings numpy printed

def _fits(species, ys, y_err=None):
    """The intensity fit and the OD fit of the same temperatures, as
    functions of no arguments."""
    def points(xs):
        return [ScanPoint(x, y, y_err) for x, y in zip(xs, ys)]

    return (
        lambda: fit_intensity_scan(points((1e-4, 1e-3, 1e-2, 3e-2)), KAPPA, DELTA, species),
        lambda: fit_od_scan(points((1.0, 2.0, 5.0, 20.0)), KAPPA, 4.5, HEATING, OD_INTENSITY,
                            DELTA, species),
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y_err", [None, 1e-6], ids=["unweighted", "weighted"])
def test_data_at_the_floor_drive_the_inverse_parameters_to_zero(species, y_err):
    # T = base everywhere: u = v = 0 and w = 0, so kappa_y = 1/u is infinite
    base = species.doppler_temperature / 2.0 * detuning_factor(DELTA)
    intensity, od = (fit() for fit in _fits(species, [base] * 4, y_err))
    assert not intensity.converged and not od.converged
    assert intensity.parameters["kappa_y"] == math.inf
    assert math.isnan(intensity.parameters["heating_power"])  # 0/0
    # the sign of an infinity from a zero solution follows that zero's sign,
    # which is rounding: the lstsq solve gave -0.0 here, the closed form +0.0
    assert math.isinf(od.parameters["kappa_y_star"])
    assert intensity.standard_errors is None and od.standard_errors is None
    assert intensity.residual_norm == 0.0 and od.residual_norm == 0.0


@pytest.mark.filterwarnings("error")
def test_temperatures_near_the_float_limit_drive_the_inverse_parameters_to_infinity(species):
    # T/base - 1 stays finite, but u and w overflow to inf, so kappa_y and
    # kappa_y_star are 0 and every residual and standard error is inf or nan
    for fit, name in zip(_fits(species, [4e303 * (1 + 0.1 * i) for i in range(4)]),
                         ("kappa_y", "kappa_y_star")):
        fit = fit()
        assert fit.converged
        assert fit.parameters[name] == 0.0
        assert all(math.isnan(e) for e in fit.standard_errors.values())
        assert fit.residual_norm == math.inf
    # while a smaller u stays finite
    intensity = _fits(species, [2e303 * (1 + 0.1 * i) for i in range(4)])[0]()
    assert 0.0 < intensity.parameters["kappa_y"] < 1e-307


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ys, y_err", [
    ([3e-4] * 4, 1e-300),  # the weights overflow
    ([3e-4] * 4, 5e-324),  # the weights are inf
    ([1e299] * 4, 1e298),  # the weights underflow
    ([1e305] * 4, None),   # T/base overflows
], ids=["weights_overflow", "weights_inf", "weights_underflow", "target_overflows"])
def test_data_out_of_the_float_range_raise_degenerate_data(species, ys, y_err):
    for fit in _fits(species, ys, y_err):
        with pytest.raises(DegenerateDataError, match="out of range for a least-squares solve"):
            fit()


@pytest.mark.filterwarnings("error")
def test_one_dominant_error_bar_makes_the_columns_parallel(species):
    # the other weights' squares underflow, so the weighted columns are
    # parallel: the minimum-norm solution lstsq gives, and no covariance
    xs = (1e-4, 1e-3, 1e-2, 3e-2)
    points = [ScanPoint(x, steady_state_with_heating(0.11, KAPPA, HEATING, x, DELTA, species),
                        1e-6 if i == 0 else 1e200) for i, x in enumerate(xs)]
    fit = fit_intensity_scan(points, KAPPA, DELTA, species)
    x = np.array(xs)
    base = species.doppler_temperature / 2.0 * detuning_factor(DELTA)
    a = base * np.column_stack((np.full(4, 0.3 * (1 + KAPPA)), 1 / x)) / np.array(
        [pt.y_err for pt in points])[:, None]
    norms = np.linalg.norm(a, axis=0)
    b = (np.array([pt.y for pt in points]) - base) / np.array([pt.y_err for pt in points])
    (u, v), _, rank, _ = np.linalg.lstsq(a / norms, b, rcond=None)
    assert rank == 1
    u, v = u / norms[0], v / norms[1]
    power = species.recoil_energy * species.linewidth
    assert fit.converged
    assert fit.parameters["kappa_y"] == pytest.approx(1 / u, rel=1e-12, abs=0)
    assert fit.parameters["heating_power"] == pytest.approx(v * power / u, rel=1e-12, abs=0)
    assert all(math.isnan(e) for e in fit.standard_errors.values())


# --- the exponential fit against the arithmetic it replaced ----------------

def _reference_project(shifted, centered, tau):
    """(T_inf - mean T, b, gradient) of fitting's former _project, one numpy
    dot product per term, kept as an oracle for _projection."""
    e = np.exp(shifted * (-1.0 / tau))
    e_mean = float(e.mean())
    de = e - e_mean
    es = e * shifted
    b = float(de @ centered) / float(de @ de)
    return -b * e_mean, b, b * (b * float(de @ es) - float(centered @ es))


def _reference_fit_exponential(trace, axis="y", window=None):
    """fit_exponential as it was before _projection: numpy's inv of J^T J
    under errstate, with _reference_project as its gradient."""
    times = np.asarray(trace.times())
    temps = np.asarray(trace.temperatures(axis))
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, temps = times[keep], temps[keep]
    if times.size < fitting.EXP_MIN_SAMPLES:
        raise ValueError("too few samples")
    if float(np.ptp(temps)) == 0.0:
        raise DegenerateDataError("constant")
    shifted = times - times[0]
    centered = temps - temps.mean()

    def gradient(log_tau):
        return _reference_project(shifted, centered, math.exp(log_tau))[2]

    lo, hi = (math.log(f * shifted[-1]) for f in fitting.EXP_TAU_BRACKET)
    g_lo, g_hi = gradient(lo), gradient(hi)
    converged = g_lo < 0 and g_hi > 0
    evaluations = 2
    if converged:
        lo, more = fitting._zeroin(gradient, lo, hi, g_lo, g_hi)
        evaluations += more
    elif g_lo < 0:
        lo = hi
    tau = math.exp(lo)
    offset, b, _ = _reference_project(shifted, centered, tau)
    t_inf = float(temps.mean()) + offset
    e = np.exp(-shifted / tau)
    r = offset + b * e - centered
    with np.errstate(over="ignore"):
        growth = float(np.exp(times[0] / tau))
    jac = np.column_stack((1.0 - e / growth, e / growth, b * e * times / tau**2))
    try:
        variances = np.diag(np.linalg.inv(jac.T @ jac)).tolist()
    except np.linalg.LinAlgError:
        variances = None
    return fitting._build_result(("T_inf", "T0", "tau"), (t_inf, t_inf + b * growth, tau),
                                 converged, evaluations, variances, r.tolist(), temps.tolist(),
                                 weighted=False)


def _windowed(trace, axis="y", window=None):
    """(shifted, centered) of a trace as fit_exponential builds them."""
    times, temps = np.asarray(trace.times()), np.asarray(trace.temperatures(axis))
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, temps = times[keep], temps[keep]
    return times - times[0], temps - float(temps.sum()) / times.size


def _gradient_cases(self_consistent_run):
    times, falling = _exponential_trace()
    _, rising = _exponential_trace(t0=2e-4, t_inf=9e-4)
    noisy = falling * (1.0 + 0.02 * np.random.default_rng(7).standard_normal(times.size))
    line = np.linspace(0.0, 0.004, 20)
    return {
        "falling": (_trace(times, falling), None),
        "rising": (_trace(times, rising), None),
        "straight_line": (_trace(line, 1e-3 - 0.01 * line), None),
        "noisy": (_trace(times, noisy), None),
        "self_consistent": (self_consistent_run, None),
        "windowed": (self_consistent_run, (0.05, 0.3)),
    }


@pytest.mark.parametrize("case", ["falling", "rising", "straight_line", "noisy",
                                  "self_consistent", "windowed"])
def test_projection_gradient_matches_the_former_arithmetic(self_consistent_run, case):
    # at 50 log-spaced tau across the bracket: the sign wherever the
    # oracle's gradient stands above its rounding scale, and 1e-9 relative
    trace, window = _gradient_cases(self_consistent_run)[case]
    shifted, centered = _windowed(trace, window=window)
    project = fitting._projection(shifted, centered)
    lo, hi = (math.log(f * float(shifted[-1])) for f in fitting.EXP_TAU_BRACKET)
    signs = set()
    for log_tau in np.linspace(lo, hi, 50):
        offset, b, g = _reference_project(shifted, centered, math.exp(log_tau))
        e = np.exp(shifted * (-1.0 / math.exp(log_tau)))
        size_de, size_es = np.abs(e - e.mean()), np.abs(e * shifted)
        # each dot product rounds to about n eps of the sum of its terms' sizes
        scale = shifted.size * 2.0**-52 * abs(b) * (
            abs(b) * float(size_de @ size_es) + float(np.abs(centered) @ size_es))
        got, got_b, got_offset, _ = project(float(log_tau))
        assert abs(got - g) <= 1e-9 * abs(g) + scale, log_tau
        if abs(g) > scale:
            assert (got > 0) == (g > 0), log_tau
            signs.add(g > 0)
        assert got_b == pytest.approx(b, rel=1e-9, abs=0)
        assert got_offset == pytest.approx(offset, rel=1e-9, abs=0)
    # the traces with a minimum cross it, the line falls throughout
    assert signs == ({False} if case == "straight_line" else {False, True})


def _sweep_traces(count, seed):
    """(trace, axis, window) of seeded dynamics runs: frozen and
    self-consistent, 10-600 ms, sample strides 1-37, a third windowed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mode = ("false", "true")[rng.integers(2)]
        config = parse_config(
            DYNAMICS.replace("duration_ms = 60", f"duration_ms = {rng.uniform(10, 600)!r}")
            .replace("sample_stride = 20", f"sample_stride = {rng.integers(1, 38)}")
            .replace("self_consistent = false", f"self_consistent = {mode}")
            .replace("atom_number = 1e8", f"atom_number = {10 ** rng.uniform(7, 9)!r}")
            .replace("temperature_uK = 1000", f"temperature_uK = {rng.uniform(200, 2000)!r}"))
        trace = simulate_config(config)
        window = None
        if rng.integers(3) == 0:
            start = rng.uniform(0.0, 0.5) * trace.samples[-1].t
            window = (start, start + rng.uniform(0.3, 0.5) * trace.samples[-1].t)
        yield trace, "yz"[rng.integers(2)], window


def test_exponential_fit_matches_the_former_fit_over_a_sweep():
    converged = 0
    for trace, axis, window in _sweep_traces(40, seed=23):
        try:
            old = _reference_fit_exponential(trace, axis, window)
        except ValueError:  # a window with too few samples, or a constant trace
            with pytest.raises(ValueError):
                fit_exponential(trace, axis, window)
            continue
        new = fit_exponential(trace, axis, window)
        assert new.converged == old.converged
        assert (new.standard_errors is None) == (old.standard_errors is None)
        if old.converged:
            converged += 1
            for name, value in old.parameters.items():
                assert new.parameters[name] == pytest.approx(value, rel=1e-10, abs=0), name
        # the cofactor inverse of J^T J against numpy's inv: 5e-10 at worst over
        # 240 such traces, J^T J being ill-conditioned on the shorter ones
        for name, error in (old.standard_errors or {}).items():
            assert new.standard_errors[name] == pytest.approx(error, rel=1e-8, abs=0), name
    assert converged >= 30


@pytest.mark.parametrize("noise", [0.0, 0.01], ids=["noise_free", "noisy"])
def test_window_far_past_t0_overflows_t0_to_divergent(noise):
    # exp(t_first / tau) overflows 710 tau after t = 0: T0 is infinite, the
    # fit still converges on tau and T_inf, and no OverflowError escapes to
    # the command line's out-of-range handler
    tau, start = 1e-3, 0.75
    times = np.concatenate((np.linspace(0.0, 0.7, 8), start + np.linspace(0.0, 0.01, 40)))
    temps = [2e-3 if t < start else 334e-6 + 666e-6 * math.exp(-(t - start) / tau)
             for t in times]
    temps *= 1.0 + noise * np.random.default_rng(0).standard_normal(times.size)
    fit = fit_exponential(_trace(times, temps), axis="y", window=(start, 1.0))
    assert fit.converged
    assert fit.parameters["T0"] == math.inf
    assert fit.parameters["tau"] == pytest.approx(tau, rel=0.05 if noise else 1e-9)
    if noise:
        assert all(math.isnan(v) for v in fit.standard_errors.values())
    else:
        assert fit.standard_errors is None
    rows = dict(line.split(",", 1) for line in _fit_csv(parse_config(DYNAMICS), fit).splitlines()
                if not line.startswith("#"))
    assert rows["T0"] == ("divergent,divergent" if noise else "divergent,")
