"""Least-squares estimation of cooling-model parameters.

Exponential relaxation fits to temperature traces, the radial
steady-state-versus-intensity model with an unknown constant heating
power, and the per-optical-density variant.  Every fit is a direct
solve: the two scan models are linear after a change of variables and
take one weighted least-squares solve each, in closed form on plain
floats; the exponential is linear in T_inf and T0 for fixed tau, which
leaves a root search in tau alone (Brent's zeroin, started from a
closed-form estimate), each of whose steps is one loop over a short
trace's samples or five numpy calls over a longer one's.  Parameter
uncertainties come from the covariance diagonal, carried through the
exact Jacobian of each change of variables.

fit_scenario, the fit verb, picks the fit of the scenario kind, makes
scan data from the config when no data file is given, and names the key
to change when a dynamics window keeps too few samples.  Only that
data's seeded noise and exponential fits of more than EXP_FLOAT_SAMPLES
samples import numpy.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate

from .atoms import AtomSpecies, _Checked
from .config import KINDS, ConfigError, ScenarioConfig, _read_text, format_value
from .dynamics import TemperatureTrace, _heating_extra, _radial_at_od, _steady_constants
from .runners import _render_csv, _scan_model, _simulate

EXP_TAU_BRACKET = (1e-3, 1e3)  # tau search range, in units of the sample span
EXP_MIN_SAMPLES = 4  # an exponential fit's samples in its window, at least
# Residual norm over data norm up to which an unweighted fit is exact but for
# rounding: noise-free frozen traces and scans read 1e-16 to 1e-15, traces of
# a self-consistent shape 1.6e-7 and up, scans with 0.1 % noise 6e-4.
EXACT_FIT_REL = 1e-12
# An exponential fit of at most this many samples runs on plain floats, a
# longer one on numpy: in process, with numpy loaded, both take about 100 us
# at 17 samples, and at 14 and 25 the faster takes 20 % less
EXP_FLOAT_SAMPLES = 20


class DegenerateDataError(ValueError):
    """The data cannot identify the model parameters."""


class ScanPoint(_Checked, namedtuple("ScanPoint", (
    "x",      # scan variable (intensity or optical density)
    "y",      # temperature [K]
    "y_err",  # its error bar [K], or None
), defaults=(None,))):
    """One measured point of a parameter scan."""

    __slots__ = ()

    def _check(self):
        if not self.x > 0:
            raise ValueError("x must be positive")
        if not self.y > 0:
            raise ValueError("y must be positive")
        if self.y_err is not None and not self.y_err > 0:
            raise ValueError("y_err must be positive when given")


class FitResult(namedtuple("FitResult", (
    "parameters",       # {name: value}
    "standard_errors",  # {name: error}, or None
    "residual_norm",    # euclidean norm of unweighted residuals [K]
    "converged", "iterations",
))):
    """Parameters of a least-squares fit, converged or not."""

    __slots__ = ()


def _build_result(names, p, converged, iterations, variances, r, y, weighted):
    """FitResult with standard errors from the covariance diagonal.

    r (residuals [K]), y (data) and variances (the diagonal of the
    unscaled covariance (J^T J)^-1 of the weighted residuals, or None
    where singular) are plain sequences.  Without error bars, whose
    weights are 1, the variances are scaled by that of r.  A singular or
    indefinite covariance gives NaN errors; an unconverged fit gives
    none, and so does an unweighted fit that matches the data y exactly
    (EXACT_FIT_REL), whose residual variance is rounding noise.
    """
    residual_norm = math.hypot(*r)
    exact = not weighted and residual_norm <= EXACT_FIT_REL * math.hypot(*y)
    errors = None
    if converged and not exact:
        errors = dict.fromkeys(names, math.nan)
        if variances is not None:
            dof = len(r) - len(names)
            if not weighted and dof > 0:
                variances = [v * (residual_norm * residual_norm) / dof for v in variances]
            if all(v >= 0 for v in variances):
                errors = {name: math.sqrt(v) for name, v in zip(names, variances)}
    return FitResult(dict(zip(names, p)), errors, residual_norm, converged, iterations)


def _zeroin(f, a, b, fa, fb):
    """A root of f between a and b, where fa = f(a) < 0 < fb = f(b), and the
    number of evaluations of f it took.

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic interpolation or the secant where it makes
    progress, bisection where it does not, until the bracket around the
    best estimate x is at most 2 * (2 eps |x| + floor) wide.  The floor,
    eps * max(|a|, |b|), about a unit in the last place of the bracket's
    ends, keeps a root near 0 from being pursued to the smallest floats.
    """
    eps = 2.0**-52
    floor = eps * max(abs(a), abs(b))
    c, fc = a, fa
    d = e = b - a
    evaluations = 0
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + floor
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0:
            return b, evaluations
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        evaluations += 1


def _integral_start(dot, area, shifted, rise):
    """log tau by the integral method, or nan: rise_i = T_i - T_0 =
    (s_i T_inf - A_i)/tau, with A_i the integral of T up to shifted time
    s_i over cumulative trapezoids (any sample spacing will do; area is 2A),
    is linear in 1/tau and T_inf/tau.  dot sums the products of two columns."""
    aa, a_s, ss = dot(area, area), dot(area, shifted), dot(shifted, shifted)
    slope = _div(ss * dot(area, rise) - a_s * dot(shifted, rise), aa * ss - a_s * a_s)
    return -math.log(-2.0 * slope) if slope < 0 else math.nan  # slope = -1/(2 tau)


def _float_model(times, temps):
    """(project, start, finish) of fit_exponential on plain floats.

    The temperatures are centred on a two-part mean, mean + rest, whose
    rounding then does not shift a late window's small exponential.
    project(log_tau) -> (gradient, b, T_inf - mean T, e): for tau =
    exp(log_tau) the model T_inf + b e, with e = exp(-shifted/tau) and
    shifted the times less the first, is linear in T_inf and b; the
    gradient has the sign of the cost's slope in log tau at their optimum
    (variable projection, Golub & Pereyra 1973).  A call is one loop over
    the samples.  start is _integral_start's log tau.  finish(log_tau,
    growth) -> (T_inf, b, residuals, J^T J) for J of (T_inf, T0, tau),
    where T0 - T_inf = b * growth.
    """
    n = len(temps)
    shifted = [t - times[0] for t in times]
    mean = math.fsum(temps) / n
    rest = math.fsum([v - mean for v in temps]) / n
    centered = [(v - mean) - rest for v in temps]
    pairs = list(zip(shifted, centered))

    def project(log_tau):
        k = -1.0 / math.exp(log_tau)
        e = [math.exp(k * s) for s in shifted]
        e_mean = math.fsum(e) / n
        dc = dd = sc = sd = 0.0
        for (s, c), v in zip(pairs, e):
            d, es = v - e_mean, v * s
            dc += d * c
            dd += d * d
            sc += c * es
            sd += d * es
        b = dc / dd
        return b * (b * sd - sc), b, -b * e_mean, e

    def finish(log_tau, growth):
        _, b, offset, e = project(log_tau)
        tau = math.exp(log_tau)
        decay = [v / growth for v in e]  # exp(-t/tau)
        jac = ([1.0 - v for v in decay], decay, [b * v * t / (tau * tau) for v, t in zip(e, times)])
        return (mean + (rest + offset), b, [offset + b * v - c for v, c in zip(e, centered)],
                [[_dot(u, v) for v in jac] for u in jac])

    area = accumulate(map(operator.mul, map(operator.sub, shifted[1:], shifted),
                          map(operator.add, centered[1:], centered)), initial=0.0)
    return project, _integral_start(_dot, list(area), shifted,
                                    [c - centered[0] for c in centered]), finish


def _array_model(times, temps):
    """_float_model on numpy arrays, where project makes five numpy calls."""
    import numpy as np
    times, temps = np.array(times), np.array(temps)
    shifted = times - times[0]
    mean = float(temps.sum()) / temps.size
    rest = float((temps - mean).sum()) / temps.size
    centered = (temps - mean) - rest
    # rows centered, de = e - mean e and es = e * shifted: [de; es] @ [centered, de]
    rows = np.array((centered, centered, centered))
    (_, de, es), left, right = rows, rows[1:], rows[:2].T

    def project(log_tau):
        e = np.exp(shifted * (-1.0 / math.exp(log_tau)))
        e_mean = float(e.sum()) / temps.size
        np.subtract(e, e_mean, out=de)
        np.multiply(e, shifted, out=es)
        (dc, dd), (sc, sd) = left.dot(right).tolist()
        b = dc / dd
        return b * (b * sd - sc), b, -b * e_mean, e

    def finish(log_tau, growth):
        _, b, offset, e = project(log_tau)
        tau = math.exp(log_tau)
        jac = np.array((1.0 - e / growth, e / growth, b * e * times / (tau * tau)))
        return (mean + (rest + offset), b, (offset + b * e - centered).tolist(),
                jac.dot(jac.T).tolist())

    area = np.zeros(temps.size)
    ((shifted[1:] - shifted[:-1]) * (centered[1:] + centered[:-1])).cumsum(out=area[1:])
    return project, _integral_start(np.dot, area, shifted, centered - centered[0]), finish


def fit_exponential(
    trace: TemperatureTrace,
    axis: str = "y",
    window: tuple[float, float] | None = None,
) -> FitResult:
    """Fit T(t) = T_inf + (T0 - T_inf) exp(-t/tau) to one axis of a trace.

    window is an inclusive (t_min, t_max) time range; None uses the
    whole trace.  A constant trace leaves tau unidentifiable and raises.
    Up to EXP_FLOAT_SAMPLES samples the fit runs on plain floats
    (_float_model), above on numpy (_array_model).  tau is the root of
    their gradient over EXP_TAU_BRACKET times the sample span;
    without a sign change from falling to rising cost there the trace
    does not pin tau, and the fit is reported unconverged at the better
    bracket end.  Else _zeroin searches the first segment that rises
    between the bracket ends and the points 0.01 either side of
    _integral_start; iterations counts every gradient evaluation, these
    four included.  Over seeded runs, late windows included, tau, T_inf
    and T0 match the same fit in 60 decimal digits to 1e-12 relative.
    """
    times, temps = trace.t, trace.temperatures(axis)
    if window is not None:  # the times increase, so the window is a slice
        first = bisect_left(times, window[0])
        last = bisect_right(times, window[1]) if window[0] <= window[1] else first
        times, temps = times[first:last], temps[first:last]
    if len(times) < EXP_MIN_SAMPLES:
        raise ValueError(f"need at least {EXP_MIN_SAMPLES} samples in the fit window")
    if temps[0] == temps[-1] and min(temps) == max(temps):  # the first test is cheap
        raise DegenerateDataError("temperature is constant over the window; tau is unidentifiable")
    model = _float_model if len(times) <= EXP_FLOAT_SAMPLES else _array_model
    project, start, finish = model(times, temps)

    def gradient(log_tau):
        return project(log_tau)[0]

    lo, hi = (math.log(f * (times[-1] - times[0])) for f in EXP_TAU_BRACKET)
    points = [(lo, gradient(lo)), (hi, gradient(hi))]
    converged = points[0][1] < 0 and points[1][1] > 0
    more = 0  # evaluations by _zeroin
    if converged:
        if lo < start - 0.01 and start + 0.01 < hi:
            points[1:1] = [(x, gradient(x)) for x in (start - 0.01, start + 0.01)]
        (p, g_p), (q, g_q) = next(pair for pair in zip(points, points[1:]) if pair[1][1] > 0)
        lo, more = _zeroin(gradient, p, q, g_p, g_q)
    elif points[0][1] < 0:
        lo = hi  # the cost still falls at the top of the bracket
    tau = math.exp(lo)
    try:
        growth = math.exp(times[0] / tau)  # from the first sample back to t = 0
    except OverflowError:
        growth = math.inf
    t_inf, b, r, ((s00, s01, s02), (_, s11, s12), (_, _, s22)) = finish(lo, growth)
    c = (s11 * s22 - s12 * s12, s00 * s22 - s02 * s02, s00 * s11 - s01 * s01)  # cofactors
    det = s00 * c[0] + s01 * (s02 * s12 - s01 * s22) + s02 * (s01 * s12 - s02 * s11)
    return _build_result(("T_inf", "T0", "tau"), (t_inf, t_inf + b * growth, tau), converged,
                         len(points) + more, [v / det for v in c] if det else None, r, temps,
                         weighted=False)


def _dot(a, b):
    """The correctly rounded sum of the rounded products of two float
    sequences: the same bits on every Python, where sum() is not."""
    return math.fsum(map(operator.mul, a, b))


def _div(a, b):
    """a / b, with numpy's inf or nan where Python raises at b = 0."""
    return a / b if b else (a * math.copysign(math.inf, b) if a else math.nan)


def _linear_fit(points, design, y, scale):
    """Weighted least squares of target = y/scale - 1 ~ sum_j q_j design[j]
    over one or two columns, in closed form; returns (q, unscaled
    covariance of q or None, residuals [K], weighted).  The target is
    (y - scale)/scale: its subtraction is exact for y within 2x of scale.

    A point's residual in kelvin is scale * (model - target), divided by
    y_err in the solve when every point has one.  Scaled to unit norm,
    which keeps parameters decades apart at full precision, two columns
    with inner product c have the normal matrix [[1, c], [c, 1]], whose
    inverse [[1, -c], [-c, 1]] / (1 - c^2) is the covariance.  1 - c^2
    and the numerator of q[1] are sums over the second column and b less
    their parts along the first, so that they do not cancel.  Parallel
    columns (1 - c^2 = 0) take the minimum-norm solution, as an SVD
    solve would, and no covariance.
    """
    weighted = all(pt.y_err is not None for pt in points)
    if not weighted and any(pt.y_err is not None for pt in points):
        raise ValueError("either every point carries y_err or none does")
    weights = [scale / pt.y_err for pt in points] if weighted else [scale] * len(points)
    a = [list(map(operator.mul, column, weights)) for column in design]
    norms = [math.sqrt(_dot(column, column)) for column in a]
    solvable = all(0.0 < n < math.inf for n in norms)  # so a is finite and scale nonzero
    target = [(v - scale) / scale for v in y] if solvable else []
    b = list(map(operator.mul, target, weights))
    if not (solvable and all(map(math.isfinite, b))):
        raise DegenerateDataError("the scan data are out of range for a least-squares solve")
    unit = [[v / n for v in column] for column, n in zip(a, norms)]
    g0 = _dot(unit[0], b)
    q_unit, cov_unit = [g0], [[1.0]]
    if len(unit) == 2:
        c = _dot(*unit)
        z = [v1 - c * v0 for v0, v1 in zip(*unit)]
        det = _dot(z, z)
        if det > 0:
            q1 = _dot(z, [v - g0 * v0 for v, v0 in zip(b, unit[0])]) / det
            q_unit, cov_unit = [g0 - c * q1, q1], [[1.0 / det, -c / det], [-c / det, 1.0 / det]]
        else:  # the pseudo-inverse [[1, s], [s, 1]] / 4 with s = sign(c)
            s, g1 = math.copysign(1.0, c), _dot(unit[1], b)
            q_unit, cov_unit = [(g0 + s * g1) / 4.0, (s * g0 + g1) / 4.0], None
    q = [v / n for v, n in zip(q_unit, norms)]
    cov = cov_unit and [[v / (ni * nj) for v, nj in zip(row, norms)]
                        for row, ni in zip(cov_unit, norms)]
    r = [scale * (_dot(row, q) - t) for row, t in zip(zip(*design), target)]
    return q, cov, r, weighted


def _mapped(cov, jac):
    """Variances after a change of variables: the diagonal of jac @ cov @ jac.T."""
    return None if cov is None else [
        _dot([_dot(row, column) for column in zip(*cov)], row) for row in jac]


def fit_intensity_scan(
    points: list[ScanPoint],
    kappa: float,
    delta_pol: float,
    species: AtomSpecies,
) -> FitResult:
    """Fit the radial steady state versus intensity for kappa_y and the
    constant heating power.

    kappa (total rescattering number) and delta_pol are held fixed.
    Needs at least 3 points spanning a factor of 3 in intensity, since
    the two parameters separate into an asymptote and a low-intensity
    upturn.  Points with y_err are combined as a weighted fit.

    The model is linear after a change of variables: with base the
    steady state at infinite kappa_y, T/base - 1 = 0.3 (1 + kappa) u +
    v / I, where u = 1/kappa_y and v = H/(kappa_y E_r Gamma).  One
    weighted solve gives (u, v); u <= 0 has no physical kappa_y and is
    reported unconverged.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 scan points")
    xs = [pt.x for pt in points]
    if max(xs) < 3.0 * min(xs):
        raise ValueError("intensity range must span at least a factor of 3")

    t_half, factor, power = _steady_constants(delta_pol, species)  # power is E_r * Gamma
    base = t_half * factor
    design = ([0.3 * (1.0 + kappa)] * len(xs), [1.0 / x for x in xs])
    y = [pt.y for pt in points]
    (u, v), cov, r, weighted = _linear_fit(points, design, y, base)
    uu = u * u
    jac = ((_div(-1.0, uu), 0.0), (_div(-v * power, uu), _div(power, u)))
    return _build_result(("kappa_y", "heating_power"), (_div(1.0, u), _div(v * power, u)),
                         u > 0, 1, _mapped(cov, jac), r, y, weighted)


def fit_od_scan(
    points: list[ScanPoint],
    kappa_at_ref: float,
    od_ref: float,
    heating_power: float,
    intensity: float,
    delta_pol: float,
    species: AtomSpecies,
) -> FitResult:
    """Fit kappa_y_star of the steady state versus optical density.

    The per-OD coefficients enter as kappa_y = kappa_y_star * OD and
    kappa = kappa_star * OD, with kappa_star = kappa_at_ref/od_ref held
    fixed.  The model is linear in w = 1/kappa_y_star: T/base - 1 =
    w * c(OD), where c is the excess of the model at kappa_y_star = 1,
    so one weighted solve of a single column gives w.  w <= 0 has no
    physical kappa_y_star and is reported unconverged.
    """
    if od_ref <= 0:
        raise ValueError("od_ref must be positive")
    if not points:
        raise ValueError("need at least 1 scan point")
    kappa_star = kappa_at_ref / od_ref
    t_half, factor, er_gamma = _steady_constants(delta_pol, species)
    base = t_half * factor
    extra = _heating_extra(heating_power, intensity, er_gamma)  # steady_state_vs_od's, bound once
    column = [_radial_at_od(1.0, kappa_star, pt.x, extra, t_half, factor) / base - 1.0
              for pt in points]
    if not all(map(math.isfinite, column)):
        raise DegenerateDataError("the steady state diverges at the scan points")
    y = [pt.y for pt in points]
    (w,), cov, r, weighted = _linear_fit(points, (column,), y, base)
    result = _build_result(("kappa_y_star",), (_div(1.0, w),), w > 0, 1,
                           _mapped(cov, ((_div(-1.0, w * w),),)), r, y, weighted)
    result.parameters["kappa_star"] = kappa_star
    return result


def load_scan_points(path) -> list[ScanPoint]:
    """Read scan points from a CSV file; columns x, y and optional y_err.

    Cells are split at commas, unquoted.  Lines starting with # are
    ignored, matching the trace CSV format.  An empty or absent y_err
    cell means no error bar; any other cell must be a finite positive
    number, else ValueError names the file's line and the cell.
    """
    lines = enumerate(_read_text(path).splitlines(), 1)
    rows = [(number, line) for number, line in lines
            if line.strip() and not line.lstrip().startswith("#")]
    names = rows[0][1].split(",") if rows else []
    if "x" not in names or "y" not in names:
        raise ValueError("scan CSV needs columns 'x' and 'y'")
    points = []
    for number, line in rows[1:]:
        cells = dict(zip(names, line.split(",")))
        values = {}
        for name in ("x", "y", "y_err") if cells.get("y_err") else ("x", "y"):
            try:
                values[name] = float(cells.get(name, ""))
            except ValueError:
                values[name] = math.nan
            if not 0.0 < values[name] < math.inf:
                raise ValueError(f"{path}, line {number}: {name} must be a finite "
                                 f"positive number (got {cells.get(name, '')!r})")
        points.append(ScanPoint(**values))
    return points


def _synthetic_points(config: ScenarioConfig, seed: int) -> list[ScanPoint]:
    """The scan fit's data without a data file: the model on the grid
    points the fit can take, each times 1 + noise_fraction * a normal
    draw of the seed, with error bar noise_fraction * model.
    """
    model = _scan_model(config)
    grid = ((x, model(x)) for x in config.grid.values())
    usable = [(x, y) for x, y in grid if x > 0 and math.isfinite(y)]  # the fit can take them
    f = config.noise_fraction
    draws = [0.0] * len(usable)
    if f:  # one batch, bit for bit the draws one at a time would give
        import numpy as np
        draws = np.random.default_rng(seed).standard_normal(len(usable)).tolist()
    points = []
    for (x, y_true), draw in zip(usable, draws):
        y = y_true * (1.0 + f * draw)
        if y > 0:  # a draw below -1/noise_fraction; later points keep their draws
            points.append(ScanPoint(x, y, f * y_true if f else None))
    return points


def _fit_csv(config: ScenarioConfig, result: FitResult) -> str:
    errors = result.standard_errors or {}
    rows = [
        (name, value, errors.get(name, ""))
        for name, value in result.parameters.items()
    ]
    rows.append(("residual_norm_K", result.residual_norm, ""))
    rows.append(("converged", result.converged, ""))
    rows.append(("iterations", result.iterations, ""))
    head = _render_csv(config.header, ("parameter", "value", "standard_error"), ())
    return head + "".join(",".join(map(format_value, row)) + "\n" for row in rows)


def _short_window(config: ScenarioConfig, trace: TemperatureTrace) -> ConfigError:
    """The error of a dynamics fit whose window keeps fewer than
    EXP_MIN_SAMPLES samples, at the key to change: the stride when a sample
    at every fixed step would fill the window, else the window's end or
    start where it cuts the run short, else the duration.
    """
    w_min, w_max = config.window or (0.0, math.inf)
    kept = sum(w_min <= t <= w_max for t in trace.t)
    dt = trace.step
    every_step = kept  # at stride 1; a run of 0 s (or of 5e-324 ms, which is 0 s) has one
    if dt > 0:
        every_step = math.floor(min(w_max, config.duration) / dt) - math.ceil(w_min / dt) + 1
    if every_step >= EXP_MIN_SAMPLES:
        key = "sample_stride"
    elif w_max < config.duration:
        key = "window_max_ms"
    elif w_min > 0:
        key = "window_min_ms"
    else:
        key = "duration_ms"
    return ConfigError([(config.lines.get(key, 0),
                         f"scenario.{key}: the fit window holds {kept} sample(s); "
                         f"an exponential fit needs at least {EXP_MIN_SAMPLES}")])


def fit_scenario(config: ScenarioConfig, seed: int = 0) -> FitResult:
    """Fit the model matching the scenario kind.

    dynamics fits an exponential to the simulated trace; the scan kinds
    fit their steady-state models to points loaded from scenario.data or,
    when no data path is given, to points synthesized from the config's
    own parameter values on the scan grid (seeded noise of
    noise_fraction, which then also sets the per-point error bars).
    """
    if "fit" not in KINDS[config.kind].verbs:
        raise ValueError(f"scenario kind '{config.kind}' has no fit")
    if config.kind == "dynamics":
        trace = _simulate(config)
        try:
            return fit_exponential(trace, axis=config.fit_axis, window=config.window)
        except DegenerateDataError as exc:  # a ValueError, so caught first
            message = (f"laser.intensity_Isat: the light leaves T_{config.fit_axis} "
                       "constant over the fit window, so tau is unidentifiable")
            raise ConfigError([(config.lines.get("intensity_Isat", 0), message)]) from exc
        except ValueError as exc:  # fewer than EXP_MIN_SAMPLES in the window
            raise _short_window(config, trace) from exc

    def fit(points: list[ScanPoint]) -> FitResult:
        if config.kind == "intensity_scan":
            return fit_intensity_scan(points, config.kappa, config.delta_pol, config.species)
        return fit_od_scan(
            points,
            config.kappa_at_ref,
            config.od_ref,
            config.heating_power,
            config.laser.effective_intensity,
            config.delta_pol,
            config.species,
        )

    if config.data is not None:
        return fit(load_scan_points(config.data))
    try:  # synthetic points come from the config's own values, so their failure is its own
        return fit(_synthetic_points(config, seed))
    except ValueError as exc:
        raise ConfigError([(config.lines.get("kind", 0), f"scenario.kind: {exc}")]) from exc


def run_fit(config: ScenarioConfig, seed: int = 0) -> str:
    """Fit the model matching the scenario kind; parameter table as CSV."""
    return _fit_csv(config, fit_scenario(config, seed))
