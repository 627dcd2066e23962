"""Least-squares estimation of cooling-model parameters.

Exponential relaxation fits to temperature traces, the radial
steady-state-versus-intensity model with an unknown constant heating
power, and the per-optical-density variant.  Every fit is a direct
solve: the two scan models are linear after a change of variables and
take one weighted least-squares solve each, in closed form on plain
floats; the exponential is linear in T_inf and T0 for fixed tau, which
leaves a root search in tau alone (Brent's zeroin), on numpy arrays
since its cost grows with the trace length; it alone imports numpy.
Parameter uncertainties come from the covariance diagonal, carried
through the exact Jacobian of each change of variables.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .atoms import AtomSpecies
from .dynamics import (
    TemperatureTrace,
    detuning_factor,
    steady_state_vs_od,
)

EXP_TAU_BRACKET = (1e-3, 1e3)  # tau search range, in units of the sample span
EXP_MIN_SAMPLES = 4  # an exponential fit's samples in its window, at least
# Residual norm over data norm up to which an unweighted fit is exact but for
# rounding: noise-free frozen traces and scans read 1e-16 to 1e-15, traces of
# a self-consistent shape 1.6e-7 and up, scans with 0.1 % noise 6e-4.
EXACT_FIT_REL = 1e-12


class DegenerateDataError(ValueError):
    """The data cannot identify the model parameters."""


class ScanPoint(namedtuple("ScanPoint", (
    "x",      # scan variable (intensity or optical density)
    "y",      # temperature [K]
    "y_err",  # its error bar [K], or None
), defaults=(None,))):
    """One measured point of a parameter scan."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.x > 0:
            raise ValueError("x must be positive")
        if not self.y > 0:
            raise ValueError("y must be positive")
        if self.y_err is not None and not self.y_err > 0:
            raise ValueError("y_err must be positive when given")
        return self


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


def _project(shifted, centered, tau):
    """Best (T_inf - mean T, b) for a fixed tau, and the sign of the cost gradient.

    shifted holds the sample times minus the first one and centered the
    temperatures minus their mean.  For fixed tau the model T_inf +
    b exp(-shifted/tau) is linear in T_inf and b, and their regression
    on e = exp(-shifted/tau) is closed form.  The third value has the
    sign of the derivative of the squared residual with respect to
    log tau at that optimum (variable projection, Golub & Pereyra 1973).
    """
    import numpy as np
    e = np.exp(shifted * (-1.0 / tau))
    e_mean = float(e.mean())
    de = e - e_mean
    es = e * shifted
    b = float(de @ centered) / float(de @ de)
    return -b * e_mean, b, b * (b * float(de @ es) - float(centered @ es))


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


def fit_exponential(
    trace: TemperatureTrace,
    axis: str = "y",
    window: tuple[float, float] | None = None,
) -> FitResult:
    """Fit T(t) = T_inf + (T0 - T_inf) exp(-t/tau) to one axis of a trace.

    window is an inclusive (t_min, t_max) time range; None uses the
    whole trace.  A constant trace leaves tau unidentifiable and raises.
    For each tau, T_inf and T0 follow by linear regression; tau is the
    root of the projected gradient in log tau over EXP_TAU_BRACKET times
    the sample span, found by _zeroin.  Without a sign change from
    falling to rising cost the trace does not pin tau, and the fit is
    reported unconverged at the better bracket end.
    """
    import numpy as np  # only this fit needs it, so a scan fit runs without it
    times = np.asarray(trace.times())
    temps = np.asarray(trace.temperatures(axis))
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, temps = times[keep], temps[keep]
    if times.size < EXP_MIN_SAMPLES:
        raise ValueError(f"need at least {EXP_MIN_SAMPLES} samples in the fit window")
    if float(np.ptp(temps)) == 0.0:
        raise DegenerateDataError("temperature is constant over the window; tau is unidentifiable")

    shifted = times - times[0]
    centered = temps - temps.mean()

    def gradient(log_tau):
        return _project(shifted, centered, math.exp(log_tau))[2]

    lo, hi = (math.log(f * shifted[-1]) for f in EXP_TAU_BRACKET)
    g_lo, g_hi = gradient(lo), gradient(hi)
    converged = g_lo < 0 and g_hi > 0
    evaluations = 2  # the bracket ends
    if converged:
        lo, more = _zeroin(gradient, lo, hi, g_lo, g_hi)
        evaluations += more
    elif g_lo < 0:
        lo = hi  # the cost still falls at the top of the bracket
    tau = math.exp(lo)
    offset, b, _ = _project(shifted, centered, tau)
    t_inf = float(temps.mean()) + offset
    e = np.exp(-shifted / tau)
    r = offset + b * e - centered
    with np.errstate(over="ignore"):
        growth = float(np.exp(times[0] / tau))  # from the first sample back to t = 0
    # T0 - T_inf = b * growth and exp(-t/tau) = e / growth
    jac = np.column_stack((1.0 - e / growth, e / growth, b * e * times / tau**2))
    try:
        variances = np.diag(np.linalg.inv(jac.T @ jac)).tolist()
    except np.linalg.LinAlgError:
        variances = None
    return _build_result(("T_inf", "T0", "tau"), (t_inf, t_inf + b * growth, tau), converged,
                         evaluations, variances, r.tolist(), temps.tolist(), weighted=False)


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _div(a, b):
    """a / b, with numpy's inf or nan where Python raises at b = 0."""
    return a / b if b else (a * math.copysign(math.inf, b) if a else math.nan)


def _linear_fit(points, design, y, scale):
    """Weighted least squares of target = y/scale - 1 ~ sum_j q_j design[j]
    over one or two columns, in closed form; returns (q, unscaled
    covariance of q or None, residuals [K], weighted).

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
    target = [v / scale - 1.0 for v in y] if solvable else []
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

    base = species.doppler_temperature / 2.0 * detuning_factor(delta_pol)
    design = ([0.3 * (1.0 + kappa)] * len(xs), [1.0 / x for x in xs])
    y = [pt.y for pt in points]
    (u, v), cov, r, weighted = _linear_fit(points, design, y, base)
    power = species.recoil_energy * species.linewidth
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
    base = species.doppler_temperature / 2.0 * detuning_factor(delta_pol)
    column = [steady_state_vs_od(1.0, kappa_star, pt.x, heating_power, intensity, delta_pol,
                                 species) / base - 1.0 for pt in points]
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
    with open(path, "r", encoding="utf-8") as handle:
        rows = [(number, line) for number, line in enumerate(handle.read().splitlines(), 1)
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
