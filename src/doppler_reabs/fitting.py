"""Least-squares estimation of cooling-model parameters.

Exponential relaxation fits to temperature traces, the radial
steady-state-versus-intensity model with an unknown constant heating
power, and the per-optical-density variant.  Every fit is a direct
solve: the two scan models are linear after a change of variables and
take one weighted linear least-squares solve each; the exponential is
linear in T_inf and T0 for fixed tau, which leaves a root search in
tau alone (Brent's zeroin).  Parameter uncertainties come from the
covariance diagonal, carried through the exact Jacobian of each change
of variables.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple

import numpy as np

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
        if self.x <= 0:
            raise ValueError("x must be positive")
        if self.y <= 0:
            raise ValueError("y must be positive")
        if self.y_err is not None and self.y_err <= 0:
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


def _build_result(names, p, converged, iterations, cov, r, y, weighted):
    """FitResult with standard errors from the covariance diagonal.

    r holds the residuals in kelvin.  cov is the unscaled covariance
    (J^T J)^-1 of the weighted residuals; without error bars, whose
    weights are 1, it is scaled by the variance of r.  A singular or
    indefinite covariance gives NaN errors; an unconverged fit gives
    none, and so does an unweighted fit that matches the data y exactly
    (EXACT_FIT_REL), whose residual variance is rounding noise.
    """
    residual_norm = math.hypot(*r.tolist())
    exact = not weighted and residual_norm <= EXACT_FIT_REL * math.hypot(*y.tolist())
    errors = None
    if converged and not exact:
        errors = {name: math.nan for name in names}
        if cov is not None:
            if not weighted:
                dof = r.size - len(names)
                if dof > 0:
                    cov = cov * float(r @ r) / dof
            diag = np.diag(cov)
            if np.all(diag >= 0):
                errors = {name: float(s) for name, s in zip(names, np.sqrt(diag))}
    return FitResult(
        parameters={name: float(v) for name, v in zip(names, p)},
        standard_errors=errors,
        residual_norm=residual_norm,
        converged=converged,
        iterations=iterations,
    )


def _inverse(matrix):
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return None


def _project(shifted, centered, tau):
    """Best (T_inf - mean T, b) for a fixed tau, and the sign of the cost gradient.

    shifted holds the sample times minus the first one and centered the
    temperatures minus their mean.  For fixed tau the model T_inf +
    b exp(-shifted/tau) is linear in T_inf and b, and their regression
    on e = exp(-shifted/tau) is closed form.  The third value has the
    sign of the derivative of the squared residual with respect to
    log tau at that optimum (variable projection, Golub & Pereyra 1973).
    """
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
    times = np.asarray(trace.times())
    temps = np.asarray(trace.temperatures(axis))
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, temps = times[keep], temps[keep]
    if times.size < EXP_MIN_SAMPLES:
        raise ValueError(f"need at least {EXP_MIN_SAMPLES} samples in the fit window")
    if float(np.ptp(temps)) == 0.0:
        raise DegenerateDataError(
            "temperature is constant over the window; tau is unidentifiable"
        )

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
    return _build_result(
        ("T_inf", "T0", "tau"), (t_inf, t_inf + b * growth, tau), converged, evaluations,
        _inverse(jac.T @ jac), r, temps, weighted=False,
    )


def _linear_fit(points, design, y, scale):
    """Weighted least squares of target = y/scale - 1 ~ design @ q for the scan fits.

    A point's residual in kelvin is scale * (design @ q - target); with
    y_err on every point the solve divides it by y_err.  Columns are scaled to
    unit norm before the solve, so parameters many decades apart keep
    full precision.  Returns (q, unscaled covariance of q, residuals [K],
    weighted).
    """
    has_err = [pt.y_err is not None for pt in points]
    if any(has_err) and not all(has_err):
        raise ValueError("either every point carries y_err or none does")
    weighted = all(has_err)
    weights = np.full(len(points), scale)
    if weighted:
        weights /= np.array([pt.y_err for pt in points])
    with np.errstate(over="ignore", invalid="ignore"):
        target = y / scale - 1.0
        a, b = design * weights[:, None], target * weights
        norms = np.linalg.norm(a, axis=0)
    # LAPACK writes to the process's stderr when handed non-finite values
    if not (np.isfinite(a).all() and np.isfinite(b).all()
            and np.all((norms > 0) & np.isfinite(norms))):
        raise DegenerateDataError(
            "the scan data are out of range for a least-squares solve"
        )
    q_scaled, *_ = np.linalg.lstsq(a / norms, b, rcond=None)
    q = q_scaled / norms
    cov = _inverse((a / norms).T @ (a / norms))
    if cov is not None:
        cov = cov / np.outer(norms, norms)
    return q, cov, scale * (design @ q - target), weighted


def _mapped(cov, jac):
    """Covariance pushed through the Jacobian of a change of variables."""
    return None if cov is None else jac @ cov @ jac.T


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
    xs = np.array([pt.x for pt in points])
    if xs.max() < 3.0 * xs.min():
        raise ValueError("intensity range must span at least a factor of 3")

    base = species.doppler_temperature / 2.0 * detuning_factor(delta_pol)
    design = np.column_stack((np.full(xs.size, 0.3 * (1.0 + kappa)), 1.0 / xs))
    y = np.array([pt.y for pt in points])
    (u, v), cov, r, weighted = _linear_fit(points, design, y, base)

    power = species.recoil_energy * species.linewidth
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa_y, heating = 1.0 / u, v * power / u
        jac = np.array([[-1.0 / u**2, 0.0], [-v * power / u**2, power / u]])
    return _build_result(
        ("kappa_y", "heating_power"), (kappa_y, heating), bool(u > 0), 1,
        _mapped(cov, jac), r, y, weighted,
    )


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
    column = np.array([
        steady_state_vs_od(1.0, kappa_star, pt.x, heating_power, intensity, delta_pol, species)
        for pt in points
    ]) / base - 1.0
    if not np.all(np.isfinite(column)):
        raise DegenerateDataError("the steady state diverges at the scan points")
    y = np.array([pt.y for pt in points])
    (w,), cov, r, weighted = _linear_fit(points, column[:, None], y, base)
    with np.errstate(divide="ignore"):
        kappa_y_star, jac = 1.0 / w, np.array([[-1.0 / w**2]])
    result = _build_result(
        ("kappa_y_star",), (kappa_y_star,), bool(w > 0), 1,
        _mapped(cov, jac), r, y, weighted,
    )
    result.parameters["kappa_star"] = kappa_star
    return result


def load_scan_points(path) -> list[ScanPoint]:
    """Read scan points from a CSV file; columns x, y and optional y_err.

    Lines starting with # are ignored, matching the trace CSV format.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    rows = [
        line for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    reader = csv.DictReader(io.StringIO("\n".join(rows)))
    if reader.fieldnames is None or "x" not in reader.fieldnames or "y" not in reader.fieldnames:
        raise ValueError("scan CSV needs columns 'x' and 'y'")
    points = []
    for record in reader:
        y_err = record.get("y_err")
        points.append(
            ScanPoint(
                x=float(record["x"]),
                y=float(record["y"]),
                y_err=float(y_err) if y_err not in (None, "") else None,
            )
        )
    return points
