"""Correctness oracles for the benchmark, written apart from the package.

Nothing here imports doppler_reabs.  The model numbers (constants, the
chromium transition, the cloverleaf trap) are restated from their
published values, and every formula is written out again:

* reabsorption coefficients by composite Gauss-Legendre quadrature of the
  three angular integrals on [0, pi/2], vectorised over many cloud shapes;
* cloud shape from temperature, peak density and phase-space density;
* per-axis rates with the trap-bandwidth cap, and the closed-form steady
  states (plain, with a constant heating power, and versus optical depth);
* the Gauss-Newton step and standard errors of a weighted least-squares
  fit at given parameters, which show whether a reported fit is optimal;
* a fine-step integration of the rate equations that re-evaluates the
  cloud shape and kappa at every Runge-Kutta stage, used to build the
  stored reference trace (see make_reference.py).
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34
PLANCK = 6.62607015e-34
K_B = 1.380649e-23
MU_B = 9.2740100783e-24
AMU = 1.66053906660e-27

# Cr52, 7S3 -> 7P4 at 425.55 nm, Gamma/2pi = 5.02 MHz, stretched m_j = 3.
MASS = 52.0 * AMU
WAVELENGTH = 425.55e-9
GAMMA = 2.0 * math.pi * 5.02e6
M_J = 3


def lande_g(l: int, s: int, j: int) -> float:
    return 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2.0 * j * (j + 1))


G_GROUND = lande_g(0, 3, 3)
G_EXCITED = lande_g(1, 3, 4)

# Cloverleaf trap: curvatures in G/cm^2 equal T/m^2; offset 28 G; 6 mu_B.
CURVATURE = {"x": 750.0, "y": 750.0, "z": 110.0}
OFFSET_FIELD = 28e-4
MOMENT = 6.0 * MU_B

K_WAVE = 2.0 * math.pi / WAVELENGTH
RECOIL_ENERGY = (HBAR * K_WAVE) ** 2 / (2.0 * MASS)
DOPPLER_T = HBAR * GAMMA / (2.0 * K_B)
CROSS_SECTION = 6.0 * math.pi / K_WAVE**2
KAPPA0_PREFACTOR = 9.0 / (128.0 * math.sqrt(2.0 * math.pi))
OMEGA = {axis: math.sqrt(MOMENT * c / MASS) for axis, c in CURVATURE.items()}
RATE_CAP = {axis: 2.0 * w / math.pi for axis, w in OMEGA.items()}
NORM = (2.0 * math.pi) ** 1.5
# dT/dt = SLOPE_PER_HEAT * heat_rate - T * cool_rate on each axis
SLOPE_PER_HEAT = RECOIL_ENERGY / (2.0 * K_B)

SPHERE_RADIAL = 13.0 * math.pi / 16.0
SPHERE_AXIAL = 7.0 / 3.0
SPHERE_TOTAL = 56.0 / 15.0


def _gauss_legendre(panels: int = 32, order: int = 64):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, math.pi / 2.0, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


_NODES, _WEIGHTS = _gauss_legendre()
_COS = np.cos(_NODES)
_SIN = np.sin(_NODES)
_PATTERN = (1.0 + _COS**2) ** 2
# Quadrature weights folded with the emission pattern and each projection.
_W_RADIAL = 2.0 * _WEIGHTS * _PATTERN * _SIN**2
_W_AXIAL = 2.0 * _WEIGHTS * _PATTERN * _SIN * _COS
_W_TOTAL = 2.0 * _WEIGHTS * _PATTERN * _SIN


def angular_integrals(sigma_y, sigma_z):
    """(radial, axial, total) chord-weighted integrals over [0, pi], in metres."""
    sy = np.atleast_1d(np.asarray(sigma_y, dtype=float))[:, None]
    sz = np.atleast_1d(np.asarray(sigma_z, dtype=float))[:, None]
    chord = 1.0 / np.sqrt(_COS**2 / sz**2 + _SIN**2 / sy**2)
    return chord @ _W_RADIAL, chord @ _W_AXIAL, chord @ _W_TOTAL


def kappas(sigma_y, sigma_z, n0):
    """(kappa_y, kappa_z, kappa) arrays for arrays of cloud shapes."""
    radial, axial, total = angular_integrals(sigma_y, sigma_z)
    k0 = np.atleast_1d(np.asarray(n0, dtype=float)) * CROSS_SECTION * KAPPA0_PREFACTOR
    return k0 * (2.0 / math.pi) * radial, k0 * axial, k0 * total


def delta_pol(laser_detuning: float) -> float:
    """Effective detuning of the stretched sigma+ transition at the trap bottom."""
    shift = MU_B * OFFSET_FIELD * (G_EXCITED * (M_J + 1) - G_GROUND * M_J) / (HBAR * GAMMA)
    return laser_detuning - shift


def sigma(temperature, axis: str):
    return np.sqrt(K_B * np.asarray(temperature, dtype=float) / (MOMENT * CURVATURE[axis]))


def peak_density(atom_number, sigma_x, sigma_y, sigma_z):
    return atom_number / (NORM * sigma_x * sigma_y * sigma_z)


def cloud(atom_number, T_y, T_z):
    """(sigma_y, sigma_z, n0) of a thermal cloud with T_x tied to T_y."""
    sy, sz, sx = sigma(T_y, "y"), sigma(T_z, "z"), sigma(T_y, "x")
    return sy, sz, peak_density(atom_number, sx, sy, sz)


def psd(n0, T_y, T_z):
    """Peak phase-space density with the geometric-mean temperature (T_x = T_y)."""
    t_geo = (np.asarray(T_y) ** 2 * np.asarray(T_z)) ** (1.0 / 3.0)
    lam = PLANCK / np.sqrt(2.0 * math.pi * MASS * K_B * t_geo)
    return n0 * lam**3


def detuning_factor(delta: float) -> float:
    return (1.0 + 4.0 * delta**2) / (4.0 * abs(delta))


def rates(intensity, ky, kz, k, delta):
    """Capped (cool_z, cool_y, heat_z, heat_y) [1/s], broadcasting over arrays."""
    lorentz = 1.0 + 4.0 * delta**2
    drive = GAMMA * (-32.0 * delta) * 2.0 * intensity * (RECOIL_ENERGY / (HBAR * GAMMA)) / lorentz**2
    cool_z = drive * (1.0 + kz)
    cool_y = drive * ky
    scatter = 2.0 * intensity * GAMMA / lorentz
    heat_z = 4.0 * ((1.0 + kz) + 0.4 * (1.0 + k)) * scatter
    heat_y = 4.0 * (ky + 0.3 * (1.0 + k)) * scatter
    cap_z = np.minimum(1.0, RATE_CAP["z"] / cool_z)
    cap_y = np.minimum(1.0, RATE_CAP["y"] / np.where(cool_y > 0, cool_y, math.inf))
    return cool_z * cap_z, cool_y * cap_y, heat_z * cap_z, heat_y * cap_y


def steady_state(ky, kz, k, delta):
    """Closed-form (T_z_inf, T_y_inf); T_y is inf where kappa_y = 0."""
    base = DOPPLER_T / 2.0 * detuning_factor(delta)
    t_z = (1.0 + kz + 0.4 * (1.0 + k)) / (1.0 + kz) * base
    ky = np.asarray(ky, dtype=float)
    with np.errstate(divide="ignore"):
        t_y = np.where(ky > 0, (ky + 0.3 * (1.0 + k)) / ky * base, math.inf)
    return t_z, t_y


def steady_state_with_heating(ky, k, heating_power, intensity, delta):
    """Radial steady state with a constant heating power; inf where undefined."""
    intensity = np.asarray(intensity, dtype=float)
    base = DOPPLER_T / 2.0 * detuning_factor(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        extra = heating_power / (RECOIL_ENERGY * GAMMA * intensity)
        value = (ky + 0.3 * (1.0 + k) + extra) / ky * base
    return np.where((intensity > 0) & (ky > 0), value, math.inf)


def steady_state_vs_od(ky_star, k_star, od, heating_power, intensity, delta):
    od = np.asarray(od, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = steady_state_with_heating(ky_star * od, k_star * od, heating_power, intensity, delta)
    return np.where(od > 0, value, math.inf)


def optical_density_y(sigma_y, n0):
    return CROSS_SECTION * n0 * math.sqrt(2.0 * math.pi) * sigma_y


def aspect_shape(alpha, atom_number, n0_ref, mode):
    """(sigma_y, sigma_z, n0) of the aspect-scan cloud at aspect ratio alpha."""
    alpha = np.asarray(alpha, dtype=float)
    if mode == "fixed_n0":
        sy = (atom_number / (NORM * n0_ref * alpha)) ** (1.0 / 3.0)
        n0 = np.full_like(alpha, n0_ref)
    else:
        sy = np.full_like(alpha, (atom_number / (NORM * n0_ref)) ** (1.0 / 3.0))
        n0 = n0_ref / alpha
    return sy, alpha * sy, n0


def weighted_fit_step(model, params, x, y, y_err):
    """(Gauss-Newton step, standard errors) of the fit of model(x, params) to y at params.

    Residuals are weighted by 1 / y_err and the standard errors are the
    square roots of the diagonal of (J^T J)^-1, unscaled.  The Jacobian
    J is taken by central differences in relative parameters, so
    parameters of very different size stay well conditioned.
    """
    params = np.asarray(params, dtype=float)
    residual = (model(x, params) - y) / y_err
    jac = np.empty((len(x), len(params)))
    for j, value in enumerate(params):
        h = 1e-6 * value
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        jac[:, j] = (model(x, up) - model(x, down)) / (2.0 * h * y_err) * value
    cov = np.linalg.inv(jac.T @ jac)
    step = -(cov @ jac.T @ residual) * params
    return step, np.sqrt(np.diag(cov)) * np.abs(params)


def integrate_reference(atom_number, T_z0, T_y0, intensity, delta, duration, steps, samples):
    """Rate equations with the shape and kappa re-evaluated at every RK4 stage.

    Returns the list of (t, T_z, T_y) at `samples` equally spaced times
    (including t = 0 and t = duration); steps must be a multiple of
    samples - 1.
    """
    a = SLOPE_PER_HEAT

    def slope(T):
        sy, sz, n0 = cloud(atom_number, T[1], T[0])
        ky, kz, k = (v[0] for v in kappas(sy, sz, n0))
        cz, cy, hz, hy = rates(intensity, ky, kz, k, delta)
        return np.array([a * hz - T[0] * cz, a * hy - T[1] * cy])

    T = np.array([T_z0, T_y0], dtype=float)
    h = duration / steps
    every = steps // (samples - 1)
    out = [(0.0, T[0], T[1])]
    for i in range(steps):
        k1 = slope(T)
        k2 = slope(T + h / 2 * k1)
        k3 = slope(T + h / 2 * k2)
        k4 = slope(T + h * k3)
        T = T + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (i + 1) % every == 0:
            out.append(((i + 1) * h, T[0], T[1]))
    return out


def rel_err(actual, expected):
    """Elementwise |actual - expected| / |expected|, with equal infinities as 0."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    both_inf = np.isinf(actual) & np.isinf(expected) & (np.sign(actual) == np.sign(expected))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(actual - expected) / np.abs(expected)
    return np.where(both_inf, 0.0, err)
