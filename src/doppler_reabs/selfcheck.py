"""The selfcheck verb: the built-in reference numbers, recomputed from the
chromium and cloverleaf presets and held to their tolerances.  The slowest
entries integrate the full cooling dynamics; their cooling-time fits load
fitting, and with it numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .atoms import LaserConfig, effective_detuning
from .dynamics import simulate, steady_state
from .fitting import fit_exponential
from .presets import cr52, stuttgart_cloverleaf
from .reabsorption import (SPHERE_INTEGRAL_AXIAL, SPHERE_INTEGRAL_RADIAL, SPHERE_INTEGRAL_TOTAL,
                           CloudShape, KappaSet, _aspect_shape, _closed_form_integrals, kappa_set,
                           optical_density)
from .trap import _psd_of, cloud_from_temperatures, trap_frequencies


class SelfCheck(namedtuple("SelfCheck", "name expected actual tolerance passed")):
    __slots__ = ()


class SelfCheckReport(namedtuple("SelfCheckReport", "checks")):  # checks: tuple of SelfCheck
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self) -> str:
        headers = ("check", "expected", "actual", "tolerance", "status")
        rows = [
            (c.name, c.expected, c.actual, c.tolerance, "pass" if c.passed else "FAIL")
            for c in self.checks
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(5)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
        n_pass = sum(c.passed for c in self.checks)
        lines.append("")
        verdict = "all checks passed" if self.all_passed else "CHECKS FAILED"
        lines.append(f"{verdict} ({n_pass}/{len(self.checks)})")
        return "\n".join(lines) + "\n"


def _check_range(name, value, lo, hi, expected) -> SelfCheck:
    return SelfCheck(
        name=name,
        expected=expected,
        actual=f"{value:.6g}",
        tolerance=f"[{lo:g}, {hi:g}]",
        passed=lo <= value <= hi,
    )


def _check_rel(name, value, reference, rel_tol, expected=None) -> SelfCheck:
    return SelfCheck(
        name=name,
        expected=expected if expected is not None else f"{reference:.6g}",
        actual=f"{value:.6g}",
        tolerance=f"rel {rel_tol:g}",
        passed=abs(value - reference) <= rel_tol * abs(reference),
    )


def run_selfcheck() -> SelfCheckReport:
    """Recompute the built-in reference numbers and compare with tolerances."""
    species = cr52()
    trap = stuttgart_cloverleaf()
    checks: list[SelfCheck] = []

    # trap frequencies
    _, omega_y, omega_z = trap_frequencies(trap, species)
    f_y, f_z = omega_y / (2 * math.pi), omega_z / (2 * math.pi)
    checks.append(_check_range("radial trap frequency [Hz]", f_y, 110 * 0.98, 110 * 1.02, "110"))
    checks.append(_check_range("axial trap frequency [Hz]", f_z, 42 * 0.98, 42 * 1.02, "42"))

    # effective detuning of the stretched transition at the trap bottom
    delta_pol = effective_detuning(7.0, trap.offset_field, species, species.m_j, +1)
    checks.append(_check_range(
        "effective detuning [Gamma]", delta_pol, -0.9, -0.7, "-0.8"
    ))

    # reabsorption coefficients at the measured steady-state shape
    shape = CloudShape(sigma_y=410e-6, sigma_z=700e-6, peak_density=5.6e16)
    kappas = kappa_set(shape, species)
    checks.append(_check_range("kappa_y at steady-state shape", kappas.kappa_y, 0.09, 0.12, "0.1"))
    checks.append(_check_range("kappa at steady-state shape", kappas.kappa, 0.22, 0.28, "0.24"))

    # spherical-cloud angular integrals, as kappa_set evaluates them,
    # against the moments of (1 + cos^2)^2
    radial, axial, total = (v / 1e-4 for v in _closed_form_integrals(1e-4, 1e-4))
    checks.append(_check_rel("sphere integral, radial", radial, SPHERE_INTEGRAL_RADIAL, 1e-9))
    checks.append(_check_rel("sphere integral, axial", axial, SPHERE_INTEGRAL_AXIAL, 1e-9))
    checks.append(_check_rel("sphere integral, total", total, SPHERE_INTEGRAL_TOTAL, 1e-9))

    # closed-form steady states
    t_d = species.doppler_temperature
    no_reabs = steady_state(
        KappaSet(kappa_y=0.0, kappa_z=0.0, kappa=0.0, kappa0=0.0), -0.5, species
    )
    checks.append(_check_rel(
        "axial floor without reabsorption [K]", no_reabs.T_z_inf, 0.7 * t_d, 1e-12,
        expected="0.7 T_D",
    ))
    ss = steady_state(kappas, -0.5, species)
    checks.append(_check_range(
        "radial steady state [T_D]", ss.T_y_inf / t_d, 2.1, 2.5, "2.3"
    ))
    checks.append(_check_range(
        "axial steady state [uK]", ss.T_z_inf * 1e6, 88 * 0.9, 88 * 1.1, "~90"
    ))

    # optical density of the steady-state shape
    od_y = optical_density(shape, species, "y")
    checks.append(_check_range("radial optical density", od_y, 4.0, 5.5, "4.5"))

    # cooling dynamics, measured-scenario start (1 mK, 1e8 atoms)
    laser = LaserConfig(intensity=4e-3, detuning=7.0, attenuation_factor=3.0)
    initial = cloud_from_temperatures(trap, 1e8, 1e-3, 1e-3, 1e-3)
    frozen = simulate(
        initial, trap, species, laser, 0.4,
        self_consistent=False, sample_stride=10, delta_pol=delta_pol,
    )
    tau_y = fit_exponential(frozen, axis="y").parameters["tau"]
    checks.append(_check_range(
        "radial cooling time, frozen shape [ms]", tau_y * 1e3, 25, 100, "~50"
    ))
    tau_z = fit_exponential(frozen, axis="z", window=(0.0, 0.06)).parameters["tau"]
    checks.append(_check_range(
        "axial cooling time at the rate cap [ms]", tau_z * 1e3, 5, 15, "~10"
    ))

    self_consistent = simulate(
        initial, trap, species, laser, 0.6,
        self_consistent=True, sample_stride=10, delta_pol=delta_pol,
    )
    first, last = self_consistent.samples[0], self_consistent.samples[-1]
    psd = _psd_of(species)
    gain = psd(last.peak_density, last.T_z, last.T_y) / psd(
        first.peak_density, first.T_z, first.T_y)
    checks.append(_check_range("phase-space density gain", gain, 30, 300, "~80"))
    checks.append(SelfCheck(
        name="self-consistent run ends colder radially",
        expected="T_y(self-consistent) < T_y(frozen)",
        actual=f"{self_consistent.T_y[-1] * 1e6:.4g} uK vs {frozen.T_y[-1] * 1e6:.4g} uK",
        tolerance="ordering",
        passed=self_consistent.T_y[-1] < frozen.T_y[-1],
    ))

    # aspect-ratio scan properties at fixed peak density
    alphas = [10.0 ** (-1 + i / 20) for i in range(41)]
    shapes = [_aspect_shape(1e8, 5e16, "fixed_n0", a) for a in alphas]
    states = [steady_state(kappa_set(s, species), -0.5, species) for s in shapes]
    t_y_vals = [s.T_y_inf for s in states]
    t_z_vals = [s.T_z_inf for s in states]
    alpha_star = alphas[t_y_vals.index(min(t_y_vals))]
    checks.append(_check_range(
        "aspect ratio of coldest radial state", alpha_star, 0.5, 2.0, "~1"
    ))
    spread = (max(t_z_vals) - min(t_z_vals)) / min(t_z_vals)
    checks.append(_check_range(
        "axial spread across aspect ratios", spread, 0.0, 0.10, "<10%"
    ))

    return SelfCheckReport(checks=tuple(checks))
