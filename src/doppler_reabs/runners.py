"""Scenario runners: each maps a validated config to deterministic CSV text.

Every runner returns the complete CSV document as a string, with the
resolved configuration echoed into # key=value comment lines so a result
file carries its own provenance.  Identical configs produce byte-identical
output.  Scan rows are emitted in grid order; a trace's rows come from its
columns, with a frozen run's shared shape cells formatted once.

All intensities entering scan grids are normalized to saturation and are
the values at the atoms; the [laser] attenuation_factor applies only to
the [laser] intensity key itself.

numpy computes the exponential fits (fit_scenario on a dynamics
config, selfcheck's cooling-time fits) and the seeded noise of synthetic
scan data, and each imports it where it runs.  The scan fits and the
grids (GridSpec.values, log grids too) run on plain floats, so a scan
fit from a data file or from noise-free synthetic data runs without
numpy, as do the simulation, steady-state and scan runners.  A scan
binds its model's constants once and evaluates each grid point through
the private helpers behind the public steady-state and rate functions.
The fitting module is imported by the fit paths alone.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .atoms import AtomSpecies, LaserConfig, effective_detuning
from .config import KINDS, ConfigError, ScenarioConfig, format_value
from .dynamics import (RateModel, TemperatureTrace, _heating_extra, _radial_at_od,
                       _radial_steady_state, _steady_constants, _steady_temperatures, rates,
                       simulate, steady_state)
from .presets import cr52, stuttgart_cloverleaf
from .reabsorption import (SPHERE_INTEGRAL_AXIAL, SPHERE_INTEGRAL_RADIAL, SPHERE_INTEGRAL_TOTAL,
                           CloudShape, KappaSet, _aspect_shape, _closed_form_integrals, _kappas,
                           kappa_set, optical_density)
from .trap import cloud_from_temperatures, thermal_debroglie_wavelength, trap_frequencies


def _render_csv(header_items, columns, rows, shared=(0, ())) -> str:
    """The CSV text of tuple rows, each cell as format_value writes it: by one
    %-format for a row of built-in floats, unless it wrote inf or nan, the
    only cells with an "n", else cell by cell.  shared = (at, cells): built-in
    floats that every row holds from column at on and leaves out, formatted
    once, into the row format."""
    lines = [f"# {key}={value}" for key, value in header_items]
    lines.append(",".join(columns))
    at, cells = shared
    floats = ",".join(["%.12g"] * at + ["%.12g" % v for v in cells]
                      + ["%.12g"] * (len(columns) - at - len(cells)))
    for row in rows:
        if all(type(v) is float for v in row):
            line = floats % row
            if "n" not in line:
                lines.append(line)
                continue
        lines.append(",".join(format_value(v) for v in (*row[:at], *cells, *row[at:])))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def run_steady_state(config: ScenarioConfig) -> str:
    """Closed-form steady state for one cloud shape: one CSV row."""
    shape = config.cloud
    kappas = kappa_set(shape, config.species)
    ss = steady_state(kappas, config.delta_pol, config.species)
    rate = rates(config.laser, kappas, config.delta_pol, config.species, config.trap)
    od_y = optical_density(shape, config.species, "y")
    columns = (
        "sigma_z_m", "sigma_y_m", "n0_per_m3",
        "kappa_y", "kappa_z", "kappa",
        "T_z_inf_K", "T_y_inf_K", "od_y",
        "cool_rate_z_per_s", "cool_rate_y_per_s",
    )
    row = (
        shape.sigma_z, shape.sigma_y, shape.peak_density,
        kappas.kappa_y, kappas.kappa_z, kappas.kappa,
        ss.T_z_inf, ss.T_y_inf, od_y,
        rate.cool_rate_z, rate.cool_rate_y,
    )
    return _render_csv(config.header, columns, [row])


def _trace_psd(n0: float, T_z: float, T_y: float, species: AtomSpecies) -> float:
    # the simulation ties the unobserved x axis to y, so the geometric
    # mean temperature uses T_y twice
    t_geo = (T_y ** 2 * T_z) ** (1.0 / 3.0)
    return n0 * thermal_debroglie_wavelength(t_geo, species) ** 3


def _simulate(config: ScenarioConfig) -> TemperatureTrace:
    return simulate(
        config.cloud,
        config.trap,
        config.species,
        config.laser,
        config.duration,
        self_consistent=config.self_consistent,
        sample_stride=config.sample_stride,
        delta_pol=config.delta_pol,
    )


def run_dynamics(config: ScenarioConfig) -> str:
    """Integrate the rate equations; trace CSV plus a phase-space column."""
    trace, species = _simulate(config), config.species
    columns = (
        "t_s", "T_z_K", "T_y_K", "sigma_z_m", "sigma_y_m", "n0_per_m3",
        "kappa_y", "kappa_z", "kappa", "psd",
    )
    samples = zip(trace.t, trace.T_z, trace.T_y)
    if len(trace.shapes) == 1:  # one shape for every sample: its cells are formatted once
        n0 = trace.shapes[0][2]
        rows = ((t, z, y, _trace_psd(n0, z, y, species)) for t, z, y in samples)
        return _render_csv(config.header, columns, rows, (3, trace.shapes[0][:6]))
    rows = (  # rendered as they come, not held as a second copy of the trace
        (t, z, y, s_z, s_y, n0, k_y, k_z, k, _trace_psd(n0, z, y, species))
        for (t, z, y), (s_z, s_y, n0, k_y, k_z, k, _) in zip(samples, trace.shapes))
    return _render_csv(config.header, columns, rows)


def run_aspect_scan(config: ScenarioConfig) -> str:
    """Steady state as a function of cloud aspect ratio sigma_z/sigma_y."""
    t_half, factor, _ = _steady_constants(config.delta_pol, config.species)
    cross_section = config.species.resonant_cross_section
    n, n0, mode = config.atom_number, config.cloud_peak_density, config.aspect_mode
    rows = [
        (alpha, *_steady_temperatures(
            _kappas(*_aspect_shape(n, n0, mode, alpha), cross_section), t_half, factor))
        for alpha in config.grid.values()
    ]
    return _render_csv(config.header, ("alpha", "T_z_inf_K", "T_y_inf_K"), rows)


def _scan_model(config: ScenarioConfig):
    """Radial steady state [K] at one grid value of an intensity or OD
    scan, with the scan's constants bound once."""
    t_half, factor, er_gamma = _steady_constants(config.delta_pol, config.species)
    if config.kind == "intensity_scan":
        kappa_y, kappa, heating_power = config.kappa_y, config.kappa, config.heating_power

        def model(intensity: float) -> float:
            extra = _heating_extra(heating_power, intensity, er_gamma)
            return _radial_steady_state(kappa_y, kappa, extra, t_half, factor)
        return model

    kappa_y_star = config.kappa_y_at_ref / config.od_ref
    kappa_star = config.kappa_at_ref / config.od_ref
    extra = _heating_extra(config.heating_power, config.laser.effective_intensity, er_gamma)
    return lambda od: _radial_at_od(kappa_y_star, kappa_star, od, extra, t_half, factor)


def run_intensity_scan(config: ScenarioConfig) -> str:
    """Radial steady state and cooling rate across an intensity grid."""
    model = _scan_model(config)
    rate_values = RateModel(config.delta_pol, config.species, config.trap)._rate_values
    kappas = KappaSet(config.kappa_y, 0.0, config.kappa, 0.0)
    rows = [
        (intensity, model(intensity), rate_values(kappas, intensity)[1] if intensity > 0 else 0.0)
        for intensity in config.grid.values()
    ]
    return _render_csv(config.header, ("intensity_Isat", "T_y_inf_K", "cool_rate_y_per_s"), rows)


def run_od_scan(config: ScenarioConfig) -> str:
    """Radial steady state across an optical-density grid."""
    model = _scan_model(config)
    rows = [(od, model(od)) for od in config.grid.values()]
    return _render_csv(config.header, ("od_y", "T_y_inf_K"), rows)


def _synthetic_points(config: ScenarioConfig, seed: int) -> list[ScanPoint]:
    """The scan fit's data without a data file: the model on the grid
    points the fit can take, each times 1 + noise_fraction * a normal
    draw of the seed, with error bar noise_fraction * model.
    """
    from .fitting import ScanPoint

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
    return _render_csv(config.header, ("parameter", "value", "standard_error"), rows)


def _short_window(config: ScenarioConfig, trace: TemperatureTrace, needed: int) -> ConfigError:
    """The error of a dynamics fit whose window keeps fewer than needed
    samples, at the key to change: the stride when a sample at every
    fixed step would fill the window, else the window's end or start
    where it cuts the run short, else the duration.
    """
    w_min, w_max = config.window or (0.0, math.inf)
    kept = sum(w_min <= t <= w_max for t in trace.t)
    dt = trace.step
    every_step = kept  # at stride 1; a run of 0 s (or of 5e-324 ms, which is 0 s) has one
    if dt > 0:
        every_step = math.floor(min(w_max, config.duration) / dt) - math.ceil(w_min / dt) + 1
    if every_step >= needed:
        key = "sample_stride"
    elif w_max < config.duration:
        key = "window_max_ms"
    elif w_min > 0:
        key = "window_min_ms"
    else:
        key = "duration_ms"
    return ConfigError([(config.lines.get(key, 0),
                         f"scenario.{key}: the fit window holds {kept} sample(s); "
                         f"an exponential fit needs at least {needed}")])


def fit_scenario(config: ScenarioConfig, seed: int = 0) -> FitResult:
    """Fit the model matching the scenario kind.

    dynamics fits an exponential to the simulated trace; the scan kinds
    fit their steady-state models to points loaded from scenario.data or,
    when no data path is given, to points synthesized from the config's
    own parameter values on the scan grid (seeded noise of
    noise_fraction, which then also sets the per-point error bars).
    """
    from .fitting import (
        EXP_MIN_SAMPLES,
        DegenerateDataError,
        fit_exponential,
        fit_intensity_scan,
        fit_od_scan,
        load_scan_points,
    )

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
            raise _short_window(config, trace, EXP_MIN_SAMPLES) from exc

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
    """Recompute the built-in reference numbers and compare with tolerances.

    Uses the built-in chromium and cloverleaf presets throughout; the
    slowest entries integrate the full cooling dynamics.
    """
    from .fitting import fit_exponential

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
    gain = _trace_psd(last.peak_density, last.T_z, last.T_y, species) / _trace_psd(
        first.peak_density, first.T_z, first.T_y, species)
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
