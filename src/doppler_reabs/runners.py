"""Scenario runners of simulate and scan: each maps a validated config to
deterministic CSV text.

Every runner returns the complete CSV document as a string, with the
resolved configuration echoed into # key=value comment lines so a result
file carries its own provenance.  Identical configs produce byte-identical
output.  Scan rows are emitted in grid order; a trace's rows come from its
columns, with a frozen run's shared shape cells formatted once.

All intensities entering scan grids are normalized to saturation and are
the values at the atoms; the [laser] attenuation_factor applies only to
the [laser] intensity key itself.

A scan binds its model's constants once and evaluates each grid point
through the private helpers behind the public steady-state and rate
functions.  The runners need only the standard library; the analysis
verbs build on the renderer, scan models and simulation here.
"""

from __future__ import annotations

from .atoms import AtomSpecies
from .config import ScenarioConfig, format_value
from .dynamics import (RateModel, TemperatureTrace, _heating_extra, _radial_at_od,
                       _radial_steady_state, _steady_constants, _steady_temperatures, rates,
                       simulate, steady_state)
from .reabsorption import KappaSet, _aspect_shape, _kappas, kappa_set, optical_density
from .trap import thermal_debroglie_wavelength


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
