"""Scenario runners of simulate and scan: each maps a validated config to
deterministic CSV text.

Every runner returns the complete CSV document as a string, with the
resolved configuration echoed into # key=value comment lines so a result
file carries its own provenance.  Identical configs produce byte-identical
output.  Scan rows are emitted in grid order.  A trace's lines are rendered
as the run yields each sample (_trace_lines, which the CLI writes as they
come), with a frozen run's one shape formatted once.

All intensities entering scan grids are normalized to saturation and are
the values at the atoms; the [laser] attenuation_factor applies only to
the [laser] intensity key itself.

A scan binds its model's constants once and evaluates each grid point
through the private helpers behind the public steady-state and rate
functions.  The runners need only the standard library; the analysis
verbs build on the renderer, scan models and simulation here.
"""

from __future__ import annotations

from .config import ScenarioConfig, format_value
from .dynamics import (RateModel, TemperatureTrace, _heating_extra, _radial_at_od,
                       _radial_steady_state, _samples, _steady_constants, _steady_temperatures,
                       rates, simulate, steady_state)
from .reabsorption import KappaSet, _aspect_shape, _kappas, kappa_set, optical_density
from .trap import _psd_of


def _render_csv(header_items, columns, rows) -> str:
    """The CSV text of tuple rows, each cell as format_value writes it: by one
    %-format for a row of built-in floats, unless it wrote inf or nan, the
    only cells with an "n", else cell by cell."""
    lines = [f"# {key}={value}" for key, value in header_items]
    lines.append(",".join(columns))
    floats = ",".join(["%.12g"] * len(columns))
    for row in rows:
        if all(type(v) is float for v in row):
            line = floats % row
            if "n" not in line:
                lines.append(line)
                continue
        lines.append(",".join(map(format_value, row)))
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


_TRACE_COLUMNS = ("t_s", "T_z_K", "T_y_K", "sigma_z_m", "sigma_y_m", "n0_per_m3",
                  "kappa_y", "kappa_z", "kappa", "psd")
_SHAPE_CELLS = ",".join(["%.12g"] * 6)


def _trace_lines(config: ScenarioConfig):
    """run_dynamics's CSV: its head, then one line per sample as the run
    reaches it.  A shape that repeats (a frozen run's one shape) has its six
    cells formatted once; format_value writes only a line with inf or nan."""
    yield _render_csv(config.header, _TRACE_COLUMNS, ())
    psd, shape = _psd_of(config.species), None
    for t, T_z, T_y, cells in _samples(config.cloud, config.trap, config.species, config.laser,
                                       config.duration, config.self_consistent,
                                       config.sample_stride, config.delta_pol):
        if cells is not shape:
            shape, n0 = cells, cells[2]
            row = "%.12g,%.12g,%.12g," + _SHAPE_CELLS % cells[:6] + ",%.12g\n"
        value = psd(n0, T_z, T_y)
        line = row % (t, T_z, T_y, value)
        if "n" in line:
            line = ",".join(map(format_value, (t, T_z, T_y, *cells[:6], value))) + "\n"
        yield line


def run_dynamics(config: ScenarioConfig) -> str:
    """Integrate the rate equations; trace CSV plus a phase-space column."""
    return "".join(_trace_lines(config))


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
