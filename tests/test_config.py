"""Config parsing: sections, presets, unit-suffix keys, staged validation."""

from __future__ import annotations

import random

import numpy as np
import pytest

from doppler_reabs import (
    ConfigError,
    GridSpec,
    config,
    effective_detuning,
    parse_config,
    preset_dump,
)
from doppler_reabs.cli import main
from test_cli import ASPECT, INTENSITY_FIT, OD_SCAN
from test_config_fuzz import CASES, _sweep

BASE = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = 4e-3
detuning_Gamma = 7
attenuation_factor = 3

[cloud]
atom_number = 1e8
temperature_uK = 1000

[scenario]
kind = dynamics
duration_ms = 600
"""


def _errors_of(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


def test_minimal_valid_config():
    cfg = parse_config(BASE)
    assert cfg.kind == "dynamics"
    assert cfg.duration == pytest.approx(0.6)
    assert cfg.atom_number == pytest.approx(1e8)
    assert (cfg.cloud.T_y, cfg.cloud.T_z) == pytest.approx((1e-3, 1e-3))
    assert cfg.laser.intensity == pytest.approx(4e-3)
    assert cfg.laser.detuning == pytest.approx(7.0)
    assert cfg.laser.attenuation_factor == pytest.approx(3.0)
    assert cfg.delta_pol == pytest.approx(-0.806670487, rel=1e-8)
    assert cfg.self_consistent is True
    assert cfg.sample_stride == 1
    assert cfg.species.name == "Cr52"


def test_laser_frame_detuning_is_resolved(species):
    cfg = parse_config(BASE)
    expected = effective_detuning(
        7.0, cfg.trap.offset_field, species, species.m_j, +1
    )
    assert cfg.delta_pol == pytest.approx(expected, rel=1e-12)


def test_effective_detuning_given_directly():
    text = BASE.replace("detuning_Gamma = 7", "detuning_pol_Gamma = -0.8")
    cfg = parse_config(text)
    assert cfg.delta_pol == pytest.approx(-0.8, rel=1e-12)
    # the laser-frame detuning absorbs the stretched-state shift
    assert cfg.laser.detuning == pytest.approx(-0.8 + 7.80667049, rel=1e-8)


def test_both_detunings_rejected():
    text = BASE.replace(
        "detuning_Gamma = 7", "detuning_Gamma = 7\ndetuning_pol_Gamma = -0.8"
    )
    errors = _errors_of(text)
    assert any("exactly one of" in msg for _, msg in errors)


def test_neither_detuning_rejected():
    text = BASE.replace("detuning_Gamma = 7\n", "")
    errors = _errors_of(text)
    assert any("exactly one of" in msg for _, msg in errors)


def test_misspelled_key_gets_suggestion():
    text = BASE.replace("detuning_Gamma = 7", "detunning_Gamma = 7")
    errors = _errors_of(text)
    line = text.splitlines().index("detunning_Gamma = 7") + 1
    assert (line, "unknown key 'detunning_Gamma'; did you mean 'detuning_Gamma'?") in errors


def test_missing_unit_suffix_gets_suffixed_suggestion():
    text = BASE.replace("temperature_uK = 1000", "temperature = 1000")
    errors = _errors_of(text)
    assert any(
        "missing its unit suffix; use 'temperature_uK'" in msg for _, msg in errors
    )
    text = BASE.replace(
        "preset = stuttgart_cloverleaf",
        "preset = stuttgart_cloverleaf\ncurvature_z = 163000",
    )
    errors = _errors_of(text)
    assert any("use 'curvature_z_G_per_cm2'" in msg for _, msg in errors)


def test_duplicate_key_rejected():
    text = BASE.replace(
        "intensity_Isat = 4e-3", "intensity_Isat = 4e-3\nintensity_Isat = 5e-3"
    )
    errors = _errors_of(text)
    assert any("duplicate key 'intensity_Isat'" in msg for _, msg in errors)


def test_unknown_section_rejected():
    errors = _errors_of(BASE.replace("[laser]", "[lasers]"))
    assert any("unknown section '[lasers]'" in msg for _, msg in errors)


def test_missing_required_section():
    head, _, _ = BASE.partition("[scenario]")
    errors = _errors_of(head)
    assert any("missing required section [scenario]" in msg for _, msg in errors)


def test_errors_sorted_by_line():
    text = BASE.replace("intensity_Isat = 4e-3", "intensity = 4e-3")
    text = text.replace("temperature_uK = 1000", "temperature_uK = warm")
    errors = _errors_of(text)
    assert len(errors) >= 2
    assert [ln for ln, _ in errors] == sorted(ln for ln, _ in errors)
    message = str(ConfigError(errors))
    assert message.index("intensity") < message.index("temperature_uK")


def test_type_errors_carry_value():
    text = BASE.replace("duration_ms = 600", "duration_ms = 600\nsample_stride = 2.5")
    errors = _errors_of(text)
    assert any("expected an integer" in msg and "'2.5'" in msg for _, msg in errors)
    text = BASE.replace(
        "kind = dynamics", "kind = dynamics\nself_consistent = maybe"
    )
    errors = _errors_of(text)
    assert any("expected true or false" in msg for _, msg in errors)
    text = BASE.replace("temperature_uK = 1000", "temperature_uK = warm")
    line = text.splitlines().index("temperature_uK = warm") + 1
    assert (line, "cloud.temperature_uK: expected a number (got 'warm')") in _errors_of(text)
    text = BASE.replace("temperature_uK = 1000", "temperature_uK 1000")
    line = text.splitlines().index("temperature_uK 1000") + 1
    assert (line, "expected 'key = value', got 'temperature_uK 1000'") in _errors_of(text)
    for old, new in (
        ("intensity_Isat = 4e-3", "intensity_Isat = nan"),
        ("temperature_uK = 1000", "temperature_uK = inf"),
        ("duration_ms = 600", "duration_ms = 600\nsample_stride = -inf"),
    ):
        text = BASE.replace(old, new)
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        errors = _errors_of(text)
        assert any(ln == line and "expected a finite number" in msg
                   for ln, msg in errors), new


def test_unknown_scenario_kind():
    text = BASE.replace("kind = dynamics", "kind = warmup")
    line = text.splitlines().index("kind = warmup") + 1
    assert (line, "scenario.kind: must be one of dynamics, aspect_scan, intensity_scan, "
                  "od_scan, steady_state (got 'warmup')") in _errors_of(text)


def _scan_scenario(tail):
    head, _, _ = BASE.partition("[scenario]")
    return head + "[scenario]\n" + tail


def test_grid_validation():
    base = "kind = intensity_scan\nkappa_y = 0.11\nkappa = 0.24\n"
    few = base + "grid_min = 1e-3\ngrid_max = 1e-2\ngrid_count = 1\n"
    errors = _errors_of(_scan_scenario(few))
    line = _scan_scenario(few).splitlines().index("grid_count = 1") + 1
    assert (line, "scenario.grid_count: must be in [2, 100000] (got '1')") in errors
    errors = _errors_of(_scan_scenario(
        base + "grid_min = 1e-2\ngrid_max = 1e-3\ngrid_count = 5\n"
    ))
    assert any("grid_min must be < grid_max" in msg for _, msg in errors)
    errors = _errors_of(_scan_scenario(
        base + "grid_min = 0\ngrid_max = 1e-2\ngrid_count = 5\ngrid_scale = log\n"
    ))
    assert any("log grids need grid_min > 0" in msg for _, msg in errors)
    for bounds, bad in (("grid_min = 0\ngrid_max = 2", "grid_min = 0"),
                        ("grid_min = 0.5\ngrid_max = 1e7", "grid_max = 1e7")):
        aspect = _scan_scenario(f"kind = aspect_scan\n{bounds}\ngrid_count = 5\n")
        line = aspect.splitlines().index(bad) + 1
        assert (line, "aspect_scan needs grid_min and grid_max in [1e-06, 1e+06] "
                      "(aspect ratios)") in _errors_of(aspect)
    huge = base + "grid_min = 1e-3\ngrid_max = 1e-2\ngrid_count = 100001\n"
    errors = _errors_of(_scan_scenario(huge))
    line = _scan_scenario(huge).splitlines().index("grid_count = 100001") + 1
    assert (line, "scenario.grid_count: must be in [2, 100000] (got '100001')") in errors
    errors = _errors_of(_scan_scenario(base + "grid_min = 1e-3\n"))
    assert any("scan grid incomplete" in msg for _, msg in errors)
    cubic = base + "grid_min = 1e-3\ngrid_max = 1e-2\ngrid_count = 5\ngrid_scale = cubic\n"
    errors = _errors_of(_scan_scenario(cubic))
    line = _scan_scenario(cubic).splitlines().index("grid_scale = cubic") + 1
    assert (line, "scenario.grid_scale: must be one of linear, log (got 'cubic')") in errors


BLUE = "must be negative; blue detuning heats instead of cooling"


@pytest.mark.parametrize("old, new, at, message", [
    ("detuning_Gamma = 7", "detuning_Gamma = 1e6", "detuning_Gamma = 1e6",
     f"laser.detuning_Gamma: delta_pol = 999992.19333 Gamma at the trap bottom {BLUE}"),
    ("detuning_Gamma = 7", "detuning_pol_Gamma = 0.5", "detuning_pol_Gamma = 0.5",
     f"laser.detuning_pol_Gamma: delta_pol = 0.5 Gamma at the trap bottom {BLUE}"),
    # a wider line shrinks the Zeeman shift in linewidths below the detuning
    ("preset = Cr52", "preset = Cr52\nlinewidth_MHz = 1e6", "detuning_Gamma = 7",
     f"laser.detuning_Gamma: delta_pol = 6.99996081051 Gamma at the trap bottom {BLUE}"),
    ("preset = Cr52", "preset = Cr52\nj_ground = 1", "j_ground = 1",
     "species: only J_excited = J_ground + 1 is supported"),
    ("preset = Cr52", "preset = Cr52\nj_ground = 1", "j_ground = 1",
     "species: |m_j| must not exceed j_ground"),
    ("preset = Cr52", "preset = Cr52\nm_j = 1000", "m_j = 1000",
     "species: |m_j| must not exceed j_ground"),
    ("preset = Cr52", "preset = Cr52\nj_excited = 5", "j_excited = 5",
     "species: only J_excited = J_ground + 1 is supported"),
    ("duration_ms = 600", "duration_ms = 600\nwindow_max_ms = 0", "window_max_ms = 0",
     "window_min_ms must be < window_max_ms and < duration_ms"),
    ("duration_ms = 600", "duration_ms = 600\nwindow_min_ms = 600", "window_min_ms = 600",
     "window_min_ms must be < window_max_ms and < duration_ms"),
    ("kind = dynamics", "kind = intensity_scan\nkappa_y = 0.11\nkappa = 0.24\n"
     "grid_min = -1e-3\ngrid_max = 1e-2\ngrid_count = 5", "grid_min = -1e-3",
     "intensity_scan needs grid_min and grid_max in [0, inf] (intensities)"),
    ("kind = dynamics", "kind = od_scan\nod_ref = 4.5\nkappa_y_at_ref = 0.11\n"
     "kappa_at_ref = 0.24\ngrid_min = -10\ngrid_max = 20\ngrid_count = 5", "grid_min = -10",
     "od_scan needs grid_min and grid_max in [0, inf] (optical densities)"),
    # a required key missing from an empty section is reported at its header
    ("kind = dynamics\nduration_ms = 600\n", "", "[scenario]", "scenario.kind is required"),
    ("intensity_Isat = 4e-3\ndetuning_Gamma = 7\nattenuation_factor = 3\n", "", "[laser]",
     "laser.intensity_Isat is required"),
    ("intensity_Isat = 4e-3\ndetuning_Gamma = 7\nattenuation_factor = 3\n", "", "[laser]",
     "exactly one of laser.detuning_Gamma (laser frame) or "
     "laser.detuning_pol_Gamma (effective, at trap bottom) is required"),
], ids=["detuning_Gamma", "detuning_pol_Gamma", "linewidth_MHz", "j_ground_J", "j_ground_m_j",
        "m_j", "j_excited", "window_max_ms", "window_min_ms", "intensity_grid_min",
        "od_grid_min", "empty_scenario", "empty_laser_intensity", "empty_laser_detuning"])
def test_cross_key_errors_at_a_given_key(old, new, at, message):
    # a value inside its own range that breaks a rule across keys is
    # rejected at the line of a key the config gives, or of the section
    # header when the section gives none
    text = BASE.replace(old, new)
    line = text.splitlines().index(at) + 1
    assert (line, message) in _errors_of(text)


def test_grid_spec_values():
    assert GridSpec(1.0, 3.0, 3, "linear").values() == pytest.approx([1.0, 2.0, 3.0])
    assert GridSpec(1.0, 100.0, 3, "log").values() == pytest.approx([1.0, 10.0, 100.0])


def _bits(values):
    return [float(v).hex() for v in values]


def test_linear_grid_values_match_numpy_linspace_bit_for_bit():
    # linear grids are built without numpy, the way np.linspace builds them
    texts = [ASPECT, INTENSITY_FIT, OD_SCAN] + [text for _, text in CASES]
    texts += [text for _, text, *_ in _sweep()]  # extreme grid bounds among them
    grids = set()
    for text in texts:
        try:
            grid = parse_config(text).grid
        except ConfigError:
            continue
        if grid is not None:
            grids.add((grid.minimum, grid.maximum, grid.count))
    assert len(grids) >= 15
    grids = sorted(grids)
    rng = random.Random(11)
    for _ in range(400):
        low, high = sorted(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
                           for _ in range(2))
        grids.append((low, high, rng.randint(2, 400)))
    # 3 denormal steps in 9 intervals: the step rounds to 0, and numpy
    # takes its branch that scales i/div by the whole span
    grids.append((0.0, 1.5e-323, 10))
    assert (1.5e-323 - 0.0) / 9 == 0.0
    for low, high, count in grids:
        values = GridSpec(low, high, count, "linear").values()
        assert _bits(values) == _bits(np.linspace(low, high, count)), (low, high, count)


def test_preset_inline_override():
    base = parse_config(BASE)
    # the doubled linewidth halves the Zeeman shift in linewidths, so a
    # red effective detuning needs a smaller laser-frame one
    doubled = parse_config(BASE.replace(
        "preset = Cr52", "preset = Cr52\nlinewidth_MHz = 10.04"
    ).replace("detuning_Gamma = 7", "detuning_Gamma = 3"))
    assert doubled.species.linewidth == pytest.approx(
        2 * base.species.linewidth, rel=1e-12
    )
    # everything not overridden still comes from the preset
    assert doubled.species.mass == pytest.approx(base.species.mass, rel=1e-12)


def test_unknown_preset():
    errors = _errors_of(BASE.replace("preset = Cr52", "preset = Cr53"))
    assert any("unknown species preset 'Cr53'" in msg and "Cr52" in msg
               for _, msg in errors)


def test_species_incomplete_without_preset():
    errors = _errors_of(BASE.replace("preset = Cr52", "mass_u = 52"))
    assert any("species is incomplete without a preset" in msg for _, msg in errors)


# BASE's own sections, then its two presets by name or with every item
# written out: the [laser] and [scenario] keys keep their lines
_OWN = BASE[BASE.index("[laser]"):]
PRESETS_BY_NAME = _OWN + "\n[species]\npreset = Cr52\n\n[trap]\npreset = stuttgart_cloverleaf\n"
PRESETS_WRITTEN_OUT = _OWN + "\n" + preset_dump()


def test_a_preset_parses_as_its_items_written_out():
    # the second parse takes the presets resolved by the first
    by_name = parse_config(PRESETS_BY_NAME)
    assert parse_config(PRESETS_BY_NAME) == by_name == parse_config(PRESETS_WRITTEN_OUT)
    assert dict(by_name.header)["species.mass_u"] == "52"


def test_configs_naming_a_preset_share_what_it_resolves_to():
    first, second = parse_config(BASE), parse_config(BASE)
    assert first.species is second.species and first.trap is second.trap
    # each parse has its own lines; all that is kept across parses is immutable
    assert first.lines == second.lines and first.lines is not second.lines
    first.lines.clear()
    assert parse_config(BASE).lines == second.lines
    for resolved in config._RESOLVED.values():
        hash(resolved)
    # a section that overrides a preset key builds its own value
    override = parse_config(BASE.replace("preset = Cr52", "preset = Cr52\nmass_u = 52"))
    assert override.species == first.species and override.species is not first.species


@pytest.mark.parametrize("old, new, line, message", [
    ("preset = Cr52", "preset = Cr53", 2, "unknown species preset 'Cr53' (known: Cr52)"),
    ("preset = stuttgart_cloverleaf", "preset = cloverleaf", 5,
     "unknown trap preset 'cloverleaf' (known: stuttgart_cloverleaf)"),
    ("preset = Cr52", "preset = Cr52\nmass_u = 0", 3,
     "species.mass_u: must be in [0.001, 1e+06] (got '0')"),
    ("preset = Cr52", "preset = Cr52\nm_j = 4", 3, "species: |m_j| must not exceed j_ground"),
    ("preset = stuttgart_cloverleaf", "preset = stuttgart_cloverleaf\noffset_field_G = -1", 6,
     "trap.offset_field_G: must be in [0.001, 1e+06] (got '-1')"),
], ids=["unknown_species", "unknown_trap", "species_override", "species_rule", "trap_override"])
def test_a_resolved_preset_keeps_the_errors_of_its_section(old, new, line, message):
    parse_config(BASE)  # resolves both presets
    assert _errors_of(BASE.replace(old, new)) == [(line, message)]


def test_per_axis_temperatures():
    text = BASE.replace(
        "temperature_uK = 1000",
        "temperature_y_uK = 900\ntemperature_z_uK = 100",
    )
    cfg = parse_config(text)
    assert (cfg.cloud.T_y, cfg.cloud.T_z) == pytest.approx((9e-4, 1e-4))
    text = BASE.replace(
        "temperature_uK = 1000",
        "temperature_uK = 1000\ntemperature_z_uK = 123",
    )
    cfg = parse_config(text)
    assert (cfg.cloud.T_y, cfg.cloud.T_z) == pytest.approx((1e-3, 1.23e-4))
    errors = _errors_of(
        BASE.replace("temperature_uK = 1000", "temperature_y_uK = 900")
    )
    assert any("per-axis temperatures need both" in msg for _, msg in errors)
    # the model ties x to y, so x has no key of its own; it takes the
    # light as purely circular, so the light's purity has none either
    for after, given in (("temperature_uK = 1000", "temperature_x_uK = 4000"),
                         ("attenuation_factor = 3", "polarization_purity = 0.1")):
        text = BASE.replace(after, f"{after}\n{given}")
        line = text.splitlines().index(given) + 1
        key = given.partition(" =")[0]
        assert any(ln == line and msg.startswith(f"unknown key '{key}'")
                   for ln, msg in _errors_of(text)), given


def test_per_kind_requirements():
    errors = _errors_of(BASE.replace("duration_ms = 600", ""))
    assert any("dynamics needs scenario.duration_ms" in msg for _, msg in errors)
    errors = _errors_of(_scan_scenario("kind = intensity_scan\n"))
    assert any("needs scenario.kappa_y and scenario.kappa" in msg for _, msg in errors)
    assert any("needs a scan grid" in msg for _, msg in errors)
    errors = _errors_of(_scan_scenario(
        "kind = od_scan\ngrid_min = 1\ngrid_max = 20\ngrid_count = 5\n"
        "kappa_y_at_ref = 0.11\n"
    ))
    assert any("od_scan needs scenario.kappa_y_at_ref" in msg for _, msg in errors)
    od = ("kind = od_scan\ngrid_min = 1\ngrid_max = 20\ngrid_count = 5\n"
          "kappa_y_at_ref = 0.11\nkappa_at_ref = 0.24\nod_ref = 0\n")
    errors = _errors_of(_scan_scenario(od))
    line = _scan_scenario(od).splitlines().index("od_ref = 0") + 1
    assert (line, "scenario.od_ref: must be > 0 (got '0')") in errors
    noisy = ("kind = intensity_scan\nkappa_y = 0.11\nkappa = 0.24\n"
             "grid_min = 1e-3\ngrid_max = 1e-2\ngrid_count = 5\nnoise_fraction = -0.1\n")
    errors = _errors_of(_scan_scenario(noisy))
    line = _scan_scenario(noisy).splitlines().index("noise_fraction = -0.1") + 1
    assert (line, "scenario.noise_fraction: must be >= 0 (got '-0.1')") in errors
    head, _, _ = BASE.partition("[cloud]")
    errors = _errors_of(head + "[scenario]\nkind = steady_state\n")
    assert any("steady_state needs [cloud]" in msg for _, msg in errors)
    aspect = ("kind = aspect_scan\ngrid_min = 0.5\ngrid_max = 2\ngrid_count = 5\n")
    errors = _errors_of(_scan_scenario(aspect).replace(
        "temperature_uK = 1000", "peak_density_per_cm3 = 0"))
    assert any("aspect_scan needs peak_density_per_cm3 > 0" in msg for _, msg in errors)


ASPECT_THIN = BASE.replace("temperature_uK = 1000", "peak_density_per_cm3 = {n0}").replace(
    "kind = dynamics\nduration_ms = 600",
    "kind = aspect_scan\naspect_mode = {mode}\ngrid_min = 1e-6\ngrid_max = 2\ngrid_count = 5")


@pytest.mark.parametrize("n0, mode", [("5e-324", "fixed_n0"), ("5e-324", "fixed_N"),
                                      ("1e-302", "fixed_n0")])
def test_aspect_scan_rejects_a_cloud_whose_size_overflows(tmp_path, capsys, n0, mode):
    # N/((2 pi)^1.5 n0 alpha) = sigma_y^3 overflows at the narrowest cloud:
    # rejected at the density's line, not as an aspect ratio of nan
    text = ASPECT_THIN.format(n0=n0, mode=mode)
    line = text.splitlines().index(f"peak_density_per_cm3 = {n0}") + 1
    assert (line, "aspect_scan needs peak_density_per_cm3 > 0, and large enough that "
                  "the cloud's radius sigma_y is finite on the grid") in _errors_of(text)
    path = tmp_path / "a.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["scan", "--config", str(path)]) == 1
    assert f"line {line}: aspect_scan needs peak_density_per_cm3 > 0" in capsys.readouterr().err


def test_aspect_scan_runs_a_thin_cloud_whose_size_is_finite(tmp_path, capsys):
    # at fixed N, sigma_y^3 = N/((2 pi)^1.5 n0) does not depend on alpha,
    # so the n0 that overflows at fixed n0 and alpha = 1e-6 still runs
    path = tmp_path / "a.cfg"
    path.write_text(ASPECT_THIN.format(n0="1e-302", mode="fixed_N"), encoding="utf-8")
    assert main(["scan", "--config", str(path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 6


def test_domain_and_work_budget_carry_line_numbers():
    for old, new, message in (
        ("atom_number = 1e8", "atom_number = 0",
         "cloud.atom_number: must be in [1, 1e+14] (got '0')"),
        ("temperature_uK = 1000", "temperature_uK = -1",
         "cloud.temperature_uK: must be in [0.001, 1e+07] (got '-1')"),
        ("temperature_uK = 1000", "temperature_uK = 1000\npeak_density_per_cm3 = -1",
         "cloud.peak_density_per_cm3: must be in [0, 1e+16] (got '-1')"),
        ("duration_ms = 600", "duration_ms = -1", "scenario.duration_ms: must be >= 0 (got '-1')"),
        ("duration_ms = 600", "duration_ms = 600\nkappa = -1e300",
         "scenario.kappa: must be >= 0 (got '-1e300')"),
        ("duration_ms = 600", "duration_ms = 600\nheating_power_J_per_s = -1",
         "scenario.heating_power_J_per_s: must be >= 0 (got '-1')"),
        # 10^6 steps of the preset trap's capped radial rate are about 45 s
        ("duration_ms = 600", "duration_ms = 46000",
         "duration_ms must be <= 45189.3 in this trap (at most 1000000 integrator steps)"),
    ):
        text = BASE.replace(old, new)
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        assert (line, message) in _errors_of(text), new
    assert parse_config(BASE.replace("duration_ms = 600", "duration_ms = 45000")).duration == 45.0


def test_sample_stride_validation():
    text = BASE.replace("duration_ms = 600", "duration_ms = 600\nsample_stride = 0")
    line = text.splitlines().index("sample_stride = 0") + 1
    assert (line, "scenario.sample_stride: must be >= 1 (got '0')") in _errors_of(text)


def test_resolved_items_echo():
    cfg = parse_config(BASE)
    items = dict(cfg.header)
    assert items["scenario.kind"] == "dynamics"
    assert items["scenario.duration_ms"] == "600"
    assert items["scenario.sample_stride"] == "1"
    assert items["scenario.fit_axis"] == "y"
    assert items["laser.detuning_Gamma"] == "7"
    assert items["laser.attenuation_factor"] == "3"
    assert "species.mass_u" in items
    assert "trap.offset_field_G" in items
    assert float(items["resolved.delta_pol_Gamma"]) == pytest.approx(
        -0.806670487, rel=1e-8
    )
    # noise_fraction only draws synthetic points: beside a data file it
    # shows only when given
    with_data = INTENSITY_FIT.replace("noise_fraction = 0.03\n", "data = points.csv\n")
    assert "scenario.noise_fraction" not in dict(parse_config(with_data).header)
    # the heating has one convention, so the key that chose one is gone
    for value in ("true", "false"):
        text = BASE + f"consistency_mode = {value}\n"
        assert _errors_of(text) == [(len(text.splitlines()), "unknown key 'consistency_mode'")]


def test_preset_dump_lists_both_presets():
    text = preset_dump()
    assert "Cr52" in text
    assert "stuttgart_cloverleaf" in text
    assert "curvature_z_G_per_cm2" in text
    # the dump itself parses if wrapped with a laser and scenario
    assert "linewidth_MHz" in text
