"""Command-line interface: verbs, exit codes, output routing, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import doppler_reabs
from doppler_reabs import (FitResult, GridSpec, cli, config, constants, dynamics, fitting,
                           parse_config, runners)
from doppler_reabs.cli import main
from test_config_fuzz import CASES

DYNAMICS = """\
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
duration_ms = 60
sample_stride = 20
self_consistent = false
"""

STEADY = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = 4e-3
detuning_Gamma = 7
attenuation_factor = 3

[cloud]
sigma_y_um = 410
sigma_z_um = 700
peak_density_per_cm3 = 5.6e10

[scenario]
kind = steady_state
"""

INTENSITY_FIT = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = 4e-3
detuning_pol_Gamma = -0.8
attenuation_factor = 3

[scenario]
kind = intensity_scan
kappa_y = 0.11
kappa_z = 0.17
kappa = 0.24
heating_power_J_per_s = 2.6e-26
noise_fraction = 0.03
grid_min = 1e-4
grid_max = 1e-2
grid_count = 8
grid_scale = log
"""

ASPECT = """\
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
peak_density_per_cm3 = 5.6e10

[scenario]
kind = aspect_scan
grid_min = 0.5
grid_max = 2.0
grid_count = 6
"""

OD_SCAN = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf

[laser]
intensity_Isat = 4e-3
detuning_pol_Gamma = -0.8
attenuation_factor = 3

[scenario]
kind = od_scan
od_ref = 4.5
kappa_y_at_ref = 0.11
kappa_at_ref = 0.24
grid_min = 1
grid_max = 20
grid_count = 6
grid_scale = log
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _parse_csv(text):
    headers, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            headers[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return headers, columns, rows


def _column(text, name):
    _, columns, rows = _parse_csv(text)
    idx = columns.index(name)
    return [row[idx] for row in rows]


def test_steady_state_to_stdout(tmp_path, capsys):
    assert main(["simulate", "--config", _write(tmp_path, "s.cfg", STEADY)]) == 0
    out = capsys.readouterr().out
    headers, columns, rows = _parse_csv(out)
    assert headers["scenario.kind"] == "steady_state"
    assert headers["laser.intensity_Isat"] == "0.004"
    assert "species.mass_u" in headers
    assert "T_y_inf_K" in columns and "od_y" in columns
    assert len(rows) == 1
    assert float(rows[0][columns.index("T_z_inf_K")]) == pytest.approx(
        9.61333448e-5, rel=1e-6
    )


def test_out_flag_beats_scenario_output(tmp_path):
    inline_target = tmp_path / "from_scenario.csv"
    text = STEADY.replace(
        "kind = steady_state", f"kind = steady_state\noutput = {inline_target}"
    )
    cfg = _write(tmp_path, "s.cfg", text)
    assert main(["simulate", "--config", cfg]) == 0
    assert inline_target.exists()

    flag_target = tmp_path / "from_flag.csv"
    inline_target.unlink()
    assert main(["simulate", "--config", cfg, "--out", str(flag_target)]) == 0
    assert flag_target.exists()
    assert not inline_target.exists()


def test_dynamics_repeat_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DYNAMICS)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_consecutive_calls_do_not_leak_options(tmp_path):
    # an option given to one call must not carry over to the next
    fit_cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    dyn_cfg = _write(tmp_path, "d.cfg", DYNAMICS)

    def run(*args):
        out = tmp_path / "out.csv"
        assert main([*args, "--out", str(out)]) == 0
        return out.read_bytes()

    first_fit = run("fit", "--config", fit_cfg)
    first_sim = run("simulate", "--config", dyn_cfg)
    assert run("fit", "--config", fit_cfg, "--seed", "3") != first_fit
    assert run("fit", "--config", fit_cfg) == first_fit
    assert run("simulate", "--config", dyn_cfg) == first_sim


def test_invalid_config_exits_1(tmp_path, capsys):
    cfg = _write(
        tmp_path, "bad.cfg", DYNAMICS.replace("detuning_Gamma", "detunning_Gamma")
    )
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "did you mean 'detuning_Gamma'" in err
    assert "line" in err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb, text", [("simulate", DYNAMICS), ("fit", DYNAMICS),
                                         ("scan", INTENSITY_FIT), ("fit", INTENSITY_FIT)])
def test_crlf_config_gives_the_bytes_of_its_lf_twin(tmp_path, verb, text):
    # configs are read as bytes and decoded, so CRLF line ends split as LF ones do
    outputs = []
    for name, newline in (("lf", b"\n"), ("crlf", b"\r\n")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_bytes(text.encode("utf-8").replace(b"\n", newline))
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"\r" not in outputs[0]


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(DYNAMICS.replace("[cloud]", "[cloud]\n# 1000 \u00b5K").encode("latin-1"))
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "utf-8" in captured.err and "Traceback" not in captured.err


def test_verb_kind_mismatch_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    assert main(["simulate", "--config", cfg]) == 1
    assert "does not run under 'simulate'" in capsys.readouterr().err


def test_fit_dynamics_recovers_decay_time(tmp_path):
    text = DYNAMICS.replace("duration_ms = 60", "duration_ms = 150")
    cfg = _write(tmp_path, "d.cfg", text)
    out = tmp_path / "fit.csv"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    csv_text = out.read_text()
    _, columns, rows = _parse_csv(csv_text)
    assert columns == ["parameter", "value", "standard_error"]
    table = {row[0]: row[1] for row in rows}
    assert table["converged"] == "true"
    assert float(table["tau"]) == pytest.approx(0.0382539192, rel=1e-5)
    assert float(table["T_inf"]) == pytest.approx(6.63920595e-4, rel=1e-4)


def test_fit_of_a_late_window_recovers_the_decay_time(tmp_path, capsys):
    # from 180 ms the axial exponential left in the trace is about 3 700
    # units in the last place of T_inf: centred on a rounded mean, the fit
    # lost the root (tau = 120 s, exit 2).  The frozen shape's tau is 1/C_z,
    # and the rounding of the data leaves the fit 1.2e-4 from it
    text = (DYNAMICS.replace("duration_ms = 60", "duration_ms = 300")
            .replace("sample_stride = 20", "sample_stride = 2")
            + "fit_axis = z\nwindow_min_ms = 180\n")
    assert main(["fit", "--config", _write(tmp_path, "d.cfg", text)]) == 0
    rows = {row[0]: row[1] for row in _parse_csv(capsys.readouterr().out)[2]}
    assert rows["converged"] == "true"
    assert float(rows["tau"]) == pytest.approx(0.005899841549283594, rel=2e-4)


def test_exact_fit_leaves_standard_errors_blank(tmp_path, capsys):
    # a frozen shape relaxes exactly exponentially, so the residuals of
    # its fit are rounding noise and carry no standard errors
    assert main(["fit", "--config", _write(tmp_path, "d.cfg", DYNAMICS)]) == 0
    rows = {row[0]: row[1:] for row in _parse_csv(capsys.readouterr().out)[2]}
    assert rows["converged"][0] == "true"
    assert [rows[name][1] for name in ("T_inf", "T0", "tau")] == ["", "", ""]


def test_fit_intensity_seeded_and_deterministic(tmp_path):
    cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(["fit", "--config", cfg, "--out", str(a)]) == 0
    assert main(["fit", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    table = {row[0]: row[1] for row in _parse_csv(a.read_text())[2]}
    assert float(table["kappa_y"]) == pytest.approx(0.11, rel=0.05)
    assert float(table["heating_power"]) == pytest.approx(2.6e-26, rel=0.15)
    # a different seed gives different synthetic data, hence different output
    assert main(["fit", "--config", cfg, "--seed", "1", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_fit_nonconvergence_exits_2(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    unconverged = FitResult(parameters={"kappa_y": 0.11}, standard_errors=None,
                            residual_norm=1e-6, converged=False, iterations=1)
    monkeypatch.setattr(fitting, "fit_scenario", lambda config, seed=0: unconverged)
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "converged,false" in captured.out
    assert "did not converge" in captured.err


def test_fit_unidentifiable_decay_time_exits_2(tmp_path, capsys):
    # 4 ms of a self-consistent radial trace is a nearly straight line:
    # the cost keeps falling as tau grows, so tau is not pinned
    text = DYNAMICS.replace("duration_ms = 60", "duration_ms = 4") \
                   .replace("sample_stride = 20", "sample_stride = 2") \
                   .replace("self_consistent = false", "fit_axis = y")
    cfg = _write(tmp_path, "d.cfg", text)
    assert main(["fit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "converged,false" in captured.out
    assert "did not converge" in captured.err


# for each [laser] key, the line of DYNAMICS it replaces and an in-range
# value unlike DYNAMICS's own; the detunings are one setting in two frames
_LASER_CHANGES = {
    "intensity_Isat": ("intensity_Isat = 4e-3", "intensity_Isat = 8e-3"),
    "detuning_Gamma": ("detuning_Gamma = 7", "detuning_Gamma = 6"),
    "detuning_pol_Gamma": ("detuning_Gamma = 7", "detuning_pol_Gamma = -0.5"),
    "attenuation_factor": ("attenuation_factor = 3", "attenuation_factor = 2"),
}


def test_every_laser_key_changes_the_run(tmp_path, capsys):
    # a key that is parsed and echoed but changes no number suggests a
    # model it does not have; a new key without an entry fails here
    def data_rows(text):
        assert main(["simulate", "--config", _write(tmp_path, "k.cfg", text)]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]

    base = data_rows(DYNAMICS)
    for key in config._LASER_KEYS:
        assert key in _LASER_CHANGES, f"no changed value for [laser] {key}"
        line, changed = _LASER_CHANGES[key]
        assert line in DYNAMICS.splitlines(), key
        assert data_rows(DYNAMICS.replace(line, changed)) != base, key


# an in-range value unlike the default of each [scenario] setting that
# a header shows without its key
_SETTING_CHANGES = {
    "sample_stride": "3",
    "self_consistent": "false",
    "fit_axis": "z",
    "aspect_mode": "fixed_N",
    "heating_power_J_per_s": "2.6e-26",
    "noise_fraction": "0.03",
    "grid_scale": "log",
}


@pytest.mark.parametrize("text", [DYNAMICS, STEADY, INTENSITY_FIT, ASPECT, OD_SCAN],
                         ids=["dynamics", "steady_state", "intensity_scan", "aspect_scan",
                              "od_scan"])
def test_every_setting_a_header_shows_changes_the_run(tmp_path, capsys, text):
    # a header line at a default claims a setting the run reads: set to
    # another value, it must change the data rows of a verb of its kind;
    # a setting shown without an entry fails here
    def data_rows(verb, text):
        assert main([verb, "--config", _write(tmp_path, "s.cfg", text)]) == 0, text
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]

    # each setting that has a default is left at it
    defaulted = {key for key in config._SCENARIO_KEYS
                 if key in config._DEFAULTS and config._DEFAULTS[key] is not None}
    base = "".join(line + "\n" for line in text.splitlines()
                   if line.partition(" =")[0] not in defaulted)
    cfg = parse_config(base)
    verbs = config.KINDS[cfg.kind].verbs
    shown = [key.partition(".")[2] for key, _ in cfg.header if key.startswith("scenario.")]
    at_default = [key for key in shown if key in defaulted]
    rows = {verb: data_rows(verb, base) for verb in verbs}
    for key in at_default:
        assert key in _SETTING_CHANGES, f"no changed value for scenario.{key}"
        changed = base + f"{key} = {_SETTING_CHANGES[key]}\n"  # [scenario] comes last
        assert any(data_rows(verb, changed) != rows[verb] for verb in verbs), key


def test_od_scan_cools_with_optical_density(tmp_path):
    cfg = _write(tmp_path, "o.cfg", OD_SCAN)
    out = tmp_path / "od.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    temps = [float(v) for v in _column(out.read_text(), "T_y_inf_K")]
    assert len(temps) == 6
    assert all(b < a for a, b in zip(temps, temps[1:]))


def test_aspect_scan_modes_differ(tmp_path):
    cfg_n0 = _write(tmp_path, "n0.cfg", ASPECT)
    cfg_fixed_n = _write(
        tmp_path, "N.cfg",
        ASPECT.replace("kind = aspect_scan", "kind = aspect_scan\naspect_mode = fixed_N"),
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--config", cfg_n0, "--out", str(a)]) == 0
    assert main(["scan", "--config", cfg_fixed_n, "--out", str(b)]) == 0
    headers_b = _parse_csv(b.read_text())[0]
    assert headers_b["scenario.aspect_mode"] == "fixed_N"
    # the two density conventions only agree where the cloud is unstretched
    ty_a = [float(v) for v in _column(a.read_text(), "T_y_inf_K")]
    ty_b = [float(v) for v in _column(b.read_text(), "T_y_inf_K")]
    assert ty_a != ty_b
    # doubling the density strengthens reabsorption and cools every point
    cfg_dense = _write(
        tmp_path, "dense.cfg",
        ASPECT.replace("peak_density_per_cm3 = 5.6e10",
                       "peak_density_per_cm3 = 1.12e11"),
    )
    c = tmp_path / "c.csv"
    assert main(["scan", "--config", cfg_dense, "--out", str(c)]) == 0
    ty_dense = [float(v) for v in _column(c.read_text(), "T_y_inf_K")]
    assert all(d < s for d, s in zip(ty_dense, ty_a))


def test_intensity_scan_flags_divergent_points(tmp_path):
    text = INTENSITY_FIT.replace("grid_min = 1e-4", "grid_min = 0") \
                        .replace("grid_scale = log\n", "") \
                        .replace("grid_count = 8", "grid_count = 3") \
                        .replace("noise_fraction = 0.03\n", "")
    cfg = _write(tmp_path, "i.cfg", text)
    out = tmp_path / "i.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    temps = _column(out.read_text(), "T_y_inf_K")
    assert temps[0] == "divergent"
    assert float(temps[-1]) > 0


def test_fit_skips_grid_points_the_fit_cannot_take(tmp_path, capsys):
    # without heating the model is finite at zero intensity, where the
    # fit's 1/I term is not; the synthetic data leave that point out
    text = INTENSITY_FIT.replace("grid_min = 1e-4", "grid_min = 0") \
                        .replace("grid_scale = log\n", "") \
                        .replace("heating_power_J_per_s = 2.6e-26\n", "")
    assert main(["fit", "--config", _write(tmp_path, "i.cfg", text)]) == 0
    table = {row[0]: row[1] for row in _parse_csv(capsys.readouterr().out)[2]}
    assert float(table["kappa_y"]) == pytest.approx(0.11, rel=0.05)


NOISY = INTENSITY_FIT.replace("noise_fraction = 0.03", "noise_fraction = 0.5")


def _every_draw(config, seed):
    """(x, y, y_err) at each point the fit can take, with one draw each."""
    rng = np.random.default_rng(seed)
    model, f = runners._scan_model(config), config.noise_fraction
    return [(x, model(x) * (1.0 + f * rng.standard_normal()), f * model(x))
            for x in config.grid.values() if x > 0 and math.isfinite(model(x))]


@pytest.mark.parametrize("text", [INTENSITY_FIT, NOISY], ids=["noise_0.03", "noise_0.5"])
def test_synthetic_data_leave_out_only_nonpositive_draws(text):
    # a draw below -1/noise_fraction gives y <= 0, which no fit can take;
    # that point is left out and every other point keeps its draw, so at
    # small noise the data are what they always were
    config = parse_config(text)
    left_out = 0
    for seed in range(20):
        drawn = _every_draw(config, seed)
        kept = [(p.x, p.y, p.y_err) for p in fitting._synthetic_points(config, seed)]
        assert kept == [point for point in drawn if point[1] > 0]
        left_out += len(drawn) - len(kept)
    assert (left_out > 0) == (text is NOISY)


def test_fit_takes_large_noise_at_every_seed(tmp_path):
    cfg, out = _write(tmp_path, "i.cfg", NOISY), str(tmp_path / "o.csv")
    codes = [main(["fit", "--config", cfg, "--seed", str(seed), "--out", out])
             for seed in range(20)]
    assert codes == [0] * 20


def _header_as_config(header):
    sections = {}
    for key, value in header:
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {value}")
    sections.pop("resolved")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


@pytest.mark.parametrize("text", [DYNAMICS, STEADY, INTENSITY_FIT, ASPECT, OD_SCAN]
                         + [text for _, text in CASES],
                         ids=["dynamics", "steady", "intensity_fit", "aspect", "od_scan"]
                         + [f"fuzz_case{i}" for i in range(len(CASES))])
def test_header_reproduces_its_run(text):
    # the resolved.* lines are derived: recomputed from the header's
    # inputs, they must come out the same
    def settings(cfg):
        return cfg.header, cfg.window, cfg.fit_axis, cfg.sample_stride, cfg.self_consistent

    cfg = parse_config(text)
    assert settings(parse_config(_header_as_config(cfg.header))) == settings(cfg)


def test_all_lists_the_public_names():
    # every name is exported lazily, so dir() lists it and vars() does
    # not until first use
    public = {name for name in dir(doppler_reabs) if not name.startswith("_")
              and not isinstance(getattr(doppler_reabs, name), types.ModuleType)}
    assert sorted(doppler_reabs.__all__) == sorted(public)
    for name in doppler_reabs.__all__:
        assert getattr(doppler_reabs, name) is not None, name
    namespace = {}
    exec("from doppler_reabs import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(doppler_reabs.__all__)
    with pytest.raises(AttributeError):
        doppler_reabs.no_such_name


_BARE_IMPORT = """\
import json, sys, types
import doppler_reabs as package
bare = sorted(name for name in sys.modules if name.startswith("doppler_reabs."))
submodules = sys.argv[1].split()
resolved = [name for name in submodules
            if getattr(package, name) is sys.modules.get("doppler_reabs." + name)]
values = {name: getattr(package, name) for name in package.__all__}
# a preset is an instance or a dict, defined in presets; the others know their module
homes = {name: value.__module__ if isinstance(value, (type, types.FunctionType))
         else "doppler_reabs.presets" for name, value in values.items()}
foreign = [name for name, home in homes.items()
           if values[name] is not vars(sys.modules[home]).get(name)]
missing = getattr(package, "__main__", None), hasattr(package, "no_such_module")
lookups = []
package.__getattr__ = lambda name: lookups.append(name)
for name in [*package.__all__, *submodules]:
    getattr(package, name)
print(json.dumps([bare, resolved, foreign, missing, lookups,
                  "doppler_reabs.__main__" in sys.modules]))
"""


def test_bare_import_loads_no_module_and_binds_each_name_on_first_use():
    # the submodules a bare import reached when it imported them eagerly
    submodules = ["atoms", "config", "constants", "dynamics", "presets", "reabsorption",
                  "runners", "trap"]
    result = _fresh_python("-c", _BARE_IMPORT, " ".join(submodules))
    assert result.returncode == 0, result.stderr
    bare, resolved, foreign, missing, lookups, main_loaded = json.loads(result.stdout)
    assert bare == []
    assert resolved == submodules
    # each name is its defining module's object
    assert foreign == []
    # it is bound on first use, so a second read is a plain attribute
    # read; no lookup runs the CLI
    assert lookups == []
    assert missing == [None, False] and not main_loaded


def test_zero_duration_gives_single_row(tmp_path, capsys):
    cfg = _write(
        tmp_path, "d.cfg", DYNAMICS.replace("duration_ms = 60", "duration_ms = 0")
    )
    assert main(["simulate", "--config", cfg]) == 0
    _, columns, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0][columns.index("t_s")]) == 0.0
    assert float(rows[0][columns.index("T_y_K")]) == pytest.approx(1e-3)


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["check", "expected", "actual", "tolerance", "status"]
    data_rows = [l for l in lines[2:] if l and not l.startswith("all ")]
    assert len(data_rows) >= 10
    assert all(" pass" in row or row == "" for row in data_rows)
    assert "all checks passed" in out


def _fresh_python(*args):
    """Run a fresh interpreter that imports this package."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_runs_the_cli():
    result = _fresh_python("-m", "doppler_reabs", "preset-dump")
    assert result.returncode == 0, result.stderr
    assert result.stdout == config.preset_dump()
    # a usage error is invalid input, exit 1; exit 2 is a fit that did not converge
    result = _fresh_python("-m", "doppler_reabs")
    assert result.returncode == 1
    assert "required: verb" in result.stderr
    result = _fresh_python("-m", "doppler_reabs", "fit")
    assert result.returncode == 1
    assert "error: the following arguments are required: --config" in result.stderr


# argv with CFG standing for a valid dynamics config, and the error it must give
USAGE_ERRORS = {
    "no_verb": ([], "the following arguments are required: verb"),
    "unknown_verb": (["cool", "--config", "CFG"], "invalid verb 'cool'"),
    "missing_config": (["fit"], "the following arguments are required: --config"),
    "unknown_flag": (["simulate", "--config", "CFG", "--stride", "3"],
                     "unrecognized argument '--stride'"),
    "flag_of_another_verb": (["simulate", "--config", "CFG", "--seed", "3"],
                             "unrecognized argument '--seed'"),
    "flag_without_value": (["simulate", "--config"], "argument --config: expected one argument"),
    "flag_before_flag": (["simulate", "--out", "--config", "CFG"],
                         "argument --out: expected one argument"),
    "bad_seed": (["fit", "--config", "CFG", "--seed", "abc"],
                 "argument --seed: invalid int value: 'abc'"),
    "prefix": (["simulate", "--conf", "CFG"], "unrecognized argument '--conf'"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_return_1_in_process(tmp_path, capsys, argv, message):
    cfg = _write(tmp_path, "d.cfg", DYNAMICS)
    argv = [cfg if word == "CFG" else word for word in argv]
    assert main(argv) == 1  # returned, not raised as SystemExit
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: doppler-reabs ")
    assert f"\nerror: {message}" in captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["fit", "--config", "x", "-h"],
                                  ["cool", "--help"]])
def test_help_prints_the_synopsis(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[1] for line in lines] == list(cli._VERBS)
    assert lines[2] == "doppler-reabs fit         --config FILE [--out CSV] [--seed N]"
    assert captured.err == ""


def _scan_bytes(tmp_path, capsys):
    """The config path of an aspect scan and the bytes it writes to stdout."""
    cfg = _write(tmp_path, "a.cfg", ASPECT)
    assert main(["scan", "--config", cfg]) == 0
    return cfg, capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("before", [None, b"x" * 10_000, b"short"],
                         ids=["new", "longer", "shorter"])
def test_out_replaces_the_file_with_the_run(tmp_path, capsys, before):
    cfg, expected = _scan_bytes(tmp_path, capsys)
    out = tmp_path / "out.csv"
    if before is not None:
        out.write_bytes(before)
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert out.stat().st_mode & 0o777 == 0o666 & ~_umask()
    assert capsys.readouterr() == ("", "")


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_out_writes_through_a_symlink_and_a_hard_link(tmp_path, capsys):
    # the file is opened, not replaced: a symlink stays a link to the
    # written file, and a hard link's other name sees the new bytes
    cfg, expected = _scan_bytes(tmp_path, capsys)
    target, symlink, hard = tmp_path / "target.csv", tmp_path / "sym.csv", tmp_path / "hard.csv"
    target.write_bytes(b"old " * 5_000)
    symlink.symlink_to(target)
    os.link(target, hard)
    assert main(["scan", "--config", cfg, "--out", str(symlink)]) == 0
    assert symlink.is_symlink() and target.read_bytes() == expected
    target.write_bytes(b"old " * 5_000)
    assert main(["scan", "--config", cfg, "--out", str(hard)]) == 0
    assert target.read_bytes() == hard.read_bytes() == expected
    assert os.path.samefile(target, hard)


def test_out_to_dev_null_exits_0_and_to_a_full_device_exits_1(tmp_path, capsys):
    cfg, _ = _scan_bytes(tmp_path, capsys)
    assert main(["scan", "--config", cfg, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    assert main(["scan", "--config", cfg, "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_out_to_a_read_only_file_does_what_open_does(tmp_path, capsys):
    # exit 1 with open()'s error and the file untouched; a process that
    # may write any file (root) replaces it, as open(path, "wb") does
    cfg, expected = _scan_bytes(tmp_path, capsys)
    out = tmp_path / "read_only.csv"
    out.write_bytes(b"kept")
    out.chmod(0o444)
    try:
        with open(out, "ab"):
            pass
    except PermissionError as exc:
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"
        assert out.read_bytes() == b"kept"
    else:
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == expected


def test_short_reads_and_writes_give_the_same_bytes(tmp_path, capsys, monkeypatch):
    # os.read and os.write may move fewer bytes than asked: the config and
    # the data are read to their end, and the output is written in full
    data = _write(tmp_path, "points.csv", "x,y\n" + "".join(
        f"{x!r},{runners._scan_model(parse_config(OD_SCAN))(x)!r}\n" for x in (1.0, 2.0, 5.0)))
    cfg = _write(tmp_path, "f.cfg", OD_SCAN + f"data = {data}\n")
    assert main(["fit", "--config", cfg]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    read, write = os.read, os.write
    monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 5)))
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    out = tmp_path / "out.csv"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("flag", ["--out", "--config", "data"])
def test_a_directory_for_a_file_exits_1_naming_it(tmp_path, capsys, flag):
    # os.read on a directory raises without the path; the message keeps it
    folder = tmp_path / "folder"
    folder.mkdir()
    text = OD_SCAN + (f"data = {folder}\n" if flag == "data" else "")
    cfg = str(folder) if flag == "--config" else _write(tmp_path, "f.cfg", text)
    argv = ["fit", "--config", cfg] + (["--out", str(folder)] if flag == "--out" else [])
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{folder}'\n")


def test_flag_forms_give_the_same_run(tmp_path):
    cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    outs = [tmp_path / f"{k}.csv" for k in range(3)]
    assert main(["fit", "--config", cfg, "--seed", "3", "--out", str(outs[0])]) == 0
    assert main(["fit", f"--config={cfg}", "--seed=3", f"--out={outs[1]}"]) == 0
    # a repeated flag keeps its last value
    assert main(["fit", "--seed", "1", "--out", "x.csv", "--config", cfg,
                 "--seed=3", "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_cli_and_selfcheck_do_not_load_scipy():
    # scipy serves only the quadrature oracle of the tests: a fresh
    # interpreter importing the command line and running selfcheck
    # never loads it
    code = (
        "import sys, doppler_reabs.cli\n"
        "print('scipy' in sys.modules)\n"
        "assert doppler_reabs.run_selfcheck().all_passed\n"
        "print('scipy' in sys.modules)\n"
    )
    result = _fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


_NUMPY_AFTER_EACH = """\
import json, sys
import doppler_reabs.cli as cli
names = ('numpy', 'doppler_reabs.fitting', 'doppler_reabs.selfcheck')
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    print(code, *[name in sys.modules for name in names])
"""


def test_cli_runs_without_numpy_until_a_fit(tmp_path):
    # only the noise of synthetic scan data and exponential fits of more
    # than EXP_FLOAT_SAMPLES samples need numpy; a fresh interpreter running
    # the other verbs, log-grid scans and a 14-sample dynamics fit too,
    # never loads it.  Nor does it load the fit verb's module or
    # selfcheck's before their verb: fit loads fitting alone, selfcheck
    # its own
    out = str(tmp_path / "out.csv")
    runs = [("simulate", DYNAMICS),
            ("simulate", DYNAMICS.replace("self_consistent = false", "self_consistent = true")),
            ("simulate", STEADY),
            ("scan", INTENSITY_FIT.replace("grid_scale = log", "grid_scale = linear")),
            ("scan", OD_SCAN.replace("grid_scale = log\n", "")),
            ("scan", ASPECT),
            ("scan", INTENSITY_FIT),  # a log grid
            ("fit", DYNAMICS.replace("sample_stride = 20", "sample_stride = 40"))]
    argvs = [[verb, "--config", _write(tmp_path, f"{i}.cfg", text), "--out", out]
             for i, (verb, text) in enumerate(runs)]
    cold, (log_scan, short_fit) = argvs[:-2] + [["preset-dump", "--out", out]], argvs[-2:]
    dynamics_fit, fit = ["fit"] + argvs[0][1:], ["fit"] + argvs[3][1:]
    noisy_log_fit = ["fit"] + log_scan[1:]
    # the last command of each run loads numpy: it is loaded on demand, not taken out
    for argv, tail in ((cold + [fit], ["0 True True False"]),
                       ([short_fit, dynamics_fit], ["0 False True False", "0 True True False"]),
                       ([log_scan, noisy_log_fit], ["0 True True False"]),
                       ([["selfcheck", "--out", out]], ["0 True True True"])):
        result = _fresh_python("-c", _NUMPY_AFTER_EACH, json.dumps(argv))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == (["0 False False False"] * (len(argv) - len(tail))
                                              + tail)


def test_scan_fits_from_data_or_without_noise_run_without_numpy(tmp_path):
    # the scan fits solve on plain floats: only the noise draws (the last
    # run) and log grids load numpy, so a fit from a data file on a log grid
    # and noise-free synthetic fits on linear grids run without it
    config = parse_config(INTENSITY_FIT)
    model = runners._scan_model(config)
    data = _write(tmp_path, "points.csv",
                  "x,y\n" + "".join(f"{x!r},{model(x)!r}\n" for x in config.grid.values()))
    linear = INTENSITY_FIT.replace("grid_scale = log", "grid_scale = linear")
    runs = [INTENSITY_FIT.replace("noise_fraction = 0.03", f"data = {data}"),
            linear.replace("noise_fraction = 0.03\n", ""),
            OD_SCAN.replace("grid_scale = log\n", ""),
            linear]
    out = str(tmp_path / "out.csv")
    argv = [["fit", "--config", _write(tmp_path, f"{i}.cfg", text), "--out", out]
            for i, text in enumerate(runs)]
    result = _fresh_python("-c", _NUMPY_AFTER_EACH, json.dumps(argv))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == (["0 False True False"] * (len(argv) - 1)
                                          + ["0 True True False"])


def test_log_grid_scans_and_noise_free_fits_run_without_numpy(tmp_path):
    # log grids are built on plain floats, so a fresh interpreter scanning
    # every kind on a log grid, and fitting noise-free synthetic data on
    # one, never loads numpy
    noise_free = INTENSITY_FIT.replace("noise_fraction = 0.03\n", "")
    aspect = ASPECT.replace("grid_count = 6", "grid_count = 6\ngrid_scale = log")
    runs = [("scan", noise_free), ("scan", OD_SCAN), ("scan", aspect),
            ("scan", aspect.replace("[scenario]", "[scenario]\naspect_mode = fixed_N")),
            ("fit", noise_free), ("fit", OD_SCAN)]
    out = str(tmp_path / "out.csv")
    argv = [[verb, "--config", _write(tmp_path, f"{i}.cfg", text), "--out", out]
            for i, (verb, text) in enumerate(runs)]
    result = _fresh_python("-c", _NUMPY_AFTER_EACH, json.dumps(argv))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 False False False"] * 4 + ["0 False True False"] * 2


_LOADED_AFTER_EACH = """\
import json, sys
sys.path[:0] = json.loads(sys.argv[1])
import doppler_reabs.cli as cli
names = ('dataclasses', 'inspect', 'typing', 'numpy')
print(*[name for name in names if name in sys.modules])
for argv in json.loads(sys.argv[2]):
    print(cli.main(argv), *[name for name in names if name in sys.modules])
"""


def test_cli_loads_no_dataclasses_inspect_or_typing(tmp_path):
    # under -S no site hook loads them first; the package's value types
    # are named tuples, and annotations are never evaluated.  numpy's root
    # is on the path, so the 14-sample fit would list numpy if it loaded it
    out = str(tmp_path / "out.csv")
    text = DYNAMICS.replace("self_consistent = false", "self_consistent = true")
    sc = _write(tmp_path, "sc.cfg", text)
    short = _write(tmp_path, "short.cfg", text.replace("sample_stride = 20", "sample_stride = 40"))
    runs = [["simulate", "--config", sc, "--out", out], ["fit", "--config", short, "--out", out],
            ["fit", "--config", sc, "--out", out]]
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    numpy_root = os.path.dirname(os.path.dirname(np.__file__))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_AFTER_EACH,
         json.dumps([package_root, numpy_root]), json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    cold, simulated, short_fitted, fitted = result.stdout.splitlines()
    assert (cold, simulated, short_fitted) == ("", "0", "0")
    # numpy, which the 27-sample fit loads, imports inspect and typing itself
    assert fitted.split()[0] == "0" and "numpy" in fitted and "dataclasses" not in fitted


def test_cli_loads_difflib_only_for_an_unknown_key(tmp_path):
    # difflib serves only the "did you mean" of an unknown key
    code = (
        "import sys, doppler_reabs.cli as cli\n"
        "print('difflib' in sys.modules)\n"
        "print(cli.main(['simulate', '--config', sys.argv[1]]))\n"
        "print('difflib' in sys.modules)\n"
    )
    cfg = _write(tmp_path, "s.cfg", STEADY.replace("kind = steady_state", "kindd = steady_state"))
    result = _fresh_python("-c", code, cfg)
    assert result.stdout.split() == ["False", "1", "True"]
    assert "unknown key 'kindd'; did you mean 'kind'?" in result.stderr


def test_cli_loads_no_argparse_or_gettext(tmp_path):
    # the command line is parsed by cli._parse; argparse would also load gettext
    code = (
        "import sys, doppler_reabs.cli as cli\n"
        "print('argparse' in sys.modules, 'gettext' in sys.modules)\n"
        "print(cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        "print('argparse' in sys.modules, 'gettext' in sys.modules)\n"
    )
    cfg = _write(tmp_path, "d.cfg", DYNAMICS)
    result = _fresh_python("-c", code, cfg, str(tmp_path / "out.csv"))
    assert result.stdout.split() == ["False", "False", "0", "False", "False"], result.stderr


@pytest.mark.parametrize("text", [
    INTENSITY_FIT.replace("kappa = 0.24", "kappa = 1e300"),
    OD_SCAN.replace("kappa_y_at_ref = 0.11", "kappa_y_at_ref = 1e-300")
    + "noise_fraction = 0.03\n",
], ids=["intensity_kappa_1e300", "od_kappa_y_at_ref_1e-300"])
def test_out_of_range_fit_data_exit_1_without_lapack_noise(tmp_path, text):
    # LAPACK writes its complaints outside Python, so only the stderr of
    # a fresh process shows them
    cfg = _write(tmp_path, "f.cfg", text)
    result = _fresh_python("-m", "doppler_reabs", "fit", "--config", cfg)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "DLASCL" not in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_overflowing_od_fit_reports_a_finite_residual_norm(tmp_path):
    # the raw residuals near 1e294 K square past the float range; the
    # norm must not overflow to 'divergent' or warn on stderr
    text = OD_SCAN.replace("kappa_at_ref = 0.24", "kappa_at_ref = 1e300").replace(
        "grid_scale = log", "heating_power_J_per_s = 2.6e-26\nnoise_fraction = 0.03"
    )
    cfg = _write(tmp_path, "f.cfg", text)
    result = _fresh_python("-m", "doppler_reabs", "fit", "--config", cfg)
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr
    residual = _column(result.stdout, "value")[
        _column(result.stdout, "parameter").index("residual_norm_K")
    ]
    assert math.isfinite(float(residual)), residual


def test_selfcheck_catches_perturbed_constants(capsys, monkeypatch):
    monkeypatch.setattr(constants, "MU_B", constants.MU_B * 1.03)
    assert main(["selfcheck"]) == 3
    out = capsys.readouterr().out
    assert "CHECKS FAILED" in out
    assert "FAIL" in out


def test_preset_dump(capsys):
    assert main(["preset-dump"]) == 0
    out = capsys.readouterr().out
    assert "Cr52" in out
    assert "stuttgart_cloverleaf" in out
    assert "curvature_z_G_per_cm2" in out


@pytest.mark.parametrize("value", ["0", "5e-324"])
def test_light_that_cannot_cool_fails_the_fit_at_the_intensity(tmp_path, capsys, value):
    # the run is valid but its temperature never moves, so the fit has no
    # decay time to find; the error names the intensity, not the fit
    verb, text = CASES[1]
    line_no = 9
    assert text.splitlines()[line_no - 1] == "intensity_Isat = 4e-3"
    cfg = _write(tmp_path, "dark.cfg", text.replace("intensity_Isat = 4e-3",
                                                    f"intensity_Isat = {value}"))
    assert main([verb, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"line {line_no}: laser.intensity_Isat: the light leaves T_z constant " in err
    assert "Traceback" not in err


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the work budget let the config through")


@pytest.mark.parametrize("text, key, message", [
    (DYNAMICS.replace("duration_ms = 60", "duration_ms = 1e7"), "duration_ms",
     "duration_ms must be <="),
    (ASPECT.replace("grid_count = 6", "grid_count = 1000000000"), "grid_count",
     "scenario.grid_count: must be in [2, 100000] (got '1000000000')"),
], ids=["duration_ms", "grid_count"])
def test_work_budget_rejects_config_with_line_number(tmp_path, capsys, monkeypatch, text, key,
                                                     message):
    # a config over the step or grid budget fails at parse time; the
    # guards keep a regression from running the huge job instead
    monkeypatch.setattr(runners, "simulate", _refuse_to_run)
    monkeypatch.setattr(GridSpec, "values", _refuse_to_run)
    verb = "simulate" if key == "duration_ms" else "scan"
    assert main([verb, "--config", _write(tmp_path, "big.cfg", text)]) == 1
    err = capsys.readouterr().err
    line_no = next(n for n, l in enumerate(text.splitlines(), 1) if l.startswith(key))
    assert err.startswith("error:")
    assert f"line {line_no}: {message}" in err
    assert "Traceback" not in err


SHORT_WINDOWS = [
    ("sample_stride", "1e300"), ("window_max_ms", "1e-300"), ("duration_ms", "1e-300"),
    ("window_min_ms", "7.99"),
]


@pytest.mark.parametrize("key, value", SHORT_WINDOWS)
def test_short_fit_window_exits_1_at_the_key_to_change(tmp_path, capsys, key, value):
    # the sample count is known only once the run's first step is; each
    # config leaves fewer than 4 samples in the window and passes parsing
    verb, text = CASES[1]
    lines = text.splitlines()
    line_no = next(n for n, line in enumerate(lines, 1) if line.startswith(key))
    lines[line_no - 1] = f"{key} = {value}"
    if key == "window_min_ms":  # a window that ends before the run would name its end
        lines[line_no] = "window_max_ms = 8"
    assert (verb, line_no) == ("fit", {"sample_stride": 20, "window_max_ms": 24,
                                       "duration_ms": 19, "window_min_ms": 23}[key])
    cfg = _write(tmp_path, "short.cfg", "\n".join(lines) + "\n")
    assert main([verb, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"line {line_no}: scenario.{key}: the fit window holds " in err
    assert "Traceback" not in err


def _no_rates(*args, **kwargs):
    raise AssertionError("a fit worked out the run's rates again")


@pytest.mark.parametrize("key, value", SHORT_WINDOWS)
def test_short_fit_window_takes_the_step_from_the_trace(tmp_path, capsys, monkeypatch, key,
                                                        value):
    # the fit's window is checked by the fit, with the step the run took
    monkeypatch.setattr(dynamics.RateModel, "_rate_values", _no_rates)
    test_short_fit_window_exits_1_at_the_key_to_change(tmp_path, capsys, key, value)


@pytest.mark.parametrize("partial", [
    "sigma_y_um = 410", "sigma_y_um = 410\npeak_density_per_cm3 = 5.6e10",
], ids=["sigma_y", "sigma_y_and_density"])
def test_steady_state_runs_from_its_complete_cloud_value_set(tmp_path, capsys, partial):
    # the temperature set is complete and the sigma set is not: the run
    # uses the complete one, and the partial keys are only echoed
    complete = STEADY.replace("sigma_y_um = 410\nsigma_z_um = 700\npeak_density_per_cm3 = 5.6e10",
                              "atom_number = 1e8\ntemperature_y_uK = 1000\ntemperature_z_uK = 800")

    def data_rows(text):
        assert main(["simulate", "--config", _write(tmp_path, "s.cfg", text)]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]

    mixed = complete.replace("temperature_z_uK = 800", f"temperature_z_uK = 800\n{partial}")
    assert data_rows(mixed) == data_rows(complete)


def test_scan_fit_from_a_data_file_recovers_its_parameters(tmp_path, capsys):
    config = parse_config(INTENSITY_FIT)
    model = runners._scan_model(config)
    data = tmp_path / "points.csv"
    data.write_text("x,y\n" + "".join(f"{x!r},{model(x)!r}\n" for x in config.grid.values()))
    text = INTENSITY_FIT.replace("noise_fraction = 0.03", f"data = {data}")
    assert main(["fit", "--config", _write(tmp_path, "f.cfg", text)]) == 0
    table = {row[0]: row[1] for row in _parse_csv(capsys.readouterr().out)[2]}
    assert float(table["kappa_y"]) == pytest.approx(0.11, rel=1e-9)
    assert float(table["heating_power"]) == pytest.approx(2.6e-26, rel=1e-9)


@pytest.mark.parametrize("bad_row, message", [
    ("0.001,nan,", "y must be a finite positive number (got 'nan')"),
    ("0.001,inf,", "y must be a finite positive number (got 'inf')"),
    ("0.001,-3e-4,", "y must be a finite positive number (got '-3e-4')"),
    ("abc,3e-4,", "x must be a finite positive number (got 'abc')"),
    ("0.001", "y must be a finite positive number (got '')"),
    ("0.001,3e-4,nan", "y_err must be a finite positive number (got 'nan')"),
], ids=["y_nan", "y_inf", "y_negative", "x_not_a_number", "y_missing", "y_err_nan"])
def test_a_bad_data_cell_exits_1_naming_its_line(tmp_path, capsys, bad_row, message):
    config = parse_config(INTENSITY_FIT)
    model = runners._scan_model(config)
    rows = [f"{x!r},{model(x)!r}," for x in config.grid.values()]
    rows[3] = bad_row  # line 6 of the file, after a comment and the header
    data = tmp_path / "points.csv"
    data.write_text("# measured\nx,y,y_err\n" + "\n".join(rows) + "\n")
    text = INTENSITY_FIT.replace("noise_fraction = 0.03", f"data = {data}")
    assert main(["fit", "--config", _write(tmp_path, "f.cfg", text)]) == 1
    assert capsys.readouterr().err == f"error: {data}, line 6: {message}\n"


@pytest.mark.parametrize("text, old, new", [
    (INTENSITY_FIT, "kappa_y = 0.11", "kappa_y = 0"),
    (CASES[5][1], "intensity_Isat = 4e-3", "intensity_Isat = 0"),  # an OD fit with heating
    (INTENSITY_FIT, "noise_fraction = 0.03", "noise_fraction = 5e-324"),
    (INTENSITY_FIT, "noise_fraction = 0.03", "noise_fraction = 1e300"),
], ids=["all_points_diverge", "od_fit_without_light", "noise_underflows", "noise_overflows"])
def test_synthetic_scan_fit_that_cannot_be_fit_exits_1_at_the_kind(tmp_path, capsys, text, old,
                                                                  new):
    # the points are drawn from the config's own values, so the config is at fault
    text = text.replace(old, new)
    assert main(["fit", "--config", _write(tmp_path, "f.cfg", text)]) == 1
    line_no = next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith("kind"))
    err = capsys.readouterr().err
    assert f"line {line_no}: scenario.kind: " in err
    assert "Traceback" not in err


def test_arithmetic_error_exits_1_with_the_numeric_range_message(tmp_path, capsys,
                                                                 monkeypatch):
    def overflow(config):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._RUNNERS, "steady_state", overflow)
    assert main(["simulate", "--config", _write(tmp_path, "s.cfg", STEADY)]) == 1
    assert capsys.readouterr().err == (
        "error: input out of the model's numeric range: math range error\n")


# cells the one row format must write as format_value does: signed zero, the
# smallest subnormal, the largest magnitudes, 1e22 (the largest power of ten
# a float holds exactly), non-finite floats, which read divergent, and the
# types that take the cell-by-cell path
_CELLS = [-0.0, 5e-324, 1e308, -1e308, 1e22, math.nan, math.inf, -math.inf,
          3, True, False, "T_inf", np.float64(0.1), np.float64(math.inf)]


def _rendered_rows(rows):
    columns = [f"c{i}" for i in range(len(rows[0]))]
    lines = runners._render_csv((("scenario.kind", "dynamics"),), columns, rows).splitlines()
    assert lines[:2] == ["# scenario.kind=dynamics", ",".join(columns)]
    return lines[2:]


@pytest.mark.parametrize("cell", _CELLS, ids=repr)
def test_render_csv_writes_each_cell_as_format_value_does(cell):
    rows = [(0.1, cell, -2.5e-7), (cell, cell, cell)]
    assert _rendered_rows(rows) == [",".join(map(config.format_value, row)) for row in rows]
    if isinstance(cell, float) and not math.isfinite(cell):
        assert _rendered_rows(rows)[1] == "divergent,divergent,divergent"


def test_render_csv_writes_a_row_of_edge_floats_as_format_value_does():
    row = tuple(cell for cell in _CELLS if type(cell) is float and math.isfinite(cell))
    assert _rendered_rows([row]) == ["-0,4.94065645841e-324,1e+308,-1e+308,1e+22"]
    assert _rendered_rows([row]) == [",".join(map(config.format_value, row))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_render_csv_matches_format_value_on_finite_floats(row):
    assert _rendered_rows([tuple(row)]) == [",".join(map(config.format_value, row))]
    assert [config.format_value(v) for v in row] == [f"{v:.12g}" for v in row]


def test_a_long_trace_renders_without_holding_its_rows_twice():
    # 2.4 s frozen at stride 1: 20 341 rows, whose lines and text take
    # about 395 B a row while the text is joined (490 B when the lines
    # were rendered from a trace held as columns)
    long = parse_config(DYNAMICS.replace("duration_ms = 60", "duration_ms = 2400")
                        .replace("sample_stride = 20", "sample_stride = 1"))
    runners.run_dynamics(parse_config(DYNAMICS))  # compiles and caches outside the count
    tracemalloc.start()
    try:
        text = runners.run_dynamics(long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = text.count("\n") - len(long.header) - 1
    assert rows == 20341 and text.endswith("\n") and not text.endswith("\n\n")
    assert peak / rows <= 539  # 490 measured, plus 10 %


def _reference_trace_csv(config_):
    """A trace's CSV built as the renderer built it before the sample stream:
    rows from simulate's columns, every cell through format_value, and psd
    through thermal_debroglie_wavelength."""
    trace, species = runners._simulate(config_), config_.species
    shapes = trace.shapes * len(trace.t) if len(trace.shapes) == 1 else trace.shapes
    lines = [f"# {key}={value}" for key, value in config_.header]
    lines.append("t_s,T_z_K,T_y_K,sigma_z_m,sigma_y_m,n0_per_m3,kappa_y,kappa_z,kappa,psd")
    for t, z, y, (s_z, s_y, n0, k_y, k_z, k, _) in zip(trace.t, trace.T_z, trace.T_y, shapes):
        psd = n0 * doppler_reabs.thermal_debroglie_wavelength((y ** 2 * z) ** (1.0 / 3.0),
                                                              species) ** 3
        lines.append(",".join(map(config.format_value, (t, z, y, s_z, s_y, n0, k_y, k_z, k, psd))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("self_consistent", ["false", "true"])
@pytest.mark.parametrize("duration, stride", [(60, 1), (60, 3), (60, 7), (60, 20), (0, 1)])
def test_the_sample_stream_renders_the_trace_simulate_returns(self_consistent, duration, stride):
    # strides 3 and 7 leave a last sample interval shorter than the stride
    config_ = parse_config(
        DYNAMICS.replace("duration_ms = 60", f"duration_ms = {duration}")
        .replace("sample_stride = 20", f"sample_stride = {stride}")
        .replace("self_consistent = false", f"self_consistent = {self_consistent}"))
    assert runners.run_dynamics(config_) == _reference_trace_csv(config_)
    trace = runners._simulate(config_)
    samples = list(dynamics._samples(config_.cloud, config_.trap, config_.species, config_.laser,
                                     config_.duration, config_.self_consistent,
                                     config_.sample_stride, config_.delta_pol))
    assert [sample[:3] for sample in samples] == list(zip(trace.t, trace.T_z, trace.T_y))
    if config_.self_consistent:
        assert trace.shapes == tuple(sample[3] for sample in samples)
    else:  # one shape, the same tuple in every sample, held once
        assert all(sample[3] is samples[0][3] for sample in samples)
        assert trace.shapes == (samples[0][3],)
    if duration == 0:
        assert trace.step == 0.0 and len(trace.t) == 1
    else:
        assert trace.step > 0 and all(t == round(t / trace.step) * trace.step for t in trace.t)
        assert trace.t[-1] == pytest.approx(config_.duration, rel=1e-12)


def _stride1_frozen(tmp_path, duration_ms):
    return _write(tmp_path, f"long{duration_ms}.cfg",
                  DYNAMICS.replace("duration_ms = 60", f"duration_ms = {duration_ms}")
                  .replace("sample_stride = 20", "sample_stride = 1"))


def test_the_cli_writes_a_long_trace_in_bounded_memory(tmp_path):
    # 2.4 s and 4.8 s frozen at stride 1: 20 341 and 40 681 rows, 3.4 and
    # 6.8 MB of CSV; the CLI holds one 64 KiB batch of lines at a time
    out = str(tmp_path / "out.csv")
    assert main(["simulate", "--config", _write(tmp_path, "d.cfg", DYNAMICS), "--out", out]) == 0
    peaks = []
    for duration_ms in (2400, 4800):
        argv = ["simulate", "--config", _stride1_frozen(tmp_path, duration_ms), "--out", out]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert os.path.getsize(out) > 6_800_000
    assert max(peaks) <= 330_000  # 291 kB measured, plus about 13 %
    assert peaks[1] - peaks[0] <= 2_000  # under 0.1 B for each of the 20 340 added rows


def _failing_after(calls, monkeypatch):
    """Make the self-consistent loop's kappa evaluation raise after calls calls."""
    integrals, count = dynamics._closed_form_integrals, [0]

    def failing(sigma_y, sigma_z):
        count[0] += 1
        if count[0] > calls:
            raise ValueError("kappa failed")
        return integrals(sigma_y, sigma_z)
    monkeypatch.setattr(dynamics, "_closed_form_integrals", failing)


SELF_CONSISTENT = DYNAMICS.replace("self_consistent = false", "self_consistent = true")


def test_a_run_failing_before_its_first_batch_leaves_the_out_file_as_it_was(
        tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "sc.cfg", SELF_CONSISTENT)
    out = tmp_path / "out.csv"
    out.write_bytes(b"kept \x00\xff" * 1000)
    _failing_after(5, monkeypatch)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: kappa failed\n")
    assert out.read_bytes() == b"kept \x00\xff" * 1000


def test_a_run_failing_after_its_first_batch_leaves_a_partial_file(tmp_path, capsys,
                                                                   monkeypatch):
    # 0.6 s self-consistent at stride 1: 5 086 rows, about 860 kB
    text = SELF_CONSISTENT.replace("duration_ms = 60", "duration_ms = 600")
    cfg = _write(tmp_path, "sc.cfg", text.replace("sample_stride = 20", "sample_stride = 1"))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    whole = out.read_bytes()
    _failing_after(2000, monkeypatch)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: kappa failed\n")
    partial = out.read_bytes()
    assert cli._BATCH <= len(partial) < len(whole) and whole.startswith(partial)
    assert partial.endswith(b"\n") and partial.count(b"\n") < 2000


def test_a_long_trace_to_a_full_device_exits_1(tmp_path, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    cfg = _stride1_frozen(tmp_path, 2400)
    assert main(["simulate", "--config", cfg, "--out", "/dev/full"]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
