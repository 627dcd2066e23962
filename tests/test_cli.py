"""Command-line interface: verbs, exit codes, output routing, determinism."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from doppler_reabs import GridSpec, cli, constants, runners
from doppler_reabs.cli import main

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
    # the parser is built once per process; an option given to one call
    # must not carry over to the next
    fit_cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    dyn_cfg = _write(tmp_path, "d.cfg", DYNAMICS)

    def run(*args):
        out = tmp_path / "out.csv"
        assert main([*args, "--out", str(out)]) == 0
        return out.read_bytes()

    cli._build_parser.cache_clear()
    first_fit = run("fit", "--config", fit_cfg)
    first_sim = run("simulate", "--config", dyn_cfg)
    assert run("fit", "--config", fit_cfg, "--seed", "3") != first_fit
    assert run("fit", "--config", fit_cfg) == first_fit
    assert run("simulate", "--config", dyn_cfg, "--mode", "verbatim") != first_sim
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


def test_verb_kind_mismatch_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "i.cfg", INTENSITY_FIT)
    assert main(["simulate", "--config", cfg]) == 1
    assert "does not run under 'simulate'" in capsys.readouterr().err


def test_mode_verbatim_quarters_the_fixed_point(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DYNAMICS)
    a, b = tmp_path / "cons.csv", tmp_path / "verb.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(
        ["simulate", "--config", cfg, "--mode", "verbatim", "--out", str(b)]
    ) == 0
    text_a, text_b = a.read_text(), b.read_text()
    assert _parse_csv(text_a)[0]["scenario.consistency_mode"] == "true"
    assert _parse_csv(text_b)[0]["scenario.consistency_mode"] == "false"
    # after ten axial time constants the two conventions sit on their
    # respective fixed points, a factor of four apart
    t_cons = float(_column(text_a, "T_z_K")[-1])
    t_verb = float(_column(text_b, "T_z_K")[-1])
    assert t_cons / t_verb == pytest.approx(4.0, rel=0.01)


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
    monkeypatch.setattr(
        cli, "run_fit",
        lambda config, seed=0: "parameter,value,standard_error\nconverged,false,\n",
    )
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


def test_cli_and_selfcheck_do_not_load_scipy():
    # scipy serves only the quadrature oracle of the tests: a fresh
    # interpreter importing the command line and running selfcheck
    # never loads it
    code = (
        "import sys, doppler_reabs.cli as cli\n"
        "print('scipy' in sys.modules)\n"
        "assert cli.run_selfcheck().all_passed\n"
        "print('scipy' in sys.modules)\n"
    )
    result = _fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


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
