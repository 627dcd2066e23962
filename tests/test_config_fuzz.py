"""Config fuzzing: edge values in any field never escape the exit-code contract."""

from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from doppler_reabs.cli import main
from doppler_reabs.config import _SECTIONS

PREAMBLE = """\
[species]
preset = Cr52

[trap]
preset = stuttgart_cloverleaf
curvature_y_G_per_cm2 = 750

[laser]
intensity_Isat = 4e-3
detuning_Gamma = 7
attenuation_factor = 3
"""

# (verb, config) pairs that each exit 0 unmutated
CASES = (
    ("simulate", PREAMBLE + """
[cloud]
atom_number = 1e8
temperature_y_uK = 1000
temperature_z_uK = 800

[scenario]
kind = dynamics
duration_ms = 4
sample_stride = 5
self_consistent = true
"""),
    ("fit", PREAMBLE + """
[cloud]
atom_number = 1e8
temperature_uK = 1000

[scenario]
kind = dynamics
duration_ms = 8
sample_stride = 4
self_consistent = false
fit_axis = z
window_min_ms = 0
window_max_ms = 6
"""),
    ("simulate", PREAMBLE + """
[cloud]
sigma_y_um = 410
sigma_z_um = 700
peak_density_per_cm3 = 5.6e10

[scenario]
kind = steady_state
"""),
    ("scan", PREAMBLE + """
[cloud]
atom_number = 1e8
peak_density_per_cm3 = 5.6e10

[scenario]
kind = aspect_scan
aspect_mode = fixed_N
grid_min = 0.5
grid_max = 2
grid_count = 4
grid_scale = log
"""),
    ("fit", PREAMBLE + """
[scenario]
kind = intensity_scan
kappa_y = 0.11
kappa_z = 0.17
kappa = 0.24
heating_power_J_per_s = 2.6e-26
noise_fraction = 0.03
grid_min = 1e-4
grid_max = 1e-2
grid_count = 5
grid_scale = log
"""),
    ("fit", PREAMBLE + """
[scenario]
kind = od_scan
od_ref = 4.5
kappa_y_at_ref = 0.11
kappa_at_ref = 0.24
heating_power_J_per_s = 2.6e-26
noise_fraction = 0.03
grid_min = 1
grid_max = 20
grid_count = 5
"""),
    # the run's cloud is the complete temperature set; sigma_y_um is echoed, not used
    ("simulate", PREAMBLE + """
[cloud]
atom_number = 1e8
temperature_y_uK = 1000
temperature_z_uK = 800
sigma_y_um = 410

[scenario]
kind = steady_state
"""),
)

EDGE_VALUES = (
    "0", "-0", "-1", "-1e300", "1e-300", "5e-324", "1e300", "1e308",
    "nan", "inf", "-inf", "abc", "", "1e", "true",
)


@st.composite
def mutated_case(draw):
    verb, text = draw(st.sampled_from(CASES))
    lines = text.splitlines()
    value_lines = [i for i, line in enumerate(lines) if "=" in line]
    chosen = draw(st.lists(st.sampled_from(value_lines), min_size=1, max_size=3, unique=True))
    for i in chosen:
        key = lines[i].partition("=")[0].strip()
        lines[i] = f"{key} = {draw(st.sampled_from(EDGE_VALUES))}"
    return verb, "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutated_case())
def test_mutated_configs_keep_the_exit_code_contract(case):
    verb, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        # an exception escaping main() fails the test: that is a traceback
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, "--config", path, "--out", os.path.join(tmp, "out.csv")])
    assert code in (0, 1, 2, 3)
    if code != 0:
        # numpy may warn on stderr first about extreme values
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
        assert "Traceback" not in err.getvalue()


SWEEP_VALUES = EDGE_VALUES[:8]  # the finite numbers


def _breaks_rule(kind, rule, value: float) -> bool:
    """Whether a numeric key's own type or rule forbids value."""
    if kind == "int" and value != int(value):
        return True
    if rule == "> 0":
        return not value > 0
    return rule is not None and not rule[0] <= value <= rule[1]


def _sweep():
    """Every numeric key line of CASES, one at a time, set to each sweep
    value and, for the model's inputs, to the key's own bounds.  (The
    scenario bounds include the work budget of a 100 000-point scan.)"""
    for verb, text in CASES:
        lines, section = text.splitlines(), None
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line[1:-1]
                continue
            key = line.partition("=")[0].strip()
            kind, rule = _SECTIONS[section][key] if "=" in line else (None, None)
            if kind not in ("float", "int"):
                continue
            bounds = tuple(repr(b) for b in rule) if section != "scenario" else ()
            for value in SWEEP_VALUES + bounds:
                mutated = lines[:i] + [f"{key} = {value}"] + lines[i + 1:]
                yield verb, "\n".join(mutated) + "\n", i + 1, section, key, value


def test_edge_sweep_rejects_each_bad_value_at_its_own_line(tmp_path):
    path, out_path = tmp_path / "case.cfg", str(tmp_path / "out.csv")
    for verb, text, line_no, section, key, value in _sweep():
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, "--config", str(path), "--out", out_path])
        case = f"{verb}: {section}.{key} = {value}"
        assert code in (0, 1, 2, 3), case
        assert "numeric range" not in err.getvalue(), case
        if code == 1:  # the config is at fault, so the error names its line
            assert re.search(r"line \d+: ", err.getvalue()), case
        if _breaks_rule(*_SECTIONS[section][key], float(value)):
            assert code == 1, case
            assert f"line {line_no}: {section}.{key}: " in err.getvalue(), case
