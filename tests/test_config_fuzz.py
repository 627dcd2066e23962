"""Config fuzzing: edge values in any field never escape the exit-code contract."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from doppler_reabs.cli import main

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
