"""The value types' construction checks: each refusal and its message."""

from __future__ import annotations

import math

import pytest

from doppler_reabs import (
    AtomSpecies,
    CloudShape,
    CloudState,
    LaserConfig,
    ScanPoint,
    ScenarioConfig,
    TemperatureTrace,
    TrapConfig,
    config,
    cr52,
    stuttgart_cloverleaf,
)
from doppler_reabs.cli import main
from test_cli import INTENSITY_FIT


SAMPLE_COLUMNS = ("t", "T_z", "T_y", "shapes")


def _samples(*samples):
    """A trace's sample columns from (t, T_z, T_y) triples, sharing one shape."""
    t, T_z, T_y = (tuple(column) for column in zip(*samples))
    return dict(t=t, T_z=T_z, T_y=T_y, shapes=((7e-4, 4.1e-4, 5.6e16, 0.1, 0.2, 0.3, 1.0),))


def _id(kind, changed):
    # a change of every sample column is named for the samples
    names = "samples" if tuple(changed) == SAMPLE_COLUMNS else "-".join(changed)
    return f"{kind.__name__}-{names}"


# each type with valid values for every field, in field order
GOOD = {
    AtomSpecies: dict(name="x", mass=8.6e-26, wavelength=425.55e-9, linewidth=3.15e7,
                      saturation_intensity=85.2, j_ground=3, j_excited=4, l_ground=0,
                      s_ground=3, l_excited=1, s_excited=3, m_j=3),
    LaserConfig: dict(intensity=4e-3, detuning=7.0, attenuation_factor=3.0),
    TrapConfig: dict(curvature_x=1.0, curvature_y=1.0, curvature_z=0.3, offset_field=1e-4,
                     magnetic_moment=5.6e-23),
    CloudState: dict(atom_number=1e8, T_y=1e-3, T_z=1e-3, sigma_y=4.1e-4, sigma_z=7e-4,
                     peak_density=5.6e16),
    CloudShape: dict(sigma_y=4.1e-4, sigma_z=7e-4, peak_density=5.6e16),
    TemperatureTrace: dict(**_samples((0.0, 1e-3, 1e-3), (1e-3, 1e-3, 1e-3)), step=1e-3),
    ScanPoint: dict(x=1e-3, y=1e-4, y_err=1e-6),
}

SPECIES = "mass, wavelength and linewidth must be positive"
TRACE_COLUMNS = "t, T_z, T_y need one entry per sample, shapes one or one per sample"
# (type, the fields changed from GOOD, the message of the check that refuses them)
REFUSED = [
    (AtomSpecies, dict(mass=0.0), SPECIES),
    (AtomSpecies, dict(wavelength=-1e-9), SPECIES),
    (AtomSpecies, dict(linewidth=0.0), SPECIES),
    (AtomSpecies, dict(saturation_intensity=0.0), "saturation_intensity must be positive"),
    (AtomSpecies, dict(j_ground=-1, j_excited=0, m_j=0), "j_ground must be >= 0"),
    (AtomSpecies, dict(j_excited=3), "only J_excited = J_ground + 1 is supported"),
    (AtomSpecies, dict(j_excited=5), "only J_excited = J_ground + 1 is supported"),
    (AtomSpecies, dict(m_j=4), "|m_j| must not exceed j_ground"),
    (AtomSpecies, dict(m_j=-4), "|m_j| must not exceed j_ground"),
    (LaserConfig, dict(intensity=-1e-3), "intensity must be >= 0"),
    (LaserConfig, dict(detuning=math.inf), "detuning must be finite"),
    (LaserConfig, dict(attenuation_factor=0.5), "attenuation_factor must be >= 1"),
    (TrapConfig, dict(curvature_x=0.0), "curvatures must be positive"),
    (TrapConfig, dict(curvature_y=-1.0), "curvatures must be positive"),
    (TrapConfig, dict(curvature_z=0.0), "curvatures must be positive"),
    (TrapConfig, dict(offset_field=0.0), "offset_field must be positive"),
    (TrapConfig, dict(magnetic_moment=-1e-23), "magnetic_moment must be positive"),
    (CloudState, dict(atom_number=0.0), "atom_number must be positive"),
    (CloudState, dict(T_y=0.0), "temperatures must be positive"),
    (CloudState, dict(T_z=-1e-3), "temperatures must be positive"),
    (CloudState, dict(sigma_y=0.0), "cloud sizes must be positive"),
    (CloudState, dict(sigma_z=-1e-4), "cloud sizes must be positive"),
    (CloudState, dict(peak_density=-1.0), "peak_density must be >= 0"),
    (CloudShape, dict(sigma_y=0.0), "cloud sizes must be positive"),
    (CloudShape, dict(sigma_z=-1e-4), "cloud sizes must be positive"),
    (CloudShape, dict(peak_density=-1.0), "peak_density must be >= 0"),
    (TemperatureTrace, _samples((0.0, 1e-3, 1e-3), (0.0, 1e-3, 1e-3)),
     "sample times must be strictly increasing"),
    (TemperatureTrace, _samples((1e-3, 1e-3, 1e-3), (0.0, 1e-3, 1e-3)),
     "sample times must be strictly increasing"),
    (TemperatureTrace, _samples((0.0, 1e-3, 1e-3), (1e-3, 0.0, 1e-3)),
     "temperatures must stay positive"),
    (TemperatureTrace, _samples((0.0, 1e-3, -1e-3)),
     "temperatures must stay positive"),
    (TemperatureTrace, dict(T_y=(1e-3,)), TRACE_COLUMNS),
    (TemperatureTrace, dict(t=(0.0, 1e-3, 2e-3)), TRACE_COLUMNS),
    (TemperatureTrace, dict(shapes=((7e-4, 4.1e-4, 5.6e16, 0.1, 0.2, 0.3, 1.0),) * 3),
     TRACE_COLUMNS),
    (ScanPoint, dict(x=0.0), "x must be positive"),
    (ScanPoint, dict(y=-1e-4), "y must be positive"),
    (ScanPoint, dict(y_err=0.0), "y_err must be positive when given"),
]


def test_the_tables_hold_every_checked_type():
    # a new checked type cannot leave the refusal tables
    from doppler_reabs.atoms import _Checked
    assert set(GOOD) == set(_Checked.__subclasses__()) == {kind for kind, _, _ in REFUSED}


@pytest.mark.parametrize("form", ["positional", "keyword"])
@pytest.mark.parametrize("kind, changed, message", REFUSED,
                         ids=[_id(kind, changed) for kind, changed, _ in REFUSED])
def test_each_check_refuses_with_its_message(kind, changed, message, form):
    values = {**GOOD[kind], **changed}
    with pytest.raises(ValueError) as excinfo:
        kind(*values.values()) if form == "positional" else kind(**values)
    assert str(excinfo.value) == message


# (type, the field set to NaN, the message of the check that refuses it)
REFUSED_NAN = [
    (AtomSpecies, "mass", SPECIES),
    (AtomSpecies, "wavelength", SPECIES),
    (AtomSpecies, "linewidth", SPECIES),
    (AtomSpecies, "saturation_intensity", "saturation_intensity must be positive"),
    (AtomSpecies, "j_ground", "j_ground must be >= 0"),
    (AtomSpecies, "m_j", "|m_j| must not exceed j_ground"),
    (LaserConfig, "intensity", "intensity must be >= 0"),
    (LaserConfig, "detuning", "detuning must be finite"),
    (LaserConfig, "attenuation_factor", "attenuation_factor must be >= 1"),
    (TrapConfig, "curvature_x", "curvatures must be positive"),
    (TrapConfig, "curvature_y", "curvatures must be positive"),
    (TrapConfig, "curvature_z", "curvatures must be positive"),
    (TrapConfig, "offset_field", "offset_field must be positive"),
    (TrapConfig, "magnetic_moment", "magnetic_moment must be positive"),
    (CloudState, "atom_number", "atom_number must be positive"),
    (CloudState, "T_y", "temperatures must be positive"),
    (CloudState, "T_z", "temperatures must be positive"),
    (CloudState, "sigma_y", "cloud sizes and peak_density must be finite"),
    (CloudState, "sigma_z", "cloud sizes and peak_density must be finite"),
    (CloudState, "peak_density", "cloud sizes and peak_density must be finite"),
    (CloudShape, "sigma_y", "cloud sizes and peak_density must be finite"),
    (CloudShape, "sigma_z", "cloud sizes and peak_density must be finite"),
    (CloudShape, "peak_density", "cloud sizes and peak_density must be finite"),
    (ScanPoint, "x", "x must be positive"),
    (ScanPoint, "y", "y must be positive"),
    (ScanPoint, "y_err", "y_err must be positive when given"),
]


@pytest.mark.parametrize("kind, field, message", REFUSED_NAN,
                         ids=[f"{kind.__name__}-{field}" for kind, field, _ in REFUSED_NAN])
def test_nan_is_refused_with_its_message(kind, field, message):
    with pytest.raises(ValueError) as excinfo:
        kind(**{**GOOD[kind], field: math.nan})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind, changed, message", REFUSED,
                         ids=[_id(kind, changed) for kind, changed, _ in REFUSED])
def test_replace_and_make_check_too(kind, changed, message):
    good = kind(**GOOD[kind])
    assert good._replace() == good and kind._make(good) == good
    with pytest.raises(ValueError) as excinfo:
        good._replace(**changed)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        kind._make({**GOOD[kind], **changed}.values())
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", list(GOOD), ids=lambda kind: kind.__name__)
def test_valid_values_build_in_either_form(kind):
    values = GOOD[kind]
    built = kind(**values)
    assert kind(*values.values()) == built
    assert {name: getattr(built, name) for name in values} == values


def test_a_default_scale_scan_is_linear(tmp_path, capsys):
    assert config._DEFAULTS["grid_scale"] == "linear"
    path = tmp_path / "scan.cfg"
    path.write_text(INTENSITY_FIT.replace("grid_scale = log\n", ""), encoding="utf-8")
    assert main(["scan", "--config", str(path)]) == 0
    assert "# scenario.grid_scale=linear" in capsys.readouterr().out.splitlines()


def test_a_hand_built_scenario_config_has_empty_read_only_lines():
    built = ScenarioConfig(cr52(), stuttgart_cloverleaf(), LaserConfig(4e-3, 7.0), -0.8,
                           "steady_state")
    assert built.lines.get("kind", 0) == 0
    with pytest.raises(TypeError):
        built.lines["kind"] = 1
    with pytest.raises(TypeError):
        hash(built)
