"""Scenario configuration: sectioned key=value text, presets, validation.

The format is deliberately flat and greppable:

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

Keys holding dimensioned quantities carry their unit as a suffix in the
key name; a key without its suffix is rejected, with the suffixed form
suggested.  Unknown keys are rejected with the nearest valid key.  All
errors carry the offending line number and are reported together.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .atoms import AtomSpecies, LaserConfig, effective_detuning, species_from_lab_units, zeeman_shift
from .dynamics import MAX_STEPS, rate_caps, step_size
from .presets import SPECIES_PRESETS, TRAP_PRESETS
from .trap import TrapConfig, trap_from_lab_units

SCENARIO_KINDS = ("dynamics", "aspect_scan", "intensity_scan", "od_scan", "steady_state")
MAX_GRID_POINTS = 100_000  # work and memory budget of one scan

# key -> type tag; under each section. "float"/"int"/"bool"/"str".
_SPECIES_KEYS = {
    "preset": "str",
    "name": "str",
    "mass_u": "float",
    "wavelength_nm": "float",
    "linewidth_MHz": "float",
    "saturation_intensity_W_per_m2": "float",
    "j_ground": "int",
    "j_excited": "int",
    "l_ground": "int",
    "s_ground": "int",
    "l_excited": "int",
    "s_excited": "int",
    "m_j": "int",
}
_TRAP_KEYS = {
    "preset": "str",
    "curvature_x_G_per_cm2": "float",
    "curvature_y_G_per_cm2": "float",
    "curvature_z_G_per_cm2": "float",
    "offset_field_G": "float",
    "magnetic_moment_muB": "float",
}
_LASER_KEYS = {
    "intensity_Isat": "float",
    "detuning_Gamma": "float",
    "detuning_pol_Gamma": "float",
    "attenuation_factor": "float",
    "polarization_purity": "float",
}
_CLOUD_KEYS = {
    "atom_number": "float",
    "temperature_uK": "float",
    "temperature_x_uK": "float",
    "temperature_y_uK": "float",
    "temperature_z_uK": "float",
    "sigma_y_um": "float",
    "sigma_z_um": "float",
    "peak_density_per_cm3": "float",
}
_SCENARIO_KEYS = {
    "kind": "str",
    "output": "str",
    "duration_ms": "float",
    "sample_stride": "int",
    "self_consistent": "bool",
    "consistency_mode": "bool",
    "grid_min": "float",
    "grid_max": "float",
    "grid_count": "int",
    "grid_scale": "str",
    "aspect_mode": "str",
    "kappa_y": "float",
    "kappa_z": "float",
    "kappa": "float",
    "heating_power_J_per_s": "float",
    "od_ref": "float",
    "kappa_y_at_ref": "float",
    "kappa_at_ref": "float",
    "data": "str",
    "noise_fraction": "float",
    "fit_axis": "str",
    "window_min_ms": "float",
    "window_max_ms": "float",
}
_SECTIONS = {
    "species": _SPECIES_KEYS,
    "trap": _TRAP_KEYS,
    "laser": _LASER_KEYS,
    "cloud": _CLOUD_KEYS,
    "scenario": _SCENARIO_KEYS,
}


class ConfigError(ValueError):
    """One or more configuration problems, each tagged with a line number."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = sorted(errors)
        lines = [f"line {ln}: {msg}" if ln else msg for ln, msg in self.errors]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


@dataclass(frozen=True)
class GridSpec:
    """Scan grid over the scenario variable."""

    minimum: float
    maximum: float
    count: int
    scale: str = "linear"  # or "log"

    def values(self) -> list[float]:
        if self.scale == "log":
            return [float(v) for v in np.geomspace(self.minimum, self.maximum, self.count)]
        return [float(v) for v in np.linspace(self.minimum, self.maximum, self.count)]


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: built objects plus raw lab-unit provenance."""

    species: AtomSpecies
    trap: TrapConfig
    laser: LaserConfig
    delta_pol: float
    kind: str
    output: str | None = None
    atom_number: float | None = None
    temperatures: tuple[float, float, float] | None = None  # (T_x, T_y, T_z) [K]
    cloud_sigma_y: float | None = None   # [m]
    cloud_sigma_z: float | None = None
    cloud_peak_density: float | None = None  # [1/m^3]
    duration: float | None = None        # [s]
    sample_stride: int = 1
    self_consistent: bool = True
    consistency_mode: bool = True
    grid: GridSpec | None = None
    aspect_mode: str = "fixed_n0"
    kappa_y: float | None = None
    kappa_z: float = 0.0
    kappa: float | None = None
    heating_power: float = 0.0           # [J/s]
    od_ref: float | None = None
    kappa_y_at_ref: float | None = None
    kappa_at_ref: float | None = None
    data: str | None = None
    noise_fraction: float = 0.0
    fit_axis: str = "y"
    window: tuple[float, float] | None = None  # [s]
    raw_items: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def with_consistency_mode(self, on: bool) -> "ScenarioConfig":
        return replace(self, consistency_mode=on)

    def resolved_items(self) -> tuple[tuple[str, str], ...]:
        """Key=value pairs echoed into every CSV header for provenance."""
        items = [kv for kv in self.raw_items if not kv[0].startswith("scenario.")]
        items.append(("resolved.delta_pol_Gamma", format_value(self.delta_pol)))
        items.append(("scenario.kind", self.kind))
        for key, value in (
            ("duration_ms", None if self.duration is None else self.duration * 1e3),
            ("sample_stride", self.sample_stride),
            ("self_consistent", self.self_consistent),
            ("consistency_mode", self.consistency_mode),
            ("aspect_mode", self.aspect_mode if self.kind == "aspect_scan" else None),
            ("grid_min", None if self.grid is None else self.grid.minimum),
            ("grid_max", None if self.grid is None else self.grid.maximum),
            ("grid_count", None if self.grid is None else self.grid.count),
            ("grid_scale", None if self.grid is None else self.grid.scale),
            ("kappa_y", self.kappa_y),
            ("kappa_z", self.kappa_z if self.kind == "intensity_scan" else None),
            ("kappa", self.kappa),
            ("heating_power_J_per_s",
             self.heating_power if self.kind in ("intensity_scan", "od_scan") else None),
            ("od_ref", self.od_ref),
            ("kappa_y_at_ref", self.kappa_y_at_ref),
            ("kappa_at_ref", self.kappa_at_ref),
            ("data", self.data),
            ("noise_fraction", self.noise_fraction if self.data is None else None),
            ("fit_axis", self.fit_axis if self.kind == "dynamics" else None),
        ):
            if value is not None:
                items.append((f"scenario.{key}", format_value(value)))
        return tuple(items)


def format_value(value) -> str:
    """Text of a header, preset or CSV value; non-finite floats read 'divergent'."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "divergent"
        return f"{value:.12g}"
    return str(value)


def _parse_scalar(kind: str, text: str):
    if kind in ("float", "int"):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("expected a finite number")
        if kind == "float":
            return value
        if value != int(value):
            raise ValueError("expected an integer")
        return int(value)
    if kind == "bool":
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ValueError("expected true or false")
    return text


def _suggest(key: str, valid) -> str:
    suffixed = sorted(k for k in valid if k.startswith(key + "_"))
    if suffixed:
        return f"key '{key}' is missing its unit suffix; use '{suffixed[0]}'"
    close = difflib.get_close_matches(key, valid, n=1)
    if close:
        return f"unknown key '{key}'; did you mean '{close[0]}'?"
    return f"unknown key '{key}'"


def _tokenize(text: str, errors: list) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append((line_no, f"unknown section '[{name}]'"))
                current = None
                continue
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append((line_no, f"expected 'key = value', got '{line}'"))
            continue
        if current is None:
            errors.append((line_no, "key outside any [section]"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        section_name = next(n for n, s in sections.items() if s is current)
        valid = _SECTIONS[section_name]
        if key not in valid:
            errors.append((line_no, _suggest(key, valid)))
            continue
        if key in current:
            errors.append((line_no, f"duplicate key '{key}'"))
            continue
        current[key] = (value, line_no)
    return sections


def _typed_section(name, raw, errors) -> dict:
    out = {}
    for key, (text, line_no) in raw.items():
        try:
            out[key] = _parse_scalar(_SECTIONS[name][key], text)
        except ValueError as exc:
            errors.append((line_no, f"{name}.{key}: {exc} (got '{text}')"))
    return out


def _merge_preset(name, presets, raw, typed, errors):
    merged = {}
    if "preset" in typed:
        preset_name = typed["preset"]
        if preset_name not in presets:
            line = raw["preset"][1]
            known = ", ".join(sorted(presets))
            errors.append((line, f"unknown {name} preset '{preset_name}' (known: {known})"))
        else:
            merged.update(presets[preset_name])
    merged.update({k: v for k, v in typed.items() if k != "preset"})
    return merged


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config; raises ConfigError with all problems."""
    errors: list[tuple[int, str]] = []
    sections = _tokenize(text, errors)

    for required in ("species", "trap", "laser", "scenario"):
        if required not in sections:
            errors.append((0, f"missing required section [{required}]"))
    if errors and any(name not in sections for name in ("species", "trap", "laser", "scenario")):
        raise ConfigError(errors)

    typed = {name: _typed_section(name, raw, errors) for name, raw in sections.items()}
    if errors:
        raise ConfigError(errors)

    species_items = _merge_preset("species", SPECIES_PRESETS, sections["species"], typed["species"], errors)
    trap_items = _merge_preset("trap", TRAP_PRESETS, sections["trap"], typed["trap"], errors)
    if errors:
        raise ConfigError(errors)

    section_line = {name: min(v[1] for v in raw.values()) if raw else 0 for name, raw in sections.items()}

    missing_species = sorted(set(_SPECIES_KEYS) - {"preset"} - set(species_items))
    if missing_species:
        errors.append((section_line.get("species", 0),
                       f"species is incomplete without a preset; missing: {', '.join(missing_species)}"))
    missing_trap = sorted(set(_TRAP_KEYS) - {"preset"} - set(trap_items))
    if missing_trap:
        errors.append((section_line.get("trap", 0),
                       f"trap is incomplete without a preset; missing: {', '.join(missing_trap)}"))
    if errors:
        raise ConfigError(errors)

    try:
        species = species_from_lab_units(**species_items)
    except ValueError as exc:
        errors.append((section_line.get("species", 0), f"species: {exc}"))
    try:
        trap = trap_from_lab_units(**trap_items)
    except ValueError as exc:
        errors.append((section_line.get("trap", 0), f"trap: {exc}"))
    if errors:
        raise ConfigError(errors)

    laser_items = typed["laser"]
    laser_line = section_line.get("laser", 0)
    if "intensity_Isat" not in laser_items:
        errors.append((laser_line, "laser.intensity_Isat is required"))
    has_laser_det = "detuning_Gamma" in laser_items
    has_pol_det = "detuning_pol_Gamma" in laser_items
    if has_laser_det == has_pol_det:
        errors.append((laser_line,
                       "exactly one of laser.detuning_Gamma (laser frame) or "
                       "laser.detuning_pol_Gamma (effective, at trap bottom) is required"))
    if errors:
        raise ConfigError(errors)

    stretched_shift = zeeman_shift(species, species.m_j, +1, trap.offset_field)
    if has_pol_det:
        delta_pol = laser_items["detuning_pol_Gamma"]
        laser_detuning = delta_pol + stretched_shift
    else:
        laser_detuning = laser_items["detuning_Gamma"]
        delta_pol = effective_detuning(
            laser_detuning, trap.offset_field, species, species.m_j, +1
        )
    try:
        laser = LaserConfig(
            intensity=laser_items["intensity_Isat"],
            detuning=laser_detuning,
            attenuation_factor=laser_items.get("attenuation_factor", 1.0),
            polarization_purity=laser_items.get("polarization_purity", 0.0),
        )
    except ValueError as exc:
        errors.append((laser_line, f"laser: {exc}"))
        raise ConfigError(errors)

    cloud_items = typed.get("cloud", {})
    for key, value in cloud_items.items():
        # a cloud without density is allowed: it has no reabsorption
        if value < 0 or (value == 0 and key != "peak_density_per_cm3"):
            bound = ">= 0" if key == "peak_density_per_cm3" else "> 0"
            errors.append((sections["cloud"][key][1], f"cloud.{key} must be {bound}"))
    atom_number = cloud_items.get("atom_number")
    temperatures = None
    if "temperature_uK" in cloud_items:
        t_iso = cloud_items["temperature_uK"] * 1e-6
        temperatures = (t_iso, t_iso, t_iso)
    if any(k in cloud_items for k in ("temperature_x_uK", "temperature_y_uK", "temperature_z_uK")):
        base = temperatures or (None, None, None)
        t_y = cloud_items.get("temperature_y_uK")
        t_y = t_y * 1e-6 if t_y is not None else base[1]
        t_x = cloud_items.get("temperature_x_uK")
        t_x = t_x * 1e-6 if t_x is not None else t_y
        t_z = cloud_items.get("temperature_z_uK")
        t_z = t_z * 1e-6 if t_z is not None else base[2]
        if t_y is None or t_z is None:
            errors.append((section_line.get("cloud", 0),
                           "per-axis temperatures need both temperature_y_uK and temperature_z_uK "
                           "(or an isotropic temperature_uK)"))
        else:
            temperatures = (t_x, t_y, t_z)
    sigma_y = cloud_items.get("sigma_y_um")
    sigma_z = cloud_items.get("sigma_z_um")
    n0 = cloud_items.get("peak_density_per_cm3")

    scen = typed["scenario"]
    scen_line = section_line.get("scenario", 0)
    kind = scen.get("kind")
    if kind is None:
        errors.append((scen_line, "scenario.kind is required"))
        raise ConfigError(errors)
    if kind not in SCENARIO_KINDS:
        errors.append((sections["scenario"]["kind"][1],
                       f"unknown scenario kind '{kind}' (known: {', '.join(SCENARIO_KINDS)})"))
        raise ConfigError(errors)

    grid = None
    if any(k in scen for k in ("grid_min", "grid_max", "grid_count", "grid_scale")):
        missing = [k for k in ("grid_min", "grid_max", "grid_count") if k not in scen]
        if missing:
            errors.append((scen_line, f"scan grid incomplete; missing: {', '.join(missing)}"))
        else:
            scale = scen.get("grid_scale", "linear")
            if scale not in ("linear", "log"):
                errors.append((sections["scenario"]["grid_scale"][1],
                               f"grid_scale must be 'linear' or 'log', got '{scale}'"))
            elif scen["grid_count"] < 2:
                errors.append((sections["scenario"]["grid_count"][1],
                               "grid_count must be >= 2 for a scan"))
            elif scen["grid_count"] > MAX_GRID_POINTS:
                errors.append((sections["scenario"]["grid_count"][1],
                               f"grid_count must be <= {MAX_GRID_POINTS}"))
            elif not scen["grid_min"] < scen["grid_max"]:
                errors.append((scen_line, "grid_min must be < grid_max"))
            elif scale == "log" and scen["grid_min"] <= 0:
                errors.append((scen_line, "log grids need grid_min > 0"))
            elif kind == "aspect_scan" and scen["grid_min"] <= 0:
                errors.append((sections["scenario"]["grid_min"][1],
                               "aspect_scan needs grid_min > 0 (an aspect ratio)"))
            else:
                grid = GridSpec(scen["grid_min"], scen["grid_max"], scen["grid_count"], scale)

    aspect_mode = scen.get("aspect_mode", "fixed_n0")
    if aspect_mode not in ("fixed_n0", "fixed_N"):
        errors.append((sections["scenario"]["aspect_mode"][1],
                       f"aspect_mode must be 'fixed_n0' or 'fixed_N', got '{aspect_mode}'"))
    fit_axis = scen.get("fit_axis", "y")
    if fit_axis not in ("z", "y"):
        errors.append((sections["scenario"]["fit_axis"][1],
                       f"fit_axis must be 'z' or 'y', got '{fit_axis}'"))

    window = None
    if "window_min_ms" in scen or "window_max_ms" in scen:
        window = (scen.get("window_min_ms", 0.0) * 1e-3,
                  scen.get("window_max_ms", math.inf) * 1e-3)

    # per-kind requirements
    def need(condition, message):
        if not condition:
            errors.append((scen_line, message))

    if kind == "dynamics":
        need("duration_ms" in scen, "dynamics needs scenario.duration_ms")
        need(atom_number is not None and temperatures is not None,
             "dynamics needs [cloud] atom_number and temperatures")
    elif kind == "aspect_scan":
        need(grid is not None, "aspect_scan needs a scan grid")
        need(atom_number is not None and n0 is not None,
             "aspect_scan needs [cloud] atom_number and peak_density_per_cm3")
        need(n0 != 0, "aspect_scan needs peak_density_per_cm3 > 0")
    elif kind == "intensity_scan":
        need(grid is not None, "intensity_scan needs a scan grid")
        need("kappa_y" in scen and "kappa" in scen,
             "intensity_scan needs scenario.kappa_y and scenario.kappa")
    elif kind == "od_scan":
        need(grid is not None, "od_scan needs a scan grid")
        need(all(k in scen for k in ("kappa_y_at_ref", "kappa_at_ref", "od_ref")),
             "od_scan needs scenario.kappa_y_at_ref, kappa_at_ref and od_ref")
    elif kind == "steady_state":
        shape_given = sigma_y is not None and sigma_z is not None and n0 is not None
        temps_given = atom_number is not None and temperatures is not None
        need(shape_given or temps_given,
             "steady_state needs [cloud] either sigma_y_um+sigma_z_um+peak_density_per_cm3 "
             "or atom_number+temperatures")
    if "duration_ms" in scen:
        # the capped cooling rates give the shortest step this trap can ask for
        longest = MAX_STEPS * step_size(max(rate_caps(trap, species)))
        if scen["duration_ms"] < 0:
            errors.append((sections["scenario"]["duration_ms"][1], "duration_ms must be >= 0"))
        elif scen["duration_ms"] * 1e-3 > longest:
            errors.append((sections["scenario"]["duration_ms"][1],
                           f"duration_ms must be <= {longest * 1e3:.6g} in this trap "
                           f"(at most {MAX_STEPS} integrator steps)"))
    if scen.get("sample_stride", 1) < 1:
        errors.append((scen_line, "sample_stride must be >= 1"))
    if scen.get("od_ref", 1.0) <= 0:
        errors.append((sections["scenario"]["od_ref"][1], "od_ref must be > 0"))
    if scen.get("noise_fraction", 0.0) < 0:
        errors.append((sections["scenario"]["noise_fraction"][1],
                       "noise_fraction must be >= 0"))
    if errors:
        raise ConfigError(errors)

    raw_items = []
    for section_name, items in (
        ("species", species_items),
        ("trap", trap_items),
        ("laser", {
            "intensity_Isat": laser.intensity,
            "detuning_Gamma": laser.detuning,
            "attenuation_factor": laser.attenuation_factor,
            "polarization_purity": laser.polarization_purity,
        }),
        ("cloud", cloud_items),
    ):
        for key in _SECTIONS[section_name]:
            if key in items:
                raw_items.append((f"{section_name}.{key}", format_value(items[key])))

    return ScenarioConfig(
        species=species,
        trap=trap,
        laser=laser,
        delta_pol=delta_pol,
        kind=kind,
        output=scen.get("output"),
        atom_number=atom_number,
        temperatures=temperatures,
        cloud_sigma_y=None if sigma_y is None else sigma_y * 1e-6,
        cloud_sigma_z=None if sigma_z is None else sigma_z * 1e-6,
        cloud_peak_density=None if n0 is None else n0 * 1e6,
        duration=None if "duration_ms" not in scen else scen["duration_ms"] * 1e-3,
        sample_stride=scen.get("sample_stride", 1),
        self_consistent=scen.get("self_consistent", True),
        consistency_mode=scen.get("consistency_mode", True),
        grid=grid,
        aspect_mode=aspect_mode,
        kappa_y=scen.get("kappa_y"),
        kappa_z=scen.get("kappa_z", 0.0),
        kappa=scen.get("kappa"),
        heating_power=scen.get("heating_power_J_per_s", 0.0),
        od_ref=scen.get("od_ref"),
        kappa_y_at_ref=scen.get("kappa_y_at_ref"),
        kappa_at_ref=scen.get("kappa_at_ref"),
        data=scen.get("data"),
        noise_fraction=scen.get("noise_fraction", 0.0),
        fit_axis=fit_axis,
        window=window,
        raw_items=tuple(raw_items),
    )


def preset_dump() -> str:
    """Render the built-in presets in config format."""
    lines = []
    for preset_name, items in sorted(SPECIES_PRESETS.items()):
        lines.append(f"# species preset '{preset_name}'")
        lines.append("[species]")
        for key, value in items.items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    for preset_name, items in sorted(TRAP_PRESETS.items()):
        lines.append(f"# trap preset '{preset_name}'")
        lines.append("[trap]")
        for key, value in items.items():
            lines.append(f"{key} = {format_value(value)}")
        lines.append("")
    return "\n".join(lines)
