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
suggested.  Unknown keys are rejected with the nearest valid key, and a
value outside its key's declared range or words at the key's own line.
All errors carry the offending line number and are reported together.
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
ASPECT_RANGE = (1e-6, 1e6)  # sigma_z/sigma_y of an aspect_scan grid

# key -> (type, rule) under each section.  The type is "float", "int",
# "bool" or "str"; the rule is None, an inclusive (low, high) range, "> 0"
# or a tuple of the allowed words.  The ranges of the model's inputs lie
# at least three decades beyond the values of the presets, the tests and
# the benchmark, and keep the model's arithmetic finite.
_INT_QN = ("int", (0, 1000))  # an angular-momentum quantum number
_SPECIES_KEYS = {
    "preset": ("str", None),
    "name": ("str", None),
    "mass_u": ("float", (1e-3, 1e6)),
    "wavelength_nm": ("float", (0.1, 1e6)),
    "linewidth_MHz": ("float", (1e-6, 1e6)),
    "saturation_intensity_W_per_m2": ("float", (1e-6, 1e9)),
    # a J = 0 ground state has no Lande g-factor and no moment to trap
    "j_ground": ("int", (1, 1000)),
    "j_excited": ("int", (2, 1001)),
    "l_ground": _INT_QN,
    "s_ground": _INT_QN,
    "l_excited": _INT_QN,
    "s_excited": _INT_QN,
    "m_j": ("int", (-1000, 1000)),
}
_CURVATURE = ("float", (1e-3, 1e8))
_TRAP_KEYS = {
    "preset": ("str", None),
    "curvature_x_G_per_cm2": _CURVATURE,
    "curvature_y_G_per_cm2": _CURVATURE,
    "curvature_z_G_per_cm2": _CURVATURE,
    "offset_field_G": ("float", (1e-3, 1e6)),
    "magnetic_moment_muB": ("float", (1e-3, 1e4)),
}
_DETUNING = ("float", (-1e6, 1e6))
_LASER_KEYS = {
    "intensity_Isat": ("float", (0.0, 1e4)),
    "detuning_Gamma": _DETUNING,
    "detuning_pol_Gamma": _DETUNING,
    "attenuation_factor": ("float", (1.0, 1e6)),
    "polarization_purity": ("float", (0.0, 1.0)),
}
_TEMPERATURE = ("float", (1e-3, 1e7))
_SIGMA = ("float", (1e-2, 1e7))
_CLOUD_KEYS = {
    "atom_number": ("float", (1.0, 1e14)),
    "temperature_uK": _TEMPERATURE,
    "temperature_y_uK": _TEMPERATURE,  # x follows y, as in the model
    "temperature_z_uK": _TEMPERATURE,
    "sigma_y_um": _SIGMA,
    "sigma_z_um": _SIGMA,
    # a cloud without density is allowed: it has no reabsorption
    "peak_density_per_cm3": ("float", (0.0, 1e16)),
}
_NUMBER = ("float", None)
_SCENARIO_KEYS = {
    "kind": ("str", SCENARIO_KINDS),
    "output": ("str", None),
    "duration_ms": ("float", (0.0, math.inf)),
    "sample_stride": ("int", (1, math.inf)),
    "self_consistent": ("bool", None),
    "consistency_mode": ("bool", None),
    "grid_min": _NUMBER,
    "grid_max": _NUMBER,
    "grid_count": ("int", (2, MAX_GRID_POINTS)),
    "grid_scale": ("str", ("linear", "log")),
    "aspect_mode": ("str", ("fixed_n0", "fixed_N")),
    "kappa_y": _NUMBER,
    "kappa_z": _NUMBER,
    "kappa": _NUMBER,
    "heating_power_J_per_s": _NUMBER,
    "od_ref": ("float", "> 0"),
    "kappa_y_at_ref": _NUMBER,
    "kappa_at_ref": _NUMBER,
    "data": ("str", None),
    "noise_fraction": ("float", (0.0, math.inf)),
    "fit_axis": ("str", ("z", "y")),
    "window_min_ms": _NUMBER,
    "window_max_ms": _NUMBER,
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
    temperatures: tuple[float, float, float] | None = None  # (T_y, T_y, T_z) [K]
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


def _check_rule(rule, value) -> None:
    """Raise ValueError('must be ...') when value breaks its key's rule."""
    if rule is None:
        return
    if rule == "> 0":
        if not value > 0:
            raise ValueError("must be > 0")
    elif isinstance(rule[0], str):
        if value not in rule:
            raise ValueError(f"must be one of {', '.join(rule)}")
    elif not rule[0] <= value <= rule[1]:
        low, high = rule
        raise ValueError(f"must be >= {low:g}" if high == math.inf
                         else f"must be in [{low:g}, {high:g}]")


def _typed_section(name, raw, errors) -> dict:
    """Values of one section by key type, each checked against its key's rule."""
    out = {}
    for key, (text, line_no) in raw.items():
        kind, rule = _SECTIONS[name][key]
        try:
            out[key] = _parse_scalar(kind, text)
            _check_rule(rule, out[key])
        except ValueError as exc:
            errors.append((line_no, f"{name}.{key}: {exc} (got '{text}')"))
    return out


def _merge_preset(name, presets, raw, typed, errors):
    """The preset's items under the section's own; None for an unknown preset."""
    merged = {}
    if "preset" in typed:
        preset_name = typed["preset"]
        if preset_name not in presets:
            known = ", ".join(sorted(presets))
            errors.append((raw["preset"][1],
                           f"unknown {name} preset '{preset_name}' (known: {known})"))
            return None
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

    def line(section, key=None) -> int:
        """The key's line, or the section's first when the key is absent."""
        raw = sections.get(section, {})
        if key in raw:
            return raw[key][1]
        return min((v[1] for v in raw.values()), default=0)

    built = {}
    for name, presets, build in (("species", SPECIES_PRESETS, species_from_lab_units),
                                 ("trap", TRAP_PRESETS, trap_from_lab_units)):
        items = _merge_preset(name, presets, sections[name], typed[name], errors)
        if items is None:
            continue
        missing = sorted(set(_SECTIONS[name]) - {"preset"} - set(items))
        if missing:
            errors.append((line(name), f"{name} is incomplete without a preset; "
                                       f"missing: {', '.join(missing)}"))
            continue
        try:
            built[name] = items, build(**items)
        except ValueError as exc:
            errors.append((line(name), f"{name}: {exc}"))
    if errors:
        raise ConfigError(errors)
    (species_items, species), (trap_items, trap) = built["species"], built["trap"]

    laser_items = typed["laser"]
    detunings = [k for k in ("detuning_Gamma", "detuning_pol_Gamma") if k in laser_items]
    if "intensity_Isat" not in laser_items:
        errors.append((line("laser"), "laser.intensity_Isat is required"))
    if len(detunings) != 1:
        errors.append((line("laser", detunings[-1] if detunings else None),
                       "exactly one of laser.detuning_Gamma (laser frame) or "
                       "laser.detuning_pol_Gamma (effective, at trap bottom) is required"))
    if errors:
        raise ConfigError(errors)

    if detunings == ["detuning_pol_Gamma"]:
        delta_pol = laser_items["detuning_pol_Gamma"]
        laser_detuning = delta_pol + zeeman_shift(species, species.m_j, +1, trap.offset_field)
    else:
        laser_detuning = laser_items["detuning_Gamma"]
        delta_pol = effective_detuning(laser_detuning, trap.offset_field, species, species.m_j, +1)
    laser = LaserConfig(
        intensity=laser_items["intensity_Isat"],
        detuning=laser_detuning,
        attenuation_factor=laser_items.get("attenuation_factor", 1.0),
        polarization_purity=laser_items.get("polarization_purity", 0.0),
    )

    cloud_items = typed.get("cloud", {})
    atom_number = cloud_items.get("atom_number")
    t_y = cloud_items.get("temperature_y_uK", cloud_items.get("temperature_uK"))
    t_z = cloud_items.get("temperature_z_uK", cloud_items.get("temperature_uK"))
    temperatures = None
    if t_y is not None and t_z is not None:
        temperatures = (t_y * 1e-6, t_y * 1e-6, t_z * 1e-6)
    elif t_y is not None or t_z is not None:
        given = "temperature_y_uK" if t_y is not None else "temperature_z_uK"
        errors.append((line("cloud", given),
                       "per-axis temperatures need both temperature_y_uK and temperature_z_uK "
                       "(or an isotropic temperature_uK)"))
    sigma_y = cloud_items.get("sigma_y_um")
    sigma_z = cloud_items.get("sigma_z_um")
    n0 = cloud_items.get("peak_density_per_cm3")

    scen = typed["scenario"]
    kind = scen.get("kind")
    if kind is None:
        errors.append((line("scenario"), "scenario.kind is required"))
        raise ConfigError(errors)

    grid = None
    grid_keys = [k for k in ("grid_min", "grid_max", "grid_count", "grid_scale") if k in scen]
    missing = [k for k in ("grid_min", "grid_max", "grid_count") if k not in scen]
    if grid_keys and missing:
        errors.append((line("scenario", grid_keys[0]),
                       f"scan grid incomplete; missing: {', '.join(missing)}"))
    elif grid_keys:
        g_min, g_max, scale = scen["grid_min"], scen["grid_max"], scen.get("grid_scale", "linear")
        low, high = ASPECT_RANGE
        if not g_min < g_max:
            errors.append((line("scenario", "grid_min"), "grid_min must be < grid_max"))
        elif scale == "log" and g_min <= 0:
            errors.append((line("scenario", "grid_min"), "log grids need grid_min > 0"))
        elif kind == "aspect_scan" and not (low <= g_min and g_max <= high):
            errors.append((line("scenario", "grid_min" if g_min < low else "grid_max"),
                           f"aspect_scan needs grid_min and grid_max in [{low:g}, {high:g}] "
                           "(aspect ratios)"))
        else:
            grid = GridSpec(g_min, g_max, scen["grid_count"], scale)

    window = None
    if "window_min_ms" in scen or "window_max_ms" in scen:
        window = (scen.get("window_min_ms", 0.0) * 1e-3,
                  scen.get("window_max_ms", math.inf) * 1e-3)

    # per-kind requirements, at the kind's line unless they name a given key
    def need(condition, message, at=line("scenario", "kind")):
        if not condition:
            errors.append((at, message))

    if kind == "dynamics":
        need("duration_ms" in scen, "dynamics needs scenario.duration_ms")
        need(atom_number is not None and temperatures is not None,
             "dynamics needs [cloud] atom_number and temperatures")
    elif kind == "aspect_scan":
        need(grid is not None, "aspect_scan needs a scan grid")
        need(atom_number is not None and n0 is not None,
             "aspect_scan needs [cloud] atom_number and peak_density_per_cm3")
        need(n0 != 0, "aspect_scan needs peak_density_per_cm3 > 0",
             line("cloud", "peak_density_per_cm3"))
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
        need(scen["duration_ms"] * 1e-3 <= longest,
             f"duration_ms must be <= {longest * 1e3:.6g} in this trap "
             f"(at most {MAX_STEPS} integrator steps)", line("scenario", "duration_ms"))
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
        aspect_mode=scen.get("aspect_mode", "fixed_n0"),
        kappa_y=scen.get("kappa_y"),
        kappa_z=scen.get("kappa_z", 0.0),
        kappa=scen.get("kappa"),
        heating_power=scen.get("heating_power_J_per_s", 0.0),
        od_ref=scen.get("od_ref"),
        kappa_y_at_ref=scen.get("kappa_y_at_ref"),
        kappa_at_ref=scen.get("kappa_at_ref"),
        data=scen.get("data"),
        noise_fraction=scen.get("noise_fraction", 0.0),
        fit_axis=scen.get("fit_axis", "y"),
        window=window,
        raw_items=tuple(raw_items),
    )


def preset_dump() -> str:
    """Render the built-in presets in config format."""
    lines = []
    for section, presets in (("species", SPECIES_PRESETS), ("trap", TRAP_PRESETS)):
        for preset_name, items in sorted(presets.items()):
            lines += [f"# {section} preset '{preset_name}'", f"[{section}]"]
            lines += [f"{key} = {format_value(value)}" for key, value in items.items()]
            lines.append("")
    return "\n".join(lines)
