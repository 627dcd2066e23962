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

A parsed scan grid lists its points on request (GridSpec.values): a
linear grid in plain Python, a log grid through numpy, which is imported
only then.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .atoms import LaserConfig, effective_detuning, species_from_lab_units, zeeman_shift
from .dynamics import MAX_STEPS, rate_caps, step_size
from .presets import SPECIES_PRESETS, TRAP_PRESETS
from .reabsorption import CloudShape, _aspect_shape
from .trap import cloud_from_temperatures, trap_from_lab_units

MAX_GRID_POINTS = 100_000  # work and memory budget of one scan


class ScenarioKind(namedtuple("ScenarioKind", (
    "verbs",  # the CLI verbs that run it
    "needs",  # the [scenario] keys it needs
    "cloud",  # [cloud] value sets; the first complete one is the run's cloud
    "shows",  # settings its header shows at their defaults
    "scan",   # (low, high, name) of its grid values, or None
), defaults=((), (), (), None))):
    """What one scenario kind is: where it runs and what its config needs.

    In a [cloud] value set, "temperatures" stands for temperature_uK or
    for temperature_y_uK with temperature_z_uK.
    """

    __slots__ = ()


KINDS = {
    "dynamics": ScenarioKind(("simulate", "fit"), ("duration_ms",),
                             cloud=(("atom_number", "temperatures"),),
                             shows=("sample_stride", "self_consistent", "fit_axis")),
    "aspect_scan": ScenarioKind(("scan",), cloud=(("atom_number", "peak_density_per_cm3"),),
                                shows=("aspect_mode",), scan=(1e-6, 1e6, "aspect ratios")),
    "intensity_scan": ScenarioKind(("scan", "fit"), ("kappa_y", "kappa"),
                                   shows=("heating_power_J_per_s", "noise_fraction"),
                                   scan=(0.0, math.inf, "intensities")),
    "od_scan": ScenarioKind(("scan", "fit"), ("kappa_y_at_ref", "kappa_at_ref", "od_ref"),
                            shows=("heating_power_J_per_s", "noise_fraction"),
                            scan=(0.0, math.inf, "optical densities")),
    "steady_state": ScenarioKind(("simulate",), cloud=(
        ("sigma_y_um", "sigma_z_um", "peak_density_per_cm3"), ("atom_number", "temperatures"))),
}

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
_COEFFICIENT = ("float", (0.0, math.inf))
# the header echoes scenario settings in this order
_SCENARIO_KEYS = {
    "kind": ("str", tuple(KINDS)),
    "output": ("str", None),
    "duration_ms": ("float", (0.0, math.inf)),
    "sample_stride": ("int", (1, math.inf)),
    "self_consistent": ("bool", None),
    "aspect_mode": ("str", ("fixed_n0", "fixed_N")),
    "grid_min": _NUMBER,
    "grid_max": _NUMBER,
    "grid_count": ("int", (2, MAX_GRID_POINTS)),
    "grid_scale": ("str", ("linear", "log")),
    "kappa_y": _COEFFICIENT,
    "kappa_z": _COEFFICIENT,
    "kappa": _COEFFICIENT,
    "heating_power_J_per_s": _COEFFICIENT,
    "od_ref": ("float", "> 0"),
    "kappa_y_at_ref": _COEFFICIENT,
    "kappa_at_ref": _COEFFICIENT,
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


class GridSpec(namedtuple("GridSpec", "minimum maximum count scale", defaults=("linear",))):
    """Scan grid over the scenario variable; scale is "linear" or "log"."""

    __slots__ = ()

    def values(self) -> list[float]:
        """The grid's points, bit for bit those of np.linspace or np.geomspace.

        A log grid calls np.geomspace: numpy's log10 and power differ from
        libm's in the last bit, so plain Python would not match it.
        """
        start, stop, count = float(self.minimum), float(self.maximum), self.count
        if self.scale == "log":
            import numpy as np
            return [float(v) for v in np.geomspace(start, stop, count)]
        delta, div = stop - start, count - 1
        if div <= 0:
            return [0.0 * delta + start for _ in range(count)]
        step = delta / div
        if step == 0:  # numpy's branch for a denormal step
            points = [i / div * delta + start for i in range(count)]
        else:
            points = [i * step + start for i in range(count)]
        points[-1] = stop
        return points


# ScenarioConfig's fields after species, trap, laser, delta_pol and kind,
# each with its default; a scenario key named like one passes straight through to it
_FIELD_DEFAULTS = {
    "output": None,
    # the run's cloud, a CloudState or CloudShape from the first [cloud]
    # value set of its kind the config completes
    "cloud": None,
    "atom_number": None,
    "cloud_peak_density": None,  # [1/m^3]
    "duration": None,            # [s]
    "sample_stride": 1, "self_consistent": True,
    "grid": None,                # GridSpec
    "aspect_mode": "fixed_n0", "kappa_y": None, "kappa": None,
    "heating_power": 0.0,        # [J/s]
    "od_ref": None, "kappa_y_at_ref": None, "kappa_at_ref": None,
    "data": None, "noise_fraction": 0.0, "fit_axis": "y",
    "window": None,              # (start, end) [s]
    # (key, value) pairs echoed as "# key=value" lines into every CSV
    "header": (),
    # the line of each [laser] and [scenario] key the config gives, for
    # errors found at run time; a fresh {} when not given
    "lines": None,
}


class ScenarioConfig(namedtuple("ScenarioConfig", (
        "species", "trap", "laser", "delta_pol", "kind", *_FIELD_DEFAULTS),
        defaults=_FIELD_DEFAULTS.values())):
    """Fully resolved scenario: built objects plus lab-unit provenance."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if len(args) < len(cls._fields):
            kwargs.setdefault("lines", {})
        return super().__new__(cls, *args, **kwargs)


# the default of each scenario setting a header can show without its key
_DEFAULTS = {**_FIELD_DEFAULTS, "grid_scale": GridSpec._field_defaults["scale"],
             "heating_power_J_per_s": _FIELD_DEFAULTS["heating_power"]}


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
        try:
            value = float(text)
        except ValueError:
            raise ValueError("expected a number") from None
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
    import difflib  # loaded only for an unknown key
    close = difflib.get_close_matches(key, valid, n=1)
    if close:
        return f"unknown key '{key}'; did you mean '{close[0]}'?"
    return f"unknown key '{key}'"


def _tokenize(text: str, errors: list) -> tuple[dict, dict[str, int]]:
    """(key -> (value, line) under each section, the line of each section's header)."""
    sections, headers = {}, {}
    current = None  # the name of the section being read
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
            current = name
            sections.setdefault(name, {})
            headers.setdefault(name, line_no)
            continue
        if "=" not in line:
            errors.append((line_no, f"expected 'key = value', got '{line}'"))
            continue
        if current is None:
            errors.append((line_no, "key outside any [section]"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        valid, given = _SECTIONS[current], sections[current]
        if key not in valid:
            errors.append((line_no, _suggest(key, valid)))
            continue
        if key in given:
            errors.append((line_no, f"duplicate key '{key}'"))
            continue
        given[key] = (value, line_no)
    return sections, headers


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


def _and(words) -> str:
    """'a', 'a and b', 'a, b and c'."""
    return " and ".join(filter(None, (", ".join(words[:-1]), words[-1])))


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
    sections, headers = _tokenize(text, errors)

    for required in ("species", "trap", "laser", "scenario"):
        if required not in sections:
            errors.append((0, f"missing required section [{required}]"))
    if errors and any(name not in sections for name in ("species", "trap", "laser", "scenario")):
        raise ConfigError(errors)

    typed = {name: _typed_section(name, raw, errors) for name, raw in sections.items()}
    if errors:
        raise ConfigError(errors)

    def line(section, *keys) -> int:
        """The line of the first of keys given, else of the section's first key or header."""
        raw = sections.get(section, {})
        for key in keys:
            if key in raw:
                return raw[key][1]
        return min((v[1] for v in raw.values()), default=headers.get(section, 0))

    merged = {}
    for name, presets in (("species", SPECIES_PRESETS), ("trap", TRAP_PRESETS)):
        items = merged[name] = _merge_preset(name, presets, sections[name], typed[name], errors)
        missing = items is not None and sorted(set(_SECTIONS[name]) - {"preset"} - set(items))
        if missing:
            errors.append((line(name), f"{name} is incomplete without a preset; "
                                       f"missing: {', '.join(missing)}"))
    if errors:
        raise ConfigError(errors)
    species_items, trap_items = merged["species"], merged["trap"]

    # the rules across keys, each at the line of a key the config gives
    if species_items["j_excited"] != species_items["j_ground"] + 1:
        errors.append((line("species", "j_excited", "j_ground"),
                       "species: only J_excited = J_ground + 1 is supported"))
    if abs(species_items["m_j"]) > species_items["j_ground"]:
        errors.append((line("species", "m_j", "j_ground"),
                       "species: |m_j| must not exceed j_ground"))
    laser_items = typed["laser"]
    detunings = [k for k in ("detuning_Gamma", "detuning_pol_Gamma") if k in laser_items]
    if "intensity_Isat" not in laser_items:
        errors.append((line("laser"), "laser.intensity_Isat is required"))
    if len(detunings) != 1:
        errors.append((line("laser", *detunings[-1:]),
                       "exactly one of laser.detuning_Gamma (laser frame) or "
                       "laser.detuning_pol_Gamma (effective, at trap bottom) is required"))
    if errors:
        raise ConfigError(errors)
    species, trap = species_from_lab_units(**species_items), trap_from_lab_units(**trap_items)

    if detunings == ["detuning_pol_Gamma"]:
        delta_pol = laser_items["detuning_pol_Gamma"]
        laser_detuning = delta_pol + zeeman_shift(species, species.m_j, +1, trap.offset_field)
    else:
        laser_detuning = laser_items["detuning_Gamma"]
        delta_pol = effective_detuning(laser_detuning, trap.offset_field, species, species.m_j, +1)
    if delta_pol >= 0:
        errors.append((line("laser", *detunings),
                       f"laser.{detunings[0]}: delta_pol = {format_value(delta_pol)} Gamma at the "
                       "trap bottom must be negative; blue detuning heats instead of cooling"))
    laser = LaserConfig(
        intensity=laser_items["intensity_Isat"],
        detuning=laser_detuning,
        attenuation_factor=laser_items.get("attenuation_factor", 1.0),
    )

    cloud_items = typed.get("cloud", {})
    atom_number = cloud_items.get("atom_number")
    t_y = cloud_items.get("temperature_y_uK", cloud_items.get("temperature_uK"))
    t_z = cloud_items.get("temperature_z_uK", cloud_items.get("temperature_uK"))
    if (t_y is None) != (t_z is None):
        given = "temperature_y_uK" if t_y is not None else "temperature_z_uK"
        errors.append((line("cloud", given),
                       "per-axis temperatures need both temperature_y_uK and temperature_z_uK "
                       "(or an isotropic temperature_uK)"))
    n0 = cloud_items.get("peak_density_per_cm3")

    scen = typed["scenario"]
    kind = scen.get("kind")
    if kind is None:
        errors.append((line("scenario"), "scenario.kind is required"))
        raise ConfigError(errors)
    row, at_kind = KINDS[kind], line("scenario", "kind")

    grid = None
    grid_keys = [k for k in ("grid_min", "grid_max", "grid_count", "grid_scale") if k in scen]
    missing = [k for k in ("grid_min", "grid_max", "grid_count") if k not in scen]
    if grid_keys and missing:
        errors.append((line("scenario", grid_keys[0]),
                       f"scan grid incomplete; missing: {', '.join(missing)}"))
    elif grid_keys:
        g_min, g_max = scen["grid_min"], scen["grid_max"]
        scale = scen.get("grid_scale", _DEFAULTS["grid_scale"])
        low, high, values = row.scan or (-math.inf, math.inf, None)
        if not g_min < g_max:
            errors.append((line("scenario", "grid_min"), "grid_min must be < grid_max"))
        elif scale == "log" and g_min <= 0:
            errors.append((line("scenario", "grid_min"), "log grids need grid_min > 0"))
        elif not (low <= g_min and g_max <= high):
            errors.append((line("scenario", "grid_min" if g_min < low else "grid_max"),
                           f"{kind} needs grid_min and grid_max in [{low:g}, {high:g}] ({values})"))
        else:
            grid = GridSpec(g_min, g_max, scen["grid_count"], scale)

    window = None
    if "window_min_ms" in scen or "window_max_ms" in scen:
        w_min, w_max = scen.get("window_min_ms", 0.0), scen.get("window_max_ms", math.inf)
        if not w_min < min(w_max, scen.get("duration_ms", math.inf)):
            errors.append((line("scenario", "window_min_ms", "window_max_ms"),
                           "window_min_ms must be < window_max_ms and < duration_ms"))
        window = (w_min * 1e-3, w_max * 1e-3)

    # what the kind needs, at its line; a message is built only for a failed need
    if row.scan and grid is None:
        errors.append((at_kind, f"{kind} needs a scan grid"))
    if not scen.keys() >= set(row.needs):
        errors.append((at_kind, f"{kind} needs " + _and([f"scenario.{k}" for k in row.needs])))
    have = cloud_items.keys() | ({"temperatures"} if None not in (t_y, t_z) else set())
    values_used = next(filter(have.issuperset, row.cloud), ())
    if row.cloud and not values_used:
        errors.append((at_kind, f"{kind} needs [cloud] {'either ' if len(row.cloud) > 1 else ''}"
                                + " or ".join(_and(values) for values in row.cloud)))
    if kind == "aspect_scan" and n0 is not None:
        # the grid's largest sigma_y (at its smallest alpha, at fixed n0)
        alpha = grid.minimum if grid else 1.0
        mode = scen.get("aspect_mode", _DEFAULTS["aspect_mode"])
        fits = n0 > 0
        if fits and atom_number is not None:
            try:
                _aspect_shape(atom_number, n0 * 1e6, mode, alpha)
            except ValueError:  # CloudShape refuses an infinite sigma_y
                fits = False
        if not fits:
            errors.append((line("cloud", "peak_density_per_cm3"),
                           "aspect_scan needs peak_density_per_cm3 > 0, and large enough "
                           "that the cloud's radius sigma_y is finite on the grid"))
    if "duration_ms" in scen:
        # the capped cooling rates give the shortest step this trap can ask for
        longest = MAX_STEPS * step_size(max(rate_caps(trap, species)))
        if scen["duration_ms"] * 1e-3 > longest:
            errors.append((line("scenario", "duration_ms"),
                           f"duration_ms must be <= {longest * 1e3:.6g} in this trap "
                           f"(at most {MAX_STEPS} integrator steps)"))
    if errors:
        raise ConfigError(errors)

    cloud = None  # an aspect scan builds its clouds from atom_number and the peak density
    if "temperatures" in values_used:
        cloud = cloud_from_temperatures(trap, atom_number, t_y * 1e-6, t_y * 1e-6, t_z * 1e-6)
    elif "sigma_y_um" in values_used:
        cloud = CloudShape(sigma_y=cloud_items["sigma_y_um"] * 1e-6,
                           sigma_z=cloud_items["sigma_z_um"] * 1e-6, peak_density=n0 * 1e6)

    # the detuning as given: the other frame's value, rounded, would not reproduce it
    laser_shown = {"intensity_Isat": laser.intensity, detunings[0]: laser_items[detunings[0]],
                   "attenuation_factor": laser.attenuation_factor}
    header = [(f"{name}.{key}", format_value(items[key]))
              for name, items in (("species", species_items), ("trap", trap_items),
                                  ("laser", laser_shown), ("cloud", cloud_items))
              for key in _SECTIONS[name] if key in items]
    header.append(("resolved.delta_pol_Gamma", format_value(delta_pol)))
    # the scenario settings given, but output, and those shown at their defaults
    shown = (scen.keys() | row.shows) - {"output"}
    if "data" in scen and "noise_fraction" not in scen:  # it only draws synthetic data
        shown.discard("noise_fraction")
    if grid is not None:
        shown.add("grid_scale")
    header += [(f"scenario.{key}", format_value(scen[key] if key in scen else _DEFAULTS[key]))
               for key in _SCENARIO_KEYS if key in shown]

    passed = {k: v for k, v in scen.items() if k in _FIELD_DEFAULTS}
    if "heating_power_J_per_s" in scen:
        passed["heating_power"] = scen["heating_power_J_per_s"]
    return ScenarioConfig(
        species=species,
        trap=trap,
        laser=laser,
        delta_pol=delta_pol,
        kind=kind,
        cloud=cloud,
        atom_number=atom_number,
        cloud_peak_density=None if n0 is None else n0 * 1e6,
        duration=None if "duration_ms" not in scen else scen["duration_ms"] * 1e-3,
        grid=grid,
        window=window,
        header=tuple(header),
        lines={key: line_no for name in ("laser", "scenario")
               for key, (_, line_no) in sections[name].items()},
        **passed,
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
