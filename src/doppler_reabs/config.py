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

The key table (_SPECIES_KEYS to _SCENARIO_KEYS) is the one description of
a config key: its type and rule, and for a [cloud] or [scenario] key its
unit factor to SI, ScenarioConfig field and default.  Keys holding
dimensioned quantities carry their unit as a suffix in the key name; a key
without its suffix is rejected, with the suffixed form suggested.  Unknown
keys are rejected with the nearest valid key, and a value outside its key's
declared range or words is rejected at the key's own line.  All errors
carry the offending line number and are reported together.  A [species] or
[trap] section that gives only a preset is resolved once per preset name,
to immutable values every later config naming it shares.

A parsed scan grid lists its points on request (GridSpec.values), in
plain Python: a linear grid bit for bit as np.linspace gives it, a log
grid as np.geomspace builds it, to about 1e-13 relative.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from types import MappingProxyType

from .atoms import LaserConfig, species_from_lab_units, zeeman_shift
from .dynamics import MAX_STEPS, rate_caps, step_size
from .presets import SPECIES_PRESETS, TRAP_PRESETS
from .reabsorption import CloudShape, _aspect_shape
from .trap import cloud_from_temperatures, trap_from_lab_units

MAX_GRID_POINTS = 100_000  # work and memory budget of one scan
_LOG10_MAX = math.log10(sys.float_info.max)  # 10.0 ** v overflows from here on
_O_BINARY = getattr(os, "O_BINARY", 0)  # no newline translation where the OS has it


def _read_text(path) -> str:
    """A file's UTF-8 text, read through its descriptor; the errors are
    open()'s, with the path also on one that comes from reading (a directory)."""
    fd = os.open(path, os.O_RDONLY | _O_BINARY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks).decode("utf-8")


def _write_text(path, text: str) -> None:
    """Write text as UTF-8 to path as open(path, "wb") would, through the descriptor."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY, 0o666)
    try:
        data = memoryview(text.encode("utf-8"))
        while data:  # a write may take part of the data
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


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


class GridSpec(namedtuple("GridSpec", "minimum maximum count scale", defaults=("linear",))):
    """Scan grid over the scenario variable; scale is "linear" or "log"."""

    __slots__ = ()

    def values(self) -> list[float]:
        """The grid's points: a linear grid's bit for bit those of np.linspace.

        A log grid is 10 ** the linear grid of the ends' log10, with exact
        ends, as np.geomspace builds it; libm's log10 and power differ from
        numpy's in the last bits, so its inner points agree to about 1e-13.
        """
        start, stop, count = float(self.minimum), float(self.maximum), self.count
        if self.scale == "log":
            inner = GridSpec(math.log10(start), math.log10(stop), count).values()[1:-1]
            inner = [10.0 ** v if v < _LOG10_MAX else math.inf for v in inner]  # as numpy
            return [start, *inner, stop][:count]
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


# One config key.  The type is "float", "int", "bool" or "str"; the rule is
# None, an inclusive (low, high) range, "> 0" or a tuple of the allowed
# words.  A [cloud] or [scenario] key's value times its factor (None for a
# key in SI units or without units) is in SI units, and goes to the
# ScenarioConfig field the key names, whose default is the key's.  The ranges of the model's inputs
# lie at least three decades beyond the values of the presets, the tests
# and the benchmark, and keep the model's arithmetic finite.
_Key = namedtuple("_Key", "type rule factor field default", defaults=(None, None, None))

_SPECIES_KEYS = {
    "preset": _Key("str", None),
    "name": _Key("str", None),
    "mass_u": _Key("float", (1e-3, 1e6)),
    "wavelength_nm": _Key("float", (0.1, 1e6)),
    "linewidth_MHz": _Key("float", (1e-6, 1e6)),
    "saturation_intensity_W_per_m2": _Key("float", (1e-6, 1e9)),
    # a J = 0 ground state has no Lande g-factor and no moment to trap
    "j_ground": _Key("int", (1, 1000)),
    "j_excited": _Key("int", (2, 1001)),
    # angular-momentum quantum numbers
    **dict.fromkeys(("l_ground", "s_ground", "l_excited", "s_excited"), _Key("int", (0, 1000))),
    "m_j": _Key("int", (-1000, 1000)),
}
_TRAP_KEYS = {
    "preset": _Key("str", None),
    **dict.fromkeys((f"curvature_{axis}_G_per_cm2" for axis in "xyz"), _Key("float", (1e-3, 1e8))),
    "offset_field_G": _Key("float", (1e-3, 1e6)),
    "magnetic_moment_muB": _Key("float", (1e-3, 1e4)),
}
_LASER_KEYS = {
    "intensity_Isat": _Key("float", (0.0, 1e4)),
    **dict.fromkeys(("detuning_Gamma", "detuning_pol_Gamma"), _Key("float", (-1e6, 1e6))),
    "attenuation_factor": _Key("float", (1.0, 1e6),
                               default=LaserConfig._field_defaults["attenuation_factor"]),
}
_CLOUD_KEYS = {
    "atom_number": _Key("float", (1.0, 1e14), None, "atom_number"),
    # the x axis follows y, as in the model
    **dict.fromkeys(("temperature_uK", "temperature_y_uK", "temperature_z_uK"),
                    _Key("float", (1e-3, 1e7), 1e-6)),
    **dict.fromkeys(("sigma_y_um", "sigma_z_um"), _Key("float", (1e-2, 1e7), 1e-6)),
    # a cloud without density is allowed: it has no reabsorption
    "peak_density_per_cm3": _Key("float", (0.0, 1e16), 1e6, "cloud_peak_density"),
}
_COEFFICIENT = _Key("float", (0.0, math.inf))
# the header echoes scenario settings in this order
_SCENARIO_KEYS = {
    "kind": _Key("str", tuple(KINDS)),
    "output": _Key("str", None, None, "output"),
    "duration_ms": _Key("float", (0.0, math.inf), 1e-3, "duration"),
    "sample_stride": _Key("int", (1, math.inf), None, "sample_stride", 1),
    "self_consistent": _Key("bool", None, None, "self_consistent", True),
    "aspect_mode": _Key("str", ("fixed_n0", "fixed_N"), None, "aspect_mode", "fixed_n0"),
    # the grid keys make the field grid
    **dict.fromkeys(("grid_min", "grid_max"), _Key("float", None)),
    "grid_count": _Key("int", (2, MAX_GRID_POINTS)),
    "grid_scale": _Key("str", ("linear", "log"), default=GridSpec._field_defaults["scale"]),
    "kappa_y": _COEFFICIENT._replace(field="kappa_y"),
    "kappa_z": _COEFFICIENT,
    "kappa": _COEFFICIENT._replace(field="kappa"),
    "heating_power_J_per_s": _COEFFICIENT._replace(field="heating_power", default=0.0),
    "od_ref": _Key("float", "> 0", None, "od_ref"),
    "kappa_y_at_ref": _COEFFICIENT._replace(field="kappa_y_at_ref"),
    "kappa_at_ref": _COEFFICIENT._replace(field="kappa_at_ref"),
    "data": _Key("str", None, None, "data"),
    "noise_fraction": _Key("float", (0.0, math.inf), None, "noise_fraction", 0.0),
    "fit_axis": _Key("str", ("z", "y"), None, "fit_axis", "y"),
    # the ends of the field window
    **dict.fromkeys(("window_min_ms", "window_max_ms"), _Key("float", None, 1e-3)),
}
# views of the table: each key's (type, rule) by section, and each
# [scenario] key's default, the value a header shows for a setting not given
_SECTIONS = {name: {key: spec[:2] for key, spec in keys.items()} for name, keys in (
    ("species", _SPECIES_KEYS), ("trap", _TRAP_KEYS), ("laser", _LASER_KEYS),
    ("cloud", _CLOUD_KEYS), ("scenario", _SCENARIO_KEYS))}
_DEFAULTS = {key: spec.default for key, spec in _SCENARIO_KEYS.items()}


class ConfigError(ValueError):
    """One or more configuration problems, each tagged with a line number."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = sorted(errors)
        lines = [f"line {ln}: {msg}" if ln else msg for ln, msg in self.errors]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


# ScenarioConfig's fields after species, trap, laser, delta_pol and kind,
# each with its default: those the key table names, then the run's cloud (a
# CloudState or CloudShape from the first [cloud] value set of its kind the
# config completes), GridSpec and fit window (start, end) [s], the (key,
# value) pairs echoed as "# key=value" lines into every CSV, and the line of
# each [laser] and [scenario] key given, for errors found at run time (an
# empty read-only mapping when not given)
_FIELD_DEFAULTS = {**{spec.field: spec.default for keys in (_CLOUD_KEYS, _SCENARIO_KEYS)
                      for spec in keys.values() if spec.field},
                   "cloud": None, "grid": None, "window": None, "header": (),
                   "lines": MappingProxyType({})}


class ScenarioConfig(namedtuple("ScenarioConfig", (
        "species", "trap", "laser", "delta_pol", "kind", *_FIELD_DEFAULTS),
        defaults=_FIELD_DEFAULTS.values())):
    """Fully resolved scenario: built objects plus lab-unit provenance, in SI
    units (cloud_peak_density [1/m^3], duration [s], heating_power [J/s])."""

    __slots__ = ()


# (built value, header items) of each [species] or [trap] section that gives
# only a preset, by (section, preset name), and (Zeeman shift at the trap
# bottom [Gamma], longest duration [s]) of each pair of them, by both keys;
# filled on first use, and shared as the values are immutable and follow
# from the built-in presets alone
_RESOLVED: dict = {}


def format_value(value) -> str:
    """Text of a header, preset or CSV value; non-finite floats read 'divergent'."""
    if isinstance(value, float):
        return "%.12g" % value if math.isfinite(value) else "divergent"
    if isinstance(value, bool):
        return "true" if value else "false"
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


def _tokenize(text: str, errors: list):
    """Each section's typed values and their lines, each section header's
    line, and the errors of values that break their key's type or rule,
    which count only once every required section is there."""
    values, lines, headers, bad = {}, {}, {}, []
    name = None  # the section being read
    for line_no, line in enumerate(map(str.strip, text.splitlines()), 1):
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append((line_no, f"unknown section '[{name}]'"))
                name = None
            elif name not in values:
                valid, given, at = _SECTIONS[name], {}, {}
                values[name], lines[name], headers[name] = given, at, line_no
            else:
                valid, given, at = _SECTIONS[name], values[name], lines[name]
            continue
        key, equals, value = line.partition("=")
        if not equals:
            errors.append((line_no, f"expected 'key = value', got '{line}'"))
        elif name is None:
            errors.append((line_no, "key outside any [section]"))
        elif (key := key.rstrip()) not in valid:
            errors.append((line_no, _suggest(key, valid)))
        elif key in at:
            errors.append((line_no, f"duplicate key '{key}'"))
        else:
            at[key] = line_no
            kind, rule = valid[key]
            value = value.lstrip()  # the line is stripped already
            try:
                given[key] = _parse_scalar(kind, value)
                _check_rule(rule, given[key])
            except ValueError as exc:
                bad.append((line_no, f"{name}.{key}: {exc} (got '{value}')"))
    return values, lines, headers, bad


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


def _header_items(name, items) -> list:
    """(section.key, text) of the items of one section, in the key table's order."""
    return [(f"{name}.{key}", format_value(items[key])) for key in _SECTIONS[name] if key in items]


def _merge_preset(name, given, line, errors):
    """The section's items over its preset's; None after an error."""
    presets = SPECIES_PRESETS if name == "species" else TRAP_PRESETS
    merged = {}
    if "preset" in given:
        if given["preset"] not in presets:
            errors.append((line(name, "preset"), f"unknown {name} preset '{given['preset']}' "
                                                 f"(known: {', '.join(sorted(presets))})"))
            return None
        merged.update(presets[given["preset"]])
    merged.update(given)
    merged.pop("preset", None)
    missing = sorted(set(_SECTIONS[name]) - {"preset"} - set(merged))
    if missing:
        errors.append((line(name), f"{name} is incomplete without a preset; "
                                   f"missing: {', '.join(missing)}"))
        return None
    return merged


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config; raises ConfigError with all problems."""
    errors: list[tuple[int, str]] = []
    values, lines, headers, bad = _tokenize(text, errors)
    missing = [name for name in ("species", "trap", "laser", "scenario") if name not in values]
    if missing:
        raise ConfigError(errors + [(0, f"missing required section [{name}]")
                                    for name in missing])
    errors += bad
    if errors:
        raise ConfigError(errors)

    def line(section, *keys) -> int:
        """The line of the first of keys given, else of the section's first key or header."""
        at = lines.get(section, {})
        for key in keys:
            if key in at:
                return at[key]
        return min(at.values(), default=headers.get(section, 0))

    # a section that gives only a preset is resolved once: one resolved
    # before is taken as it was, the others are merged here and built below
    by_name, resolved, merged = {}, {}, {}
    for name in ("species", "trap"):
        given = values[name]
        if len(given) == 1 and "preset" in given:
            by_name[name] = key = (name, given["preset"])
            if key in _RESOLVED:
                resolved[name] = _RESOLVED[key]
                continue
        merged[name] = _merge_preset(name, given, line, errors)
    if errors:
        raise ConfigError(errors)

    # the rules across keys, each at the line of a key the config gives
    species_items = merged.get("species")
    if species_items and species_items["j_excited"] != species_items["j_ground"] + 1:
        errors.append((line("species", "j_excited", "j_ground"),
                       "species: only J_excited = J_ground + 1 is supported"))
    if species_items and abs(species_items["m_j"]) > species_items["j_ground"]:
        errors.append((line("species", "m_j", "j_ground"),
                       "species: |m_j| must not exceed j_ground"))
    laser_items = {"attenuation_factor": _LASER_KEYS["attenuation_factor"].default,
                   **values["laser"]}
    detunings = [k for k in ("detuning_Gamma", "detuning_pol_Gamma") if k in laser_items]
    if "intensity_Isat" not in laser_items:
        errors.append((line("laser"), "laser.intensity_Isat is required"))
    if len(detunings) != 1:
        errors.append((line("laser", *detunings[-1:]),
                       "exactly one of laser.detuning_Gamma (laser frame) or "
                       "laser.detuning_pol_Gamma (effective, at trap bottom) is required"))
    if errors:
        raise ConfigError(errors)
    for name, build in (("species", species_from_lab_units), ("trap", trap_from_lab_units)):
        if name in merged:
            resolved[name] = build(**merged[name]), tuple(_header_items(name, merged[name]))
            if name in by_name:
                _RESOLVED[by_name[name]] = resolved[name]
    (species, species_header), (trap, trap_header) = resolved["species"], resolved["trap"]
    # the Zeeman shift at the trap bottom, and the longest run: the capped
    # cooling rates give the shortest step this trap can ask for
    pair = by_name.get("species"), by_name.get("trap")
    shift, longest = _RESOLVED.get(pair) or (
        zeeman_shift(species, species.m_j, +1, trap.offset_field),
        MAX_STEPS * step_size(max(rate_caps(trap, species))))
    if None not in pair:
        _RESOLVED[pair] = shift, longest

    if detunings == ["detuning_pol_Gamma"]:
        delta_pol = laser_items["detuning_pol_Gamma"]
        laser_detuning = delta_pol + shift
    else:
        laser_detuning = laser_items["detuning_Gamma"]
        delta_pol = laser_detuning - shift
    if delta_pol >= 0:
        errors.append((line("laser", *detunings),
                       f"laser.{detunings[0]}: delta_pol = {format_value(delta_pol)} Gamma at the "
                       "trap bottom must be negative; blue detuning heats instead of cooling"))
    laser = LaserConfig(laser_items["intensity_Isat"], laser_detuning,
                        laser_items["attenuation_factor"])

    cloud_items, scen = values.get("cloud", {}), values["scenario"]
    # each [cloud] and [scenario] value in SI units, and the fields they set
    si, fields = {}, {}
    for keys, items in ((_CLOUD_KEYS, cloud_items), (_SCENARIO_KEYS, scen)):
        for key, value in items.items():
            spec = keys[key]
            si[key] = value = value if spec.factor is None else value * spec.factor
            if spec.field:
                fields[spec.field] = value
    atom_number = cloud_items.get("atom_number")
    t_y = si.get("temperature_y_uK", si.get("temperature_uK"))
    t_z = si.get("temperature_z_uK", si.get("temperature_uK"))
    if (t_y is None) != (t_z is None):
        given = "temperature_y_uK" if t_y is not None else "temperature_z_uK"
        errors.append((line("cloud", given),
                       "per-axis temperatures need both temperature_y_uK and temperature_z_uK "
                       "(or an isotropic temperature_uK)"))
    n0 = si.get("peak_density_per_cm3")

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
        low, high, scanned = row.scan or (-math.inf, math.inf, None)
        if not g_min < g_max:
            errors.append((line("scenario", "grid_min"), "grid_min must be < grid_max"))
        elif scale == "log" and g_min <= 0:
            errors.append((line("scenario", "grid_min"), "log grids need grid_min > 0"))
        elif not (low <= g_min and g_max <= high):
            errors.append((line("scenario", "grid_min" if g_min < low else "grid_max"),
                           f"{kind} needs grid_min and grid_max in [{low:g}, {high:g}] "
                           f"({scanned})"))
        else:
            grid = GridSpec(g_min, g_max, scen["grid_count"], scale)

    window = None
    if "window_min_ms" in scen or "window_max_ms" in scen:
        if not scen.get("window_min_ms", 0.0) < min(scen.get("window_max_ms", math.inf),
                                                     scen.get("duration_ms", math.inf)):
            errors.append((line("scenario", "window_min_ms", "window_max_ms"),
                           "window_min_ms must be < window_max_ms and < duration_ms"))
        window = (si.get("window_min_ms", 0.0), si.get("window_max_ms", math.inf))

    # what the kind needs, at its line; a message is built only for a failed need
    if row.scan and grid is None:
        errors.append((at_kind, f"{kind} needs a scan grid"))
    if not scen.keys() >= set(row.needs):
        errors.append((at_kind, f"{kind} needs " + _and([f"scenario.{k}" for k in row.needs])))
    have = cloud_items.keys() | ({"temperatures"} if None not in (t_y, t_z) else set())
    values_used = next(filter(have.issuperset, row.cloud), ())
    if row.cloud and not values_used:
        errors.append((at_kind, f"{kind} needs [cloud] {'either ' if len(row.cloud) > 1 else ''}"
                                + " or ".join(map(_and, row.cloud))))
    if kind == "aspect_scan" and n0 is not None:
        # the grid's largest sigma_y (at its smallest alpha, at fixed n0)
        alpha = grid.minimum if grid else 1.0
        mode = scen.get("aspect_mode", _DEFAULTS["aspect_mode"])
        fits = n0 > 0
        if fits and atom_number is not None:
            try:
                _aspect_shape(atom_number, n0, mode, alpha)
            except ValueError:  # CloudShape refuses an infinite sigma_y
                fits = False
        if not fits:
            errors.append((line("cloud", "peak_density_per_cm3"),
                           "aspect_scan needs peak_density_per_cm3 > 0, and large enough "
                           "that the cloud's radius sigma_y is finite on the grid"))
    if "duration_ms" in scen and si["duration_ms"] > longest:
        errors.append((line("scenario", "duration_ms"),
                       f"duration_ms must be <= {longest * 1e3:.6g} in this trap "
                       f"(at most {MAX_STEPS} integrator steps)"))
    if errors:
        raise ConfigError(errors)

    cloud = None  # an aspect scan builds its clouds from atom_number and the peak density
    if "temperatures" in values_used:
        cloud = cloud_from_temperatures(trap, atom_number, t_y, t_y, t_z)
    elif "sigma_y_um" in values_used:
        cloud = CloudShape(sigma_y=si["sigma_y_um"], sigma_z=si["sigma_z_um"],
                           peak_density=n0)

    # the detuning as given: the other frame's value, rounded, would not reproduce it
    header = [*species_header, *trap_header, *_header_items("laser", laser_items),
              *_header_items("cloud", cloud_items),
              ("resolved.delta_pol_Gamma", format_value(delta_pol))]
    # the scenario settings given, but output, and those shown at their defaults
    shown = (scen.keys() | row.shows) - {"output"}
    if "data" in scen and "noise_fraction" not in scen:  # it only draws synthetic data
        shown.discard("noise_fraction")
    if grid is not None:
        shown.add("grid_scale")
    header += [(f"scenario.{key}", format_value(scen.get(key, _DEFAULTS[key])))
               for key in _SCENARIO_KEYS if key in shown]

    return ScenarioConfig(species, trap, laser, delta_pol, kind, cloud=cloud, grid=grid,
                          window=window, header=tuple(header),
                          lines={**lines["laser"], **lines["scenario"]}, **fields)


def preset_dump() -> str:
    """Render the built-in presets in config format."""
    lines = []
    for section, presets in (("species", SPECIES_PRESETS), ("trap", TRAP_PRESETS)):
        for preset_name, items in sorted(presets.items()):
            lines += [f"# {section} preset '{preset_name}'", f"[{section}]"]
            lines += [f"{key} = {format_value(value)}" for key, value in items.items()]
            lines.append("")
    return "\n".join(lines)
