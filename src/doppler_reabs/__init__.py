"""Doppler cooling of optically dense, spin-polarized clouds in magnetic traps.

Rate-equation simulation of one-dimensional Doppler cooling where photon
reabsorption both heats the cloud and, by redirecting momentum, cools the
axes the laser never touches.  The package covers the atomic-transition
arithmetic, harmonic-trap and cloud bookkeeping, the reabsorption
geometry integrals, closed-form steady states, time-domain integration,
least-squares parameter estimation, and a config-driven CLI with named
presets for the chromium experiment the model was built around.
"""

import importlib

__version__ = "1.0.0"

# Each public name and the module that defines it.  A bare import loads no
# submodule: a name is imported on first use and bound here, so later reads
# are plain attribute reads.
_HOME = {name: module for module, names in {
    "atoms": "AtomSpecies LaserConfig effective_detuning lande_g species_from_lab_units "
             "zeeman_shift",
    "config": "ConfigError GridSpec ScenarioConfig parse_config preset_dump",
    "dynamics": "RateSet SteadyState TemperatureTrace TraceSample detuning_factor rates simulate "
                "steady_state steady_state_vs_od steady_state_with_heating",
    "fitting": "DegenerateDataError FitResult ScanPoint fit_exponential fit_intensity_scan "
               "fit_od_scan load_scan_points run_fit",
    "presets": "SPECIES_PRESETS TRAP_PRESETS cr52 stuttgart_cloverleaf",
    "reabsorption": "CloudShape KappaSet kappa0 kappa_set optical_density",
    "runners": "run_aspect_scan run_dynamics run_intensity_scan run_od_scan run_steady_state",
    "selfcheck": "SelfCheckReport run_selfcheck",
    "trap": "CloudState TrapConfig cloud_from_temperatures peak_density "
            "thermal_debroglie_wavelength thermal_shape trap_frequencies trap_from_lab_units",
}.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    # a submodule, as after its import; never __main__, which runs the CLI
    if not name.startswith("_"):
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as error:
            if error.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
