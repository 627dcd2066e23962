"""Doppler cooling of optically dense, spin-polarized clouds in magnetic traps.

Rate-equation simulation of one-dimensional Doppler cooling where photon
reabsorption both heats the cloud and, by redirecting momentum, cools the
axes the laser never touches.  The package covers the atomic-transition
arithmetic, harmonic-trap and cloud bookkeeping, the reabsorption
geometry integrals, closed-form steady states, time-domain integration,
least-squares parameter estimation, and a config-driven CLI with named
presets for the chromium experiment the model was built around.
"""

from .atoms import (
    AtomSpecies,
    LaserConfig,
    effective_detuning,
    lande_g,
    species_from_lab_units,
    zeeman_shift,
)
from .config import ConfigError, GridSpec, ScenarioConfig, parse_config, preset_dump
from .dynamics import (
    RateSet,
    SteadyState,
    TemperatureTrace,
    TraceSample,
    detuning_factor,
    rates,
    simulate,
    steady_state,
    steady_state_vs_od,
    steady_state_with_heating,
)
from .presets import SPECIES_PRESETS, TRAP_PRESETS, cr52, stuttgart_cloverleaf
from .reabsorption import (
    CloudShape,
    KappaSet,
    kappa0,
    kappa_set,
    optical_density,
)
from .runners import (
    SelfCheckReport,
    run_aspect_scan,
    run_dynamics,
    run_fit,
    run_intensity_scan,
    run_od_scan,
    run_selfcheck,
    run_steady_state,
)
from .trap import (
    CloudState,
    TrapConfig,
    cloud_from_temperatures,
    peak_density,
    thermal_debroglie_wavelength,
    thermal_shape,
    trap_frequencies,
    trap_from_lab_units,
)

__version__ = "1.0.0"

# The fitting names load fitting on first use, so the command line and
# the simulation start without compiling it.
_LAZY = {"DegenerateDataError", "FitResult", "ScanPoint", "fit_exponential",
         "fit_intensity_scan", "fit_od_scan", "load_scan_points"}


def __getattr__(name):
    if name in _LAZY:
        from . import fitting
        return getattr(fitting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY)

__all__ = [
    "AtomSpecies",
    "CloudShape",
    "CloudState",
    "ConfigError",
    "DegenerateDataError",
    "FitResult",
    "GridSpec",
    "KappaSet",
    "LaserConfig",
    "RateSet",
    "ScanPoint",
    "ScenarioConfig",
    "SelfCheckReport",
    "SPECIES_PRESETS",
    "SteadyState",
    "TemperatureTrace",
    "TraceSample",
    "TrapConfig",
    "TRAP_PRESETS",
    "cloud_from_temperatures",
    "cr52",
    "detuning_factor",
    "effective_detuning",
    "fit_exponential",
    "fit_intensity_scan",
    "fit_od_scan",
    "kappa0",
    "kappa_set",
    "lande_g",
    "load_scan_points",
    "optical_density",
    "parse_config",
    "peak_density",
    "preset_dump",
    "rates",
    "run_aspect_scan",
    "run_dynamics",
    "run_fit",
    "run_intensity_scan",
    "run_od_scan",
    "run_selfcheck",
    "run_steady_state",
    "simulate",
    "species_from_lab_units",
    "steady_state",
    "steady_state_vs_od",
    "steady_state_with_heating",
    "stuttgart_cloverleaf",
    "thermal_debroglie_wavelength",
    "thermal_shape",
    "trap_frequencies",
    "trap_from_lab_units",
    "zeeman_shift",
]
