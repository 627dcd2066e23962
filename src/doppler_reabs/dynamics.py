"""Rate-equation engine for one-dimensional Doppler cooling of a dense cloud.

Axial cooling comes from the standing wave along z; radial cooling
exists only because rescattered photons carry momentum sideways, so its
rate is proportional to kappa_y.  Heating comes from recoil of all
scattered and rescattered photons.  The module provides the per-axis
rates, closed-form steady states and transients, and an integrator that
optionally recomputes the cloud shape and the reabsorption coefficients
from the falling temperature at every step.

Two rate conventions are exposed.  With consistency_mode the heating
rates are scaled so that the fixed point of the differential equations
coincides with the closed-form steady-state expressions; without it the
rate coefficients are used verbatim, which reproduces the measured
cooling-time scale but settles a factor 4 colder than the closed forms.
Every result should state which mode produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants as const
from .atoms import AtomSpecies, LaserConfig, derive_constants, effective_detuning
from .reabsorption import CloudShape, KappaSet, kappa_set
from .trap import CloudState, TrapConfig, peak_density, sigma_from_temperature, trap_frequencies

MAX_STEP = 2e-4          # integrator step ceiling [s]
STEPS_PER_TIME_CONSTANT = 50
MAX_STEP_HALVINGS = 12


class IntegrationError(RuntimeError):
    """Integration failed; carries the time at which the step went bad."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class RateSet:
    """Cooling and heating rates per axis [1/s].

    Cooling rates are capped at 2*omega_i/pi (the cloud cannot relax
    faster than a quarter trap period); when the cap binds on an axis the
    heating rate of that axis is scaled by the same factor, which slows
    the approach without moving the equilibrium, and the flag is set.
    """

    cool_rate_z: float
    cool_rate_y: float
    heat_rate_z: float
    heat_rate_y: float
    capped_z: bool
    capped_y: bool


@dataclass(frozen=True)
class SteadyState:
    """Steady-state temperatures [K]; inf marks a divergent axis."""

    T_z_inf: float
    T_y_inf: float


@dataclass(frozen=True)
class TraceSample:
    t: float            # [s]
    T_z: float          # [K]
    T_y: float
    sigma_z: float      # [m]
    sigma_y: float
    peak_density: float  # [1/m^3]
    kappas: KappaSet


@dataclass(frozen=True)
class TemperatureTrace:
    """Time-ordered record of an integration run."""

    samples: tuple[TraceSample, ...]

    CSV_COLUMNS = (
        "t_s",
        "T_z_K",
        "T_y_K",
        "sigma_z_m",
        "sigma_y_m",
        "n0_per_m3",
        "kappa_y",
        "kappa_z",
        "kappa",
    )

    def __post_init__(self):
        times = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if any(s.T_z <= 0 or s.T_y <= 0 for s in self.samples):
            raise ValueError("temperatures must stay positive")

    def times(self) -> list[float]:
        return [s.t for s in self.samples]

    def temperatures(self, axis: str) -> list[float]:
        if axis not in ("z", "y"):
            raise ValueError("axis must be 'z' or 'y'")
        return [s.T_z if axis == "z" else s.T_y for s in self.samples]

    def csv_rows(self) -> list[tuple[float, ...]]:
        return [
            (
                s.t,
                s.T_z,
                s.T_y,
                s.sigma_z,
                s.sigma_y,
                s.peak_density,
                s.kappas.kappa_y,
                s.kappas.kappa_z,
                s.kappas.kappa,
            )
            for s in self.samples
        ]


def detuning_factor(delta_pol: float) -> float:
    """Steady-state detuning dependence, normalized to 1 at delta = -1/2."""
    if delta_pol >= 0:
        raise ValueError("delta_pol must be negative for cooling")
    return (1.0 + 4.0 * delta_pol**2) / (4.0 * abs(delta_pol))


def rates(
    laser: LaserConfig,
    kappas: KappaSet,
    delta_pol: float,
    species: AtomSpecies,
    trap: TrapConfig,
    consistency_mode: bool = True,
) -> RateSet:
    """Per-axis cooling and heating rates for the current cloud shape."""
    if delta_pol >= 0:
        raise ValueError(
            "delta_pol must be negative; blue detuning heats instead of cooling"
        )
    derived = derive_constants(species)
    gamma = species.linewidth
    intensity = laser.effective_intensity
    lorentz = 1.0 + 4.0 * delta_pol**2
    recoil_per_photon = derived.recoil_energy / (const.HBAR * gamma)

    cool_z = (
        gamma * (-32.0 * delta_pol) * (1.0 + kappas.kappa_z)
        * 2.0 * intensity * recoil_per_photon / lorentz**2
    )
    cool_y = (
        gamma * (-32.0 * delta_pol) * kappas.kappa_y
        * 2.0 * intensity * recoil_per_photon / lorentz**2
    )
    scatter = 2.0 * intensity * gamma / lorentz
    heat_z = ((1.0 + kappas.kappa_z) + 0.4 * (1.0 + kappas.kappa)) * scatter
    heat_y = (kappas.kappa_y + 0.3 * (1.0 + kappas.kappa)) * scatter
    if consistency_mode:
        heat_z *= 4.0
        heat_y *= 4.0

    _, omega_y, omega_z = trap_frequencies(trap, species)
    cap_z = 2.0 * omega_z / math.pi
    cap_y = 2.0 * omega_y / math.pi
    capped_z = cool_z > cap_z
    capped_y = cool_y > cap_y
    if capped_z:
        heat_z *= cap_z / cool_z
        cool_z = cap_z
    if capped_y:
        heat_y *= cap_y / cool_y
        cool_y = cap_y
    return RateSet(
        cool_rate_z=cool_z,
        cool_rate_y=cool_y,
        heat_rate_z=heat_z,
        heat_rate_y=heat_y,
        capped_z=capped_z,
        capped_y=capped_y,
    )


def temperature_slope(
    temperature: float, cool_rate: float, heat_rate: float, species: AtomSpecies
) -> float:
    """dT/dt for one axis [K/s]: recoil heating minus rate-damped temperature."""
    e_r = derive_constants(species).recoil_energy
    return e_r / (2.0 * const.K_B) * heat_rate - temperature * cool_rate


def steady_state(
    kappas: KappaSet, delta_pol: float, species: AtomSpecies
) -> SteadyState:
    """Closed-form steady-state temperatures.

    Without reabsorption the radial axis receives no cooling at all and
    its temperature grows without bound; kappa_y = 0 therefore yields an
    infinite radial value rather than a number.
    """
    factor = detuning_factor(delta_pol)
    t_half = derive_constants(species).doppler_temperature / 2.0
    t_z = (
        (1.0 + kappas.kappa_z + 0.4 * (1.0 + kappas.kappa))
        / (1.0 + kappas.kappa_z)
        * t_half
        * factor
    )
    if kappas.kappa_y == 0.0:
        t_y = math.inf
    else:
        t_y = (
            (kappas.kappa_y + 0.3 * (1.0 + kappas.kappa))
            / kappas.kappa_y
            * t_half
            * factor
        )
    return SteadyState(T_z_inf=t_z, T_y_inf=t_y)


def steady_state_with_heating(
    kappa_y: float,
    kappa: float,
    heating_power: float,
    intensity: float,
    delta_pol: float,
    species: AtomSpecies,
) -> float:
    """Radial steady state with an extra constant heating power [K].

    heating_power is an energy per atom and time [J/s] from processes
    outside the scattering model; it competes with the reabsorption-driven
    cooling, so weak light (small intensity) cannot win against it.
    """
    factor = detuning_factor(delta_pol)
    derived = derive_constants(species)
    if kappa_y <= 0:
        return math.inf
    if intensity <= 0:
        return math.inf if heating_power > 0 else (
            steady_state(
                KappaSet(kappa_y=kappa_y, kappa_z=0.0, kappa=kappa, kappa0=0.0),
                delta_pol,
                species,
            ).T_y_inf
        )
    extra = heating_power / (derived.recoil_energy * species.linewidth * intensity)
    return (
        (kappa_y + 0.3 * (1.0 + kappa) + extra)
        / kappa_y
        * derived.doppler_temperature
        / 2.0
        * factor
    )


def steady_state_vs_od(
    kappa_y_star: float,
    kappa_star: float,
    od_y: float,
    heating_power: float,
    intensity: float,
    delta_pol: float,
    species: AtomSpecies,
) -> float:
    """Radial steady state as a function of radial optical density [K].

    The reabsorption coefficients are written as per-OD constants,
    kappa_y = kappa_y_star * OD_y and kappa = kappa_star * OD_y, so a
    single pair measured at a reference OD predicts the whole curve.
    """
    if od_y <= 0:
        return math.inf
    return steady_state_with_heating(
        kappa_y_star * od_y,
        kappa_star * od_y,
        heating_power,
        intensity,
        delta_pol,
        species,
    )


def transient(T0: float, T_inf: float, tau: float, t: float) -> float:
    """Exponential relaxation T(t) between T0 and T_inf [K]."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return T_inf + (T0 - T_inf) * math.exp(-t / tau)


class _StepFailure(Exception):
    def __init__(self, time: float):
        self.time = time


def _shape_of(state: CloudState) -> CloudShape:
    return CloudShape(
        sigma_y=state.sigma_y,
        sigma_z=state.sigma_z,
        peak_density=state.peak_density,
    )


def simulate(
    initial: CloudState,
    trap: TrapConfig,
    species: AtomSpecies,
    laser: LaserConfig,
    duration: float,
    self_consistent: bool = True,
    consistency_mode: bool = True,
    sample_stride: int = 1,
    delta_pol: float | None = None,
) -> TemperatureTrace:
    """Integrate the two-temperature rate equations.

    A fixed-step Runge-Kutta march with the classic fourth-order stage
    weights; the step is a fiftieth of the fastest relaxation time (at
    most 0.2 ms) and is halved and the run restarted if a step ever
    produces a non-finite or non-positive temperature.  When
    self_consistent is set the cloud sizes are recomputed from the
    current temperatures after every step, the peak density from the
    constant atom number, and the kappa set re-evaluated; otherwise shape
    and kappas stay frozen at the initial state.  The kappas and rates of
    the step's start are held over all four stages, so the scheme is
    fourth order only with a frozen shape: in self-consistent mode it is
    first order in the shape coupling.  delta_pol defaults to the
    effective detuning of the stretched-state transition at the trap
    bottom.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if delta_pol is None:
        delta_pol = effective_detuning(
            laser.detuning, trap.offset_field, species, species.m_j, +1
        )

    mu = trap.magnetic_moment
    n_atoms = initial.atom_number
    shape0 = _shape_of(initial)
    kappas0 = kappa_set(shape0, species)
    rates0 = rates(laser, kappas0, delta_pol, species, trap, consistency_mode)
    # temperature_slope's recoil factor, taken once per run
    heat_scale = derive_constants(species).recoil_energy / (2.0 * const.K_B)
    fastest = max(rates0.cool_rate_z, rates0.cool_rate_y)
    step = MAX_STEP if fastest <= 0 else min(1.0 / (STEPS_PER_TIME_CONSTANT * fastest), MAX_STEP)

    def sample(t, T_z, T_y, sigma_z, sigma_y, n0, kappas):
        return TraceSample(
            t=t, T_z=T_z, T_y=T_y, sigma_z=sigma_z, sigma_y=sigma_y,
            peak_density=n0, kappas=kappas,
        )

    def run(h: float) -> TemperatureTrace:
        T_z, T_y = initial.T_z, initial.T_y
        sigma_z, sigma_y = initial.sigma_z, initial.sigma_y
        n0 = initial.peak_density
        kappas = kappas0
        samples = [sample(0.0, T_z, T_y, sigma_z, sigma_y, n0, kappas)]
        if duration == 0:
            return TemperatureTrace(samples=tuple(samples))
        n_steps = max(1, math.ceil(duration / h))
        dt = duration / n_steps
        for i in range(n_steps):
            rs = rates(laser, kappas, delta_pol, species, trap, consistency_mode)

            def slope(tz, ty):
                return (
                    heat_scale * rs.heat_rate_z - tz * rs.cool_rate_z,
                    heat_scale * rs.heat_rate_y - ty * rs.cool_rate_y,
                )

            k1z, k1y = slope(T_z, T_y)
            k2z, k2y = slope(T_z + dt / 2 * k1z, T_y + dt / 2 * k1y)
            k3z, k3y = slope(T_z + dt / 2 * k2z, T_y + dt / 2 * k2y)
            k4z, k4y = slope(T_z + dt * k3z, T_y + dt * k3y)
            T_z = T_z + dt / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
            T_y = T_y + dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
            t = (i + 1) * dt
            if not (math.isfinite(T_z) and math.isfinite(T_y)) or T_z <= 0 or T_y <= 0:
                raise _StepFailure(t)
            if self_consistent:
                sigma_z = sigma_from_temperature(T_z, trap.curvature_z, mu)
                sigma_y = sigma_from_temperature(T_y, trap.curvature_y, mu)
                sigma_x = sigma_from_temperature(T_y, trap.curvature_x, mu)
                n0 = peak_density(n_atoms, sigma_x, sigma_y, sigma_z)
                kappas = kappa_set(
                    CloudShape(sigma_y=sigma_y, sigma_z=sigma_z, peak_density=n0),
                    species,
                )
            if (i + 1) % sample_stride == 0 or i == n_steps - 1:
                samples.append(sample(t, T_z, T_y, sigma_z, sigma_y, n0, kappas))
        return TemperatureTrace(samples=tuple(samples))

    last_failure = 0.0
    for _ in range(MAX_STEP_HALVINGS + 1):
        try:
            return run(step)
        except _StepFailure as failure:
            last_failure = failure.time
            step /= 2.0
    raise IntegrationError(
        f"integration failed near t = {last_failure:.6g} s even at step {step:.3g} s",
        time=last_failure,
    )
