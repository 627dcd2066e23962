"""Rate-equation engine for one-dimensional Doppler cooling of a dense cloud.

Axial cooling comes from the standing wave along z; radial cooling
exists only because rescattered photons carry momentum sideways, so its
rate is proportional to kappa_y.  Heating comes from recoil of all
scattered and rescattered photons.  The module provides the per-axis
rates, closed-form steady states and transients, and time-domain runs.
While the shape is fixed each axis obeys the linear equation
dT/dt = S - C*T, so a frozen-shape run is its exact solution, evaluated
at each sample in O(samples).  A self-consistent run recomputes the
cloud shape and the reabsorption coefficients from the falling
temperature after every step, each step advanced by that exact
solution: first order in the shape coupling.

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
MAX_STEPS = 10**6        # steps one run may take; parse_config enforces it


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


def detuning_factor(delta_pol: float) -> float:
    """Steady-state detuning dependence, normalized to 1 at delta = -1/2."""
    if delta_pol >= 0:
        raise ValueError("delta_pol must be negative for cooling")
    return (1.0 + 4.0 * delta_pol**2) / (4.0 * abs(delta_pol))


def rate_caps(trap: TrapConfig, species: AtomSpecies) -> tuple[float, float]:
    """Bandwidth caps (axial, radial) of the damping rates, 2*omega_i/pi [1/s]."""
    _, omega_y, omega_z = trap_frequencies(trap, species)
    return 2.0 * omega_z / math.pi, 2.0 * omega_y / math.pi


def step_size(fastest_rate: float) -> float:
    """Integrator step [s] for a run whose fastest initial cooling rate is fastest_rate.

    A STEPS_PER_TIME_CONSTANT-th of the fastest relaxation time, at most
    MAX_STEP.  It shrinks as fastest_rate grows, so the capped rates
    (rate_caps) give the shortest step a trap can ask for.
    """
    if fastest_rate <= 0:
        return MAX_STEP
    return min(1.0 / (STEPS_PER_TIME_CONSTANT * fastest_rate), MAX_STEP)


class RateModel:
    """The rates of one run: the constants are taken once, at construction,
    and rates(kappas) adds the cloud shape.  heat_scale = E_r/(2 k_B) [K]
    turns a heating rate into the source term of dT/dt.
    """

    def __init__(self, laser: LaserConfig, delta_pol: float, species: AtomSpecies,
                 trap: TrapConfig, consistency_mode: bool = True):
        if delta_pol >= 0:
            raise ValueError(
                "delta_pol must be negative; blue detuning heats instead of cooling"
            )
        derived = derive_constants(species)
        gamma = species.linewidth
        lorentz = 1.0 + 4.0 * delta_pol**2
        self.drive = gamma * (-32.0 * delta_pol)
        self.intensity = laser.effective_intensity
        self.lorentz_sq = lorentz**2
        self.recoil_per_photon = derived.recoil_energy / (const.HBAR * gamma)
        self.scatter = 2.0 * self.intensity * gamma / lorentz
        self.heat_factor = 4.0 if consistency_mode else 1.0
        self.cap_z, self.cap_y = rate_caps(trap, species)
        self.heat_scale = derived.recoil_energy / (2.0 * const.K_B)

    def rates(self, kappas: KappaSet) -> RateSet:
        """Per-axis cooling and heating rates for the current cloud shape."""
        cool_z = (
            self.drive * (1.0 + kappas.kappa_z)
            * 2.0 * self.intensity * self.recoil_per_photon / self.lorentz_sq
        )
        cool_y = (
            self.drive * kappas.kappa_y
            * 2.0 * self.intensity * self.recoil_per_photon / self.lorentz_sq
        )
        heat_z = ((1.0 + kappas.kappa_z) + 0.4 * (1.0 + kappas.kappa)) * self.scatter
        heat_y = (kappas.kappa_y + 0.3 * (1.0 + kappas.kappa)) * self.scatter
        heat_z *= self.heat_factor
        heat_y *= self.heat_factor
        capped_z = cool_z > self.cap_z
        capped_y = cool_y > self.cap_y
        if capped_z:
            heat_z *= self.cap_z / cool_z
            cool_z = self.cap_z
        if capped_y:
            heat_y *= self.cap_y / cool_y
            cool_y = self.cap_y
        return RateSet(cool_z, cool_y, heat_z, heat_y, capped_z, capped_y)


def rates(
    laser: LaserConfig,
    kappas: KappaSet,
    delta_pol: float,
    species: AtomSpecies,
    trap: TrapConfig,
    consistency_mode: bool = True,
) -> RateSet:
    """Per-axis cooling and heating rates for the current cloud shape."""
    return RateModel(laser, delta_pol, species, trap, consistency_mode).rates(kappas)


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
    # two divisions: E_r * Gamma * intensity underflows to 0 at the smallest intensities
    extra = heating_power / (derived.recoil_energy * species.linewidth) / intensity
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


def _shape_of(state: CloudState) -> CloudShape:
    return CloudShape(
        sigma_y=state.sigma_y,
        sigma_z=state.sigma_z,
        peak_density=state.peak_density,
    )


def _relax(T: float, source: float, rate: float, dt: float) -> float:
    """T after dt of dT/dt = source - rate*T with source and rate held fixed.

    T*exp(-x) + source*dt*phi(x) with x = rate*dt and
    phi(x) = (1 - exp(-x))/x, phi(0) = 1; both terms are >= 0 for T > 0,
    source >= 0 and rate >= 0, so the temperature stays positive.
    """
    x = rate * dt
    phi = 1.0 if x == 0.0 else -math.expm1(-x) / x
    return T * math.exp(-x) + source * dt * phi


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

    A sample follows every sample_stride fixed steps and the last one; a
    step is at most step_size(fastest initial cooling rate), stretched
    so that whole steps fill duration.  With a frozen shape each axis
    obeys dT/dt = S - C*T with constant S and C, so each sample is the
    exact solution at its time, evaluated directly: O(samples), exact
    up to rounding.  When self_consistent is set, every step advances
    each axis by that solution at the S and C of the step's start (the
    temperatures stay positive at any step), then recomputes the cloud
    sizes from the temperatures, the peak density from the constant
    atom number, and the kappa set: first order in the shape coupling.
    delta_pol defaults to the effective detuning of the stretched-state
    transition at the trap bottom.
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
    T_z, T_y = initial.T_z, initial.T_y
    sigma_z, sigma_y = initial.sigma_z, initial.sigma_y
    n0 = initial.peak_density
    kappas = kappa_set(_shape_of(initial), species)
    model = RateModel(laser, delta_pol, species, trap, consistency_mode)
    rs = model.rates(kappas)

    samples = [TraceSample(0.0, T_z, T_y, sigma_z, sigma_y, n0, kappas)]
    if duration == 0:
        return TemperatureTrace(samples=tuple(samples))
    step = step_size(max(rs.cool_rate_z, rs.cool_rate_y))
    n_steps = max(1, math.ceil(duration / step))
    dt = duration / n_steps
    if not self_consistent:
        S_z, S_y = model.heat_scale * rs.heat_rate_z, model.heat_scale * rs.heat_rate_y
        for k in [*range(sample_stride, n_steps, sample_stride), n_steps]:
            t = k * dt
            T_t = _relax(T_z, S_z, rs.cool_rate_z, t), _relax(T_y, S_y, rs.cool_rate_y, t)
            samples.append(TraceSample(t, *T_t, sigma_z, sigma_y, n0, kappas))
        return TemperatureTrace(samples=tuple(samples))
    for k in range(1, n_steps + 1):
        rs = model.rates(kappas)
        T_z = _relax(T_z, model.heat_scale * rs.heat_rate_z, rs.cool_rate_z, dt)
        T_y = _relax(T_y, model.heat_scale * rs.heat_rate_y, rs.cool_rate_y, dt)
        sigma_z = sigma_from_temperature(T_z, trap.curvature_z, mu)
        sigma_y = sigma_from_temperature(T_y, trap.curvature_y, mu)
        sigma_x = sigma_from_temperature(T_y, trap.curvature_x, mu)
        n0 = peak_density(n_atoms, sigma_x, sigma_y, sigma_z)
        kappas = kappa_set(
            CloudShape(sigma_y=sigma_y, sigma_z=sigma_z, peak_density=n0),
            species,
        )
        if k % sample_stride == 0 or k == n_steps:
            samples.append(TraceSample(k * dt, T_z, T_y, sigma_z, sigma_y, n0, kappas))
    return TemperatureTrace(samples=tuple(samples))
