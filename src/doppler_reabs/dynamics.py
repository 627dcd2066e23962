"""Rate-equation engine for one-dimensional Doppler cooling of a dense cloud.

Axial cooling comes from the standing wave along z; radial cooling
exists only because rescattered photons carry momentum sideways, so its
rate is proportional to kappa_y.  Heating comes from recoil of all
scattered and rescattered photons.  The module provides the per-axis
rates, closed-form steady states, and time-domain runs.
While the shape is fixed each axis obeys the linear equation
dT/dt = S - C*T, so a frozen-shape run is its exact solution, evaluated
at each sample in O(samples).  A self-consistent run lets the cloud
shape and the reabsorption coefficients follow the falling temperature:
it steps from sample to sample by the exact solution at S and C
extrapolated to each step's midpoint (exponential Adams-Bashforth 2,
second order), halving a step whose difference from the first-order
step exceeds a relative TOL, with one shape evaluation per step on plain
floats.  A run is one stream of samples (_samples), which simulate collects
into a trace held as columns, where a frozen run's samples share one shape,
and which the CLI renders line by line.

The heating rates carry a factor 4 over the quoted rate coefficients,
which puts the fixed point of the rate equations on the closed-form
steady states; the quoted coefficients used verbatim would settle 4x lower.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain

from . import constants as const
from .atoms import AtomSpecies, LaserConfig, _Checked, effective_detuning
from .reabsorption import KAPPA0_PREFACTOR, KappaSet, _closed_form_integrals
from .trap import TWO_PI_CUBED_SQRT, VOLUME_UNDERFLOW, CloudState, TrapConfig, trap_frequencies

MAX_STEP = 2e-4          # integrator step ceiling [s]
STEPS_PER_TIME_CONSTANT = 50
MAX_STEPS = 10**6        # steps one run may take; parse_config enforces it
# Local tolerance of a self-consistent step, relative to T: the bound on
# its difference from the first-order step, which is that step's local
# error.  Set so that the endpoint error is below the first-order
# scheme's at every sample stride (3e-3 was not, at stride 50).
TOL = 1e-4


class RateSet(namedtuple("RateSet", (
        "cool_rate_z", "cool_rate_y", "heat_rate_z", "heat_rate_y", "capped_z", "capped_y"))):
    """Cooling and heating rates per axis [1/s].

    Cooling rates are capped at 2*omega_i/pi (the cloud cannot relax
    faster than a quarter trap period); when the cap binds on an axis the
    heating rate of that axis is scaled by the same factor, which slows
    the approach without moving the equilibrium, and the flag is set.
    """

    __slots__ = ()


class SteadyState(namedtuple("SteadyState", "T_z_inf T_y_inf")):
    """Steady-state temperatures [K]; inf marks a divergent axis."""

    __slots__ = ()


class TraceSample(namedtuple("TraceSample", (
    "t",                    # [s]
    "T_z", "T_y",           # [K]
    "sigma_z", "sigma_y",   # [m]
    "peak_density",         # [1/m^3]
    "kappas",               # KappaSet
))):
    __slots__ = ()


class _Samples(Sequence):
    """A trace's samples: a read-only view, each TraceSample built when read."""

    __slots__ = ("_trace",)

    def __init__(self, trace):
        self._trace = trace

    def __len__(self):
        return len(self._trace.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        t, T_z, T_y, shapes, _ = self._trace
        sigma_z, sigma_y, n0, *kappas = shapes[0 if len(shapes) == 1 else i]
        return TraceSample(t[i], T_z[i], T_y[i], sigma_z, sigma_y, n0, KappaSet(*kappas))


class TemperatureTrace(_Checked, namedtuple("TemperatureTrace", (
    "t", "T_z", "T_y",  # columns: sample times [s] and temperatures [K]
    "shapes",  # (sigma_z, sigma_y, n0, kappa_y, kappa_z, kappa, kappa0) per sample, or one in all
    "step",    # the run's fixed step [s]; 0 for a run of 0 s
), defaults=(0.0,))):
    """Time-ordered record of an integration run, as columns; samples views it as TraceSamples."""

    __slots__ = ()
    samples = property(_Samples)

    def _check(self):
        t = self.t
        if not len(t) == len(self.T_z) == len(self.T_y) or len(self.shapes) not in (1, len(t)):
            raise ValueError("t, T_z, T_y need one entry per sample, shapes one or one per sample")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("sample times must be strictly increasing")
        if any(v <= 0 for column in (self.T_z, self.T_y) for v in column):
            raise ValueError("temperatures must stay positive")

    def temperatures(self, axis: str) -> tuple[float, ...]:
        if axis not in ("z", "y"):
            raise ValueError("axis must be 'z' or 'y'")
        return self.T_z if axis == "z" else self.T_y


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
    """The rates at one detuning in one trap: the constants are taken once,
    at construction, and _rate_values(kappas, intensity) adds the cloud
    shape and the intensity at the atoms.  heat_scale = E_r/(2 k_B) [K]
    turns a heating rate into the source term of dT/dt.
    """

    def __init__(self, delta_pol: float, species: AtomSpecies, trap: TrapConfig):
        if delta_pol >= 0:
            raise ValueError(
                "delta_pol must be negative; blue detuning heats instead of cooling"
            )
        self.gamma = gamma = species.linewidth
        self.lorentz = 1.0 + 4.0 * delta_pol**2
        self.drive = gamma * (-32.0 * delta_pol)
        self.lorentz_sq = self.lorentz**2
        self.recoil_per_photon = species.recoil_energy / (const.HBAR * gamma)
        self.cap_z, self.cap_y = rate_caps(trap, species)
        self.heat_scale = species.recoil_energy / (2.0 * const.K_B)

    def _rate_values(self, kappas: KappaSet,
                     intensity: float) -> tuple[float, float, float, float, bool, bool]:
        """The fields of rates(...) at this cloud shape, in RateSet's order."""
        cool_z = (
            self.drive * (1.0 + kappas.kappa_z)
            * 2.0 * intensity * self.recoil_per_photon / self.lorentz_sq
        )
        cool_y = (
            self.drive * kappas.kappa_y
            * 2.0 * intensity * self.recoil_per_photon / self.lorentz_sq
        )
        scatter = 2.0 * intensity * self.gamma / self.lorentz
        heat_z = ((1.0 + kappas.kappa_z) + 0.4 * (1.0 + kappas.kappa)) * scatter * 4.0
        heat_y = (kappas.kappa_y + 0.3 * (1.0 + kappas.kappa)) * scatter * 4.0
        capped_z = cool_z > self.cap_z
        capped_y = cool_y > self.cap_y
        if capped_z:
            heat_z *= self.cap_z / cool_z
            cool_z = self.cap_z
        if capped_y:
            heat_y *= self.cap_y / cool_y
            cool_y = self.cap_y
        return cool_z, cool_y, heat_z, heat_y, capped_z, capped_y


def rates(
    laser: LaserConfig,
    kappas: KappaSet,
    delta_pol: float,
    species: AtomSpecies,
    trap: TrapConfig,
) -> RateSet:
    """Per-axis cooling and heating rates for the current cloud shape."""
    model = RateModel(delta_pol, species, trap)
    return RateSet(*model._rate_values(kappas, laser.effective_intensity))


def _steady_constants(delta_pol: float, species: AtomSpecies) -> tuple[float, float, float]:
    """(T_D/2 [K], detuning_factor, E_r * Gamma [J/s]): what the steady
    states take of the detuning and the species, which a scan binds once."""
    factor = detuning_factor(delta_pol)
    return species.doppler_temperature / 2.0, factor, species.recoil_energy * species.linewidth


def _heating_extra(heating_power: float, intensity: float, er_gamma: float) -> float:
    """An outside heating power [J/s] over E_r * Gamma * intensity."""
    if intensity <= 0:  # no light: any heating wins
        return math.inf if heating_power > 0 else 0.0
    # two divisions: E_r * Gamma * intensity underflows to 0 at the smallest intensities
    return heating_power / er_gamma / intensity


def _radial_steady_state(
    kappa_y: float, kappa: float, extra: float, t_half: float, factor: float
) -> float:
    """Radial steady state [K] with _heating_extra's extra.  inf where
    kappa_y <= 0: only reabsorbed light cools the radial axis."""
    if kappa_y <= 0:
        return math.inf
    return (kappa_y + 0.3 * (1.0 + kappa) + extra) / kappa_y * t_half * factor


def _steady_temperatures(kappas: KappaSet, t_half: float, factor: float) -> tuple[float, float]:
    """(T_z, T_y) of steady_state [K] from the constants of _steady_constants."""
    t_z = ((1.0 + kappas.kappa_z + 0.4 * (1.0 + kappas.kappa)) / (1.0 + kappas.kappa_z)
           * t_half * factor)
    return t_z, _radial_steady_state(kappas.kappa_y, kappas.kappa, 0.0, t_half, factor)


def _radial_at_od(kappa_y_star: float, kappa_star: float, od_y: float, extra: float,
                  t_half: float, factor: float) -> float:
    """steady_state_vs_od [K] from the constants of _steady_constants."""
    if od_y <= 0:
        return math.inf
    return _radial_steady_state(kappa_y_star * od_y, kappa_star * od_y, extra, t_half, factor)


def steady_state(
    kappas: KappaSet, delta_pol: float, species: AtomSpecies
) -> SteadyState:
    """Closed-form steady-state temperatures.

    Without reabsorption the radial axis receives no cooling at all and
    its temperature grows without bound; kappa_y <= 0 therefore yields an
    infinite radial value rather than a number.
    """
    t_half, factor, _ = _steady_constants(delta_pol, species)
    return SteadyState(*_steady_temperatures(kappas, t_half, factor))


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
    t_half, factor, er_gamma = _steady_constants(delta_pol, species)
    extra = _heating_extra(heating_power, intensity, er_gamma)
    return _radial_steady_state(kappa_y, kappa, extra, t_half, factor)


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
    if od_y <= 0:  # before the detuning is checked
        return math.inf
    t_half, factor, er_gamma = _steady_constants(delta_pol, species)
    extra = _heating_extra(heating_power, intensity, er_gamma)
    return _radial_at_od(kappa_y_star, kappa_star, od_y, extra, t_half, factor)


def _relax(T: float, source: float, rate: float, dt: float) -> float:
    """T after dt of dT/dt = source - rate*T with source and rate held fixed.

    T*exp(-x) + source*dt*phi(x) with x = rate*dt and
    phi(x) = (1 - exp(-x))/x, phi(0) = 1; both terms are >= 0 for T > 0,
    source >= 0 and rate >= 0, so the temperature stays positive.
    """
    x = rate * dt
    phi = 1.0 if x == 0.0 else -math.expm1(-x) / x
    return T * math.exp(-x) + source * dt * phi


def _second_order_step(T_z, T_y, before, now, last, span, dt):
    """(T_z, T_y, m) after a self-consistent step of m <= span steps of dt.

    before and now are (S_z, C_z, S_y, C_y) at the start of the previous
    step, last steps of dt long, and of this one.  A try of m steps takes
    each axis by _relax at the coefficients extrapolated linearly to the
    try's midpoint (exponential Adams-Bashforth 2, Cox & Matthews 2002),
    written out inline.
    It is accepted when every extrapolated coefficient is >= 0 and it
    differs from the first-order step (_relax at now) by at most TOL
    relative on both axes; otherwise m is halved.  A try of one step of
    dt is always taken: second order, or first order where an
    extrapolated coefficient is negative, so the temperatures stay positive.
    """
    S_z, C_z, S_y, C_y = now
    dS_z, dC_z, dS_y, dC_y = S_z - before[0], C_z - before[1], S_y - before[2], C_y - before[3]
    exp, expm1 = math.exp, math.expm1
    m = span
    while True:
        w = 0.5 * m / last
        s_z, c_z, s_y, c_y = S_z + w * dS_z, C_z + w * dC_z, S_y + w * dS_y, C_y + w * dC_y
        h = m * dt
        if s_z < 0.0 or c_z < 0.0 or s_y < 0.0 or c_y < 0.0:
            if m > 1:
                m //= 2
                continue
            s_z, c_z, s_y, c_y = now  # one step of dt: the first-order step
        x, u = c_z * h, c_y * h
        z = T_z * exp(-x) + s_z * h * (1.0 if x == 0.0 else -expm1(-x) / x)
        y = T_y * exp(-u) + s_y * h * (1.0 if u == 0.0 else -expm1(-u) / u)
        if m == 1:
            return z, y, 1
        x, u = C_z * h, C_y * h  # against the first-order step
        if (abs(z - (T_z * exp(-x) + S_z * h * (1.0 if x == 0.0 else -expm1(-x) / x))) <= TOL * z
                and abs(y - (T_y * exp(-u) + S_y * h * (1.0 if u == 0.0 else -expm1(-u) / u)))
                <= TOL * y):
            return z, y, m
        m //= 2


def simulate(
    initial: CloudState,
    trap: TrapConfig,
    species: AtomSpecies,
    laser: LaserConfig,
    duration: float,
    self_consistent: bool = True,
    sample_stride: int = 1,
    delta_pol: float | None = None,
) -> TemperatureTrace:
    """Integrate the two-temperature rate equations.

    The cloud shape follows initial's temperatures and atom number
    (thermal_shape's arithmetic; x follows y).  A sample follows every
    sample_stride fixed steps and the last one.  The fixed step (the
    trace's step) is duration / ceil(duration / step_size(fastest initial
    cooling rate)): whole steps fill duration, each at most step_size (up
    to rounding), shortened to fit.  With a frozen shape each axis obeys
    dT/dt = S - C*T with constant S and C, so each sample is the exact
    solution at its time: O(samples), exact up to rounding, and the trace
    holds the one shape once.  When self_consistent is set, the first
    fixed step is first order (_relax at the start's S and C).  After it
    each step tries the rest of its sample interval, at most twice the
    step before (so S and C are never extrapolated further back than the
    previous step's start), is halved while _second_order_step rejects it,
    but never below one fixed step, and ends with one shape and kappa
    evaluation: second order, and at most one kappa per fixed step.  Each
    step runs thermal_shape's, _kappas' and RateModel._rate_values'
    arithmetic on floats, in their order, with the constants bound once.
    delta_pol defaults to the effective detuning of the stretched-state
    transition at the trap bottom.  The trace collects _samples' stream.
    """
    stream = _samples(initial, trap, species, laser, duration, self_consistent, sample_stride,
                      delta_pol)
    t, T_z, T_y, shapes = [], [], [], []
    try:
        while True:  # into columns: holding each sample's tuple costs 2-3 % more time
            at, z, y, shape = next(stream)
            t.append(at)
            T_z.append(z)
            T_y.append(y)
            shapes.append(shape)
    except StopIteration as end:  # the stream returns the run's fixed step
        return TemperatureTrace(tuple(t), tuple(T_z), tuple(T_y),
                                tuple(shapes if self_consistent else shapes[:1]), end.value)


def _samples(initial, trap, species, laser, duration, self_consistent, sample_stride,
             delta_pol):
    """simulate's run as a stream: yields each sample as it is reached, as
    (t, T_z, T_y, shape) with shape = (sigma_z, sigma_y, n0, kappa_y,
    kappa_z, kappa, kappa0), one and the same tuple in every sample of a
    frozen run.  Returns the run's fixed step."""
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if delta_pol is None:
        delta_pol = effective_detuning(
            laser.detuning, trap.offset_field, species, species.m_j, +1
        )

    model = RateModel(delta_pol, species, trap)
    atom_number, mu, k_b = initial.atom_number, trap.magnetic_moment, const.K_B
    mu_z, mu_y, mu_x = mu * trap.curvature_z, mu * trap.curvature_y, mu * trap.curvature_x
    cross_section, two_over_pi = species.resonant_cross_section, 2.0 / math.pi
    drive, recoil, lorentz_sq = model.drive, model.recoil_per_photon, model.lorentz_sq
    cap_z, cap_y, heat_scale = model.cap_z, model.cap_y, model.heat_scale
    intensity = laser.effective_intensity
    scatter = 2.0 * intensity * model.gamma / model.lorentz
    sqrt, integrals, second_order_step = math.sqrt, _closed_form_integrals, _second_order_step

    T_z, T_y = initial.T_z, initial.T_y
    k, last, n_steps, dt, now = 0, 1, -1, 0.0, None
    while True:  # after k fixed steps; at k = 0 the start sizes the step and takes the first
        sigma_z = sqrt(k_b * T_z / mu_z)
        sigma_y = sqrt(k_b * T_y / mu_y)
        sigma_x = sqrt(k_b * T_y / mu_x)
        try:
            n0 = atom_number / (TWO_PI_CUBED_SQRT * sigma_x * sigma_y * sigma_z)
        except ZeroDivisionError:
            raise ValueError(VOLUME_UNDERFLOW) from None
        k0 = n0 * cross_section * KAPPA0_PREFACTOR
        radial, axial, total = integrals(sigma_y, sigma_z)
        kappa_y, kappa_z, kappa = k0 * two_over_pi * radial, k0 * axial, k0 * total
        if k % sample_stride == 0 or k == n_steps:
            shape = (sigma_z, sigma_y, n0, kappa_y, kappa_z, kappa, k0)
            yield k * dt, T_z, T_y, shape
        if k == n_steps:
            return dt
        cool_z = drive * (1.0 + kappa_z) * 2.0 * intensity * recoil / lorentz_sq
        cool_y = drive * kappa_y * 2.0 * intensity * recoil / lorentz_sq
        heat_z = ((1.0 + kappa_z) + 0.4 * (1.0 + kappa)) * scatter * 4.0
        heat_y = (kappa_y + 0.3 * (1.0 + kappa)) * scatter * 4.0
        if cool_z > cap_z:
            heat_z, cool_z = heat_z * (cap_z / cool_z), cap_z
        if cool_y > cap_y:
            heat_y, cool_y = heat_y * (cap_y / cool_y), cap_y
        before, now = now, (heat_scale * heat_z, cool_z, heat_scale * heat_y, cool_y)
        if k:
            span = min(k - k % sample_stride + sample_stride, n_steps, k + 2 * last) - k
            T_z, T_y, last = second_order_step(T_z, T_y, before, now, last, span, dt)
            k += last
            continue
        if duration == 0:
            return dt
        S_z, C_z, S_y, C_y = now
        n_steps = max(1, math.ceil(duration / step_size(max(C_z, C_y))))
        dt = duration / n_steps
        if not self_consistent:  # every sample from the one shape, in closed form
            for k in chain(range(sample_stride, n_steps, sample_stride), (n_steps,)):
                t = k * dt
                yield t, _relax(T_z, S_z, C_z, t), _relax(T_y, S_y, C_y, t), shape
            return dt
        T_z, T_y, k = _relax(T_z, S_z, C_z, dt), _relax(T_y, S_y, C_y, dt), 1
