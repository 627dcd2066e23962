"""Rate equations: per-axis rates, steady states, transients, integration."""

from __future__ import annotations

import collections
import math
import random

import pytest

from doppler_reabs import (
    CloudShape,
    CloudState,
    KappaSet,
    LaserConfig,
    cloud_from_temperatures,
    detuning_factor,
    kappa_set,
    rates,
    simulate,
    steady_state,
    steady_state_vs_od,
    steady_state_with_heating,
    thermal_shape,
    trap_from_lab_units,
)
from doppler_reabs import TraceSample, dynamics, effective_detuning
from doppler_reabs.reabsorption import _kappas


NO_REABSORPTION = KappaSet(kappa_y=0.0, kappa_z=0.0, kappa=0.0, kappa0=0.0)
SMALL_RADIAL = KappaSet(kappa_y=0.023, kappa_z=0.0, kappa=0.0, kappa0=0.0)


def test_detuning_factor():
    assert detuning_factor(-0.5) == pytest.approx(1.0, rel=1e-15)
    assert detuning_factor(-0.8) == pytest.approx((1 + 4 * 0.64) / 3.2, rel=1e-12)
    # -1/2 is the optimum
    assert detuning_factor(-0.3) > 1.0
    assert detuning_factor(-1.5) > 1.0
    with pytest.raises(ValueError):
        detuning_factor(0.0)


def test_rates_frozen_radial(measured_laser, species, trap):
    rs = rates(measured_laser, SMALL_RADIAL, -0.8, species, trap)
    assert rs.cool_rate_y == pytest.approx(16.4925879, rel=1e-6)
    # the heating carries a factor 4 over the quoted coefficients
    assert rs.heat_rate_z == pytest.approx(31274.402849218954, rel=1e-12)
    assert rs.heat_rate_y == pytest.approx(30525.64388967613, rel=1e-12)
    assert not rs.capped_y


def test_rates_cap_values(measured_laser, species, trap, steady_kappas, delta_pol):
    rs = rates(measured_laser, steady_kappas, delta_pol, species, trap)
    assert rs.capped_z
    assert rs.cool_rate_z == pytest.approx(169.496077, rel=1e-6)


def test_rates_cap_preserves_fixed_point(measured_laser, species, steady_kappas, delta_pol, trap):
    # a trap too slow to follow the light caps the cooling rate; scaling
    # the heating alongside keeps the equilibrium temperature where the
    # uncapped rates would put it
    loose = trap_from_lab_units(750.0, 750.0, 110.0, 28.0, 6.0)
    stiff = trap_from_lab_units(750000.0, 750000.0, 110000.0, 28.0, 6.0)
    capped = rates(measured_laser, steady_kappas, delta_pol, species, loose)
    free = rates(measured_laser, steady_kappas, delta_pol, species, stiff)
    assert capped.capped_z and not free.capped_z
    fixed_capped = capped.heat_rate_z / capped.cool_rate_z
    fixed_free = free.heat_rate_z / free.cool_rate_z
    assert fixed_capped == pytest.approx(fixed_free, rel=1e-12)


def test_rates_linear_in_intensity(species, trap):
    weak = LaserConfig(intensity=1e-3, detuning=-0.8)
    strong = LaserConfig(intensity=2e-3, detuning=-0.8)
    r1 = rates(weak, SMALL_RADIAL, -0.8, species, trap)
    r2 = rates(strong, SMALL_RADIAL, -0.8, species, trap)
    assert r2.cool_rate_y == pytest.approx(2 * r1.cool_rate_y, rel=1e-12)
    assert r2.heat_rate_y == pytest.approx(2 * r1.heat_rate_y, rel=1e-12)


def test_rates_zero_intensity(species, trap):
    dark = LaserConfig(intensity=0.0, detuning=-0.8)
    rs = rates(dark, SMALL_RADIAL, -0.8, species, trap)
    assert rs.cool_rate_z == rs.cool_rate_y == 0.0
    assert rs.heat_rate_z == rs.heat_rate_y == 0.0
    assert not rs.capped_z and not rs.capped_y


def test_rates_reject_blue_detuning(measured_laser, species, trap):
    with pytest.raises(ValueError):
        rates(measured_laser, SMALL_RADIAL, 0.3, species, trap)


def test_steady_state_axial_floor(species):
    ss = steady_state(NO_REABSORPTION, -0.5, species)
    assert ss.T_z_inf == pytest.approx(0.7 * species.doppler_temperature, rel=1e-12)
    assert math.isinf(ss.T_y_inf)


def test_steady_state_frozen(steady_kappas, species):
    ss = steady_state(steady_kappas, -0.5, species)
    assert ss.T_z_inf == pytest.approx(8.60957531e-5, rel=1e-6)
    assert ss.T_y_inf / species.doppler_temperature == pytest.approx(
        2.27994271, rel=1e-6
    )


def test_steady_state_detuning_dependence(steady_kappas, species):
    at_half = steady_state(steady_kappas, -0.5, species)
    shifted = steady_state(steady_kappas, -0.8, species)
    factor = detuning_factor(-0.8)
    assert shifted.T_z_inf == pytest.approx(at_half.T_z_inf * factor, rel=1e-12)
    assert shifted.T_y_inf == pytest.approx(at_half.T_y_inf * factor, rel=1e-12)


def test_steady_state_monotone_in_density(steady_shape, species):
    # denser clouds rescatter more and the radial axis ends up colder
    previous = math.inf
    for n0_cm3 in (1e9, 1e10, 3e10, 1e11):
        shape = CloudShape(
            sigma_y=steady_shape.sigma_y,
            sigma_z=steady_shape.sigma_z,
            peak_density=n0_cm3 * 1e6,
        )
        t_y = steady_state(kappa_set(shape, species), -0.5, species).T_y_inf
        assert t_y < previous
        previous = t_y


def test_steady_state_with_heating_reduces(species, steady_kappas):
    plain = steady_state(steady_kappas, -0.8, species).T_y_inf
    with_zero_r = steady_state_with_heating(
        steady_kappas.kappa_y, steady_kappas.kappa, 0.0, 1.33e-3, -0.8, species
    )
    assert with_zero_r == pytest.approx(plain, rel=1e-12)


def test_steady_state_with_heating_asymptote(species):
    # at high intensity the extra heating term washes out
    limit = steady_state_with_heating(0.11, 0.24, 0.0, 1.0, -0.8, species)
    assert limit == pytest.approx(2.93610001e-4, rel=1e-5)
    high_i = steady_state_with_heating(0.11, 0.24, 2.6e-26, 1.0, -0.8, species)
    assert high_i == pytest.approx(limit, rel=1e-3)
    # and weak light loses against it
    low_i = steady_state_with_heating(0.11, 0.24, 2.6e-26, 1e-4, -0.8, species)
    assert low_i > 2 * limit


def test_steady_state_with_heating_divergences(species):
    assert math.isinf(
        steady_state_with_heating(0.11, 0.24, 2.6e-26, 0.0, -0.8, species)
    )
    assert math.isinf(
        steady_state_with_heating(0.0, 0.24, 0.0, 1e-3, -0.8, species)
    )


def test_steady_state_vs_od_reference_point(species):
    od_ref = 4.5
    direct = steady_state_with_heating(0.11, 0.24, 2.6e-26, 1.33e-3, -0.8, species)
    starred = steady_state_vs_od(
        0.11 / od_ref, 0.24 / od_ref, od_ref, 2.6e-26, 1.33e-3, -0.8, species
    )
    assert starred == pytest.approx(direct, rel=1e-12)


def test_steady_state_vs_od_monotone(species):
    ods = [1.0, 2.0, 4.5, 9.0, 20.0]
    temps = [
        steady_state_vs_od(0.11 / 4.5, 0.24 / 4.5, od, 2.6e-26, 1.33e-3, -0.8, species)
        for od in ods
    ]
    assert all(b < a for a, b in zip(temps, temps[1:]))
    assert math.isinf(
        steady_state_vs_od(0.11 / 4.5, 0.24 / 4.5, 0.0, 2.6e-26, 1.33e-3, -0.8, species)
    )


def test_steady_state_vs_od_high_od_limit(species):
    # the starred coefficients keep their ratio, so the limit is the
    # plain steady state built from them
    limit = steady_state_vs_od(
        0.11 / 4.5, 0.24 / 4.5, 1e9, 2.6e-26, 1.33e-3, -0.8, species
    )
    kappa_y_star, kappa_star = 0.11 / 4.5, 0.24 / 4.5
    explicit = (
        (kappa_y_star + 0.3 * kappa_star) / kappa_y_star
        * species.doppler_temperature / 2 * detuning_factor(-0.8)
    )
    assert limit == pytest.approx(explicit, rel=1e-6)


def test_simulate_zero_duration(hot_cloud, trap, species, measured_laser):
    trace = simulate(hot_cloud, trap, species, measured_laser, 0.0)
    assert len(trace.samples) == 1
    assert trace.samples[0].T_z == hot_cloud.T_z
    assert trace.samples[0].sigma_y == hot_cloud.sigma_y
    # an anisotropic cloud's shape is the run's first sample, bit for bit
    cloud = cloud_from_temperatures(trap, 1e8, 9e-4, 9e-4, 1e-4)
    first = simulate(cloud, trap, species, measured_laser, 0.0).samples[0]
    assert (first.sigma_y, first.sigma_z, first.peak_density) == (
        cloud.sigma_y, cloud.sigma_z, cloud.peak_density)


def test_self_consistent_shape_is_the_thermal_shape(trap, species, measured_laser):
    # every sample's shape and kappas are those of the public functions, exactly
    cloud = cloud_from_temperatures(trap, 1e8, 9e-4, 9e-4, 1e-4)
    trace = simulate(cloud, trap, species, measured_laser, 0.02, sample_stride=1)
    assert len(trace.samples) > 100
    for s in trace.samples:
        assert (s.sigma_y, s.sigma_z, s.peak_density) == thermal_shape(trap, 1e8, s.T_y, s.T_z)
        shape = CloudShape(sigma_y=s.sigma_y, sigma_z=s.sigma_z, peak_density=s.peak_density)
        assert s.kappas == kappa_set(shape, species)


@pytest.mark.parametrize("self_consistent", [False, True], ids=["frozen", "self_consistent"])
def test_trace_records_its_fixed_step(hot_cloud, trap, species, measured_laser,
                                      self_consistent):
    # at stride 1 every fixed step ends in a sample, at k steps of the
    # recorded step; a run of 0 s takes no step
    trace = simulate(hot_cloud, trap, species, measured_laser, 0.02,
                     self_consistent=self_consistent)
    assert trace.step > 0
    assert [s.t for s in trace.samples] == [k * trace.step for k in range(len(trace.samples))]
    zero = simulate(hot_cloud, trap, species, measured_laser, 0.0,
                    self_consistent=self_consistent)
    assert zero.step == 0.0


def test_simulate_rejects_bad_arguments(hot_cloud, trap, species, measured_laser):
    with pytest.raises(ValueError):
        simulate(hot_cloud, trap, species, measured_laser, -1.0)
    with pytest.raises(ValueError):
        simulate(hot_cloud, trap, species, measured_laser, 0.1, sample_stride=0)


def test_temperatures_rejects_an_unknown_axis(frozen_run):
    assert frozen_run.temperatures("y") is frozen_run.T_y
    with pytest.raises(ValueError, match="axis must be 'z' or 'y'"):
        frozen_run.temperatures("x")


def test_frozen_run_matches_closed_forms(frozen_run, hot_cloud, species, delta_pol):
    # with the shape pinned, the equations are linear and the end state
    # must sit on the closed-form fixed point
    shape = CloudShape(
        sigma_y=hot_cloud.sigma_y,
        sigma_z=hot_cloud.sigma_z,
        peak_density=hot_cloud.peak_density,
    )
    ss = steady_state(kappa_set(shape, species), delta_pol, species)
    last = frozen_run.samples[-1]
    assert last.T_z == pytest.approx(ss.T_z_inf, rel=1e-6)
    assert last.T_y == pytest.approx(ss.T_y_inf, rel=1e-6)


def test_frozen_run_follows_exact_transient(
    frozen_run, hot_cloud, trap, species, measured_laser, delta_pol
):
    shape = CloudShape(
        sigma_y=hot_cloud.sigma_y,
        sigma_z=hot_cloud.sigma_z,
        peak_density=hot_cloud.peak_density,
    )
    kappas = kappa_set(shape, species)
    rs = rates(measured_laser, kappas, delta_pol, species, trap)
    ss = steady_state(kappas, delta_pol, species)
    # each sample is the exact solution at the frozen shape, evaluated
    # at its own time, so it sits on the closed-form transient up to
    # rounding (abs=0: pytest's default absolute slack is a relative
    # 1e-9 at these temperatures)
    tau_z, tau_y = 1 / rs.cool_rate_z, 1 / rs.cool_rate_y
    for sample in frozen_run.samples:
        expected_z = ss.T_z_inf + (1e-3 - ss.T_z_inf) * math.exp(-sample.t / tau_z)
        expected_y = ss.T_y_inf + (1e-3 - ss.T_y_inf) * math.exp(-sample.t / tau_y)
        assert sample.T_z == pytest.approx(expected_z, rel=4e-15, abs=0)
        assert sample.T_y == pytest.approx(expected_y, rel=4e-15, abs=0)


@pytest.mark.parametrize("stride", [1, 7, 50, 10**6])
def test_frozen_and_self_consistent_runs_share_sample_times(
    hot_cloud, trap, species, measured_laser, delta_pol, stride
):
    # the step rule sets the sample grid in both modes; 10**6 exceeds the
    # step count, leaving only the start and the end
    frozen, tracked = (
        simulate(
            hot_cloud, trap, species, measured_laser, 0.02,
            self_consistent=mode, sample_stride=stride, delta_pol=delta_pol,
        ).t
        for mode in (False, True)
    )
    assert frozen == tracked
    assert len(frozen) == 2 if stride == 10**6 else len(frozen) > 2


def test_frozen_run_costs_one_kappa_and_two_relaxations_per_sample(
    monkeypatch, hot_cloud, trap, species, measured_laser, delta_pol
):
    # the kernel's kappa entry is the closed-form integrals
    calls = {"_closed_form_integrals": 0, "_relax": 0}

    def counting(name):
        real = getattr(dynamics, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counting(name))
    trace = simulate(
        hot_cloud, trap, species, measured_laser, 0.6,
        self_consistent=False, sample_stride=50, delta_pol=delta_pol,
    )
    emitted = len(trace.samples) - 1
    assert emitted > 100
    assert calls == {"_closed_form_integrals": 1, "_relax": 2 * emitted}


def test_zero_intensity_run_keeps_the_start_temperature(hot_cloud, trap, species, delta_pol):
    # no light, no cooling and no heating: every step leaves T exactly
    dark = LaserConfig(intensity=0.0, detuning=7.0)
    trace = simulate(
        hot_cloud, trap, species, dark, 0.05, sample_stride=25, delta_pol=delta_pol,
    )
    assert len(trace.samples) > 2
    assert all(s.T_z == hot_cloud.T_z and s.T_y == hot_cloud.T_y for s in trace.samples)


def test_self_consistent_run_ends_colder(frozen_run, self_consistent_run):
    # cooling shrinks the cloud, raising density and reabsorption, so
    # tracking the shape must end below the frozen-shape run radially
    assert self_consistent_run.samples[-1].T_y < frozen_run.samples[-1].T_y


def test_self_consistent_run_frozen_endpoint(self_consistent_run):
    last = self_consistent_run.samples[-1]
    assert last.T_z == pytest.approx(9.79714817e-5, rel=1e-6)
    assert last.T_y == pytest.approx(1.98395443e-4, rel=1e-6)
    assert last.peak_density == pytest.approx(2.05783036e17, rel=1e-6)


def test_self_consistent_run_tail_settled(self_consistent_run):
    samples = self_consistent_run.samples
    tail = samples[int(0.9 * len(samples)):]
    for axis in ("T_z", "T_y"):
        values = [getattr(s, axis) for s in tail]
        assert (max(values) - min(values)) / min(values) < 0.01


def test_traces_monotone_from_hot_start(frozen_run):
    # strictly falling until each axis reaches its fixed point, where the
    # samples flatten out to rounding noise
    t_z = [s.T_z for s in frozen_run.samples]
    t_y = [s.T_y for s in frozen_run.samples]
    assert all(b < a for a, b in zip(t_z[:20], t_z[1:20]))
    assert all(b < a for a, b in zip(t_y[:20], t_y[1:20]))
    eps = 1e-12
    assert all(b <= a * (1 + eps) for a, b in zip(t_z, t_z[1:]))
    assert all(b <= a * (1 + eps) for a, b in zip(t_y, t_y[1:]))


def test_trace_invariants_and_stride(hot_cloud, trap, species, measured_laser):
    trace = simulate(
        hot_cloud, trap, species, measured_laser, 0.02,
        self_consistent=False, sample_stride=7,
    )
    times = trace.t
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    gaps = [b - a for a, b in zip(times[1:-1], times[2:-1])]
    assert all(g == pytest.approx(gaps[0], rel=1e-9) for g in gaps)


def _sc_endpoint(cloud, trap, species, laser, delta_pol, duration, stride=1):
    last = simulate(
        cloud, trap, species, laser, duration, sample_stride=stride, delta_pol=delta_pol,
    ).samples[-1]
    return last.T_z, last.T_y


def test_self_consistent_step_is_second_order(
    monkeypatch, hot_cloud, trap, species, measured_laser, delta_pol
):
    # at stride 1 every step is one fixed step long, so refining the step
    # rule refines the scheme itself; the first-order step it replaced gave
    # ratios of 1.99-2.03
    def endpoint(refine):
        monkeypatch.setattr(dynamics, "STEPS_PER_TIME_CONSTANT", 50 * refine)
        return _sc_endpoint(hot_cloud, trap, species, measured_laser, delta_pol, 0.0064)

    reference = endpoint(128)
    errors = [
        max(abs(a - b) / b for a, b in zip(endpoint(refine), reference))
        for refine in (1, 2, 4, 8)
    ]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.5 <= ratio <= 4.5 for ratio in ratios), ratios


def test_self_consistent_step_falls_back_to_first_order_on_a_negative_coefficient():
    # a source falling fast extrapolates below 0 at every try's midpoint,
    # one step of dt included; the step halves down to it and then takes
    # the first-order step, which keeps the temperatures positive
    T_z, T_y, dt = 1e-3, 2e-3, 1e-4
    before, now = (5e-4, 20.0, 6e-4, 10.0), (1e-4, 20.0, 1e-4, 10.0)
    z, y, m = dynamics._second_order_step(T_z, T_y, before, now, 1, 4, dt)
    assert m == 1
    assert (z, y) == (dynamics._relax(T_z, 1e-4, 20.0, dt), dynamics._relax(T_y, 1e-4, 10.0, dt))
    assert z > 0 and y > 0


@pytest.mark.parametrize("duration, first_order_error", [(0.0064, 6.9e-4), (0.08, 6.2e-5)])
def test_self_consistent_endpoint_beats_the_first_order_step_at_every_stride(
    monkeypatch, hot_cloud, trap, species, measured_laser, delta_pol, duration,
    first_order_error
):
    # first_order_error: the endpoint error of the first-order step it
    # replaced, one fixed step at a time, the same at every stride
    monkeypatch.setattr(dynamics, "STEPS_PER_TIME_CONSTANT", 50 * 32)
    reference = _sc_endpoint(hot_cloud, trap, species, measured_laser, delta_pol, duration)
    monkeypatch.undo()
    for stride in (1, 2, 4, 10, 50, 10**6):
        end = _sc_endpoint(hot_cloud, trap, species, measured_laser, delta_pol, duration, stride)
        error = max(abs(a - b) / b for a, b in zip(end, reference))
        assert error <= first_order_error, stride


def test_self_consistent_run_settles_on_the_self_consistent_fixed_point(
    hot_cloud, trap, species, measured_laser, delta_pol
):
    # T* is the temperature pair whose closed-form steady state, at the
    # cloud shape T* itself sets, is T*; _relax keeps it fixed exactly
    t_z, t_y = hot_cloud.T_z, hot_cloud.T_y
    for _ in range(200):
        cloud = cloud_from_temperatures(trap, hot_cloud.atom_number, t_y, t_y, t_z)
        shape = CloudShape(sigma_y=cloud.sigma_y, sigma_z=cloud.sigma_z,
                           peak_density=cloud.peak_density)
        ss = steady_state(kappa_set(shape, species), delta_pol, species)
        if (ss.T_z_inf, ss.T_y_inf) == (t_z, t_y):
            break
        t_z, t_y = ss.T_z_inf, ss.T_y_inf
    end = _sc_endpoint(hot_cloud, trap, species, measured_laser, delta_pol, 1.0, stride=50)
    assert end == pytest.approx((t_z, t_y), rel=1e-12, abs=0)


@pytest.mark.parametrize("duration", [0.0064, 0.08])
def test_self_consistent_run_costs_at_most_one_kappa_per_fixed_step(
    monkeypatch, hot_cloud, trap, species, measured_laser, delta_pol, duration
):
    calls = [0]
    real = dynamics._closed_form_integrals  # the kernel's kappa entry

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(dynamics, "_closed_form_integrals", counting)

    def kappa_count(stride):
        calls[0] = 0
        _sc_endpoint(hot_cloud, trap, species, measured_laser, delta_pol, duration, stride)
        return calls[0]

    # at stride 1 every fixed step is a sample: n_steps + 1 samples
    every_step = len(simulate(hot_cloud, trap, species, measured_laser, duration,
                              self_consistent=False, delta_pol=delta_pol).samples)
    assert kappa_count(1) == every_step
    counts = [kappa_count(stride) for stride in (2, 4, 10, 50, 10**6)]
    assert all(count <= every_step for count in counts)
    assert counts[-1] < every_step


@pytest.mark.parametrize("self_consistent", [False, True])
def test_every_sample_carries_the_kappa_set_of_its_shape(
    hot_cloud, trap, species, measured_laser, delta_pol, self_consistent
):
    trace = simulate(
        hot_cloud, trap, species, measured_laser, 0.02, self_consistent=self_consistent,
        sample_stride=7, delta_pol=delta_pol,
    )
    for s in trace.samples:
        shape = CloudShape(sigma_y=s.sigma_y, sigma_z=s.sigma_z, peak_density=s.peak_density)
        assert s.kappas == kappa_set(shape, species)
    sigmas = [(s.sigma_z, s.sigma_y) for s in trace.samples]
    assert (len(set(sigmas)) > 1) == self_consistent


# A reference loop for simulate, built from the helpers whose arithmetic
# simulate's step kernel writes out on plain floats: thermal_shape,
# _kappas, RateModel._rate_values and _relax.  It licenses the inlining:
# the sweep below holds every column of the two runs equal.

def _reference_second_order_step(T_z, T_y, before, now, last, span, dt, events):
    relax = dynamics._relax
    S_z, C_z, S_y, C_y = now
    dS_z, dC_z, dS_y, dC_y = S_z - before[0], C_z - before[1], S_y - before[2], C_y - before[3]
    m = span
    while True:
        w = 0.5 * m / last
        mid = S_z + w * dS_z, C_z + w * dC_z, S_y + w * dS_y, C_y + w * dC_y
        h = m * dt
        if min(mid) >= 0.0:
            z, y = relax(T_z, mid[0], mid[1], h), relax(T_y, mid[2], mid[3], h)
            if m == 1 or (abs(z - relax(T_z, S_z, C_z, h)) <= dynamics.TOL * z
                          and abs(y - relax(T_y, S_y, C_y, h)) <= dynamics.TOL * y):
                events["halved"] += m < span
                return z, y, m
        elif m == 1:
            events["first_order"] += 1
            events["halved"] += m < span
            return relax(T_z, S_z, C_z, h), relax(T_y, S_y, C_y, h), 1
        m //= 2


def _reference_simulate(initial, trap, species, laser, duration, self_consistent=True,
                        sample_stride=1, delta_pol=None, events=None):
    """(samples, step) of the reference loop; events counts the rate
    evaluations, the capped axes, the halved steps and the first-order
    fallbacks it took."""
    events = collections.Counter() if events is None else events
    if delta_pol is None:
        delta_pol = effective_detuning(laser.detuning, trap.offset_field, species,
                                       species.m_j, +1)
    model = dynamics.RateModel(delta_pol, species, trap)
    intensity = laser.effective_intensity
    relax = dynamics._relax

    def shape(T_z, T_y):
        sigma_y, sigma_z, n0 = thermal_shape(trap, initial.atom_number, T_y, T_z)
        return sigma_z, sigma_y, n0, _kappas(sigma_y, sigma_z, n0,
                                             species.resonant_cross_section)

    def coefficients(kappas):
        cool_z, cool_y, heat_z, heat_y, capped_z, capped_y = model._rate_values(kappas,
                                                                                intensity)
        events["rates"] += 1
        events["capped_z"] += capped_z
        events["capped_y"] += capped_y
        return model.heat_scale * heat_z, cool_z, model.heat_scale * heat_y, cool_y

    T_z, T_y = initial.T_z, initial.T_y
    sigma_z, sigma_y, n0, kappas = shape(T_z, T_y)
    samples = [TraceSample(0.0, T_z, T_y, sigma_z, sigma_y, n0, kappas)]
    if duration == 0:
        return samples, 0.0
    now = S_z, C_z, S_y, C_y = coefficients(kappas)
    n_steps = max(1, math.ceil(duration / dynamics.step_size(max(C_z, C_y))))
    dt = duration / n_steps
    if not self_consistent:
        for k in [*range(sample_stride, n_steps, sample_stride), n_steps]:
            t = k * dt
            T_t = relax(T_z, S_z, C_z, t), relax(T_y, S_y, C_y, t)
            samples.append(TraceSample(t, *T_t, sigma_z, sigma_y, n0, kappas))
        return samples, dt
    T_z, T_y = relax(T_z, S_z, C_z, dt), relax(T_y, S_y, C_y, dt)
    k = last = 1
    while True:
        sigma_z, sigma_y, n0, kappas = shape(T_z, T_y)
        if k % sample_stride == 0 or k == n_steps:
            samples.append(TraceSample(k * dt, T_z, T_y, sigma_z, sigma_y, n0, kappas))
        if k == n_steps:
            return samples, dt
        before, now = now, coefficients(kappas)
        span = min(k - k % sample_stride + sample_stride, n_steps, k + 2 * last) - k
        T_z, T_y, last = _reference_second_order_step(T_z, T_y, before, now, last, span, dt,
                                                      events)
        k += last


def test_the_kernel_matches_the_reference_loop_on_every_column(monkeypatch, species):
    # a seeded sweep over traps, aspect ratios 0.1-10, atom numbers,
    # intensities (zero among them), detunings, strides 1-50, durations
    # (0 among them) and step rules, coarse ones included, where an
    # extrapolated coefficient turns negative; both modes
    rng = random.Random(2028)
    events, aspects, strides = collections.Counter(), [], set()
    for i in range(240):
        curvature_y = 10 ** rng.uniform(1, 4)
        curvature_z = curvature_y * 10 ** rng.uniform(-1.5, 0.5)
        trap = trap_from_lab_units(curvature_y, curvature_y, curvature_z, 28.0, 6.0)
        aspect = 10 ** rng.uniform(-1, 1)  # sigma_z / sigma_y
        T_y = 10 ** rng.uniform(-6, -2)
        cloud = cloud_from_temperatures(trap, 10 ** rng.uniform(6, 10), T_y, T_y,
                                        T_y * aspect ** 2 * curvature_z / curvature_y)
        laser = LaserConfig(intensity=0.0 if i % 10 == 0 else 10 ** rng.uniform(-4, 0),
                            detuning=-(10 ** rng.uniform(-1, 0.5)))
        duration = 0.0 if i % 40 == 1 else 10 ** rng.uniform(-3, -0.5)
        stride, self_consistent = rng.randint(1, 50), i % 4 != 3
        monkeypatch.setattr(dynamics, "STEPS_PER_TIME_CONSTANT", rng.choice((50, 50, 4, 1)))
        run = (cloud, trap, species, laser, duration, self_consistent, stride, laser.detuning)
        try:
            samples, step = _reference_simulate(*run, events=events)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                simulate(*run)
            assert str(excinfo.value) == str(exc)
            events["refused"] += 1
            continue
        trace = simulate(*run)
        t, T_z, T_y, shapes = zip(*((s.t, s.T_z, s.T_y, (*s[3:6], *s.kappas)) for s in samples))
        assert (trace.t, trace.T_z, trace.T_y, trace.step) == (t, T_z, T_y, step)
        assert trace.shapes == (shapes if self_consistent else shapes[:1])
        assert list(trace.samples) == samples
        aspects.append(cloud.sigma_z / cloud.sigma_y)
        strides.add(stride)
        events["dark"] += laser.intensity == 0.0
    # the sweep reaches every path the kernel writes out inline
    assert events["refused"] < 10
    assert min(aspects) < 0.15 and max(aspects) > 7 and min(strides) == 1 and max(strides) == 50
    assert 0 < events["capped_z"] < events["rates"] and 0 < events["capped_y"] < events["rates"]
    assert events["dark"] and events["halved"] and events["first_order"], events


@pytest.mark.parametrize("self_consistent", [False, True])
def test_a_cloud_too_cold_to_have_a_volume_is_refused_with_the_reference_message(
    trap, species, measured_laser, self_consistent
):
    cold = CloudState(1e8, 1e-250, 1e-250, 1e-4, 1e-4, 1e16)
    run = (cold, trap, species, measured_laser, 0.01, self_consistent)
    with pytest.raises(ValueError) as former:
        _reference_simulate(*run)
    with pytest.raises(ValueError) as excinfo:
        simulate(*run)
    assert str(excinfo.value) == str(former.value) == (
        "temperatures too small: the cloud's volume underflows to 0")


@pytest.mark.parametrize("stride", [10, 1])
def test_the_reference_run_halves_steps_only_between_samples(
    monkeypatch, hot_cloud, trap, species, measured_laser, delta_pol, stride
):
    # the step-halving loop does work: at stride 10 the paper's 0.6 s run
    # accepts 173 of its 684 steps shorter than their span; at stride 1
    # every span is one fixed step, so none of its 5 084 steps is
    real, spans = dynamics._second_order_step, []

    def counting(T_z, T_y, before, now, last, span, dt):
        z, y, m = real(T_z, T_y, before, now, last, span, dt)
        spans.append((m, span))
        return z, y, m

    monkeypatch.setattr(dynamics, "_second_order_step", counting)
    simulate(hot_cloud, trap, species, measured_laser, 0.6, sample_stride=stride,
             delta_pol=delta_pol)
    shorter = sum(m < span for m, span in spans)
    if stride == 1:
        assert (shorter, len(spans)) == (0, 5084)
    else:
        assert shorter > 0 and len(spans) > 500


def test_samples_is_a_read_only_view_of_the_columns(self_consistent_run, frozen_run):
    for trace in (self_consistent_run, frozen_run):
        samples = trace.samples
        assert len(samples) == len(trace.t) and samples[-1] == samples[len(samples) - 1]
        assert tuple(s.t for s in samples) == trace.t
        assert samples[1:3] == (samples[1], samples[2])
        first = samples[0]
        assert isinstance(first, TraceSample) and first.kappas == KappaSet(*trace.shapes[0][3:])
        with pytest.raises(TypeError):
            samples[0] = first
        with pytest.raises(IndexError):
            samples[len(samples)]
    # a frozen run holds its one shape once
    assert len(frozen_run.shapes) == 1
    assert len(self_consistent_run.shapes) == len(self_consistent_run.t)
