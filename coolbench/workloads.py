"""The benchmark's workloads: seeded CLI operations and the checks of their output.

An operation is one `doppler_reabs.cli.main([...])` call on a config file
(and, for fits, a data file) that the benchmark writes.  `Op.prepare(k)`
writes the inputs of repetition k and returns the argv plus a checker for
the output.  Repetition k scales one physical input by 1 + k*1e-9, so no
two repetitions hand the program byte-identical inputs; the checker
evaluates the oracle at those same perturbed inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle as o

WORKLOADS = ("cooling_sc", "cooling_frozen", "scan_fit")
PERTURBATION = 1e-9
# The integrator of this commit picks its step from the initial rates
# (a fiftieth of the fastest relaxation time, at most 0.2 ms).  Durations
# are set to a whole number of such steps, so the work of an operation
# does not change with the seed.
STEPS_PER_TIME_CONSTANT = 50
MAX_STEP = 2e-4
REL = 1e-9
FIT_EXACT_REL = 1e-6
# Noisy and synthetic fits against the oracle's weighted least squares on
# the same points: the Gauss-Newton step from the reported parameters, in
# standard errors, and the reported standard errors.
FIT_STEP_SE = 1e-4
FIT_SE_REL = 1e-4
# Endpoint of a short self-consistent trace against the oracle's
# stage-consistent RK4 at a quarter of the step.  The program keeps kappa
# fixed over the four stages of a step, which makes it first order in the
# shape coupling: after 32 steps errors reach 1.8e-3 on this design and
# 5.9e-3 on clouds drawn over the whole regime.  This bound is a sanity
# check on the integrator, not a statement of its accuracy.
SHORT_SC_ENDPOINT_REL = 2e-2
# Endpoint of the 0.6 s reference run against reference.json.  By 0.6 s
# both axes have relaxed onto the self-consistent fixed point, so any
# converging integrator lands within the reference's own error (4e-11).
REFERENCE_ENDPOINT_REL = 1e-8
# Fitted (T0, tau, T_inf) against the oracle.  A frozen shape relaxes
# exactly exponentially.  A self-consistent fit spans less than one axial
# time constant of a shrinking cloud, so it is held to the rates at t = 0.
FROZEN_FIT_REL = (1e-8, 1e-6, 1e-6)
SC_FIT_REL = (1e-3, 0.1, 0.1)
# A frozen trace against exact exponential relaxation, before the CSV's
# rounding: the program prints 12 significant digits, so each value is off
# by up to half a unit in the 12th digit.
EXPONENTIAL_REL = 1e-6
CSV_ROUNDING = 5e-12

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, rel, what):
    err = o.rel_err(actual, expected)
    worst = float(np.max(err)) if np.size(err) else 0.0
    require(np.all(np.isfinite(err)) and worst <= rel,
            f"{what}: rel error {worst:.3g} > {rel:g}")


@dataclass
class Op:
    name: str
    # prepare(k) -> (argv, check(rc, output_text, stderr_text)); check raises CheckFailed
    prepare: Callable[[int], tuple[list[str], Callable[..., None]]]


# ---------------------------------------------------------------- inputs


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def config_text(laser: dict, cloud: dict | None, scenario: dict) -> str:
    lines = ["[species]", "preset = Cr52", "", "[trap]", "preset = stuttgart_cloverleaf", "", "[laser]"]
    lines += [f"{k} = {fmt(v)}" for k, v in laser.items()]
    if cloud:
        lines += ["", "[cloud]"] + [f"{k} = {fmt(v)}" for k, v in cloud.items()]
    lines += ["", "[scenario]"] + [f"{k} = {fmt(v)}" for k, v in scenario.items()]
    return "\n".join(lines) + "\n"


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def factor(k: int) -> float:
    return 1.0 + k * PERTURBATION


def parse_csv(text: str):
    """(columns, rows as lists of strings) of a CSV with # comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(lines, "empty output")
    columns = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    require(all(len(r) == len(columns) for r in rows), "ragged CSV")
    return columns, rows


def numeric(cell: str) -> float:
    return math.inf if cell == "divergent" else float(cell)


def table(text: str, expected_columns) -> np.ndarray:
    columns, rows = parse_csv(text)
    require(tuple(columns) == tuple(expected_columns), f"columns {columns}")
    require(rows, "no rows")
    return np.array([[numeric(c) for c in r] for r in rows], dtype=float)


def fit_table(text: str) -> dict[str, tuple[str, str]]:
    columns, rows = parse_csv(text)
    require(columns == ["parameter", "value", "standard_error"], f"columns {columns}")
    return {r[0]: (r[1], r[2]) for r in rows}


def expect_ok(rc, err):
    require(rc == 0, f"exit code {rc}: {err.strip()[:200]}")


# ------------------------------------------------------ cooling workloads

TRACE_COLUMNS = ("t_s", "T_z_K", "T_y_K", "sigma_z_m", "sigma_y_m", "n0_per_m3",
                 "kappa_y", "kappa_z", "kappa", "psd")


@dataclass(frozen=True)
class Cloud:
    atom_number: float
    T_y: float        # [K]
    T_z: float
    intensity: float  # at the atoms [Isat]
    attenuation: float = 3.0
    detuning: float = 7.0

    @property
    def delta(self) -> float:
        return o.delta_pol(self.detuning)

    @property
    def laser_intensity(self) -> float:
        return self.intensity * self.attenuation

    @property
    def at_atoms(self) -> float:
        # the program divides the configured intensity by the attenuation
        return self.laser_intensity / self.attenuation

    def initial_rates(self, atom_number: float):
        sy, sz, n0 = o.cloud(atom_number, self.T_y, self.T_z)
        ky, kz, k = (v[0] for v in o.kappas(sy, sz, n0))
        return o.rates(self.at_atoms, ky, kz, k, self.delta), (ky, kz, k)

    def step(self) -> float:
        (cz, cy, _, _), _ = self.initial_rates(self.atom_number)
        return min(1.0 / (STEPS_PER_TIME_CONSTANT * max(cz, cy)), MAX_STEP)

    def config(self, atom_number, duration_ms, stride, self_consistent, fit=False) -> str:
        scenario = {"kind": "dynamics", "duration_ms": duration_ms,
                    "sample_stride": stride, "self_consistent": self_consistent}
        if fit:
            scenario["fit_axis"] = "z"
        return config_text(
            {"intensity_Isat": self.laser_intensity, "detuning_Gamma": self.detuning,
             "attenuation_factor": self.attenuation},
            {"atom_number": atom_number, "temperature_y_uK": self.T_y * 1e6,
             "temperature_z_uK": self.T_z * 1e6},
            scenario,
        )


def check_trace(data: np.ndarray, cloud: Cloud, atom_number: float, duration: float,
                self_consistent: bool):
    """Shape, kappa and psd of every sample; start and end times."""
    t, T_z, T_y, s_z, s_y, n0, ky, kz, k, psd = data.T
    require(t[0] == 0.0 and np.all(np.diff(t) > 0), "sample times not increasing from 0")
    require_close(t[-1], duration, REL, "last sample time")
    require_close([T_z[0], T_y[0]], [cloud.T_z, cloud.T_y], REL, "initial temperatures")
    require(np.all(T_z > 0) and np.all(T_y > 0), "non-positive temperature")
    if self_consistent:
        exp_sy, exp_sz, exp_n0 = o.cloud(atom_number, T_y, T_z)
    else:
        sy0, sz0, n00 = o.cloud(atom_number, cloud.T_y, cloud.T_z)
        exp_sy, exp_sz, exp_n0 = (np.full_like(t, v) for v in (sy0, sz0, n00))
    require_close(s_y, exp_sy, REL, "sigma_y")
    require_close(s_z, exp_sz, REL, "sigma_z")
    require_close(n0, exp_n0, REL, "n0")
    oky, okz, ok = o.kappas(s_y, s_z, n0)
    require_close(ky, oky, REL, "kappa_y")
    require_close(kz, okz, REL, "kappa_z")
    require_close(k, ok, REL, "kappa")
    require_close(psd, o.psd(n0, T_y, T_z), REL, "psd")


def require_within(actual, expected, tolerance, what):
    """|actual - expected| <= tolerance elementwise; an infinite tolerance admits anything."""
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(np.asarray(actual, dtype=float) - expected)
        ok = (tolerance == math.inf) | (err <= tolerance)
        worst = float(np.max(np.where(ok, 0.0, err / tolerance)))
    require(np.all(ok), f"{what}: off by {worst:.3g} times the tolerance")


def check_exponential(t, T, rate, limit, what):
    """Equally spaced samples of T_inf + (T0 - T_inf) q^j with q = exp(-rate dt).

    Each tolerance is EXPONENTIAL_REL plus the effect of the CSV's rounding
    (CSV_ROUNDING of each value), carried through the differences: near the
    steady state successive differences shrink towards that rounding, and
    where they reach it their ratio is not determined and admits anything.
    """
    require(np.allclose(np.diff(t), t[1] - t[0], rtol=1e-9, atol=0), f"{what}: uneven samples")
    rounding = CSV_ROUNDING * np.abs(T)
    d = np.diff(T)
    d_err = rounding[1:] + rounding[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # error of d[j+1] / d[j] against the exact ratio q, which lies in (0, 1)
        q_err = np.where(d[:-1] != 0.0, (d_err[1:] + d_err[:-1]) / np.abs(d[:-1]), math.inf)
        q = np.where(d[:-1] != 0.0, d[1:] / d[:-1], 0.0)
    q0, q0_err = q[0], q_err[0]
    require_within(q, q0, EXPONENTIAL_REL * abs(q0) + q_err + q0_err,
                   f"{what}: ratio of successive differences")
    expected_q = math.exp(-rate * (t[1] - t[0]))
    require_within(q0, expected_q, EXPONENTIAL_REL * expected_q + q0_err, f"{what}: decay per sample")
    # T_inf = T[j] + d[j] / (1 - q), at the oracle's q, which the ratios
    # have just matched wherever the rounding lets them
    slack = 1.0 - expected_q
    limits = T[:-1] + d / slack
    limits_err = rounding[:-1] + (d_err + EXPONENTIAL_REL * expected_q * np.abs(d) / slack) / slack
    require_within(limits, limit, EXPONENTIAL_REL * abs(limit) + limits_err, f"{what}: limit")


# The clouds sit on a 2^4 design over the paper's regime: atom number,
# radial and axial temperature (the 1-2 mK start down to near the radial
# steady state) and intensity at the atoms.  The seed moves each cloud by
# up to 10 % (log scale) around its design point.  The cost of a kappa
# evaluation changes in steps with the aspect ratio, so a fixed design
# keeps the work of a workload nearly the same from seed to seed.
COOLING_DESIGN = {
    "atom_number": (3.5e7, 2.5e8),
    "T_y": (170e-6, 1.7e-3),
    "T_z": (170e-6, 1.7e-3),
    "intensity": (1.2e-3, 8e-3),
}
DESIGN_JITTER = 1.1


def cooling_clouds(seed: int, workload: str) -> list[Cloud]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    clouds = []
    for point in itertools.product(*COOLING_DESIGN.values()):
        jitter = DESIGN_JITTER ** rng.uniform(-1.0, 1.0, len(point))
        clouds.append(Cloud(**{k: float(v * j) for k, v, j in zip(COOLING_DESIGN, point, jitter)}))
    return clouds


def cooling_op(name, workdir, cloud: Cloud, steps, stride, self_consistent, verb) -> Op:
    h = cloud.step()
    duration = (steps - 0.5) * h
    cfg = os.path.join(workdir, f"{name}.ini")
    out = os.path.join(workdir, f"{name}.csv")
    cache = {}

    def reference_endpoint():
        if "end" not in cache:
            ref = o.integrate_reference(cloud.atom_number, cloud.T_z, cloud.T_y, cloud.at_atoms,
                                        cloud.delta, duration, 4 * steps, 2)
            cache["end"] = ref[-1][1:]
        return cache["end"]

    def prepare(k):
        n = cloud.atom_number * factor(k)
        write(cfg, cloud.config(n, duration * 1e3, stride, self_consistent, fit=verb == "fit"))

        def check(rc, text, err):
            expect_ok(rc, err)
            (cz, cy, hz, hy), (ky, kz, kk) = cloud.initial_rates(n)
            a = o.SLOPE_PER_HEAT
            if verb == "simulate":
                data = table(text, TRACE_COLUMNS)
                check_trace(data, cloud, n, duration, self_consistent)
                if self_consistent:
                    require_close(data[-1, 1:3], reference_endpoint(), SHORT_SC_ENDPOINT_REL,
                                  "endpoint against the stage-consistent oracle")
                else:
                    check_exponential(data[:, 0], data[:, 1], cz, a * hz / cz, "T_z")
                    check_exponential(data[:, 0], data[:, 2], cy, a * hy / cy, "T_y")
                    oz, oy = o.steady_state(ky, kz, kk, cloud.delta)
                    require_close([a * hz / cz, a * hy / cy], [oz, oy], 1e-12,
                                  "fixed point against the closed-form steady state")
                return
            fit = fit_table(text)
            require(fit["converged"][0] == "true", "fit did not converge")
            rels = SC_FIT_REL if self_consistent else FROZEN_FIT_REL
            for name, expected, rel in zip(("T0", "tau", "T_inf"),
                                           (cloud.T_z, 1.0 / cz, a * hz / cz), rels):
                require_close(float(fit[name][0]), expected, rel, f"fitted {name}")

        return [verb, "--config", cfg, "--out", out], check

    return Op(name, prepare)


def cooling_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    self_consistent = workload == "cooling_sc"
    steps = 32 if self_consistent else 256
    ops = []
    for i, cloud in enumerate(cooling_clouds(seed, workload)):
        verb = "fit" if i % 4 == 3 else "simulate"
        stride = steps // 16 if verb == "fit" else steps // 8
        ops.append(cooling_op(f"{verb}_{i}", workdir, cloud, steps, stride, self_consistent, verb))
    return ops


REFERENCE_CLOUD = Cloud(atom_number=1e8, T_y=1e-3, T_z=1e-3, intensity=4e-3 / 3.0)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def reference_ops(workdir: str) -> list[Op]:
    """The paper's 0.6 s run, self-consistent and frozen, checked together."""
    reference = load_reference()
    cloud = REFERENCE_CLOUD
    state = {}

    def op(self_consistent):
        name = "reference_sc" if self_consistent else "reference_frozen"
        cfg = os.path.join(workdir, f"{name}.ini")
        out = os.path.join(workdir, f"{name}.csv")

        def prepare(k):
            text = config_text(
                {"intensity_Isat": 4e-3, "detuning_Gamma": 7.0, "attenuation_factor": 3.0},
                {"atom_number": 1e8, "temperature_uK": 1000.0},
                {"kind": "dynamics", "duration_ms": 600.0, "sample_stride": 50,
                 "self_consistent": self_consistent},
            )
            write(cfg, text)

            def check(rc, text, err):
                expect_ok(rc, err)
                data = table(text, TRACE_COLUMNS)
                check_trace(data, cloud, 1e8, 0.6, self_consistent)
                state[self_consistent] = data[-1]
                if not self_consistent:
                    return
                _, T_z, T_y = reference["samples"][-1]
                require_close(data[-1, 1:3], [T_z, T_y], REFERENCE_ENDPOINT_REL,
                              "endpoint against the fine-step reference")
                gain = data[-1, 9] / data[0, 9]
                require(30.0 <= gain <= 300.0, f"phase-space-density gain {gain:.4g}")
                require(False in state, "frozen reference run missing")
                require(data[-1, 2] < state[False][2], "self-consistent run not colder radially")

            return ["simulate", "--config", cfg, "--out", out], check

        return Op(name, prepare)

    return [op(False), op(True)]


# ------------------------------------------------------------- scan_fit


def scan_fit_ops(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index("scan_fit")])
    delta_laser = 7.0
    delta = o.delta_pol(delta_laser)
    laser = {"intensity_Isat": 4e-3, "detuning_Gamma": delta_laser, "attenuation_factor": 3.0}
    at_atoms = laser["intensity_Isat"] / laser["attenuation_factor"]
    ky = float(rng.uniform(0.06, 0.2))
    kk = float(ky * rng.uniform(2.0, 2.6))
    kz = float(ky * rng.uniform(0.3, 0.6))
    heating = float(rng.uniform(1.5e-26, 4e-26))
    od_ref = float(rng.uniform(3.0, 6.0))
    noise = float(rng.uniform(0.02, 0.05))
    fit_seed = int(rng.integers(0, 2**31))
    intensities = np.geomspace(1e-3, 1e-2, 10) * np.exp(rng.uniform(-0.05, 0.05, 10))
    ods = np.geomspace(1.0, 20.0, 10) * np.exp(rng.uniform(-0.05, 0.05, 10))
    normals = rng.standard_normal((2, 10))
    n_atoms = float(10 ** rng.uniform(7.5, 8.5))
    n0_ref = float(10 ** rng.uniform(16.3, 17.0))  # [1/m^3]
    ops = []

    def path(name, ext):
        return os.path.join(workdir, f"{name}.{ext}")

    def add(name, verb, make_config, check, data=None, extra=()):
        cfg, out = path(name, "ini"), path(name, "csv")

        def prepare(k):
            f = factor(k)
            write(cfg, make_config(f))
            if data is not None:
                write(path(name, "data.csv"), data(f))
            return [verb, "--config", cfg, "--out", out, *extra], lambda rc, text, err: check(f, rc, text, err)

        ops.append(Op(name, prepare))

    def points_csv(xs, ys, errs=None):
        head = "x,y" if errs is None else "x,y,y_err"
        columns = (xs, ys) if errs is None else (xs, ys, errs)
        rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        return "\n".join([head, *rows]) + "\n"

    # --- intensity-scan fits: kappa_y and the heating power
    def intensity_truth(f):
        return o.steady_state_with_heating(ky * f, kk, heating, intensities, delta)

    def intensity_config(f, data_name=None, synthetic=False):
        scen = {"kind": "intensity_scan", "kappa_y": ky * f, "kappa": kk,
                "heating_power_J_per_s": heating, "grid_min": 1e-3, "grid_max": 1e-2,
                "grid_count": 10, "grid_scale": "log"}
        if data_name:
            scen["data"] = path(data_name, "data.csv")
        if synthetic:
            scen["noise_fraction"] = noise
        return config_text(laser, None, scen)

    def check_exact(names, truth):
        def check(f, rc, text, err):
            expect_ok(rc, err)
            fit = fit_table(text)
            require(fit["converged"][0] == "true", "fit did not converge")
            for name, value in zip(names, truth(f)):
                require_close(float(fit[name][0]), value, FIT_EXACT_REL, f"noise-free {name}")
        return check

    def check_optimal(names, model, points):
        """The fit is the weighted least-squares optimum of the oracle's model on points(f)."""
        def check(f, rc, text, err):
            expect_ok(rc, err)
            fit = fit_table(text)
            require(fit["converged"][0] == "true", "fit did not converge")
            values = np.array([float(fit[name][0]) for name in names])
            errors = np.array([float(fit[name][1]) for name in names])
            step, oracle_errors = o.weighted_fit_step(model, values, *points(f))
            require_within(step, 0.0, FIT_STEP_SE * oracle_errors, "Gauss-Newton step from the fit")
            require_close(errors, oracle_errors, FIT_SE_REL, "standard errors")
        return check

    def synthetic_points(x, y_true):
        """The program's synthetic data: one normal draw of its --seed per finite point, in order."""
        x, y_true = x[np.isfinite(y_true)], y_true[np.isfinite(y_true)]
        draws = np.random.default_rng(fit_seed).standard_normal(len(x))
        return x, y_true * (1.0 + noise * draws), noise * y_true

    def intensity_model(x, p):
        return o.steady_state_with_heating(p[0], kk, p[1], x, delta)

    intensity_grid_values = np.geomspace(1e-3, 1e-2, 10)
    noisy_int = 1.0 + noise * normals[0]

    def noisy_intensity_points(f):
        return intensities, intensity_truth(f) * noisy_int, noise * intensity_truth(f)

    add("fit_intensity_exact", "fit", lambda f: intensity_config(f, "fit_intensity_exact"),
        check_exact(("kappa_y", "heating_power"), lambda f: (ky * f, heating)),
        data=lambda f: points_csv(intensities, intensity_truth(f)))
    add("fit_intensity_noisy", "fit", lambda f: intensity_config(f, "fit_intensity_noisy"),
        check_optimal(("kappa_y", "heating_power"), intensity_model, noisy_intensity_points),
        data=lambda f: points_csv(*noisy_intensity_points(f)))
    add("fit_intensity_synthetic", "fit", lambda f: intensity_config(f, synthetic=True),
        check_optimal(("kappa_y", "heating_power"), intensity_model,
                      lambda f: synthetic_points(intensity_grid_values, o.steady_state_with_heating(
                          ky * f, kk, heating, intensity_grid_values, delta))),
        extra=("--seed", str(fit_seed)))

    # --- optical-density fits: kappa_y per unit OD
    od_grid = {"grid_min": 1.0, "grid_max": 20.0, "grid_count": 10, "grid_scale": "log"}

    def od_config(f, data_name=None, synthetic=False, od_ref_value=od_ref, grid=od_grid):
        scen = {"kind": "od_scan", "od_ref": od_ref_value,
                "kappa_y_at_ref": ky * od_ref * f, "kappa_at_ref": kk * od_ref,
                "heating_power_J_per_s": heating, **grid}
        if data_name:
            scen["data"] = path(data_name, "data.csv")
        if synthetic:
            scen["noise_fraction"] = noise
        return config_text(laser, None, scen)

    def od_truth(f, x=ods):
        return o.steady_state_vs_od(ky * f, kk, x, heating, at_atoms, delta)

    def od_model(x, p):
        return o.steady_state_vs_od(p[0], kk, x, heating, at_atoms, delta)

    od_grid_values = np.geomspace(1.0, 20.0, 10)
    noisy_od = 1.0 + noise * normals[1]

    def noisy_od_points(f):
        return ods, od_truth(f) * noisy_od, noise * od_truth(f)

    add("fit_od_exact", "fit", lambda f: od_config(f, "fit_od_exact"),
        check_exact(("kappa_y_star",), lambda f: (ky * f,)),
        data=lambda f: points_csv(ods, od_truth(f)))
    add("fit_od_noisy", "fit", lambda f: od_config(f, "fit_od_noisy"),
        check_optimal(("kappa_y_star",), od_model, noisy_od_points),
        data=lambda f: points_csv(*noisy_od_points(f)))
    add("fit_od_synthetic", "fit", lambda f: od_config(f, synthetic=True),
        check_optimal(("kappa_y_star",), od_model,
                      lambda f: synthetic_points(od_grid_values, od_truth(f, od_grid_values))),
        extra=("--seed", str(fit_seed)))

    # --- scans against the closed forms; linear grids from 0, so the first
    # point is non-finite
    def linear_grid(hi):
        return {"grid_min": 0.0, "grid_max": hi, "grid_count": 24}

    def check_grid(data, hi):
        require(len(data) == 24, f"{len(data)} grid points")
        require(data[0, 0] == 0.0, "grid start")
        require_close(data[-1, 0], hi, REL, "grid end")

    def check_divergent(cells, expected):
        require(np.array_equal(np.isinf(cells), ~np.isfinite(expected)), "divergent cells")

    def check_intensity_scan(f, rc, text, err):
        expect_ok(rc, err)
        data = table(text, ("intensity_Isat", "T_y_inf_K", "cool_rate_y_per_s"))
        check_grid(data, 1.2e-2)
        x = data[:, 0]
        expected = o.steady_state_with_heating(ky * f, kk, heating, x, delta)
        check_divergent(data[:, 1], expected)
        require_close(data[:, 1], expected, REL, "T_y_inf")
        _, cool_y, _, _ = o.rates(x[1:], ky * f, kz, kk, delta)
        require_close(data[1:, 2], cool_y, REL, "cool_rate_y")
        require(data[0, 2] == 0.0, "cool_rate_y at zero intensity")

    add("scan_intensity", "scan",
        lambda f: config_text(laser, None, {
            "kind": "intensity_scan", "kappa_y": ky * f, "kappa_z": kz, "kappa": kk,
            "heating_power_J_per_s": heating, **linear_grid(1.2e-2)}),
        check_intensity_scan)

    def check_od_scan(f, rc, text, err):
        expect_ok(rc, err)
        data = table(text, ("od_y", "T_y_inf_K"))
        check_grid(data, 24.0)
        expected = od_truth(f, data[:, 0])
        check_divergent(data[:, 1], expected)
        require_close(data[:, 1], expected, REL, "T_y_inf")

    add("scan_od", "scan", lambda f: od_config(f, grid=linear_grid(24.0)), check_od_scan)

    # --- aspect-ratio scans: kappa on independent shapes
    aspect_grid = {"grid_min": 0.1, "grid_max": 10.0, "grid_count": 25, "grid_scale": "log"}

    def aspect_config(f, mode, grid=aspect_grid):
        return config_text(laser, {"atom_number": n_atoms * f, "peak_density_per_cm3": n0_ref * 1e-6},
                           {"kind": "aspect_scan", "aspect_mode": mode, **grid})

    def check_aspect(mode):
        def check(f, rc, text, err):
            expect_ok(rc, err)
            data = table(text, ("alpha", "T_z_inf_K", "T_y_inf_K"))
            require(len(data) == 25, "grid size")
            sy, sz, n0 = o.aspect_shape(data[:, 0], n_atoms * f, n0_ref, mode)
            t_z, t_y = o.steady_state(*o.kappas(sy, sz, n0), delta)
            require_close(data[:, 1], t_z, REL, "T_z_inf")
            require_close(data[:, 2], t_y, REL, "T_y_inf")
            if mode == "fixed_n0":
                coldest = data[int(np.argmin(data[:, 2])), 0]
                require(0.5 <= coldest <= 2.0, f"coldest radial aspect ratio {coldest:.3g}")
                spread = (data[:, 1].max() - data[:, 1].min()) / data[:, 1].min()
                require(spread < 0.10, f"axial spread {spread:.3g}")
        return check

    for mode in ("fixed_n0", "fixed_N"):
        add(f"scan_aspect_{mode}", "scan", lambda f, m=mode: aspect_config(f, m), check_aspect(mode))

    # --- closed-form steady state for one cloud, given by temperature or by shape
    T_ss = float(rng.uniform(150e-6, 400e-6))
    sigma_pair = (float(rng.uniform(300e-6, 500e-6)), float(rng.uniform(500e-6, 900e-6)))

    def check_steady(shape_of):
        def check(f, rc, text, err):
            expect_ok(rc, err)
            row = table(text, ("sigma_z_m", "sigma_y_m", "n0_per_m3", "kappa_y", "kappa_z",
                               "kappa", "T_z_inf_K", "T_y_inf_K", "od_y",
                               "cool_rate_z_per_s", "cool_rate_y_per_s"))
            require(len(row) == 1, "one row")
            sy, sz, n0 = shape_of(f)
            oy, oz, ok = (v[0] for v in o.kappas(sy, sz, n0))
            t_z, t_y = o.steady_state(oy, oz, ok, delta)
            cz, cy, _, _ = o.rates(at_atoms, oy, oz, ok, delta)
            expected = [sz, sy, n0, oy, oz, ok, t_z, t_y, o.optical_density_y(sy, n0), cz, cy]
            require_close(row[0], np.array(expected, dtype=float), REL, "steady-state row")
        return check

    add("steady_from_temperature", "simulate",
        lambda f: config_text(laser, {"atom_number": n_atoms * f, "temperature_uK": T_ss * 1e6},
                              {"kind": "steady_state"}),
        check_steady(lambda f: o.cloud(n_atoms * f, T_ss, T_ss)))
    add("steady_from_shape", "simulate",
        lambda f: config_text(laser, {"sigma_y_um": sigma_pair[0] * 1e6 * f,
                                      "sigma_z_um": sigma_pair[1] * 1e6,
                                      "peak_density_per_cm3": n0_ref * 1e-6},
                              {"kind": "steady_state"}),
        check_steady(lambda f: (sigma_pair[0] * f, sigma_pair[1], n0_ref)))

    # --- malformed configs: exit 1 with an error line, never an exception
    def check_rejected(f, rc, text, err):
        require(rc == 1, f"exit code {rc}")
        require("error:" in err, "no error line")

    add("bad_od_ref_zero", "scan", lambda f: od_config(f, od_ref_value=0.0), check_rejected)
    add("bad_temperature_inf", "simulate",
        lambda f: config_text(laser, {"atom_number": n_atoms * f, "temperature_uK": "inf"},
                              {"kind": "steady_state"}),
        check_rejected)
    add("bad_aspect_grid_zero", "scan",
        lambda f: aspect_config(f, "fixed_n0", grid={"grid_min": 0.0, "grid_max": 4.0, "grid_count": 5}),
        check_rejected)
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    if workload == "scan_fit":
        return scan_fit_ops(seed, workdir)
    return cooling_ops(workload, seed, workdir)
