"""Fast self-test of the benchmark's oracles and of its metric names.

    python3 coolbench/selftest.py

Checks the oracles against closed forms and against each other, the
fit oracle on a straight line, the frozen-trace check on rounded traces, the
stored reference trace, the import-time parser, that the calibration
chunks run without doppler_reabs, and that the metric and workload names the benchmark prints are exactly those in BENCHMARK.json.
Needs no doppler_reabs and takes well under a second.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter

import numpy as np

import calibration
import oracle as o
import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


class CheckError(Exception):
    pass


def expect(condition, detail=""):
    if not condition:
        raise CheckError(str(detail))


def close(a, b, rel):
    return float(np.max(o.rel_err(a, b))) <= rel


def check_kappa_oracle():
    # a sphere: the three integrals are 13 pi/16, 7/3 and 56/15 times sigma
    radial, axial, total = o.angular_integrals(2e-4, 2e-4)
    expect(close([radial[0], axial[0], total[0]],
                 [o.SPHERE_RADIAL * 2e-4, o.SPHERE_AXIAL * 2e-4, o.SPHERE_TOTAL * 2e-4], 1e-13))
    # the composite rule has converged over the whole aspect range
    alphas = np.geomspace(0.01, 100.0, 41)
    fine_nodes, fine_weights = o._gauss_legendre(panels=64, order=64)
    chord = 1.0 / np.sqrt(np.cos(fine_nodes) ** 2 / (alphas[:, None] * 1e-4) ** 2
                          + np.sin(fine_nodes) ** 2 / 1e-4**2)
    fine_total = chord @ (2.0 * fine_weights * (1 + np.cos(fine_nodes) ** 2) ** 2 * np.sin(fine_nodes))
    expect(close(o.angular_integrals(np.full(41, 1e-4), alphas * 1e-4)[2], fine_total, 1e-13))
    # kappa scales linearly with density and with size at fixed aspect ratio
    k1 = np.array(o.kappas(3e-4, 6e-4, 1e17))
    k2 = np.array(o.kappas(6e-4, 12e-4, 2e17))
    expect(close(k2, 4.0 * k1, 1e-13))


def check_closed_forms():
    delta = o.delta_pol(7.0)
    expect(-0.9 < delta < -0.7, delta)
    ky, kz, k = 0.11, 0.05, 0.25
    # the consistency-mode fixed point A/C of each axis is the closed form
    cz, cy, hz, hy = o.rates(1e-3, ky, kz, k, delta)
    a = o.SLOPE_PER_HEAT
    expect(close([a * hz / cz, a * hy / cy], list(o.steady_state(ky, kz, k, delta)), 1e-13))
    # no reabsorption: the axial floor is 0.7 T_D at delta = -1/2, the radial axis diverges
    t_z, t_y = o.steady_state(0.0, 0.0, 0.0, -0.5)
    expect(close(t_z, 0.7 * o.DOPPLER_T, 1e-13) and math.isinf(t_y))
    # zero heating power reduces to the plain steady state; the OD form rescales kappa
    plain = o.steady_state(ky, kz, k, delta)[1]
    expect(close(o.steady_state_with_heating(ky, k, 0.0, 1e-3, delta), plain, 1e-13))
    expect(close(o.steady_state_vs_od(ky / 4.5, k / 4.5, 4.5, 2e-26, 1e-3, delta),
                 o.steady_state_with_heating(ky, k, 2e-26, 1e-3, delta), 1e-13))
    expect(math.isinf(float(o.steady_state_with_heating(ky, k, 2e-26, 0.0, delta))))
    expect(math.isinf(float(o.steady_state_vs_od(ky, k, 0.0, 2e-26, 1e-3, delta))))


def check_shapes():
    sy, sz, n0 = o.cloud(1e8, 1e-3, 1e-3)
    expect(close(sz / sy, math.sqrt(750.0 / 110.0), 1e-13))
    expect(close(n0 * o.NORM * sy * sy * sz, 1e8, 1e-13))
    sy, sz, n0 = o.aspect_shape(np.array([2.0]), 1e8, 5e16, "fixed_n0")
    expect(close(sz / sy, 2.0, 1e-13) and close(1e8 / (o.NORM * sy * sy * sz), n0, 1e-13))


def check_reference():
    ref = workloads.load_reference()
    t, T_z, T_y = np.array(ref["samples"]).T
    expect(t[0] == 0.0 and close(t[-1], 0.6, 1e-13))
    expect(T_z[0] == T_y[0] == 1e-3)
    expect(ref["max_rel_change_from_half_the_steps"] < 1e-8)
    expect(T_z[-1] < T_z[0] and 50e-6 < T_y[-1] < 400e-6, T_y[-1])


def check_fit_oracle():
    # a straight line: one Gauss-Newton step lands on the weighted least-squares solution
    x = np.linspace(1.0, 4.0, 7)
    y = 2.0 + 0.5 * x + 0.01 * np.sin(7.0 * x)
    y_err = np.full_like(x, 0.02)
    params = np.array([1.5, 0.8])
    step, errors = o.weighted_fit_step(lambda x, p: p[0] + p[1] * x, params, x, y, y_err)
    design = np.column_stack([np.ones_like(x), x]) / y_err[:, None]
    solution = np.linalg.lstsq(design, y / y_err, rcond=None)[0]
    expect(close(params + step, solution, 1e-8), params + step)
    expect(close(errors, np.sqrt(np.diag(np.linalg.inv(design.T @ design))), 1e-8), errors)


def check_exponential_check():
    # printed to 12 digits, traces far from and at the fixed point pass; a
    # sample off the exponential by 1e-6 of the amplitude fails
    t = np.arange(9) * 2e-3

    def printed(amplitude):
        return np.array([float(f"{v:.12g}") for v in 1.5e-4 + amplitude * np.exp(-300.0 * t)])

    for amplitude in (2e-5, 1e-13):
        workloads.check_exponential(t, printed(amplitude), 300.0, 1.5e-4, "T")
    bent = printed(2e-5)
    bent[4] += 2e-11
    try:
        workloads.check_exponential(t, bent, 300.0, 1.5e-4, "T")
    except workloads.CheckFailed:
        return
    raise CheckError("a bent trace passed")


def check_importtime_parser():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       400 |        450 |     scipy.integrate",
        "import time:        10 |        760 |   doppler_reabs.reabsorption",
        "import time:        20 |       1080 | doppler_reabs",
        "import time:         5 |          5 | doppler_reabs.cli",
    ])
    profile = run.parse_importtime(sample)
    expect(profile == {"total": 1.085, "scipy": 0.45, "numpy": 0.3}, profile)


def check_calibration():
    for chunk in calibration.CHUNKS:
        chunk()
    expect(not any(name.split(".")[0] == "doppler_reabs" for name in sys.modules),
           "calibration imports doppler_reabs")


def check_names():
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    expect(tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS)
    end_to_end = run.end_to_end_metrics(1.0, 1.0, 1.0)
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
           == {n: m["unit"] for n, m in end_to_end.items()}, "end-to-end metrics")
    per_layer = run.layer_metrics({"total": 1.0, "scipy": 1.0, "numpy": 1.0}, Counter(),
                                  [{}], [1.0], [1.0])
    expect({m["name"]: m["unit"] for m in bench["per_layer"]}
           == {n: m["unit"] for n, m in per_layer.items()}, "per-layer metrics")
    names = {op.name for op in workloads.scan_fit_ops(0, "unused")}
    expect(run.KNOWN_FAULTS <= names)


def main() -> int:
    checks = [check_kappa_oracle, check_closed_forms, check_shapes, check_reference,
              check_fit_oracle, check_exponential_check, check_importtime_parser,
              check_calibration, check_names]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"ok   {check.__name__}")
        except CheckError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
