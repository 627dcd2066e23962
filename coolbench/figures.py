"""Reference figures of the package, measured the way the benchmark measures.

    python3 coolbench/figures.py

Re-measures the baseline table of ROADMAP.md (each time is the fastest
of several repetitions), counts kappa_set and derive_constants calls in
the 0.6 s reference run with the benchmark's tracer, and lists the
iterations of the scan_fit workload's fits.  Prints a Markdown table.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
from time import perf_counter

import run
import workloads

sys.path.insert(0, run.SRC)

import doppler_reabs as dr  # noqa: E402
from doppler_reabs import cli  # noqa: E402

from tracer import SIMULATE, Tracer  # noqa: E402


def fastest(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def fastest_child(args):
    best = math.inf
    for _ in range(5):
        start = perf_counter()
        subprocess.run([sys.executable, *args], env=run.child_env(), cwd=run.ROOT,
                       capture_output=True, check=True)
        best = min(best, perf_counter() - start)
    return best


def reference_inputs():
    species, trap = dr.cr52(), dr.stuttgart_cloverleaf()
    laser = dr.LaserConfig(intensity=4e-3, detuning=7.0, attenuation_factor=3.0)
    initial = dr.cloud_from_temperatures(trap, 1e8, 1e-3, 1e-3, 1e-3)
    delta = dr.effective_detuning(7.0, trap.offset_field, species, species.m_j, +1)
    return species, trap, laser, initial, delta


def reference_counts(self_consistent):
    species, trap, laser, initial, delta = reference_inputs()
    tracer = Tracer()
    tracer.install()
    try:
        dr.dynamics.simulate(initial, trap, species, laser, 0.6, self_consistent=self_consistent,
                             sample_stride=10, delta_pol=delta)
    finally:
        tracer.uninstall()
    c = tracer.counts
    steps = c["dynamics.rates@simulate"] - c[SIMULATE]
    return steps, c["reabsorption.kappa_set"], c["atoms.derive_constants@simulate"] / steps


def aspect_scan_config(path):
    workloads.write(path, workloads.config_text(
        {"intensity_Isat": 4e-3, "detuning_Gamma": 7.0, "attenuation_factor": 3.0},
        {"atom_number": 1e8, "peak_density_per_cm3": 5e10},
        {"kind": "aspect_scan", "grid_min": 0.1, "grid_max": 10.0, "grid_count": 400,
         "grid_scale": "log"}))


def fit_iterations(workdir):
    found = {}
    for seed in (1, 2, 3):
        for op in workloads.scan_fit_ops(seed, workdir):
            if not op.name.startswith("fit_"):
                continue
            argv, _ = op.prepare(0)
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as handle:
                table = workloads.fit_table(handle.read())
            found.setdefault(op.name, []).append(int(table["iterations"][0]))
    return found


def main() -> int:
    species, trap, laser, initial, delta = reference_inputs()
    shape = dr.CloudShape(sigma_y=initial.sigma_y, sigma_z=initial.sigma_z,
                          peak_density=initial.peak_density)
    kappas = dr.kappa_set(shape, species)
    rows = [
        ("kappa_set (reference start cloud)",
         f"{fastest(lambda: dr.kappa_set(shape, species), 200) * 1e6:.0f} us per call"),
        ("rates", f"{fastest(lambda: dr.rates(laser, kappas, delta, species, trap), 2000) * 1e6:.1f} us per call"),
    ]
    for sc in (False, True):
        t = fastest(lambda: dr.simulate(initial, trap, species, laser, 0.6, self_consistent=sc,
                                        sample_stride=10, delta_pol=delta), 3 if sc else 10)
        steps, kappa_calls, per_step = reference_counts(sc)
        rows.append((f"simulate 0.6 s, {'self-consistent' if sc else 'frozen shape'}",
                     f"{t:.3f} s; {steps} steps, {kappa_calls} kappa_set calls, "
                     f"{per_step:.4f} derive_constants calls per step"))
    rows.append(("run_selfcheck", f"{fastest(dr.run_selfcheck, 3):.2f} s"))
    rows.append(("import doppler_reabs, fresh interpreter",
                 f"{fastest_child(['-c', 'import doppler_reabs']):.2f} s"))
    rows.append(("doppler-reabs preset-dump, fresh interpreter",
                 f"{fastest_child(['-m', 'doppler_reabs', 'preset-dump']):.2f} s"))
    workdir = os.path.join(run.RECORDS, f"figures-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        config = os.path.join(workdir, "aspect.ini")
        aspect_scan_config(config)
        argv = ["scan", "--config", config, "--out", os.path.join(workdir, "aspect.csv")]
        for threads in ("1", "4"):
            os.environ["DOPPLER_REABS_THREADS"] = threads
            rows.append((f"400-point aspect scan, {threads} thread(s)",
                         f"{fastest(lambda: cli.main(argv), 5):.3f} s"))
        os.environ.pop("DOPPLER_REABS_THREADS")
        for name, iterations in fit_iterations(workdir).items():
            rows.append((f"{name} iterations, seeds 1-3", ", ".join(map(str, iterations))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("| What | Measured |\n|---|---|")
    for what, value in rows:
        print(f"| {what} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
