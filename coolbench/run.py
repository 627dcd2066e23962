"""Benchmark of the doppler_reabs cooling model through its command line.

    python3 coolbench/run.py --workload cooling_sc --seed 1 --seconds 20 --trace 0

Runs one workload in this process: a closed loop of short operations,
each a call to doppler_reabs.cli.main on inputs written under
.coolbench/.  Rounds of every operation repeat until --seconds have
passed; an operation's time is its fastest repetition, and work_s and
setup_s are scaled to the machine speed of calibration.py.  Every output
is checked against the oracles in oracle.py.  The last line of stdout is a
JSON object with correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDS = os.path.join(ROOT, ".coolbench")
SETUP_INTERPRETERS = 8
IMPORT_PROFILES = 3
READY = "import doppler_reabs.cli as c, sys; sys.stdout.write(c.__file__ + '\\n'); sys.stdout.flush()"

import calibration  # noqa: E402  (HERE is on sys.path when run as a script)
import workloads  # noqa: E402
from tracer import SIMULATE, Tracer  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DOPPLER_REABS_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def require_checkout_package(path: str):
    if not os.path.abspath(path).startswith(os.path.join(SRC, "doppler_reabs")):
        raise BenchError(f"doppler_reabs imported from {path}, not from {SRC}")


def time_fresh_interpreter() -> float:
    """Time from starting a fresh interpreter to a ready doppler_reabs.cli [s]."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter()
        child.stdout.read()
        if child.wait() != 0 or not line.strip():
            raise BenchError("a fresh interpreter could not import doppler_reabs")
    require_checkout_package(line.strip())
    return ready - start


class SetupSampler:
    """Fastest of SETUP_INTERPRETERS cold starts, spread evenly over the run.

    The machine's speed drifts over seconds, so cold starts taken back to
    back can all land in one slow phase.
    """

    def __init__(self, seconds: float):
        self.due = [i * seconds / SETUP_INTERPRETERS for i in range(SETUP_INTERPRETERS)]
        self.best = math.inf

    def poll(self, elapsed: float, finish: bool = False):
        while self.due and (finish or elapsed >= self.due[0]):
            self.due.pop(0)
            self.best = min(self.best, time_fresh_interpreter())


def import_profile() -> dict:
    """Import cost from -X importtime of the fastest of a few fresh interpreters [ms]."""
    best = None
    for _ in range(IMPORT_PROFILES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", READY], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise BenchError("a fresh interpreter could not import doppler_reabs")
        profile = parse_importtime(done.stderr)
        if best is None or profile["total"] < best["total"]:
            best = profile
    return best


def parse_importtime(text: str) -> dict:
    """Import time of the package, and of scipy and numpy within it [ms].

    The output lists children before their parent, indented one level
    deeper; walking it backwards visits every parent before its children.
    """
    entries = []  # (depth, name, cumulative us), in the order printed (children first)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"total": 0, "scipy": 0, "numpy": 0}
    stack = []  # ancestors of the current entry, walking from the roots
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top == "doppler_reabs" and not stack:
            totals["total"] += cumulative
        if top in ("scipy", "numpy") and all(n.split(".")[0] != top for _, n in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {key: value / 1000.0 for key, value in totals.items()}


class Session:
    """Runs operations through cli.main, times them and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli  # main is looked up on every call, so the tracer's wrapper is seen
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}

    def run(self, op, k: int) -> float:
        argv, check = op.prepare(k)
        out_path = argv[argv.index("--out") + 1]
        if os.path.exists(out_path):
            os.remove(out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # an escaping exception is a failed operation
                rc = f"uncaught {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        self.attempted += 1
        text = ""
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                text = handle.read()
        try:
            check(rc, text, stderr.getvalue())
        except workloads.CheckFailed as exc:
            self.failed += 1
            self.failures.setdefault(op.name, str(exc))
        return elapsed


def run_rounds(session, ops, seconds, tracer=None, setup=None):
    """Untraced (and, with a tracer, alternating traced) rounds until time is up.

    After each operation of an untraced round one calibration chunk runs,
    in turn, and each chunk keeps its fastest time.
    With a tracer the even rounds are traced.  Round 0 counts calls, and
    only the counts and spans of round 0 are kept; the later traced rounds
    record spans alone and give the self times and the traced times.
    Between rounds the setup sampler, if any, takes the cold starts that are due.
    """
    plain = [math.inf] * len(ops)
    speed = [math.inf] * len(calibration.CHUNKS)
    traced = [math.inf] * len(ops)
    layer_self = [dict() for _ in ops]
    counts, spans = None, None
    begin = perf_counter()
    k = 0
    while True:
        if setup is not None:
            setup.poll(perf_counter() - begin)
        trace_round = tracer is not None and k % 2 == 0
        if trace_round:
            tracer.install(counting=k == 0)
        try:
            for i, op in enumerate(ops):
                elapsed = session.run(op, k)
                if not trace_round:
                    plain[i] = min(plain[i], elapsed)
                    c = i % len(speed)
                    start = perf_counter()
                    calibration.CHUNKS[c]()
                    speed[c] = min(speed[c], perf_counter() - start)
                    continue
                self_time, op_spans = tracer.take()
                if k == 0:
                    spans = (spans or []) + [(op.name, op_spans)]
                    continue
                traced[i] = min(traced[i], elapsed)
                for name, t in self_time.items():
                    layer_self[i][name] = min(layer_self[i].get(name, math.inf), t)
        finally:
            if trace_round:
                tracer.uninstall()
        if trace_round and k == 0:
            counts = Counter(tracer.counts)
        k += 1
        if perf_counter() - begin >= seconds and (tracer is None or k >= 3):
            break
    if setup is not None:
        setup.poll(seconds, finish=True)
    return plain, traced, layer_self, counts, spans, sum(speed)


def end_to_end_metrics(setup_s, work_s, peak_rss_mb) -> dict:
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "work_s": {"value": work_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}


def layer_metrics(imports, counts, layer_self, plain, traced) -> dict:
    self_ms = Counter()
    for per_op in layer_self:
        for name, t in per_op.items():
            self_ms[name] += t * 1e3
    sims = counts[SIMULATE]
    steps = max(counts["dynamics.rates@simulate"] - sims, 0)
    rates_calls = counts["dynamics.rates"]
    kappa_calls = counts["reabsorption.kappa_set"]
    closed_form_runners = ("runners.run_steady_state", "runners.run_aspect_scan",
                           "runners.run_intensity_scan", "runners.run_od_scan")
    values = {
        "import.total_ms": (imports["total"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "reabsorption.kappa_set.calls": (kappa_calls, "count"),
        "reabsorption.kappa_set.self_ms": (self_ms["reabsorption.kappa_set"], "ms"),
        "reabsorption.kappa_set.us_per_call":
            (self_ms["reabsorption.kappa_set"] * 1e3 / kappa_calls if kappa_calls else 0.0, "us"),
        "dynamics.simulate.calls": (sims, "count"),
        "dynamics.simulate.self_ms": (self_ms[SIMULATE], "ms"),
        "dynamics.rates.calls": (rates_calls, "count"),
        "dynamics.rates.self_ms": (self_ms["dynamics.rates"], "ms"),
        "dynamics.steps_per_simulate": (steps / sims if sims else 0.0, "count"),
        "dynamics.temperature_slope.calls": (counts["dynamics.temperature_slope"], "count"),
        "dynamics.rates.capped_y_frac":
            (counts["dynamics.rates.capped_y"] / rates_calls if rates_calls else 0.0, "ratio"),
        "dynamics.rates.capped_z_frac":
            (counts["dynamics.rates.capped_z"] / rates_calls if rates_calls else 0.0, "ratio"),
        "atoms.derive_constants.calls": (counts["atoms.derive_constants"], "count"),
        "atoms.derive_constants.per_step":
            (counts["atoms.derive_constants@simulate"] / steps if steps else 0.0, "count"),
        "fitting.fit_exponential.self_ms": (self_ms["fitting.fit_exponential"], "ms"),
        "fitting.fit_intensity_scan.self_ms": (self_ms["fitting.fit_intensity_scan"], "ms"),
        "fitting.fit_od_scan.self_ms": (self_ms["fitting.fit_od_scan"], "ms"),
        "fitting.iterations": (counts["fitting.iterations"], "count"),
        "fitting.model_evals": (counts["fitting.model_evals"], "count"),
        "config.parse_config.calls": (counts["config.parse_config"], "count"),
        "config.parse_config.self_ms": (self_ms["config.parse_config"], "ms"),
        "runners.run_dynamics.self_ms": (self_ms["runners.run_dynamics"], "ms"),
        "runners.run_scan.self_ms": (sum(self_ms[n] for n in closed_form_runners), "ms"),
        "runners.run_fit.self_ms": (self_ms["runners.run_fit"], "ms"),
        "cli.main.calls": (counts["cli.main"], "count"),
        "cli.main.self_ms": (self_ms["cli.main"], "ms"),
        "trace.overhead_ratio": (sum(traced) / sum(plain), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "doppler_reabs", "cli.py")):
        raise BenchError(f"no doppler_reabs package under {SRC}")
    os.environ.pop("DOPPLER_REABS_THREADS", None)
    workdir = os.path.join(RECORDS, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        imports = import_profile() if args.trace else None
        setup = None if args.trace else SetupSampler(args.seconds)
        sys.path.insert(0, SRC)
        import doppler_reabs.cli as cli
        require_checkout_package(cli.__file__)

        session = Session(cli)
        if args.workload == "cooling_sc":
            for op in workloads.reference_ops(workdir):
                session.run(op, 0)
        ops = workloads.build(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        plain, traced, layer_self, counts, spans, speed_s = run_rounds(
            session, ops, args.seconds, tracer, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(imports, counts, layer_self, plain, traced)
    else:
        scale = calibration.REFERENCE_S / speed_s
        metrics = end_to_end_metrics(setup.best * scale, sum(plain) * scale,
                                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result = {"correct": session.failed == 0 or set(session.failures) <= KNOWN_FAULTS,
              "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "failures": session.failures,
              "operation_best_s": {op.name: t for op, t in zip(ops, plain)},
              "speed_s": speed_s, "work_raw_s": sum(plain),
              "setup_raw_s": None if args.trace else setup.best}
    if spans is not None:
        record["spans_round_0"] = spans
    with open(os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    for name, message in session.failures.items():
        print(f"failed operation {name}: {message}", file=sys.stderr)
    return result


# Operations that fail today because of faults in the program, on inputs
# that do not depend on the seed (see README.md).  They count in `failed`;
# `correct` speaks of the operations that did not fail.
KNOWN_FAULTS = {"bad_od_ref_zero", "bad_temperature_inf", "bad_aspect_grid_zero"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"coolbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
