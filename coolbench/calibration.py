"""Machine-speed calibration: fixed chunks of the benchmark's own code.

The machine these figures come from slows down by up to 1.5x for minutes
at a time, long enough to hold whole 30 s runs, and then every
operation's fastest repetition is slow too.  The run therefore also
times these chunks, one after each operation of an untimed round, and
keeps each chunk's fastest time.  Their sum, `speed_s`, is what the
machine's fast phase allowed during this run; `work_s` and `setup_s` are
scaled by REFERENCE_S / speed_s.

The chunks mix what the workloads do (an RK4 loop over small numpy
arrays, float formatting and CSV parsing, small linear solves,
vectorised quadrature) and touch nothing of doppler_reabs, so a change
to the package cannot move them.  Their inputs are fixed.
"""

from __future__ import annotations

import numpy as np

import oracle as o
import workloads as w

# Sum of the chunks' fastest times in a fast phase of the reference
# machine (2 cores, CPython 3, numpy); calibrated times read about as
# raw times would in such a phase.
REFERENCE_S = 0.0045


def _integrator():
    o.integrate_reference(1e8, 1e-3, 1e-3, 4e-3 / 3.0, -7.0, 2e-3, 8, 2)


def _csv():
    rows = [(i * 1e-4, 1e-3 * (1.0 + i * 1e-3), 2e-4 / (1.0 + i), 1.5e-5) for i in range(200)]
    text = "t,a,b,c\n" + "\n".join(",".join(w.fmt(v) for v in row) for row in rows)
    w.table(text, ("t", "a", "b", "c"))


def _solves():
    rng = np.random.default_rng(0)
    for _ in range(40):
        jac, res = rng.standard_normal((20, 3)), rng.standard_normal(20)
        np.linalg.solve(jac.T @ jac + 1e-3 * np.eye(3), jac.T @ res)


def _quadrature():
    o.kappas(np.linspace(1e-4, 3e-4, 48), np.linspace(2e-4, 6e-4, 48), np.full(48, 1e17))


CHUNKS = (_integrator, _csv, _solves, _quadrature)
