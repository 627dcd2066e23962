"""Regenerate reference.json, the fine-step reference trace of the paper's run.

    python3 coolbench/make_reference.py

The run: 1e8 chromium atoms at 1 mK in the cloverleaf trap, 4e-3 Isat
attenuated by 3, laser detuning +7 Gamma, 0.6 s, self-consistent shape.
The oracle's RK4 re-evaluates the shape and kappa at every stage, so it
is fourth order in the shape coupling too.  It runs at two step counts
and stores the finer one with the largest relative difference between
them, which bounds its own error.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import oracle as o
from workloads import REFERENCE_CLOUD, REFERENCE_FILE

DURATION = 0.6
SAMPLES = 61          # every 10 ms
STEPS = 24000         # 25 us; the program's default step is about 119 us


def trace(steps):
    c = REFERENCE_CLOUD
    return o.integrate_reference(c.atom_number, c.T_z, c.T_y, c.at_atoms, c.delta,
                                 DURATION, steps, SAMPLES)


def main() -> int:
    fine = trace(STEPS)
    coarse = trace(STEPS // 2)
    diff = float(np.max(o.rel_err(np.array(coarse)[:, 1:], np.array(fine)[:, 1:])))
    data = {
        "run": {"atom_number": 1e8, "temperature_uK": 1000.0, "intensity_Isat": 4e-3,
                "attenuation_factor": 3.0, "detuning_Gamma": 7.0, "duration_s": DURATION,
                "self_consistent": True, "consistency_mode": True},
        "steps": STEPS,
        "max_rel_change_from_half_the_steps": diff,
        "columns": ["t_s", "T_z_K", "T_y_K"],
        "samples": [[float(v) for v in row] for row in fine],
    }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE_FILE)}; step-halving change {diff:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
