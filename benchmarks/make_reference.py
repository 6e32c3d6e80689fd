"""Pin the Omega reference of the ``branch`` workload.

The ``branch`` workload traces both branches of the acceptance
configuration (b = 0.6, m = N(0.6) + 1, K = 8, 10 steps of ds = 1e-3) at
P = 1280 and scores Omega at the last point against a reference that does
not come from that P.  This script computes the reference once: it traces
the same branches at P = 2560 and P = 5120 and removes the second-order
quadrature error by Richardson extrapolation,

    Omega_ref = (4 Omega(5120) - Omega(2560)) / 3.

A third trace at P = 1280 is used only to confirm the order: the ratio of
successive differences must be close to 4.  The result is written to
``benchmarks/omega_ref.json`` together with the command that made it.
Takes several minutes on two cores.  Run from the repository root:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sqg_vstates import AnnulusConstants, branch_continue, threshold_N  # noqa: E402

OUT = Path(__file__).resolve().parent / "omega_ref.json"
B, K, STEPS, DS, TOL = 0.6, 8, 10, 1e-3, 1e-10
ORDER_P, COARSE_P, FINE_P = 1280, 2560, 5120
REF_STEPS = (1, STEPS)  # step 1 serves the harness self-test, step 10 the workload


def trace(m: int, sign: str, P: int, consts: AnnulusConstants) -> dict[int, float]:
    t0 = time.perf_counter()
    run = branch_continue(m, B, sign, steps=STEPS, ds=DS, K=K, P=P, newton_tol=TOL, consts=consts)
    if run.stopped_reason is not None or len(run.points) != STEPS + 1:
        raise SystemExit(f"{sign} branch at P={P} stopped: {run.stopped_reason}")
    print(f"{sign} P={P}: {time.perf_counter() - t0:.1f} s", flush=True)
    return {k: run.points[k].patch.omega for k in REF_STEPS}


def main() -> int:
    consts = AnnulusConstants.build(B, n_max=200)
    m = threshold_N(B, consts) + 1
    signs = {}
    for sign in ("plus", "minus"):
        omega = {P: trace(m, sign, P, consts) for P in (ORDER_P, COARSE_P, FINE_P)}
        steps = {}
        for k in REF_STEPS:
            o1, o2, o4 = omega[ORDER_P][k], omega[COARSE_P][k], omega[FINE_P][k]
            steps[str(k)] = {
                "s": k * DS,
                "omega": {str(P): omega[P][k] for P in (ORDER_P, COARSE_P, FINE_P)},
                "omega_ref": (4.0 * o4 - o2) / 3.0,
                "order_ratio": (o1 - o2) / (o2 - o4),
            }
        signs[sign] = steps
    payload = {
        "command": "python3 benchmarks/make_reference.py",
        "method": "Richardson extrapolation (4 Omega(P_fine) - Omega(P_coarse)) / 3 of the "
                  "second-order quadrature error; order_ratio (Omega(1280) - Omega(2560)) / "
                  "(Omega(2560) - Omega(5120)) confirms the order (4 for second order)",
        "b": B, "m": m, "K": K, "steps": STEPS, "ds": DS, "newton_tol": TOL,
        "P_coarse": COARSE_P, "P_fine": FINE_P, "P_order_check": ORDER_P,
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "signs": signs,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
