"""Trace finite-amplitude patch-pair branches off the annulus.

At b = 0.6 the smallest admissible fold symmetry is N(0.6) = 4; this
script continues both branches (plus and minus) of the next mode m = 5
away from the annulus, prints Omega along each branch, and writes the
boundary curves of the last computed patch pair to an SVG next to this
script.

The amplitude parameter s is the projection of the leading coefficient
pair onto the kernel direction of the linearized operator; as s -> 0 the
computed Omega(s) return to the analytic eigenvalues Omega_m^±.

Run:  python demos/03_branch_continuation.py
"""

import pathlib

from sqg_vstates import (
    AnnulusConstants,
    bifurcation_row,
    branch_continue,
    threshold_N,
)
from sqg_vstates.cli import _render_svg

HERE = pathlib.Path(__file__).resolve().parent

b = 0.6
consts = AnnulusConstants.build(b)
m = threshold_N(b, consts) + 1
row = bifurcation_row(m, b, consts)
print(f"b = {b}, m = {m}: Omega_m^- = {row.omega_minus:.10f}, Omega_m^+ = {row.omega_plus:.10f}")

K = 8  # retained modes; P defaults to 4*K*m
for sign, omega0 in (("plus", row.omega_plus), ("minus", row.omega_minus)):
    run = branch_continue(m, b, sign, steps=8, ds=1e-3, K=K, consts=consts)
    print(f"\nbranch {sign} (from Omega = {omega0:.10f})")
    print(f"{'s':>8} {'Omega(s)':>16} {'Omega-Omega_0':>14} {'residual':>10}")
    for pt in run.points:
        drift = pt.patch.omega - omega0
        print(f"{pt.s:>8.4f} {pt.patch.omega:>16.12f} {drift:>14.2e} {pt.residual_norm:>10.2e}")
    if run.stopped_reason:
        print("stopped early:", run.stopped_reason)

    # render the most deformed patch pair of this branch
    svg_path = HERE / f"branch_{sign}_m{m}.svg"
    svg_path.write_bytes(_render_svg(run, [len(run.points) - 1]).encode("ascii"))
    print(f"wrote {svg_path.name}")

print("\n`vstates branch --out run.json` writes these runs as JSON (BranchRun.to_dict);")
print("`vstates render run.json` reads one back (BranchRun.from_dict) and draws it.")
