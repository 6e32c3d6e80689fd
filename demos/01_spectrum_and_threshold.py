"""Walk the bifurcation diagram of the annulus.

For each inner radius b the annulus is a rotating patch at every angular
velocity, but non-trivial m-fold patch pairs branch off only at the
discrete angular velocities Omega_m^± and only for fold symmetries m at or
above a threshold N(b).  This script computes the threshold across radii,
thin annuli included, and prints the bifurcation table for one radius.

Run:  python demos/01_spectrum_and_threshold.py
"""

import numpy as np

from sqg_vstates import (
    AnnulusConstants,
    bifurcation_row,
    discriminant,
    threshold_N,
)

# -- the threshold N(b): the first fold symmetry with a positive reduced
#    discriminant.  It grows as the annulus thins (b -> 1).
print("threshold N(b) across inner radii")
print(f"{'b':>5} {'N(b)':>5} {'E_[N-1]':>12} {'E_N':>12}")
for b in np.linspace(0.1, 0.9, 9):
    consts = AnnulusConstants.build(float(b))
    n = threshold_N(float(b), consts)
    _, e_prev, _ = discriminant(n - 1, float(b), consts)
    _, e_at, _ = discriminant(n, float(b), consts)
    print(f"{b:>5.1f} {n:>5d} {e_prev:>12.4e} {e_at:>12.4e}")

# -- thin annuli: N(b) grows like 1.4226 / (1 - b) as b -> 1.
print(f"\n{'b':>6} {'N(b)':>6} {'N(b)(1-b)':>10}")
for b in (0.99, 0.999, 0.9999):
    n = threshold_N(b, AnnulusConstants.build(b))
    print(f"{b:>6} {n:>6d} {n * (1.0 - b):>10.4f}")

# -- the full spectrum table at b = 0.6: for each admissible m, the pair
#    of angular velocities where the linearized operator acquires a
#    one-dimensional kernel.  Between them the mode-m determinant is
#    negative; the eigenvalue pairs of different modes interleave.
b = 0.6
consts = AnnulusConstants.build(b)
n0 = threshold_N(b, consts)
print(f"\nbifurcation table at b = {b} (threshold N = {n0})")
print(f"{'m':>4} {'Delta_m':>12} {'Omega_m^-':>14} {'Omega_m^+':>14} {'gap':>10}")
for m in range(n0, n0 + 12):
    row = bifurcation_row(m, b, consts)
    gap = row.omega_plus - row.omega_minus
    print(f"{m:>4d} {row.delta_m:>12.6f} {row.omega_minus:>14.10f} {row.omega_plus:>14.10f} {gap:>10.6f}")

print("\nThe Omega_m^+ increase with m while the Omega_m^- decrease:")
print("higher fold symmetries bifurcate at angular velocities nested outside")
print("the lower ones, so no two admissible modes share an eigenvalue.")
