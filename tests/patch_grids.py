"""Grids and patches that the contour and verify tests share: a helper
module, not a test module, so pytest collects no test twice."""

import numpy as np

from sqg_vstates.contour import PatchPair

# (m, K, P) covering each case of the collocation grid's symmetry
# g = gcd(m, P_c) and q = P_c / g, on its sub-grid of P_c nodes
SYMMETRY_GRIDS = [
    (5, 8, 1280),  # g = m
    (6, 2, 256),   # g = 2
    (3, 2, 256),   # g = 1
    (5, 2, 42),    # g = 1, P < 64
    (4, 1, 20),    # odd q = 5
    (3, 1, 42),    # P_c = 14 at stride 3, gcd(m, P_c) = 1 < gcd(m, P) = 3
]


def small_patch(b=0.5, m=4, K=3, omega=0.3, seed=1, scale=1e-3):
    rng = np.random.default_rng(seed)
    return PatchPair(b=b, m=m, K=K, a=scale * rng.standard_normal(K),
                     c=scale * rng.standard_normal(K), omega=omega)
