"""Acceptance suite: the ten exit criteria for this library, each at its
stated tolerance, printing one PASS/FAIL line per criterion.

Verdict lines are written to the real stdout so they appear in any pytest
run regardless of capture settings.
"""

import sys

import numpy as np

from sqg_vstates.contour import branch_continue, residual, annulus_patch
from sqg_vstates.specfun import AnnulusConstants, lambda_coeff, s_sum
from sqg_vstates.spectrum import (
    bifurcation_row,
    discriminant,
    kernel_vector,
    mode_matrix,
    quadratic_coeffs,
    threshold_N,
)
from sqg_vstates.verify import (
    check_c1_c2,
    check_c3_c8,
    check_linearization,
    contiguous_residuals,
    eigenvalue_monotonicity_scan,
    gauss_2f1,
    gauss_2f1_euler,
    lambda_integral_oracle,
)


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_criterion_01_2f1_cross_validation():
    # 100 random (a, b, c, z) with c > b > 0, z in (0, 0.81]:
    # |series - Euler integral| <= 1e-10 * (1 + |value|)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        b = rng.uniform(0.05, 5.0)
        c = b + rng.uniform(0.1, 5.0)
        a = rng.uniform(-3.0, 3.0)
        z = rng.uniform(1e-3, 0.81)
        series = gauss_2f1(a, b, c, z)
        integral = gauss_2f1_euler(a, b, c, z)
        worst = max(worst, abs(series - integral) / (1.0 + abs(series)))
    _verdict("criterion 1 (2F1 series vs Euler integral)", worst <= 1e-10,
             f"worst scaled error {worst:.3e} <= 1e-10 over 100 samples")


def test_criterion_02_contiguous_relations():
    # four contiguous-relation residuals <= 1e-10 on a 100-point seeded
    # sweep with z in (0, 0.9].  The growth exponent a + b - c is capped at
    # 2 so the function values stay O(100) and the absolute budget measures
    # the identities rather than double-precision cancellation.
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-1.5, 1.5)
        b = rng.uniform(0.1, 3.5)
        c = max(0.3, a + b - rng.uniform(-3.0, 2.0))
        z = rng.uniform(1e-6, 0.9)
        worst = max(worst, max(abs(r) for r in contiguous_residuals(a, b, c, z)))
    _verdict("criterion 2 (contiguous relations)", worst <= 1e-10,
             f"worst residual {worst:.3e} <= 1e-10 over 100 samples")


def test_criterion_03_lambda_oracle():
    # closed hypergeometric form vs integral representation to 1e-8
    worst = 0.0
    for b in (0.2, 0.5, 0.8):
        for n in range(1, 51):
            closed = lambda_coeff(n, b)
            quad = lambda_integral_oracle(n, b)
            worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    _verdict("criterion 3 (coupling-coefficient oracle)", worst <= 1e-8,
             f"worst scaled error {worst:.3e} <= 1e-8 for n <= 50, b in {{0.2, 0.5, 0.8}}")


def test_criterion_04_determinant_identity():
    # det(M_n) equals the lambda-quadratic to 1e-12 relative and
    # Delta_n = C_n^2 - D_n to 1e-10, over 1000 random (n, b, Omega)
    rng = np.random.default_rng(404)
    radii = rng.uniform(0.05, 0.95, size=10)
    worst_det = worst_disc = 0.0
    for b in radii:
        consts = AnnulusConstants.build(float(b), n_max=200)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            omega = rng.uniform(-1.5, 1.5)
            mat = mode_matrix(n, float(b), omega, consts)
            c_n, d_n = quadratic_coeffs(n, float(b), consts)
            lam = 1.0 - 2.0 * omega
            quad = 0.25 * b * (lam * lam - 2.0 * c_n * lam + d_n)
            worst_det = max(worst_det, abs(mat.det() - quad) / mat.det_scale())
            delta, _, _ = discriminant(n, float(b), consts)
            worst_disc = max(worst_disc, abs(c_n * c_n - d_n - delta) / max(1.0, abs(delta)))
    ok = worst_det <= 1e-12 and worst_disc <= 1e-10
    _verdict("criterion 4 (determinant identity)", ok,
             f"det error {worst_det:.3e} <= 1e-12, discriminant error {worst_disc:.3e} <= 1e-10, 1000 cases")


def test_criterion_05_monotonicity_suite():
    # S_n increasing; L_n decreasing in n and increasing in b; Delta_n
    # increasing above threshold; lambda_n^+ increasing, lambda_n^-
    # decreasing; eigenvalue interleaving: zero violations for n <= 200
    radii = (0.2, 0.5, 0.8)
    tables = {b: AnnulusConstants.build(b, n_max=200) for b in radii}
    violations = 0
    s_vals = [s_sum(n) for n in range(1, 201)]
    violations += sum(not hi > lo for lo, hi in zip(s_vals, s_vals[1:]))
    for b in radii:
        lam_tab = tables[b].lambda_table
        violations += sum(not hi < lo for lo, hi in zip(lam_tab, lam_tab[1:]))
        violations += len(eigenvalue_monotonicity_scan(b, 200, tables[b]))
    for b_lo, b_hi in ((0.2, 0.5), (0.5, 0.8)):
        diff = tables[b_hi].lambda_table - tables[b_lo].lambda_table
        violations += int(np.sum(diff <= 0.0))
    _verdict("criterion 5 (monotonicity suite)", violations == 0,
             f"{violations} violations for n <= 200, b in {radii}")


def test_criterion_06_threshold_consistency():
    # E_N sign-change threshold == sum-inequality threshold for 9 radii,
    # and E_1(b) = -(1+b)^2 L_1(b) to 1e-12
    mismatches = 0
    worst_e1 = 0.0
    for b in np.linspace(0.1, 0.9, 9):
        b = float(b)
        consts = AnnulusConstants.build(b, n_max=200)
        n_scan = threshold_N(b, consts)
        n = 2
        while not (
            consts.s(n) > b * ((1.0 + b * b) * consts.lam(1) + 2.0 * b * consts.lam(n)) / (1.0 + b)
        ):
            n += 1
        mismatches += int(n != n_scan)
        _, e_1, _ = discriminant(1, b, consts)
        worst_e1 = max(worst_e1, abs(e_1 + (1.0 + b) ** 2 * consts.lam(1)))
    ok = mismatches == 0 and worst_e1 <= 1e-12
    _verdict("criterion 6 (threshold consistency)", ok,
             f"{mismatches} threshold mismatches, E_1 identity error {worst_e1:.3e} <= 1e-12")


def test_criterion_07_annulus_is_solution():
    # sup-norm of the discretized residual at the annulus <= 1e-8 at
    # P = 2048 for Omega in {-1, 0, 0.5, 1} and b in {0.3, 0.5, 0.7}
    worst = 0.0
    for b in (0.3, 0.5, 0.7):
        for omega in (-1.0, 0.0, 0.5, 1.0):
            spec = residual(annulus_patch(b, 3, 4, omega), 2048)
            worst = max(worst, float(np.abs(spec.g1).max()), float(np.abs(spec.g2).max()))
    _verdict("criterion 7 (annulus is a solution)", worst <= 1e-8,
             f"sup-norm {worst:.3e} <= 1e-8 at P = 2048")


def test_criterion_08_linearized_operator():
    # FD Jacobian blocks match -(n m) M_{n m} to 1e-5 relative for
    # n in {1, 2}, m = N(b)+1, b in {0.5, 0.7}; off-block leakage <= 1e-7
    reports = {r.name: r for r in check_linearization(
        b_set=(0.5, 0.7), modes=(1, 2), h=1e-6)}
    block = reports["linearization_block"]
    off = reports["linearization_offblock"]
    ok = block.passed and off.passed
    _verdict("criterion 8 (linearized-operator reproduction)", ok,
             f"block error {block.max_error:.3e} <= 1e-5, off-block {off.max_error:.3e} <= 1e-7")


def test_criterion_09_singular_integral_oracles():
    # self-interaction moments to 1e-7 for n <= 20; cross-circle moments
    # to 1e-7 for n <= 10, b in {0.3, 0.6}
    reports = check_c1_c2(n_max=20, samples=8)
    reports += check_c3_c8(b_set=(0.3, 0.6), n_max=10)
    failed = [r.name for r in reports if not r.passed]
    worst = max(r.max_error / r.tolerance for r in reports)
    _verdict("criterion 9 (singular-integral oracles)", not failed,
             f"all {len(reports)} moment checks <= tolerance "
             f"(worst at {worst:.2f} of budget); failures: {failed or 'none'}")


def test_criterion_10_branch_continuation():
    # b = 0.6, m = N(0.6)+1, both signs: 10 steps at ds = 1e-3 converge
    # with residual <= 1e-10; Omega(s) -> Omega_m^± under ds-halving with
    # first-order consistency; c_1/a_1 at the smallest s within 5% of the
    # kernel ratio.
    b = 0.6
    consts = AnnulusConstants.build(b, n_max=200)
    m = threshold_N(b, consts) + 1
    K, P, tol = 8, 1280, 1e-10
    row = bifurcation_row(m, b, consts)
    details = []
    ok = True
    for sign, omega0 in (("plus", row.omega_plus), ("minus", row.omega_minus)):
        full = branch_continue(m, b, sign, steps=10, ds=1e-3, K=K, P=P,
                               newton_tol=tol, consts=consts)
        converged = full.stopped_reason is None and len(full.points) == 11 and all(
            pt.residual_norm <= tol for pt in full.points[1:]
        )
        half = branch_continue(m, b, sign, steps=2, ds=5e-4, K=K, P=P,
                               newton_tol=tol, consts=consts)
        dev_full = abs(full.points[1].patch.omega - omega0)
        dev_half = abs(half.points[1].patch.omega - omega0)
        # first-order consistency: deviation shrinks with s.  The additive
        # 6e-6 allows for a discretization bias of the bifurcation point;
        # with product integration on the self pairs that bias is at
        # roundoff (1e-11 at P = 1280), so the term is slack
        limits = dev_half <= 0.5 * dev_full + 6e-6 and dev_half <= 2e-5 and dev_full <= 2e-5
        kern = kernel_vector(m, b, omega0, consts)
        kernel_ratio = kern.v2 / kern.v1
        smallest = half.points[1].patch
        ratio = smallest.c[0] / smallest.a[0]
        ratio_ok = abs(ratio - kernel_ratio) <= 0.05 * abs(kernel_ratio)
        ok = ok and converged and limits and ratio_ok
        details.append(
            f"{sign}: residuals<=1e-10 {converged}, dev(1e-3)={dev_full:.2e}, "
            f"dev(5e-4)={dev_half:.2e}, ratio err "
            f"{abs(ratio - kernel_ratio) / abs(kernel_ratio):.2%}"
        )
    _verdict("criterion 10 (branch continuation)", ok, "; ".join(details))
