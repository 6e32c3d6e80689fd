"""Linearized operator at the annulus: matrices, eigenvalues, threshold,
kernel, and the brute-force determinant cross-checks."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sqg_vstates.errors import NotAnEigenvalue, NotSimple, PreconditionError
from sqg_vstates.specfun import AnnulusConstants, lambda_coeff, s_sum
from sqg_vstates.spectrum import (
    MIN_RADIUS,
    bifurcation_row,
    discriminant,
    kernel_vector,
    mode_matrix,
    quadratic_coeffs,
    spectrum_columns,
    threshold_N,
)
from sqg_vstates.verify import eigenvalue_monotonicity_scan


@pytest.fixture(scope="module")
def consts_05():
    return AnnulusConstants.build(0.5, n_max=220)


@pytest.fixture(scope="module")
def consts_map():
    return {b: AnnulusConstants.build(b, n_max=220) for b in (0.2, 0.5, 0.8, 0.9)}


class TestModeMatrix:
    def test_entries(self, consts_05):
        b = 0.5
        mat = mode_matrix(7, b, 0.3, consts_05)
        lam_1 = lambda_coeff(1, b)
        lam_7 = lambda_coeff(7, b)
        s_7 = s_sum(7)
        assert mat.m11 == pytest.approx(0.3 - s_7 + b * b * lam_1, rel=1e-14)
        assert mat.m12 == pytest.approx(-b * b * lam_7, rel=1e-14)
        assert mat.m21 == pytest.approx(b * lam_7, rel=1e-14)
        assert mat.m22 == pytest.approx(b * 0.3 + s_7 - b * lam_1, rel=1e-14)

    def test_offdiagonal_structure(self, consts_map):
        rng = np.random.default_rng(11)
        for b, consts in consts_map.items():
            for _ in range(20):
                n = int(rng.integers(2, 200))
                omega = rng.uniform(-1.0, 1.0)
                mat = mode_matrix(n, b, omega, consts)
                assert mat.m12 / mat.m21 == pytest.approx(-b, rel=1e-13)
                assert mat.m12 * mat.m21 < 0.0

    def test_det_vanishes_at_eigenvalues(self, consts_map):
        for b, consts in consts_map.items():
            n_thr = threshold_N(b, consts)
            for m in (n_thr, n_thr + 5, n_thr + 40):
                row = bifurcation_row(m, b, consts)
                for omega in (row.omega_minus, row.omega_plus):
                    mat = mode_matrix(m, b, omega, consts)
                    assert abs(mat.det()) <= 1e-12 * mat.det_scale()

    def test_guards(self, consts_05):
        with pytest.raises(PreconditionError):
            mode_matrix(1, 0.5, 0.0, consts_05)
        with pytest.raises(PreconditionError):
            mode_matrix(3, 0.6, 0.0, consts_05)  # consts built for b=0.5
        # a mode past the table is refused, not computed outside it
        with pytest.raises(PreconditionError, match=r"n=500\b.*n_max=220\b"):
            mode_matrix(500, 0.5, 0.0, consts_05)

    @pytest.mark.parametrize("m_min,m_max,why", [(1, 5, "m >= 2"), (10, 5, "is empty")])
    def test_column_range_guards(self, consts_05, m_min, m_max, why):
        with pytest.raises(PreconditionError, match=why):
            spectrum_columns(m_min, m_max, 0.5, consts_05)

    @pytest.mark.parametrize("call", [
        lambda c: quadratic_coeffs(221, 0.5, c),
        lambda c: discriminant(221, 0.5, c),
        lambda c: bifurcation_row(221, 0.5, c),
        lambda c: spectrum_columns(200, 221, 0.5, c),
        lambda c: kernel_vector(221, 0.5, 0.0, c),
        lambda c: eigenvalue_monotonicity_scan(0.5, 221, c),
    ], ids=["quadratic_coeffs", "discriminant", "bifurcation_row", "spectrum_columns",
            "kernel_vector", "eigenvalue_monotonicity_scan"])
    def test_past_the_table_is_a_guard_error(self, consts_05, call):
        with pytest.raises(PreconditionError, match=r"n=221\b.*n_max=220\b"):
            call(consts_05)

    def test_range_past_the_table_fails_before_allocating(self, consts_05):
        # a range of ten million modes past a 220-mode table is refused on
        # its last mode, not after an array over the whole range is built
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match=r"n=10000000\b.*n_max=220\b"):
                spectrum_columns(2, 10**7, 0.5, consts_05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestModeRule:
    """Modes and table lengths must be integers where they enter the
    spectral layer: a float or a boolean is refused with PreconditionError,
    not left to a bare IndexError or TypeError, or (s_sum(2.5), lam(True),
    n_max=3.0) answered as if it were an integer."""

    @pytest.mark.parametrize("call", [
        lambda c: mode_matrix(5.0, 0.5, 0.1, c),
        lambda c: quadratic_coeffs(5.5, 0.5, c),
        lambda c: discriminant(2.5, 0.5, c),
        lambda c: kernel_vector(5.5, 0.5, 0.1, c),
        lambda c: bifurcation_row(5.5, 0.5, c),
        lambda c: spectrum_columns(3.5, 6, 0.5, c),
        lambda c: c.s(2.5),
        lambda c: lambda_coeff(2.5, 0.5),
        lambda c: AnnulusConstants.build(0.99, n_max=500.5),
        lambda c: s_sum(2.5),
        lambda c: c.lam(True),
        lambda c: AnnulusConstants(b=0.5, n_max=3.0, s_table=c.s_table[:3],
                                   lambda_table=c.lambda_table[:3]),
    ], ids=["mode_matrix", "quadratic_coeffs", "discriminant", "kernel_vector",
            "bifurcation_row", "spectrum_columns", "s", "lambda_coeff", "build",
            "s_sum", "lam", "post_init"])
    def test_non_integer_mode_is_a_guard_error(self, consts_05, call):
        with pytest.raises(PreconditionError, match="integer"):
            call(consts_05)


class TestQuadraticCoefficients:
    def test_mode_one_is_a_guard_error(self, consts_05):
        with pytest.raises(PreconditionError, match="n >= 2"):
            quadratic_coeffs(1, 0.5, consts_05)

    def test_determinant_identity_random_sweep(self, consts_map):
        # brute-force det of the assembled matrix vs the quadratic in lambda
        rng = np.random.default_rng(99)
        for _ in range(100):
            b = float(rng.choice([0.2, 0.5, 0.8]))
            consts = consts_map[b]
            n = int(rng.integers(2, 200))
            c_n, d_n = quadratic_coeffs(n, b, consts)
            for lam in (-1.0, 0.0, 1.0, rng.uniform(-2.0, 2.0)):
                omega = 0.5 * (1.0 - lam)
                mat = mode_matrix(n, b, omega, consts)
                quad = 0.25 * b * (lam * lam - 2.0 * c_n * lam + d_n)
                assert abs(mat.det() - quad) <= 1e-12 * mat.det_scale()

    def test_reduced_discriminant_identity(self, consts_map):
        for b, consts in consts_map.items():
            for n in range(2, 201, 7):
                c_n, d_n = quadratic_coeffs(n, b, consts)
                delta, _, _ = discriminant(n, b, consts)
                assert abs(c_n * c_n - d_n - delta) <= 1e-10 * max(1.0, abs(delta))

    def test_d_n_to_rounding_against_exact_arithmetic(self, consts_map):
        # D_n of the same float inputs in exact rational arithmetic; the
        # expanded polynomial loses up to 11 units of 2^-52 here, the product 2
        for b, consts in consts_map.items():
            B, L1 = Fraction(b), Fraction(consts.lam(1))
            for n in range(2, 201):
                S, LN = Fraction(consts.s(n)), Fraction(consts.lam(n))
                exact = (1 - 2 * S + 2 * B * B * L1) * (1 + 2 * S / B - 2 * L1) + 4 * B * B * LN * LN
                d_n = quadratic_coeffs(n, b, consts)[1]
                assert abs(Fraction(d_n) - exact) <= Fraction(2.0**-50) * max(1, abs(exact))

    def test_large_radius_is_finite(self):
        consts = AnnulusConstants.build(0.999, n_max=10)
        c_n, d_n = quadratic_coeffs(2, 0.999, consts)
        assert math.isfinite(c_n) and math.isfinite(d_n)


class TestDiscriminant:
    def test_first_factor_closed_form(self, consts_map):
        for b, consts in consts_map.items():
            _, e_1, _ = discriminant(1, b, consts)
            assert e_1 == pytest.approx(-((1.0 + b) ** 2) * lambda_coeff(1, b), rel=1e-13)
            assert e_1 < 0.0

    def test_factorization(self, consts_map):
        for b, consts in consts_map.items():
            for n in range(1, 201, 11):
                delta, e_n, f_n = discriminant(n, b, consts)
                assert e_n * f_n == pytest.approx(delta, rel=1e-12, abs=1e-300)

    def test_increasing_above_threshold(self, consts_map):
        for b in (0.2, 0.5, 0.8):
            consts = consts_map[b]
            n_thr = threshold_N(b, consts)
            deltas = [discriminant(n, b, consts)[0] for n in range(n_thr, 201)]
            assert all(hi > lo for lo, hi in zip(deltas, deltas[1:]))


class TestThreshold:
    def test_scan_oracle(self, consts_map):
        # brute-force scan of the factor signs, built from the raw tables
        for b, consts in consts_map.items():
            n = 2
            while True:
                core = (1.0 / b + 1.0) * s_sum(n) - (1.0 + b * b) * lambda_coeff(1, b)
                if core - 2.0 * b * lambda_coeff(n, b) > 0.0:
                    break
                n += 1
            assert threshold_N(b, consts) == n

    def test_sign_change_bracketing(self, consts_map):
        for b, consts in consts_map.items():
            n_thr = threshold_N(b, consts)
            assert n_thr >= 2
            _, e_prev, _ = discriminant(n_thr - 1, b, consts)
            _, e_at, _ = discriminant(n_thr, b, consts)
            assert e_prev <= 0.0 < e_at
            for n in range(1, n_thr):
                assert discriminant(n, b, consts)[1] <= 0.0
            for n in range(n_thr, 201):
                assert discriminant(n, b, consts)[1] > 0.0

    def test_known_values(self, consts_map):
        assert threshold_N(0.5, consts_map[0.5]) == 3
        assert threshold_N(0.9, consts_map[0.9]) == 14

    def test_table_exhaustion(self):
        # N(0.9) = 14 > 5: a short hand-made table that ends below N is
        # refused (build() itself holds 36 modes)
        full = AnnulusConstants.build(0.9, n_max=20)
        consts = AnnulusConstants(b=0.9, n_max=5, s_table=full.s_table[:5],
                                  lambda_table=full.lambda_table[:5])
        with pytest.raises(PreconditionError, match=r"modes 1\.\.5 end below N\(0\.9\)"):
            threshold_N(0.9, consts)
        assert threshold_N(0.9, full) == 14

    def test_built_table_reaches_threshold(self):
        # build() holds at least ceil(1.5 / (1 - b)) + 20 modes, which reaches
        # N(b) + 20, the default spectrum rows
        radii = list(np.linspace(0.005, 0.985, 197)) + [0.993, 0.995, 0.999, 0.9997, 0.9999]
        for b in radii:
            consts = AnnulusConstants.build(float(b), n_max=1)
            assert threshold_N(float(b), consts) + 20 <= consts.n_max

    def test_thin_annulus_limit(self):
        # N(b) (1 - b) -> 1.4226 as b -> 1; each N lies far past the
        # default 200-mode table
        for b, n in ((0.999, 1422), (0.9997, 4742), (0.9999, 14225)):
            assert threshold_N(b, AnnulusConstants.build(b)) == n
            assert n * (1.0 - b) == pytest.approx(1.4226, abs=1e-3)


class TestBifurcationRow:
    def test_root_sum_and_gap(self, consts_map):
        for b, consts in consts_map.items():
            lam_1 = lambda_coeff(1, b)
            n_thr = threshold_N(b, consts)
            for m in (n_thr, n_thr + 3, n_thr + 30):
                row = bifurcation_row(m, b, consts)
                target = (1.0 - 1.0 / b) * s_sum(m) + (1.0 - b * b) * lam_1
                assert row.omega_plus + row.omega_minus == pytest.approx(target, abs=1e-12)
                assert row.omega_plus - row.omega_minus == pytest.approx(
                    math.sqrt(row.delta_m), rel=1e-12
                )

    def test_lambda_omega_mapping_exact(self, consts_map):
        for b, consts in consts_map.items():
            row = bifurcation_row(threshold_N(b, consts) + 1, b, consts)
            assert row.omega_plus == 0.5 * (1.0 - row.lambda_minus)
            assert row.omega_minus == 0.5 * (1.0 - row.lambda_plus)
            assert row.lambda_minus < row.lambda_plus
            assert row.delta_m > 1e-12

    def test_det_sign_structure(self, consts_05):
        # upward parabola in lambda: negative strictly between the
        # eigenvalues (in Omega), positive outside
        b = 0.5
        row = bifurcation_row(5, b, consts_05)
        inside = mode_matrix(5, b, 0.5 * (row.omega_minus + row.omega_plus), consts_05)
        assert inside.det() < 0.0
        for omega in (row.omega_minus - 0.2, row.omega_plus + 0.2):
            assert mode_matrix(5, b, omega, consts_05).det() > 0.0

    def test_below_threshold_refused(self, consts_05):
        with pytest.raises(NotSimple):
            bifurcation_row(2, 0.5, consts_05)  # N(0.5) = 3

    @pytest.mark.parametrize("b", [1e-3, 1e-6, 1e-10, 1e-150])
    def test_small_root_keeps_its_digits_at_small_radius(self, b):
        # lambda^- = C - sqrt(Delta) cancels when D << C^2; from the
        # product of the roots det M_m(Omega^+) still vanishes to rounding
        consts = AnnulusConstants.build(b)
        start = threshold_N(b, consts)
        cols = spectrum_columns(start, start + 20, b, consts)
        for m, omega in zip(cols.m.tolist(), cols.omega_plus.tolist()):
            mat = mode_matrix(m, b, omega, consts)
            assert abs(mat.det()) <= 1e-15 * mat.det_scale()

    @pytest.mark.parametrize("b", [1e-3, 1e-6])
    @pytest.mark.parametrize("m", [3, 5, 10])
    def test_small_radius_limit_is_the_disk_speed(self, b, m):
        # as b -> 0 the annulus becomes the disk, whose m-fold SQG speed is
        # s_sum(m): Omega_m^+(b) - s_sum(m) = O(b^2), about -b^2 / 2 here
        consts = AnnulusConstants.build(b)
        assert threshold_N(b, consts) == 2
        assert abs(bifurcation_row(m, b, consts).omega_plus - s_sum(m)) <= b * b

    def test_radius_below_the_floor_is_a_guard_error(self):
        b = MIN_RADIUS / 2
        consts = AnnulusConstants.build(b)
        for call in (lambda: threshold_N(b, consts),
                     lambda: discriminant(2, b, consts),
                     lambda: spectrum_columns(2, 3, b, consts)):
            with pytest.raises(PreconditionError, match="below 1e-150"):
                call()
        threshold_N(MIN_RADIUS, AnnulusConstants.build(MIN_RADIUS))


class TestKernelVector:
    def test_annihilation_at_both_eigenvalues(self, consts_map):
        for b, consts in consts_map.items():
            n_thr = threshold_N(b, consts)
            for m in (n_thr, n_thr + 10):
                row = bifurcation_row(m, b, consts)
                for omega in (row.omega_minus, row.omega_plus):
                    vec = kernel_vector(m, b, omega, consts)
                    mat = mode_matrix(m, b, omega, consts)
                    scale = mat.det_scale() * max(1.0, math.hypot(vec.v1, vec.v2))
                    assert abs(mat.m11 * vec.v1 + mat.m12 * vec.v2) <= 1e-10 * scale
                    assert abs(mat.m21 * vec.v1 + mat.m22 * vec.v2) <= 1e-10 * scale
                    assert vec.v2 < 0.0
                    assert (vec.v1, vec.v2) != (0.0, 0.0)

    def test_second_row_identity(self, consts_05):
        # b L_m v1 + (b Omega + S_m - b L_1) v2 vanishes identically in Omega
        b = 0.5
        row = bifurcation_row(6, b, consts_05)
        vec = kernel_vector(6, b, row.omega_plus, consts_05)
        mat = mode_matrix(6, b, row.omega_plus, consts_05)
        assert abs(mat.m21 * vec.v1 + mat.m22 * vec.v2) <= 1e-15

    def test_minus_direction_at_small_radius(self):
        # true ratio v1 / v2 = b^2 L_3 / m11 is about 1e-30; the cancelling
        # form Omega + S_3/b - L_1 read 185 times v2
        b = 1e-6
        consts = AnnulusConstants.build(b, 3)
        vec = kernel_vector(3, b, bifurcation_row(3, b, consts).omega_minus, consts)
        assert abs(vec.v1 / vec.v2) < 1e-20

    @pytest.mark.parametrize("b", [1e-3, 1e-6, 1e-10])
    def test_each_row_vanishes_to_its_terms_at_small_radius(self, b):
        # each row of M_m v against the summed magnitudes of its terms, the
        # summands of m11 and m22 included, up to the underflow allowance
        consts = AnnulusConstants.build(b, 3)
        n_thr = threshold_N(b, consts)
        consts = AnnulusConstants.build(b, n_thr + 20)
        lam_1 = consts.lam(1)
        for m in range(n_thr, n_thr + 21):
            row = bifurcation_row(m, b, consts)
            for omega in (row.omega_minus, row.omega_plus):
                vec = kernel_vector(m, b, omega, consts)
                v1, v2 = vec.v1, vec.v2
                mat = mode_matrix(m, b, omega, consts)
                s_m = consts.s(m)
                terms1 = (abs(omega) + s_m + b * b * lam_1) * abs(v1) + abs(mat.m12 * v2)
                terms2 = abs(mat.m21 * v1) + (b * abs(omega) + s_m + b * lam_1) * abs(v2)
                for x1, x2, terms in ((mat.m11, mat.m12, terms1), (mat.m21, mat.m22, terms2)):
                    underflow = sys.float_info.min * (1.0 + abs(x1) + abs(x2) + abs(v1) + abs(v2))
                    assert abs(x1 * v1 + x2 * v2) <= 1e-14 * terms + underflow

    def test_underflowed_l_m_is_a_guard_error(self):
        b = 1e-10
        consts = AnnulusConstants.build(b, 40)
        assert consts.lam(40) == 0.0
        with pytest.raises(PreconditionError, match="underflows"):
            kernel_vector(40, b, bifurcation_row(40, b, consts).omega_minus, consts)

    def test_rejects_non_eigenvalue(self, consts_05):
        with pytest.raises(NotAnEigenvalue):
            kernel_vector(5, 0.5, 0.123456, consts_05)


class TestMonotonicityScan:
    @pytest.mark.parametrize("b", [0.5, 0.9])
    def test_no_violations_up_to_200(self, b, consts_map):
        assert eigenvalue_monotonicity_scan(b, 200, consts_map[b]) == []

    def test_single_mode_trivial(self, consts_05):
        n_thr = threshold_N(0.5, consts_05)
        assert eigenvalue_monotonicity_scan(0.5, n_thr, consts_05) == []

    def test_range_below_threshold_is_empty(self, consts_map):
        # N(0.9) = 14, so modes up to 5 hold no simple eigenvalue to scan
        assert threshold_N(0.9, consts_map[0.9]) == 14
        assert eigenvalue_monotonicity_scan(0.9, 5, consts_map[0.9]) == []

    @pytest.mark.parametrize("s_mode, s_factor, lam_mode, lam_factor, expected", [
        # S_26 raised: lambda^+_26 passes the modes above it; L_20 raised:
        # Delta_20 drops below Delta_19 and lambda^+_20 below lambda^+_18
        (26, 1.04, 20, 4.0, [
            "Delta_20 <= Delta_19 at b=0.9",
            "lambda^+_20 <= lambda^+_19 at b=0.9",
            "lambda^-_20 >= lambda^-_19 at b=0.9",
            "Delta_27 <= Delta_26 at b=0.9",
            "lambda^+_27 <= lambda^+_26 at b=0.9",
            "lambda^-_27 >= lambda^-_26 at b=0.9",
            "interleaving failed for modes 18 < 20 at b=0.9",
            "interleaving failed for modes 19 < 20 at b=0.9",
            "interleaving failed for modes 26 < 27 at b=0.9",
            "interleaving failed for modes 26 < 28 at b=0.9",
            "interleaving failed for modes 26 < 29 at b=0.9",
        ]),
        # both raised at mode 22: C_22 rises as sqrt(Delta_22) falls, so only
        # lambda^-_22 leaves its place, above lambda^-_21
        (22, 1.03, 22, 6.0, [
            "Delta_22 <= Delta_21 at b=0.9",
            "lambda^-_22 >= lambda^-_21 at b=0.9",
            "interleaving failed for modes 21 < 22 at b=0.9",
        ]),
        # as above, tuned so only lambda^+_22 moves, above lambda^+_23
        (22, 1.05, 22, 5.5, [
            "lambda^+_23 <= lambda^+_22 at b=0.9",
            "interleaving failed for modes 22 < 23 at b=0.9",
        ]),
    ])
    def test_perturbed_tables_report_each_violation(self, s_mode, s_factor, lam_mode,
                                                     lam_factor, expected):
        # the scan names the adjacent failures mode by mode, then every pair
        # that fails to interleave
        b = 0.9
        full = AnnulusConstants.build(b, n_max=40)
        s, lam = full.s_table.copy(), full.lambda_table.copy()
        s[s_mode - 1] *= s_factor
        lam[lam_mode - 1] *= lam_factor
        consts = AnnulusConstants(b=b, n_max=40, s_table=s, lambda_table=lam)
        assert eigenvalue_monotonicity_scan(b, 30, consts) == expected
