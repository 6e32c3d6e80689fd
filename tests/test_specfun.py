"""Special-function kernel: series vs oracle routes, exact values, invariants."""

import decimal
import math
import time
import tracemalloc

import numpy as np
import pytest

from sqg_vstates.errors import NoConvergence, PreconditionError
from sqg_vstates.specfun import AnnulusConstants, _agm, _lambda_table, _s_table, lambda_coeff, s_sum
from sqg_vstates.verify import (
    adaptive_quad,
    contiguous_residuals,
    gauss_2f1,
    gauss_2f1_euler,
    lambda_integral_oracle,
    pochhammer_ratio,
)


class TestPochhammer:
    def test_ratio_matches_quotient_for_small_n(self):
        for x in (0.5, 1.5, 3.25):
            for n in range(0, 12):
                assert pochhammer_ratio(x, n) == pytest.approx(
                    math.prod(x + k for k in range(n)) / math.factorial(n), rel=1e-13
                )

    def test_ratio_survives_large_n(self):
        # both factors overflow separately near n ~ 170
        val = pochhammer_ratio(0.5, 500)
        assert 0.0 < val < 1.0

    def test_ratio_overflow_is_range_error(self):
        with pytest.raises(OverflowError):
            pochhammer_ratio(400.0, 2000)

    def test_negative_index_is_a_guard_error(self):
        with pytest.raises(PreconditionError, match="n >= 0"):
            pochhammer_ratio(0.5, -1)


class TestGauss2F1:
    def test_z_zero(self):
        assert gauss_2f1(0.3, 1.7, 2.2, 0.0) == 1.0

    def test_log_closed_form(self):
        # F(1, 1, 2; z) = -log(1-z)/z
        for z in (0.1, 0.25, 0.5, 0.81):
            assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-14)
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-13)

    def test_binomial_closed_form(self):
        # F(a, b, b; z) = (1-z)^(-a)
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(0.5, 4.0)
            z = rng.uniform(0.0, 0.9)
            assert gauss_2f1(a, b, b, z) == pytest.approx((1.0 - z) ** (-a), rel=1e-13)

    @pytest.mark.parametrize("z", [0.99, 0.998])
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_binomial_closed_form_near_one(self, a, z):
        # the stopping rule counts the tail, about the last term over 1 - z,
        # which a plain 1e-15 relative cut left at 5e-13 for z = 0.998
        assert gauss_2f1(a, 2.0, 2.0, z) == pytest.approx((1.0 - z) ** (-a), rel=3e-14)

    def test_euler_oracle_trivial(self):
        assert gauss_2f1_euler(0.8, 1.0, 2.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_euler_oracle_log_form(self):
        assert gauss_2f1_euler(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-12)

    def test_series_vs_euler(self):
        assert gauss_2f1(0.5, 2.5, 3.0, 0.25) == pytest.approx(
            gauss_2f1_euler(0.5, 2.5, 3.0, 0.25), rel=1e-12
        )
        assert gauss_2f1(0.5, 1.5, 2.0, 0.49) == pytest.approx(
            gauss_2f1_euler(0.5, 1.5, 2.0, 0.49), rel=1e-10
        )

    @pytest.mark.parametrize("z", [0.04, 0.25, 0.49, 0.81])
    def test_series_vs_euler_on_radius_squares(self, z):
        # z values are the squares of representative inner radii
        rng = np.random.default_rng(int(z * 100))
        for _ in range(10):
            b = rng.uniform(0.05, 4.0)
            c = b + rng.uniform(0.1, 4.0)
            a = rng.uniform(-2.0, 2.0)
            series = gauss_2f1(a, b, c, z)
            integral = gauss_2f1_euler(a, b, c, z)
            assert abs(series - integral) <= 1e-10 * (1.0 + abs(series))

    def test_nonconvergence_near_one(self):
        with pytest.raises(NoConvergence):
            gauss_2f1(0.5, 0.5, 1.0, 1.0 - 1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(PreconditionError):
            gauss_2f1(1.0, 1.0, 0.0, 0.5)  # c non-positive integer
        with pytest.raises(PreconditionError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(PreconditionError):
            gauss_2f1(1.0, 1.0, 2.0, -0.1)  # z out of range
        with pytest.raises(PreconditionError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(PreconditionError):
            gauss_2f1_euler(1.0, 2.0, 1.5, 0.3)  # needs c > b
        with pytest.raises(PreconditionError):
            gauss_2f1_euler(1.0, -1.0, 2.0, 0.3)  # needs b > 0


class TestAdaptiveQuad:
    def test_smooth_integrand(self):
        assert adaptive_quad(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_depth_cap_raises_and_names_interval(self):
        # a jump at an irrational point never meets a tight tolerance in 3
        # halvings; the Kronrod value must not be returned silently
        jump = 1.0 / math.sqrt(2.0)
        with pytest.raises(NoConvergence, match=r"unresolved on \[0\.625, 0\.75\]"):
            adaptive_quad(lambda x: 1.0 if x < jump else 0.0, 0.0, 1.0, tol=1e-12, max_depth=3)

    def test_empty_interval_is_zero_without_evaluations(self):
        calls = []
        assert adaptive_quad(lambda x: calls.append(x) or 1.0, 1.0, 1.0) == 0.0
        assert calls == []


class TestContiguousRelations:
    def test_collapse_at_z_zero(self):
        assert contiguous_residuals(0.7, 1.3, 2.1, 0.0) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("abcz", [(0.5, 1.5, 2.0, 0.36), (1.5, 3.5, 4.0, 0.64)])
    def test_spot_values(self, abcz):
        for r in contiguous_residuals(*abcz):
            assert abs(r) <= 1e-10

    def test_seeded_sweep(self):
        # a + b - c capped at 2 keeps the function values O(100), so the
        # absolute bound tests the identities, not float cancellation
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.1, 3.5)
            c = max(0.3, a + b - rng.uniform(-3.0, 2.0))
            z = rng.uniform(1e-6, 0.9)
            for r in contiguous_residuals(a, b, c, z):
                assert abs(r) <= 1e-10


class TestOddHarmonicSum:
    def test_first_values(self):
        assert s_sum(1) == 0.0
        assert s_sum(2) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)
        assert s_sum(4) == pytest.approx((2.0 / math.pi) * (1 / 3 + 1 / 5 + 1 / 7), rel=1e-14)

    def test_increment(self):
        for n in range(1, 120):
            inc = s_sum(n + 1) - s_sum(n)
            assert inc == pytest.approx((2.0 / math.pi) / (2 * n + 1), rel=1e-12)

    def test_strictly_increasing(self):
        vals = [s_sum(n) for n in range(1, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_is_a_guard_error(self):
        with pytest.raises(PreconditionError, match="n >= 1"):
            s_sum(0)

    @pytest.mark.parametrize("n_max", [1, 2, 20, 200])
    def test_table_column_is_bitwise_the_sums(self, n_max):
        # check_c1_c2 reads its S_n column from one table
        assert _s_table(n_max).tolist() == [s_sum(n) for n in range(1, n_max + 1)]


class TestLambdaCoefficient:
    def test_small_radius_limit(self):
        # F(.; 0) = 1 and (1/2)_1 / 1! = 1/2
        assert lambda_coeff(1, 1e-8) == pytest.approx(0.5, abs=1e-8)
        assert lambda_integral_oracle(1, 1e-8) == pytest.approx(0.5, abs=1e-7)

    def test_closed_form_vs_integral(self):
        for n, b in [(1, 0.5), (3, 0.6), (7, 0.3), (20, 0.8), (50, 0.2)]:
            closed = lambda_coeff(n, b)
            quad = lambda_integral_oracle(n, b)
            assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))

    def test_decreasing_in_mode(self):
        for b in np.linspace(0.1, 0.9, 9):
            vals = [lambda_coeff(n, float(b)) for n in range(1, 201)]
            assert all(v > 0.0 for v in vals)
            assert all(hi < lo for lo, hi in zip(vals, vals[1:]))

    def test_increasing_in_radius(self):
        assert lambda_coeff(2, 0.3) < lambda_coeff(2, 0.7)
        radii = list(np.linspace(0.1, 0.9, 9))
        for n in (1, 5, 40, 200):
            vals = [lambda_coeff(n, float(b)) for b in radii]
            assert all(hi > lo for lo, hi in zip(vals, vals[1:]))

    def test_oracle_monotone_in_radius(self):
        assert lambda_integral_oracle(2, 0.3) < lambda_integral_oracle(2, 0.7)

    def test_invalid_arguments(self):
        with pytest.raises(PreconditionError):
            lambda_coeff(0, 0.5)
        with pytest.raises(PreconditionError):
            lambda_coeff(3, 1.0)
        with pytest.raises(PreconditionError):
            lambda_integral_oracle(3, 0.0)


def _decimal_lambda_table(b: float, n_max: int, digits: int = 40) -> list[float]:
    """The AGM and backward recurrence of ``_lambda_table``, from the same
    start index, in ``digits``-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one, half, bd = decimal.Decimal(1), decimal.Decimal("0.5"), decimal.Decimal(b)
        x, y = one + bd, one - bd
        while x - y > decimal.Decimal(10) ** (-digits // 2) * x:
            x, y = (x + y) / 2, (x * y).sqrt()
        b2, start = bd * bd, n_max + math.ceil(40.0 / -math.log(b)) + 2
        sigma, sigmas = one / (2 * start), []
        for j in range(start - 1, 0, -1):
            t = b2 * (j + half) * sigma
            sigma = (half * (one - b2) + t) / (j - half * b2 + t)
            if j <= n_max:
                sigmas.append(sigma)
        lam, out = 2 / (x + y) / bd, []
        for sigma in reversed(sigmas):
            lam *= bd * (one - sigma)
            out.append(float(lam))
        return out


class TestLambdaTable:
    # the seed-6 and seed-13 radii of the diagram benchmark, where a
    # recurrence on the ratio r_j instead of sigma_j drifted most
    RADII = [float(b) for b in np.linspace(0.05, 0.95, 19)] + [0.6924954403848922, 0.933956871298993]

    @pytest.mark.parametrize("b", RADII)
    def test_matches_closed_form(self, b):
        table = _lambda_table(b, 999)
        for n in range(1, 1000):
            closed = pochhammer_ratio(0.5, n) * b ** (n - 1) * gauss_2f1(0.5, n + 0.5, n + 1.0, b * b)
            if closed > 1e-250:  # subnormal values carry fewer digits
                assert abs(table[n - 1] - closed) <= 3e-14 * closed, (b, n)

    @pytest.mark.parametrize("b", [0.99, 0.999])
    def test_matches_40_digit_recurrence(self, b):
        ref = np.array(_decimal_lambda_table(b, 1000))
        assert np.max(np.abs(_lambda_table(b, 1000) / ref - 1.0)) <= 2e-14

    @pytest.mark.parametrize("b", [0.05, 0.3, 0.6, 0.9, 0.999])
    def test_bitwise_prefix_of_larger_table(self, b):
        full = _lambda_table(b, 999)
        for n in (1, 7, 64, 199, 200, 511, 999):
            assert np.array_equal(_lambda_table(b, n), full[:n]), n

    def test_agm_ends_for_extreme_radii(self):
        assert _agm(1.0 + 1e-300, 1.0 - 1e-300) == 1.0
        # 2 / AGM(1 + k, 1 - k) = (4/pi) K(k), K(1/2) = 1.6857503548125960
        assert 2.0 / _agm(1.5, 0.5) == pytest.approx(4.0 / math.pi * 1.685750354812596, rel=1e-15)
        # K(k) -> log(4/k') as k -> 1, with k' = 2^-26 at b = 1 - 2^-53
        b = 1.0 - 2.0**-53
        assert _agm(1.0 + b, 1.0 - b) == pytest.approx(math.pi / (56.0 * math.log(2.0)), rel=1e-14)

    @pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
    def test_laplace_sum_rule(self, b):
        # the generating function (1 - 2b cos psi + b^2)^(-1/2) at psi = 0:
        # b^(0) / 2 + sum_{j>=1} b^(j) = 1 / (1 - b), with b^(j) = 2b Lambda_j
        # and b^(0) = 2 / AGM(1 + b, 1 - b) from an AGM written here
        x, y = 1.0 + b, 1.0 - b
        while x - y > 1e-15 * x:
            x, y = 0.5 * (x + y), math.sqrt(x * y)
        total = 1.0 / x + 2.0 * b * math.fsum(_lambda_table(b, 2000).tolist())
        assert abs(total * (1.0 - b) - 1.0) <= 1e-14

    def test_thin_annulus_cap_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(NoConvergence, match=r"b=0\.9999999999999999 needs a recurrence of \d+ steps"):
            lambda_coeff(1, 1.0 - 2.0**-53)
        assert time.perf_counter() - t0 < 1.0


class TestAnnulusConstants:
    def test_tables_match_direct_evaluation(self):
        consts = AnnulusConstants.build(0.6, n_max=50)
        for n in (1, 2, 17, 50):
            assert consts.s(n) == pytest.approx(s_sum(n), rel=1e-14, abs=1e-15)
            assert consts.lam(n) == pytest.approx(lambda_coeff(n, 0.6), rel=1e-14)

    def test_table_invariants(self):
        consts = AnnulusConstants.build(0.35, n_max=120)
        assert consts.s_table[0] == 0.0
        assert np.all(np.diff(consts.s_table) > 0)
        assert np.all(consts.lambda_table > 0)
        assert np.all(np.diff(consts.lambda_table) < 0)

    def test_n_max_is_a_floor(self):
        # build() holds max(n_max, ceil(1.5 / (1 - b)) + 20) modes (1.5 / (1 - 0.9)
        # rounds to 15.000000000000004), and a larger table extends a smaller
        # one bitwise
        short, full = AnnulusConstants.build(0.9, n_max=5), AnnulusConstants.build(0.9, n_max=40)
        assert (short.n_max, full.n_max) == (36, 40)
        assert np.array_equal(short.lambda_table, full.lambda_table[:36])
        assert np.array_equal(short.s_table, full.s_table[:36])

    def test_empty_table_is_a_guard_error(self):
        with pytest.raises(PreconditionError, match="n_max must be >= 1"):
            AnnulusConstants.build(0.5, n_max=0)

    @pytest.mark.parametrize("n_max, n_s, n_lam", [(10, 5, 5), (5, 5, 4), (0, 0, 0)])
    def test_tables_must_hold_n_max_modes(self, n_max, n_s, n_lam):
        # a table shorter than its n_max passed require() and then ended
        # s(n), mode_matrix and spectrum_columns in a bare IndexError
        full = AnnulusConstants.build(0.5, n_max=10)
        with pytest.raises(PreconditionError, match=r"shape \(n_max,\)"):
            AnnulusConstants(b=0.5, n_max=n_max, s_table=full.s_table[:n_s],
                             lambda_table=full.lambda_table[:n_lam])

    def test_unreachable_size_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(NoConvergence, match="needs a recurrence of"):
                AnnulusConstants.build(0.5, n_max=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_immutable(self):
        consts = AnnulusConstants.build(0.5, n_max=10)
        with pytest.raises(ValueError):
            consts.s_table[0] = 1.0
        with pytest.raises(ValueError):
            consts.lambda_table[3] = 0.0

    def test_index_guard(self):
        # a table answers for its modes 1..n_max only; past its end the
        # message names the mode, the table's end and the build that holds it
        consts = AnnulusConstants.build(0.5, n_max=10)
        n = consts.n_max
        assert consts.s(n) == consts.s_table[-1]
        assert consts.lam(n) == consts.lambda_table[-1]
        for lookup in (consts.s, consts.lam):
            with pytest.raises(PreconditionError, match=rf"n={n + 1}\b.*n_max={n}\b") as exc:
                lookup(n + 1)
            assert "AnnulusConstants.build(b, n_max=n)" in str(exc.value)
            with pytest.raises(PreconditionError):
                lookup(0)
