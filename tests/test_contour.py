"""Contour machinery: conformal maps, stream integrals vs closed forms,
residual structure, linearization blocks, Newton correction and branches."""

import math
import multiprocessing
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sqg_vstates import contour
from sqg_vstates.contour import (
    PatchPair,
    annulus_patch,
    boundary_samples,
    branch_continue,
    collocation_residual,
    eval_maps,
    newton_correct,
    residual,
    stream_integral,
)
from sqg_vstates.errors import (
    BoundaryCollision,
    NoConvergence,
    NotSimple,
    PreconditionError,
)
from sqg_vstates.specfun import AnnulusConstants, gauss_2f1, lambda_coeff, s_sum
from sqg_vstates.spectrum import bifurcation_row, kernel_vector, mode_matrix, threshold_N
from sqg_vstates.verify import _linearization_probe


@pytest.fixture(scope="module")
def consts_06():
    return AnnulusConstants.build(0.6, n_max=200)


# (m, K, P) covering each case of the grid symmetry rule, g = gcd(m, P)
# and q = P / g
SYMMETRY_GRIDS = [
    (5, 8, 1280),  # g = m
    (6, 2, 256),   # g = 2
    (3, 2, 256),   # g = 1
    (5, 2, 42),    # g = 1, P < 64
    (4, 1, 20),    # odd q = 5
]


def small_patch(b=0.5, m=4, K=3, omega=0.3, seed=1, scale=1e-3):
    rng = np.random.default_rng(seed)
    return PatchPair(
        b=b, m=m, K=K,
        a=scale * rng.standard_normal(K),
        c=scale * rng.standard_normal(K),
        omega=omega,
    )


def sine_coefficients(patch, P):
    """Retained sine coefficients of G_1, G_2 as the Newton system forms
    them (the first 2K rows of the augmented residual)."""
    fvec, _ = contour._system(patch, contour._pack(patch), 0.0, (1.0, 0.0), P)
    return fvec[:patch.K], fvec[patch.K:2 * patch.K]


def direct_maps(patch, w):
    """(Phi_j, w Phi_j'(w)) for both maps at the points ``w`` by the direct
    power sum, independent of the FFT evaluator."""
    p = patch.mode_exponents()
    wneg = np.asarray(w)[:, None] ** -p
    return (
        (w + wneg @ patch.a, w - wneg @ (p * patch.a)),
        (patch.b * w + wneg @ patch.c, patch.b * w - wneg @ (p * patch.c)),
    )


def _point_maps(src, dst, patch, tau, w):
    phi_t, num_t = direct_maps(patch, tau)[src - 1]
    phi_w, num_w = direct_maps(patch, np.array([w]))[dst - 1]
    return num_t - num_w[0], np.abs(phi_t - phi_w[0])


def offset_trapezoid(src, dst, patch, theta, P):
    """S(Phi_src, Phi_dst) at w = e^{i theta} as one direct mean over the
    P rotated half-offset nodes.  Second order on a self pair, so it is the
    independent oracle for ``stream_integral`` only at large P."""
    w = np.exp(1j * theta)
    tau = w * np.exp(2j * math.pi * (np.arange(P) + 0.5) / P)
    num, dist = _point_maps(src, dst, patch, tau, w)
    return complex((num / dist).mean())


def dense_product_rule(src, dst, patch, theta, P):
    """S(Phi_src, Phi_dst) at w = e^{i theta} as one dense sum over the P
    rotated integer nodes tau_l = w e^{i eta_l}: the trapezoid on a cross
    pair; on a self pair the product-integration weights
    V_l = W_l 2|sin(eta_l / 2)|, with W_l = (1/P) sum_{|n| <= P/2} mu_n
    cos(n eta_l) summed term by term from the (c1) moments
    mu_n = -2/pi - s_sum(|n|), and the node l = 0 left out."""
    w = np.exp(1j * theta)
    ell = np.arange(P)
    eta = 2.0 * math.pi * ell / P
    tau = w * np.exp(1j * eta)
    num, dist = _point_maps(src, dst, patch, tau, w)
    if src != dst:
        return complex((num / dist).mean())
    n = np.arange(1, P // 2 + 1)
    mu = np.array([-2.0 / math.pi - s_sum(k) for k in n], dtype=np.longdouble)
    mu[:-1] *= 2  # +-n for n < P/2, the Nyquist term once
    # the cosine sum cancels heavily, so it runs in extended precision;
    # cos(n eta_l) is looked up as cos(2 pi ((n l) mod P) / P)
    cosines = np.cos(8 * np.arctan(np.longdouble(1)) * ell / P)
    weights = (cosines[np.outer(ell, n) % P] @ mu / P).astype(float)
    weights *= 2.0 * np.abs(np.sin(eta / 2.0))
    return complex((weights[1:] * num[1:] / dist[1:]).sum())


class TestPatchPair:
    def test_guard_rejects_large_coefficients(self):
        with pytest.raises(PreconditionError):
            PatchPair(b=0.5, m=4, K=1, a=np.array([0.1]), c=np.array([0.0]), omega=0.0)

    def test_shape_and_range_validation(self):
        with pytest.raises(PreconditionError):
            PatchPair(b=1.2, m=4, K=1, a=np.zeros(1), c=np.zeros(1), omega=0.0)
        with pytest.raises(PreconditionError):
            PatchPair(b=0.5, m=1, K=1, a=np.zeros(1), c=np.zeros(1), omega=0.0)
        with pytest.raises(PreconditionError):
            PatchPair(b=0.5, m=4, K=2, a=np.zeros(3), c=np.zeros(2), omega=0.0)
        with pytest.raises(PreconditionError):
            PatchPair(b=0.5, m=4, K=1, a=np.array([np.nan]), c=np.zeros(1), omega=0.0)

    def test_coefficients_frozen(self):
        patch = small_patch()
        with pytest.raises(ValueError):
            patch.a[0] = 1.0


class TestEvalMaps:
    def test_annulus(self):
        patch = annulus_patch(0.5, 4, 3, 0.0)
        for theta in (0.0, 0.7, 2.0, 5.5):
            z1, z2, dz1, dz2 = eval_maps(patch, theta)
            w = np.exp(1j * theta)
            assert z1 == pytest.approx(w, abs=1e-15)
            assert z2 == pytest.approx(0.5 * w, abs=1e-15)
            assert dz1 == pytest.approx(1j * w, abs=1e-15)
            assert dz2 == pytest.approx(0.5j * w, abs=1e-15)

    def test_single_mode(self):
        eps, m = 1e-3, 5
        patch = PatchPair(b=0.5, m=m, K=1, a=np.array([eps]), c=np.zeros(1), omega=0.0)
        theta = 1.234
        z1, _, _, _ = eval_maps(patch, theta)
        expected = np.exp(1j * theta) + eps * np.exp(-1j * (m - 1) * theta)
        assert z1 == pytest.approx(expected, abs=1e-15)

    def test_tangential_derivative_matches_finite_difference(self):
        patch = small_patch(seed=7)
        h = 1e-5
        for theta in (0.3, 1.9, 4.4):
            z1p, z2p, _, _ = eval_maps(patch, theta + h)
            z1m, z2m, _, _ = eval_maps(patch, theta - h)
            _, _, dz1, dz2 = eval_maps(patch, theta)
            assert abs((z1p - z1m) / (2 * h) - dz1) <= 1e-8
            assert abs((z2p - z2m) / (2 * h) - dz2) <= 1e-8


class TestGridEvaluators:
    @pytest.mark.parametrize("P", [1, 7, 64, 1280])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_fft_maps_match_direct_sum(self, P, theta):
        # exponents n m - 1 = 4..79 reach past P = 1, 7 and 64, where the
        # FFT folds them into bin p mod P
        patch = small_patch(b=0.5, m=5, K=16, seed=2, scale=1e-4)
        w = np.exp(1j * theta) * np.exp(2j * math.pi * np.arange(P) / P)
        for got, ref in zip(contour._map_values(patch, P, theta), direct_maps(patch, w)):
            for g, r in zip(got, ref):
                assert np.abs(g - r).max() <= 1e-14

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_lookup_tables_match_direct_powers(self, m, K, P):
        p = np.arange(1, K + 1) * m - 1
        tau = np.exp(2j * math.pi * np.arange(P) / P)
        monomials = contour._node_powers(P, np.arange(P), -p)
        assert np.abs(monomials - tau[:, None] ** -p).max() <= 1e-13
        q, targets, proj = contour._collocation_grid(m, K, P)
        theta = 2.0 * math.pi * np.arange(targets.start, targets.stop) / P
        sines = 4.0 / q * np.sin(np.outer(theta, np.arange(1, K + 1) * m))
        assert np.abs(proj - sines).max() <= 1e-13

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_residual_is_exactly_zero_at_symmetry_points(self, m, K, P):
        # G_0 = G_{q/2} = 0 by the reflection symmetry, and so are their
        # rotated copies
        q = P // math.gcd(m, P)
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        for g in collocation_residual(patch, P):
            assert np.all(g[::q] == 0.0)
            if q % 2 == 0:
                assert np.all(g[q // 2::q] == 0.0)
            assert np.abs(g).max() > 0.0


class TestStreamIntegral:
    def test_self_interaction_annulus(self):
        # S(Id, Id) = -(2/pi) w
        patch = annulus_patch(0.5, 3, 2, 0.0)
        for theta in (0.0, 0.7, 3.1):
            val = stream_integral(1, 1, patch, theta, 4096)
            assert abs(val - (-2.0 / math.pi) * np.exp(1j * theta)) <= 1e-7

    def test_inner_self_interaction_scales_out(self):
        # the b factors cancel: S(Phi_2, Phi_2) = -(2/pi) w as well
        patch = annulus_patch(0.5, 3, 2, 0.0)
        val = stream_integral(2, 2, patch, 0.9, 4096)
        assert abs(val - (-2.0 / math.pi) * np.exp(0.9j)) <= 1e-7

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_cross_interaction_closed_forms(self, b):
        # smooth integrands: spectral accuracy against the hypergeometric
        # closed forms assembled from the cross-circle kernel moments
        patch = annulus_patch(b, 3, 2, 0.0)
        theta = 0.9
        w = np.exp(1j * theta)
        b2 = b * b
        f_half = gauss_2f1(0.5, 0.5, 1.0, b2)
        s21 = stream_integral(2, 1, patch, theta, 2048)
        assert abs(s21 - w * (0.5 * b2 * gauss_2f1(0.5, 1.5, 2.0, b2) - f_half)) <= 1e-12
        s12 = stream_integral(1, 2, patch, theta, 2048)
        assert abs(s12 - w * b * (lambda_coeff(1, b) - f_half)) <= 1e-12

    def test_self_interaction_annulus_exact_on_coarse_grid(self):
        # on the annulus the product rule integrates tau - w exactly: the
        # result is w mu_1 = -(2/pi) w up to roundoff, already at P = 64
        patch = annulus_patch(0.5, 3, 2, 0.0)
        for src in (1, 2):
            for theta in (0.0, 0.7, 3.1):
                val = stream_integral(src, src, patch, theta, 64)
                assert abs(val - (-2.0 / math.pi) * np.exp(1j * theta)) <= 1e-14

    def test_quadrature_convergence_order(self):
        # the half-offset oracle: doubling P should shrink the corner error
        # by about 4
        patch = annulus_patch(0.5, 3, 2, 0.0)
        target = (-2.0 / math.pi) * np.exp(0.3j)
        errs = [abs(offset_trapezoid(1, 1, patch, 0.3, P) - target) for P in (512, 1024, 2048)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_matches_offset_trapezoid_at_large_size(self):
        # independent of the (c1) moments the self weights are built from:
        # on a non-circular patch the product rule at P = 64 agrees with
        # the second-order half-offset trapezoid at P = 2^16
        patch = small_patch(seed=5)
        for src in (1, 2):
            for dst in (1, 2):
                for theta in (0.3, 2.0):
                    ref = offset_trapezoid(src, dst, patch, theta, 1 << 16)
                    assert abs(stream_integral(src, dst, patch, theta, 64) - ref) <= 1e-9

    def test_collision_guard(self):
        # degenerate inner circle: |Phi_2(tau) - Phi_2(w)| = b |tau - w|
        # drops below the disjointness guard for b ~ 1e-9
        patch = annulus_patch(1e-9, 2, 1, 0.0)
        with pytest.raises(BoundaryCollision):
            stream_integral(2, 2, patch, 0.5, 64)

    @pytest.mark.parametrize("P", [64, 2048])
    def test_matches_direct_one_point_formula(self, P):
        # non-circular patch, every (src, dst) pair and two target angles
        patch = small_patch(seed=5)
        for src in (1, 2):
            for dst in (1, 2):
                for theta in (0.3, 2.0):
                    ref = dense_product_rule(src, dst, patch, theta, P)
                    assert abs(stream_integral(src, dst, patch, theta, P) - ref) <= 1e-14

    def test_parameter_validation(self):
        patch = annulus_patch(0.5, 3, 2, 0.0)
        with pytest.raises(PreconditionError):
            stream_integral(0, 1, patch, 0.0, 256)
        with pytest.raises(PreconditionError):
            stream_integral(1, 1, patch, 0.0, 31)
        with pytest.raises(PreconditionError):
            stream_integral(1, 1, patch, 0.0, 257)


class TestResidual:
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("omega", [-1.0, 0.0, 0.5, 1.0])
    def test_annulus_is_solution(self, b, omega):
        patch = annulus_patch(b, 3, 4, omega)
        g1, g2 = collocation_residual(patch, 2048)
        assert max(np.abs(g1).max(), np.abs(g2).max()) <= 1e-8
        spec = residual(patch, 2048)
        assert spec.max_abs() <= 1e-8
        assert spec.leak <= 1e-8

    def test_mfold_leakage(self):
        spec = residual(small_patch(m=4, K=3), 2048)
        assert spec.leak <= 1e-8

    def test_reflection_antisymmetry(self):
        # real coefficients => G(-theta) = -G(theta) on the grid
        g1, g2 = collocation_residual(small_patch(seed=3), 512)
        assert np.abs(g1[1:] + g1[:0:-1]).max() <= 1e-12
        assert np.abs(g2[1:] + g2[:0:-1]).max() <= 1e-12
        assert abs(g1[0]) <= 1e-12 and abs(g2[0]) <= 1e-12

    def test_matches_single_point_rule(self):
        # grid evaluation is the same quadrature as stream_integral, which
        # evaluates each point directly and uses no grid symmetry
        P = 256
        cases = [
            (3, 2, 5, (0, 7, 100, 255)),  # gcd(m, P) = 1: reflection only
            # gcd(m, P) = 4, q = 64: representatives k <= 32, rotated
            # copies (71), mirrored (50), rotated and mirrored (178, 255),
            # and the half period (32, 224)
            (4, 2, 6, (3, 32, 50, 71, 178, 224, 255)),
        ]
        for m, K, seed, ks in cases:
            patch = small_patch(m=m, K=K, seed=seed)
            g1, g2 = collocation_residual(patch, P)
            for k in ks:
                theta = 2.0 * math.pi * k / P
                w = np.exp(1j * theta)
                z1, z2, dz1, dz2 = eval_maps(patch, theta)
                dphi1 = dz1 / (1j * w)
                dphi2 = dz2 / (1j * w)
                g1_direct = np.imag(
                    (patch.omega * z1
                     - stream_integral(1, 1, patch, theta, P)
                     + stream_integral(2, 1, patch, theta, P)) * np.conj(dphi1) * np.conj(w)
                )
                g2_direct = np.imag(
                    (patch.omega * z2
                     - stream_integral(1, 2, patch, theta, P)
                     + stream_integral(2, 2, patch, theta, P)) * np.conj(dphi2) * np.conj(w)
                )
                assert g1_direct == pytest.approx(g1[k], abs=1e-14)
                assert g2_direct == pytest.approx(g2[k], abs=1e-14)

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_reduced_grid_matches_brute_force(self, m, K, P):
        # reference: every one of the P targets evaluated by the kernel pass
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        ref1, ref2 = contour._boundary_residuals(patch, slice(0, P), P)
        g1, g2 = collocation_residual(patch, P)
        assert g1.shape == g2.shape == (P,)
        assert np.abs(g1 - ref1).max() <= 1e-13
        assert np.abs(g2 - ref2).max() <= 1e-13

    def test_residual_block_boundaries(self, monkeypatch):
        # q = 256: 129 representatives, 127 one-period targets
        patch = small_patch(b=0.6, m=5, K=8, seed=4, scale=3e-4)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * 1280)  # one block
        whole = collocation_residual(patch, 1280)
        whole_sines = sine_coefficients(patch, 1280)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * 16)  # 16-target blocks
        blocked = collocation_residual(patch, 1280)
        blocked_sines = sine_coefficients(patch, 1280)
        for full, part in zip(whole + whole_sines, blocked + blocked_sines):
            assert np.abs(part - full).max() <= 1e-13

    def test_collision_guard_on_grid_passes(self):
        # the residual and Jacobian passes share the guard of stream_integral
        patch = annulus_patch(1e-9, 2, 1, 0.0)
        with pytest.raises(BoundaryCollision):
            collocation_residual(patch, 64)
        with pytest.raises(BoundaryCollision):
            contour._exact_jacobian(patch, contour._pack(patch), 0.0, (1.0, 0.0), 64)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_sine_coefficients_converge_spectrally(self, consts_06, sign):
        # step 10 of the criterion-10 branch, traced at P = 4 K m = 160:
        # the 2K retained sine coefficients are converged there already
        m = threshold_N(0.6, consts_06) + 1
        run = branch_continue(m, 0.6, sign, steps=10, ds=1e-3, K=8, P=160, consts=consts_06)
        patch = run.points[-1].patch
        ref = np.concatenate(sine_coefficients(patch, 1280))
        for P in (160, 320):
            assert np.abs(np.concatenate(sine_coefficients(patch, P)) - ref).max() <= 1e-13

    def test_perturbation_coefficients_stable_under_refinement(self):
        patch = small_patch(m=4, K=3, seed=9)
        r_coarse = residual(patch, 1024)
        r_fine = residual(patch, 2048)
        assert np.abs(r_coarse.r1 - r_fine.r1).max() <= 1e-6
        assert np.abs(r_coarse.r2 - r_fine.r2).max() <= 1e-6

    def test_grid_size_guard(self):
        patch = small_patch(m=4, K=3)
        with pytest.raises(PreconditionError):
            residual(patch, 40)  # below 4*K*m = 48
        with pytest.raises(PreconditionError):
            residual(patch, 49)  # odd

    def test_one_period_collocation_matches_full_grid(self):
        # grid symmetry: projecting over half a period reproduces the
        # full-circle sine coefficients to summation roundoff
        for m, K, P in [(4, 3, 1024)] + SYMMETRY_GRIDS:
            for seed in (1, 5, 9):
                patch = small_patch(b=0.6, m=m, K=K, seed=seed, scale=3e-4)
                full = residual(patch, P)
                r1, r2 = sine_coefficients(patch, P)
                assert np.abs(r1 - full.r1).max() <= 1e-14
                assert np.abs(r2 - full.r2).max() <= 1e-14


class TestLinearization:
    def test_block_matches_mode_matrix(self):
        # m = N(0.5) + 2 = 5, first two blocks
        consts = AnnulusConstants.build(0.5, n_max=200)
        _, _, rel, _ = _linearization_probe(5, 0.5, 0.25, 1, 1e-6, 4096, consts)
        assert rel <= 1e-5
        _, _, rel, _ = _linearization_probe(5, 0.5, 0.25, 2, 1e-6, 2048, consts)
        assert rel <= 1e-5

    def test_fd_truncation_is_second_order(self):
        # compare FD blocks against a small-step reference so the
        # discretization error (shared by all steps) cancels
        consts = AnnulusConstants.build(0.5, n_max=200)
        ref, _, _, _ = _linearization_probe(5, 0.5, 0.25, 1, 1e-6, 2048, consts)
        coarse, _, _, _ = _linearization_probe(5, 0.5, 0.25, 1, 1e-4, 2048, consts)
        mid, _, _, _ = _linearization_probe(5, 0.5, 0.25, 1, 1e-5, 2048, consts)
        e_coarse = np.abs(coarse - ref).max()
        e_mid = np.abs(mid - ref).max()
        assert 25.0 <= e_coarse / e_mid <= 400.0

    def test_off_block_leakage(self):
        consts = AnnulusConstants.build(0.5, n_max=200)
        _, _, _, off = _linearization_probe(5, 0.5, 0.25, 1, 1e-6, 2048, consts)
        assert off <= 1e-7

    def test_exponent_guard(self):
        # m = 1 perturbs exponent n m - 1 = 0: the patch guard refuses it
        consts = AnnulusConstants.build(0.5, n_max=200)
        with pytest.raises(PreconditionError):
            _linearization_probe(1, 0.5, 0.0, 1, 1e-6, 256, consts)


def fd_jacobian(patch, x, s, vhat, P, h=1e-7):
    """Central-difference Jacobian of the augmented Newton system, the
    oracle for the exact one (step h * max(1, |x_k|) per unknown)."""
    jac = np.empty((x.size, x.size))
    for k in range(x.size):
        step = h * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += step
        xm = x.copy()
        xm[k] -= step
        fp, _ = contour._system(patch, xp, s, vhat, P)
        fm, _ = contour._system(patch, xm, s, vhat, P)
        jac[:, k] = (fp - fm) / (2.0 * step)
    return jac


class TestExactJacobian:
    VHAT = (0.6, 0.8)

    @pytest.mark.parametrize("m,K,P", [
        (5, 8, 1280),  # g = m
        (6, 2, 256),   # g = 2
        (5, 2, 42),    # g = 1
        (4, 1, 20),    # odd q = 5
    ])
    def test_matches_central_differences(self, m, K, P):
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        x = contour._pack(patch)
        exact, _, _ = contour._exact_jacobian(patch, x, 1e-3, self.VHAT, P)
        fd = fd_jacobian(patch, x, 1e-3, self.VHAT, P)
        assert np.abs(exact - fd).max() <= 1e-7 * np.abs(exact).max()

    def test_chunk_boundaries(self, monkeypatch):
        patch = small_patch(b=0.6, m=5, K=8, seed=4, scale=3e-4)
        x = contour._pack(patch)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * 1280)  # one block
        whole, _, _ = contour._exact_jacobian(patch, x, 0.0, self.VHAT, 1280)
        # q = 256: 127 targets in blocks of 64 + 63, then 100 + 27
        for block in (64, 100):
            monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * block)
            chunked, _, _ = contour._exact_jacobian(patch, x, 0.0, self.VHAT, 1280)
            assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()

    @pytest.mark.parametrize("m,K,P", [(5, 8, 1280), (6, 2, 256), (4, 1, 20)])
    def test_fused_residual_matches_system(self, m, K, P):
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        x = contour._pack(patch)
        _, fused, fused_norm = contour._exact_jacobian(patch, x, 1e-3, self.VHAT, P)
        fvec, rnorm = contour._system(patch, x, 1e-3, self.VHAT, P)
        assert np.abs(fused - fvec).max() <= 1e-14
        assert fused_norm == pytest.approx(rnorm, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_annulus_block_is_mode_matrix(self, n):
        # criterion 8 without a step: the exact block at frequency n m is
        # -(n m) M_{n m}, up to the discretization error at P = 4096
        m, b, omega, P = 5, 0.5, 0.25, 4096
        K = n + 2
        consts = AnnulusConstants.build(b, n_max=200)
        patch = annulus_patch(b, m, K, omega)
        jac, _, _ = contour._exact_jacobian(patch, contour._pack(patch), 0.0, self.VHAT, P)
        idx = [n - 1, K + n - 1]
        observed = jac[np.ix_(idx, idx)]
        expected = -(n * m) * mode_matrix(n * m, b, omega, consts).matrix()
        assert np.abs(observed - expected).max() <= 1e-5 * np.abs(expected).max()


class TestNewton:
    def test_zero_amplitude_returns_annulus(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        kern = kernel_vector(m, 0.6, row.omega_plus, consts_06)
        start = annulus_patch(0.6, m, 4, row.omega_plus)
        corrected, rnorm = newton_correct(start, 0.0, kern, P=320)
        assert corrected.omega == row.omega_plus
        assert np.all(corrected.a == 0.0) and np.all(corrected.c == 0.0)
        assert rnorm <= 1e-10

    def test_small_amplitude_converges(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        kern = kernel_vector(m, 0.6, row.omega_plus, consts_06)
        v1, v2 = kern.normalized()
        s = 1e-3
        K = 4
        a = np.zeros(K)
        c = np.zeros(K)
        a[0] = s * v1
        c[0] = s * v2
        predictor = PatchPair(b=0.6, m=m, K=K, a=a, c=c, omega=row.omega_plus)
        corrected, rnorm = newton_correct(predictor, s, kern, P=320)
        assert rnorm <= 1e-10
        assert abs(corrected.omega - row.omega_plus) <= 1e-3
        # amplitude constraint pinned to s
        assert corrected.a[0] * v1 + corrected.c[0] * v2 == pytest.approx(s, abs=1e-12)

    def test_no_convergence_when_iterations_exhausted(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        kern = kernel_vector(m, 0.6, row.omega_plus, consts_06)
        start = annulus_patch(0.6, m, 4, row.omega_plus)
        with pytest.raises(NoConvergence):
            newton_correct(start, 1e-3, kern, P=320, max_iter=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_rejects_bad_tolerance(self, consts_06, tol):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        kern = kernel_vector(m, 0.6, row.omega_plus, consts_06)
        start = annulus_patch(0.6, m, 4, row.omega_plus)
        with pytest.raises(PreconditionError):
            newton_correct(start, 1e-3, kern, P=320, newton_tol=tol)


class TestBranchContinue:
    def test_zero_steps_single_point(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        run = branch_continue(m, 0.6, "plus", steps=0, ds=1e-3, K=4, P=320, consts=consts_06)
        assert run.stopped_reason is None
        assert len(run.points) == 1
        pt = run.points[0]
        assert pt.s == 0.0
        row = bifurcation_row(m, 0.6, consts_06)
        assert pt.patch.omega == pytest.approx(row.omega_plus, abs=1e-15)
        assert pt.residual_norm <= 1e-10

    def test_both_signs_track_their_eigenvalues(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        for sign, omega0 in (("plus", row.omega_plus), ("minus", row.omega_minus)):
            run = branch_continue(m, 0.6, sign, steps=3, ds=1e-3, K=4, P=320, consts=consts_06)
            assert run.stopped_reason is None
            assert len(run.points) == 4
            kern = kernel_vector(m, 0.6, omega0, consts_06)
            v1, v2 = kern.normalized()
            for pt in run.points[1:]:
                assert pt.residual_norm <= 1e-10
                assert pt.patch.a[0] * v1 + pt.patch.c[0] * v2 == pytest.approx(pt.s, abs=1e-12)
            assert abs(run.points[1].patch.omega - omega0) <= 1e-3

    def test_below_threshold_refused(self, consts_06):
        with pytest.raises(NotSimple):
            branch_continue(2, 0.6, "plus", steps=1, ds=1e-3, K=4, P=320, consts=consts_06)

    def test_partial_branch_on_guard_failure(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        run = branch_continue(m, 0.6, "plus", steps=5, ds=0.06, K=2, P=320, consts=consts_06)
        assert run.stopped_reason is not None
        assert len(run.points) >= 1
        assert run.points[0].s == 0.0

    def test_argument_validation(self, consts_06):
        with pytest.raises(PreconditionError):
            branch_continue(5, 0.6, "up", steps=1, ds=1e-3, K=4, P=320, consts=consts_06)
        with pytest.raises(PreconditionError):
            branch_continue(5, 0.6, "plus", steps=-1, ds=1e-3, K=4, P=320, consts=consts_06)

    @pytest.mark.parametrize("kwargs", [
        {"K": 0},
        {"K": -1},
        {"ds": math.nan},
        {"ds": math.inf},
        {"newton_tol": math.nan},
        {"newton_tol": 0.0},
    ])
    def test_rejects_degenerate_arguments(self, consts_06, kwargs):
        args = {"steps": 1, "ds": 1e-3, "K": 4, "P": 320, "consts": consts_06, **kwargs}
        with pytest.raises(PreconditionError):
            branch_continue(5, 0.6, "plus", **args)

    def test_rejects_non_positive_quadrature_size(self, consts_06):
        for P in (0, -5):
            with pytest.raises(PreconditionError):
                branch_continue(5, 0.6, "plus", steps=1, ds=1e-3, K=4, P=P, consts=consts_06)

    def test_one_jacobian_and_one_residual_pass_per_step(self, consts_06, monkeypatch):
        calls = []
        for name in ("_exact_jacobian", "_system"):
            def counted(*args, _name=name, _orig=getattr(contour, name)):
                calls.append(_name)
                return _orig(*args)
            monkeypatch.setattr(contour, name, counted)
        step_calls = []
        newton = contour.newton_correct

        def per_step(*args):
            calls.clear()
            out = newton(*args)
            step_calls.append((calls.count("_exact_jacobian"), calls.count("_system")))
            return out

        monkeypatch.setattr(contour, "newton_correct", per_step)
        m = threshold_N(0.6, consts_06) + 1
        run = branch_continue(m, 0.6, "plus", steps=6, ds=1e-3, K=4, P=320, consts=consts_06)
        assert run.stopped_reason is None and len(run.points) == 7
        assert len(step_calls) == 6
        assert all(jac == 1 for jac, _ in step_calls)
        assert all(res == 1 for _, res in step_calls[2:])

    def test_predictor_extrapolates_quadratic_path(self):
        K, ds, vhat = 3, 1e-3, (0.6, 0.8)
        rng = np.random.default_rng(11)
        c0, c1, c2 = rng.standard_normal((3, 2 * K + 1))

        def path(s):
            x = c0 + c1 * s + c2 * s * s
            # on the amplitude constraint: x_0 v_1 + x_K v_2 = s
            x[K] = (s - x[0] * vhat[0]) / vhat[1]
            return x

        history = [path(k * ds) for k in range(5)]
        for k in (3, 4, 5):
            x = contour._predict(history[:k], ds, vhat)
            assert np.abs(x - path(k * ds)).max() <= 1e-14
            assert abs(x[0] * vhat[0] + x[K] * vhat[1] - k * ds) <= 1e-15
        # from the start point alone: the kernel direction in (a_1, c_1)
        x = contour._predict(history[:1], ds, vhat)
        step = np.zeros(2 * K + 1)
        step[0], step[K] = ds * vhat[0], ds * vhat[1]
        assert np.array_equal(x, history[0] + step)

    @pytest.mark.parametrize("b,sign,ds,floor", [
        (0.4, "plus", 5e-3, 12), (0.4, "minus", 5e-3, 11),
        (0.6, "plus", 5e-3, 8), (0.6, "minus", 5e-3, 9),
        (0.4, "plus", 2e-2, 3), (0.4, "minus", 2e-2, 3),
        (0.6, "plus", 2e-2, 2), (0.6, "minus", 2e-2, 3),
    ])
    def test_large_steps_reach_as_far_as_tangent_predictor(self, b, sign, ds, floor):
        # floors: points reached with the tangent-only predictor
        consts = AnnulusConstants.build(b, n_max=200)
        m = threshold_N(b, consts) + 1
        run = branch_continue(m, b, sign, steps=12, ds=ds, K=4, P=320, consts=consts)
        assert len(run.points) >= floor
        assert all(pt.residual_norm <= 1e-10 for pt in run.points)


class TestBoundarySamples:
    def test_annulus_circles(self):
        patch = annulus_patch(0.5, 4, 2, 0.0)
        samples = boundary_samples(patch, npoints=512)
        assert samples.shape == (512, 5)
        outer = np.hypot(samples[:, 1], samples[:, 2])
        inner = np.hypot(samples[:, 3], samples[:, 4])
        assert np.abs(outer - 1.0).max() <= 1e-14
        assert np.abs(inner - 0.5).max() <= 1e-14

    def test_matches_direct_sum(self):
        # the P = npoints case of the FFT evaluator, at an odd count
        patch = small_patch(seed=4)
        samples = boundary_samples(patch, npoints=7)
        (phi1, _), (phi2, _) = direct_maps(patch, np.exp(1j * samples[:, 0]))
        assert np.abs(samples[:, 1] + 1j * samples[:, 2] - phi1).max() <= 1e-15
        assert np.abs(samples[:, 3] + 1j * samples[:, 4] - phi2).max() <= 1e-15

    def test_rejects_empty_sampling(self):
        with pytest.raises(PreconditionError):
            boundary_samples(annulus_patch(0.5, 4, 2, 0.0), npoints=0)


class TestConcurrency:
    def test_shared_immutable_state_across_threads(self, consts_06):
        # residual evaluation and spectrum rows are pure over immutable
        # inputs: concurrent results must equal serial ones bitwise
        from concurrent.futures import ThreadPoolExecutor

        patch = small_patch(b=0.6, m=4, K=3, seed=11)
        serial_res = [residual(patch, 256) for _ in range(8)]
        serial_rows = [bifurcation_row(m, 0.6, consts_06) for m in range(4, 12)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            par_res = list(pool.map(lambda _: residual(patch, 256), range(8)))
            par_rows = list(pool.map(lambda m: bifurcation_row(m, 0.6, consts_06), range(4, 12)))
        for s, p in zip(serial_res, par_res):
            assert np.array_equal(s.r1, p.r1) and np.array_equal(s.r2, p.r2)
        assert serial_rows == par_rows

    def test_results_independent_of_worker_count(self, monkeypatch):
        # m = 6, P = 4096: g = 2, 1023 targets in 64 blocks of 16
        patch = small_patch(b=0.6, m=6, K=3, seed=12, scale=3e-4)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(contour, "_WORKERS", workers)
            spec = residual(patch, 4096)
            streams = [stream_integral(i, j, patch, 0.3, 4096) for i in (1, 2) for j in (1, 2)]
            runs.append([*collocation_residual(patch, 4096), spec.r1, spec.r2,
                         np.array([spec.leak]), np.array(streams)])
        assert contour._pool is not None  # the multi-worker passes used it
        for run in runs[1:]:
            for serial, parallel in zip(runs[0], run):
                assert np.array_equal(serial, parallel)

    def test_concurrent_callers_start_one_pool(self, monkeypatch):
        # more workers than cores and a short switch interval: callers that
        # race to start the pool must start one, and get the serial result
        import concurrent.futures

        patch = small_patch(b=0.6, m=4, K=3, seed=11)
        monkeypatch.setattr(contour, "_WORKERS", 1)
        serial = residual(patch, 2048)  # q = 512: 255 targets in 8 blocks
        callers = concurrent.futures.ThreadPoolExecutor(max_workers=4)
        started = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(contour, "_pool", None)
        monkeypatch.setattr(contour, "_WORKERS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with callers:
                futures = [callers.submit(residual, patch, 2048) for _ in range(8)]
                _, pending = concurrent.futures.wait(futures, timeout=60)
                assert not pending
        finally:
            sys.setswitchinterval(interval)
            for pool in started:
                pool.shutdown()
        assert len(started) == 1
        for future in futures:
            par = future.result()
            assert np.array_equal(serial.r1, par.r1) and np.array_equal(serial.r2, par.r2)

    def test_collision_in_a_worker_block_reaches_the_caller(self, monkeypatch):
        # 16 blocks of 4 targets on 2 workers; the colliding target 21 is in
        # block 5, which the second stripe takes on a pool thread
        P = 64
        nodes = contour._nodes(P)
        src = (nodes, nodes)
        dst = 0.5 * nodes
        dst[21] = nodes[3]
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 4 * P)
        monkeypatch.setattr(contour, "_WORKERS", 2)
        with pytest.raises(BoundaryCollision):
            contour._stream_on_grid(src, (dst, dst), slice(0, P), False)
        # the pool survives the error: a later pass gives the serial result
        patch = small_patch(b=0.6, m=4, K=3, seed=5)
        after = collocation_residual(patch, 256)
        monkeypatch.setattr(contour, "_WORKERS", 1)
        serial = collocation_residual(patch, 256)
        assert all(np.array_equal(a, s) for a, s in zip(after, serial))

    def test_error_waits_for_every_stripe(self, monkeypatch):
        # the collision is in block 2, early in the caller's stripe; the pool
        # stripe's blocks are slow, and all of them end before the raise
        import time

        P = 64
        nodes = contour._nodes(P)
        dst = 0.5 * nodes
        dst[9] = nodes[3]
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 4 * P)
        done = []

        def block(lo, hi, d, spare, weight):
            if lo // 4 % 2:
                time.sleep(0.005)
            done.append(lo)

        with pytest.raises(BoundaryCollision):
            contour._distance_blocks(nodes, dst, slice(0, P), False, block, 2)
        assert sorted(done) == [0] + list(range(4, P, 8))

    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_pool_works_in_a_forked_child(self, monkeypatch):
        # the child inherits a started pool whose threads were not copied;
        # without the reset at fork its passes would wait for them forever
        monkeypatch.setattr(contour, "_WORKERS", 2)
        patch = small_patch(b=0.6, m=6, K=3, seed=12, scale=3e-4)
        parent = residual(patch, 4096)
        assert contour._pool is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            child_res = residual(patch, 4096)
            send.send((child_res.r1, child_res.r2))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert receive.poll(20), "forked child did not finish its residual pass in 20 s"
            r1, r2 = receive.recv()
        finally:
            proc.join(5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert proc.exitcode == 0
        assert np.array_equal(r1, parent.r1) and np.array_equal(r2, parent.r2)

    def test_pool_starts_lazily(self):
        # commands without a multi-block kernel pass, and a single-block
        # residual, start no thread and import no executor
        script = (
            "import sys, threading\n"
            "from sqg_vstates import cli, contour\n"
            "assert cli.main(['spectrum', '--b', '0.5', '--m-max', '40']) == 0\n"
            "assert cli.main(['threshold', '--b', '0.9']) == 0\n"
            "contour.residual(contour.annulus_patch(0.6, 4, 3, 0.3), 256)\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        src = pathlib.Path(contour.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
