"""Contour machinery: conformal maps, stream integrals vs closed forms,
residual structure, linearization blocks, Newton correction and branches."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sqg_vstates import contour
from sqg_vstates.contour import (
    BranchRun,
    PatchPair,
    annulus_patch,
    boundary_samples,
    branch_continue,
    newton_correct,
    residual,
)
from sqg_vstates.errors import (
    BoundaryCollision,
    NoConvergence,
    NotSimple,
    PreconditionError,
    SingularJacobian,
)
from sqg_vstates.specfun import AnnulusConstants, lambda_coeff, s_sum
from sqg_vstates.spectrum import bifurcation_row, kernel_vector, mode_matrix, threshold_N
from sqg_vstates.verify import _linearization_probe, gauss_2f1


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
    fvec = contour._system(patch, contour._pack(patch), 0.0, (1.0, 0.0), P)
    return fvec[:patch.K], fvec[patch.K:2 * patch.K]


def kernel_direction(m, b, sign, consts):
    """The normalized kernel direction of the branch ``sign`` at mode m."""
    row = bifurcation_row(m, b, consts)
    omega0 = row.omega_plus if sign == "plus" else row.omega_minus
    return kernel_vector(m, b, omega0, consts).normalized()


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


def node_angle(theta, P):
    """The grid node k nearest the angle ``theta`` and its angle 2 pi k / P."""
    k = round(theta * P / (2.0 * math.pi)) % P
    return k, 2.0 * math.pi * k / P


def node_stream(src, dst, patch, k, P):
    """S(Phi_src, Phi_dst) at the grid node k: the one-target kernel pass
    of the P grid."""
    maps = contour._map_values(patch, P)
    return complex(contour._stream_on_grid(maps[src - 1], maps[dst - 1], slice(k, k + 1), src == dst)[0])


def full_grid_residuals(patch, P):
    """G_1, G_2 at all P grid nodes, each of the four stream integrals a
    row-wise kernel pass over every target: the residual with no grid
    symmetry and no shared cross block."""
    maps = contour._map_values(patch, P)
    every = slice(0, P)
    g = []
    for j, (phi, num) in enumerate(maps):
        e = patch.omega * phi
        e -= contour._stream_on_grid(maps[0], maps[j], every, j == 0)
        e += contour._stream_on_grid(maps[1], maps[j], every, j == 1)
        g.append(np.imag(e * np.conj(num)))
    return tuple(g)


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
        with pytest.raises(PreconditionError, match="K >= 1"):
            PatchPair(b=0.5, m=4, K=0, a=np.zeros(0), c=np.zeros(0), omega=0.0)

    def test_mode_exponents_must_fit_int64(self):
        zeros = np.zeros(1)
        with pytest.raises(PreconditionError, match="int64"):
            PatchPair(b=0.5, m=10**30, K=1, a=zeros, c=zeros, omega=0.0)
        for K in (2, 3):  # K m >= 2**63: the exponents would wrap
            with pytest.raises(PreconditionError, match="int64"):
                PatchPair(b=0.5, m=2**62, K=K, a=np.zeros(K), c=np.zeros(K), omega=0.0)
        patch = PatchPair(b=0.5, m=2**63 - 1, K=1, a=zeros, c=zeros, omega=0.0)
        assert patch.mode_exponents().tolist() == [2**63 - 2]

    def test_coefficients_frozen(self):
        patch = small_patch()
        with pytest.raises(ValueError):
            patch.a[0] = 1.0


class TestSizeRule:
    """m, K, P and steps must be integers: a float or a boolean is refused
    with PreconditionError, not left to a bare TypeError or IndexError deeper
    down, or (m = 5.5) to a map that is not m-fold."""

    @pytest.mark.parametrize("m,K", [(5.5, 2), (5.0, 2), (5, 2.0), (True, 2), (5, True)])
    def test_patch_pair(self, m, K):
        zeros = np.zeros(2)
        with pytest.raises(PreconditionError, match="must be an integer"):
            PatchPair(0.6, m, K, zeros, zeros, 0.1)

    @pytest.mark.parametrize("m,kwargs", [
        (5, {"K": 8.0}),
        (5, {"P": 1280.0}),
        (5, {"steps": 1.5}),
        (5.0, {}),
        (5, {"K": True}),
    ])
    def test_branch_continue(self, consts_06, m, kwargs):
        args = {"steps": 1, "K": 8, "consts": consts_06, **kwargs}
        with pytest.raises(PreconditionError, match="integer"):
            branch_continue(m, 0.6, "plus", ds=1e-3, **args)

    @pytest.mark.parametrize("P", [320.0, True])
    def test_newton_correct(self, consts_06, P):
        row = bifurcation_row(5, 0.6, consts_06)
        vhat = kernel_direction(5, 0.6, "plus", consts_06)
        with pytest.raises(PreconditionError, match="P must be an integer"):
            newton_correct(annulus_patch(0.6, 5, 4, row.omega_plus), 1e-3, vhat, P)

    def test_residual(self):
        patch = small_patch(m=5, K=8)
        residual(patch, 160)  # a cached grid must not admit the equal float
        with pytest.raises(PreconditionError, match="P must be an integer, got 160.0"):
            residual(patch, 160.0)

    def test_numpy_integers_are_sizes(self, consts_06):
        m, K, P = np.int64(5), np.int64(4), np.int64(320)
        spec = residual(PatchPair(0.6, m, K, np.zeros(4), np.zeros(4), 0.1), P)
        ref = residual(annulus_patch(0.6, 5, 4, 0.1), 320)
        assert np.array_equal(spec.r1, ref.r1) and np.array_equal(spec.g2, ref.g2)
        run = branch_continue(m, 0.6, "plus", np.int64(2), 1e-3, K=K, P=P, consts=consts_06)
        assert run.stopped_reason is None and len(run.points) == 3 and run.P == 320

    @pytest.mark.parametrize("m,K,P,named", [
        (np.int64(2**61), np.int64(8), None, 2**66),  # 4 K m would wrap to 0
        (5, 8, np.int64(2**63 - 1), 2**63 + 32),  # P rounded up past int64
    ])
    def test_numpy_sizes_do_not_wrap_in_branch_continue(self, m, K, P, named):
        # formed from Python ints, each is a grid above the cap, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=f"P={named} .*cap K\\*P <= {contour.MAX_KP}"):
                branch_continue(m, 0.6, "plus", 1, 1e-3, K=K, P=P)

    @pytest.mark.parametrize("npoints", [512.0, 1.5, True])
    def test_boundary_samples(self, npoints):
        with pytest.raises(PreconditionError, match="npoints must be an integer >= 1"):
            boundary_samples(annulus_patch(0.5, 4, 2, 0.0), npoints)
        assert boundary_samples(annulus_patch(0.5, 4, 2, 0.0), np.int64(8)).shape == (8, 5)


class TestEvalMaps:
    def test_annulus(self):
        patch = annulus_patch(0.5, 4, 3, 0.0)
        w = contour._nodes(8)
        (z1, a1), (z2, a2) = contour._map_values(patch, 8)
        assert np.abs(z1 - w).max() <= 1e-15
        assert np.abs(z2 - 0.5 * w).max() <= 1e-15
        assert np.abs(a1 - w).max() <= 1e-15
        assert np.abs(a2 - 0.5 * w).max() <= 1e-15

    def test_single_mode(self):
        eps, m, P = 1e-3, 5, 64
        patch = PatchPair(b=0.5, m=m, K=1, a=np.array([eps]), c=np.zeros(1), omega=0.0)
        theta = 2.0 * math.pi * np.arange(P) / P
        (z1, _), _ = contour._map_values(patch, P)
        expected = np.exp(1j * theta) + eps * np.exp(-1j * (m - 1) * theta)
        assert np.abs(z1 - expected).max() <= 1e-15

    def test_tangential_derivative_matches_finite_difference(self):
        # central difference between neighbouring nodes against the
        # tangential derivative i w Phi'(w) = i A
        patch = small_patch(seed=7)
        P = 1 << 17
        h = 2.0 * math.pi / P
        for phi, num in contour._map_values(patch, P):
            for theta in (0.3, 1.9, 4.4):
                k, _ = node_angle(theta, P)
                assert abs((phi[k + 1] - phi[k - 1]) / (2 * h) - 1j * num[k]) <= 1e-8


class TestGridEvaluators:
    @pytest.mark.parametrize("P", [1, 7, 64, 1280])
    def test_fft_maps_match_direct_sum(self, P):
        # exponents n m - 1 = 4..79 reach past P = 1, 7 and 64, where the
        # FFT folds them into bin p mod P
        patch = small_patch(b=0.5, m=5, K=16, seed=2, scale=1e-4)
        w = np.exp(2j * math.pi * np.arange(P) / P)
        for got, ref in zip(contour._map_values(patch, P), direct_maps(patch, w)):
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
        spec = residual(patch, P)
        for g in (spec.g1, spec.g2):
            assert np.all(g[::q] == 0.0)
            if q % 2 == 0:
                assert np.all(g[q // 2::q] == 0.0)
            assert np.abs(g).max() > 0.0


def subtraction_differences(tables, part, rows, out):
    """The broadcast subtraction x_l - x_k that :func:`contour._differences`
    replaces, from the factor tables' own entries: the reference for the
    exactness of the rank-2 products."""
    left, right = tables
    return np.subtract(right[part, 0], -left[part, rows, 1][:, None], out=out)


def spread_points(rng, n):
    """n complex points whose parts have magnitudes from 1e-8 to 1e8."""
    parts = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, n))
    return parts[0] + 1j * parts[1]


class TestRank2Differences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distances_equal_direct_subtraction(self, seed, monkeypatch):
        # random parts over 16 decades, with exact copies among them: every
        # fourth target k copies node 2 k, so |D| = 0 there; target 1 copies
        # only the real part of node 5, so Re D = 0 with |D| > 0
        rng = np.random.default_rng(seed)
        P, n = 97, 40
        src = spread_points(rng, P)
        dst = spread_points(rng, n)
        dst[::4] = src[:2 * n:8]
        dst[1] = src[5].real + 1j * dst[1].imag
        monkeypatch.setattr(contour, "COLLISION_TOL", 0.0)  # the arithmetic alone
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 7 * P)  # blocks of 7, the last partial
        tables = contour._difference_tables(src, dst)
        got = np.empty((n, P))
        for rows, d, _, _ in contour._distance_blocks(tables, slice(0, n), False):
            got[rows] = d
        dx = src.real - dst.real[:, None]
        dy = src.imag - dst.imag[:, None]
        assert np.array_equal(got, np.sqrt(dx * dx + dy * dy))
        assert np.count_nonzero(got == 0.0) == n // 4
        for part, ref in enumerate((dx, dy)):
            diff = contour._differences(tables, part, slice(0, n), np.empty((n, P)))
            assert np.array_equal(diff, ref)

    def test_self_pair_distances_equal_direct_subtraction(self, monkeypatch):
        # the targets 3..60 of a self pair: +inf on the diagonal l = k,
        # the direct |D| everywhere else
        rng = np.random.default_rng(5)
        P = 64
        phi = spread_points(rng, P)
        targets = slice(3, 61)
        monkeypatch.setattr(contour, "COLLISION_TOL", 0.0)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 9 * P)
        tables = contour._difference_tables(phi, phi[targets])
        got = np.empty((targets.stop - targets.start, P))
        for rows, d, _, weight in contour._distance_blocks(tables, targets, True):
            got[rows] = d
            assert weight.shape == d.shape
        k = np.arange(targets.start, targets.stop)
        dx = phi.real - phi.real[k, None]
        dy = phi.imag - phi.imag[k, None]
        ref = np.sqrt(dx * dx + dy * dy)
        ref[np.arange(k.size), k] = np.inf
        assert np.array_equal(got, ref)
        assert np.isinf(got).sum() == k.size

    @pytest.mark.parametrize("K", [1, 8, 32])
    def test_passes_match_the_subtraction_bitwise(self, K, monkeypatch):
        # residual and Jacobian bytes with the products, then with the
        # subtraction in their place; P = 4Km, plus a multi-block residual
        m = 5
        patch = small_patch(b=0.6, m=m, K=K, seed=K, scale=2e-4 / K)
        x = contour._pack(patch)
        grids = (4 * K * m, 1280)

        def passes():
            out = []
            for P in grids:
                out += contour._boundary_residuals(patch, P)
            out += contour._exact_jacobian(patch, x, 1e-3, (0.6, 0.8), grids[0])
            return [np.asarray(a).tobytes() for a in out]

        products = passes()
        monkeypatch.setattr(contour, "_differences", subtraction_differences)
        assert passes() == products


RESIDUAL_BYTES = """
import hashlib
import numpy as np
from sqg_vstates import contour
rng = np.random.default_rng(7)
digest = hashlib.md5()
for K, P in ((8, 1280), (32, 640)):
    patch = contour.PatchPair(b=0.6, m=5, K=K, a=1e-5 * rng.standard_normal(K),
                              c=1e-5 * rng.standard_normal(K), omega=0.3)
    for g in contour._boundary_residuals(patch, P):
        digest.update(g.tobytes())
print(digest.hexdigest())
"""


def test_residual_bytes_do_not_depend_on_blas_threads():
    src = str(Path(contour.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", RESIDUAL_BYTES], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


class TestGridTables:
    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            contour._nodes(64)[0] = 0.0
        _, _, proj = contour._collocation_grid(5, 2, 40)
        with pytest.raises(ValueError):
            proj[0, 0] = 0.0

    def test_repeated_calls_return_the_same_objects(self):
        assert contour._nodes(96) is contour._nodes(96)
        first = contour._collocation_grid(6, 2, 96)
        again = contour._collocation_grid(6, 2, 96)
        assert again is first and again[2] is first[2]

    def test_invalid_grid_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(PreconditionError):
                contour._collocation_grid(4, 3, 40)  # below 4*K*m = 48
            with pytest.raises(PreconditionError):
                contour._collocation_grid(4, 3, 49)  # odd


class TestStreamIntegral:
    def test_self_interaction_annulus(self):
        # S(Id, Id) = -(2/pi) w
        patch = annulus_patch(0.5, 3, 2, 0.0)
        for theta in (0.0, 0.7, 3.1):
            k, theta_k = node_angle(theta, 4096)
            val = node_stream(1, 1, patch, k, 4096)
            assert abs(val - (-2.0 / math.pi) * np.exp(1j * theta_k)) <= 1e-7

    def test_inner_self_interaction_scales_out(self):
        # the b factors cancel: S(Phi_2, Phi_2) = -(2/pi) w as well
        patch = annulus_patch(0.5, 3, 2, 0.0)
        k, theta_k = node_angle(0.9, 4096)
        val = node_stream(2, 2, patch, k, 4096)
        assert abs(val - (-2.0 / math.pi) * np.exp(1j * theta_k)) <= 1e-7

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_cross_interaction_closed_forms(self, b):
        # smooth integrands: spectral accuracy against the hypergeometric
        # closed forms assembled from the cross-circle kernel moments
        patch = annulus_patch(b, 3, 2, 0.0)
        k, theta_k = node_angle(0.9, 2048)
        w = np.exp(1j * theta_k)
        b2 = b * b
        f_half = gauss_2f1(0.5, 0.5, 1.0, b2)
        s21 = node_stream(2, 1, patch, k, 2048)
        assert abs(s21 - w * (0.5 * b2 * gauss_2f1(0.5, 1.5, 2.0, b2) - f_half)) <= 1e-12
        s12 = node_stream(1, 2, patch, k, 2048)
        assert abs(s12 - w * b * (lambda_coeff(1, b) - f_half)) <= 1e-12

    def test_self_interaction_annulus_exact_on_coarse_grid(self):
        # on the annulus the product rule integrates tau - w exactly: the
        # result is w mu_1 = -(2/pi) w up to roundoff, already at P = 64
        patch = annulus_patch(0.5, 3, 2, 0.0)
        for src in (1, 2):
            for theta in (0.0, 0.7, 3.1):
                k, theta_k = node_angle(theta, 64)
                val = node_stream(src, src, patch, k, 64)
                assert abs(val - (-2.0 / math.pi) * np.exp(1j * theta_k)) <= 1e-14

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
                    k, theta_k = node_angle(theta, 64)
                    ref = offset_trapezoid(src, dst, patch, theta_k, 1 << 16)
                    assert abs(node_stream(src, dst, patch, k, 64) - ref) <= 1e-9

    def test_collision_guard(self):
        # degenerate inner circle: |Phi_2(tau) - Phi_2(w)| = b |tau - w|
        # drops below the disjointness guard for b ~ 1e-9
        patch = annulus_patch(1e-9, 2, 1, 0.0)
        with pytest.raises(BoundaryCollision):
            node_stream(2, 2, patch, 5, 64)

    @pytest.mark.parametrize("P", [64, 2048])
    def test_matches_direct_one_point_formula(self, P):
        # non-circular patch, every (src, dst) pair and two target angles
        patch = small_patch(seed=5)
        for src in (1, 2):
            for dst in (1, 2):
                for theta in (0.3, 2.0):
                    k, theta_k = node_angle(theta, P)
                    ref = dense_product_rule(src, dst, patch, theta_k, P)
                    assert abs(node_stream(src, dst, patch, k, P) - ref) <= 1e-14


class TestCrossBlock:
    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS + [(2, 3, 26), (5, 1, 22)])
    def test_folded_streams_match_row_passes(self, m, K, P):
        # both cross streams from the representative rows, against one
        # row-wise pass each; (2, 3, 26) has odd q = 13 and g = 2, (5, 1, 22)
        # has g = 1
        patch = small_patch(b=0.6, m=m, K=K, seed=6, scale=3e-4)
        q, targets, _ = contour._collocation_grid(m, K, P)
        maps = contour._map_values(patch, P)
        s21, s12 = contour._cross_streams(maps, targets, q)
        for got, (src, dst) in zip((s21, s12), ((1, 0), (0, 1))):
            ref = contour._stream_on_grid(maps[src], maps[dst], targets, False)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_residual_pass_rows(self, m, K, P, monkeypatch):
        # two self passes over the targets and one cross block over the rows
        # 0..q/2: 383 rows at (5, 8, 1280), where two row-wise cross passes
        # made it 508
        rows = []
        blocks = contour._distance_blocks

        def counted(tables, targets, self_pair):
            rows.append(tables[0].shape[1])
            return blocks(tables, targets, self_pair)

        monkeypatch.setattr(contour, "_distance_blocks", counted)
        q = contour._collocation_grid(m, K, P)[0]
        contour._boundary_residuals(small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4), P)
        assert len(rows) == 3
        assert sum(rows) == 2 * ((q + 1) // 2 - 1) + q // 2 + 1
        if (m, K, P) == (5, 8, 1280):
            assert sum(rows) == 383


class TestResidual:
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("omega", [-1.0, 0.0, 0.5, 1.0])
    def test_annulus_is_solution(self, b, omega):
        patch = annulus_patch(b, 3, 4, omega)
        spec = residual(patch, 2048)
        assert max(np.abs(spec.g1).max(), np.abs(spec.g2).max()) <= 1e-8
        assert max(np.abs(spec.r1).max(), np.abs(spec.r2).max()) <= 1e-8

    def test_reflection_antisymmetry(self):
        # real coefficients => G(-theta) = -G(theta) on the grid
        spec = residual(small_patch(seed=3), 512)
        g1, g2 = spec.g1, spec.g2
        assert np.abs(g1[1:] + g1[:0:-1]).max() <= 1e-12
        assert np.abs(g2[1:] + g2[:0:-1]).max() <= 1e-12
        assert abs(g1[0]) <= 1e-12 and abs(g2[0]) <= 1e-12

    def test_matches_single_point_rule(self):
        # the reduced grid evaluation against one-target kernel passes at
        # each node, which use no grid symmetry
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
            spec = residual(patch, P)
            g1, g2 = spec.g1, spec.g2
            (z1, a1), (z2, a2) = contour._map_values(patch, P)
            for k in ks:
                g1_direct = np.imag(
                    (patch.omega * z1[k]
                     - node_stream(1, 1, patch, k, P)
                     + node_stream(2, 1, patch, k, P)) * np.conj(a1[k])
                )
                g2_direct = np.imag(
                    (patch.omega * z2[k]
                     - node_stream(1, 2, patch, k, P)
                     + node_stream(2, 2, patch, k, P)) * np.conj(a2[k])
                )
                assert g1_direct == pytest.approx(g1[k], abs=1e-14)
                assert g2_direct == pytest.approx(g2[k], abs=1e-14)

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_reduced_grid_matches_brute_force(self, m, K, P):
        # reference: every one of the P targets evaluated row by row
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        ref1, ref2 = full_grid_residuals(patch, P)
        spec = residual(patch, P)
        g1, g2 = spec.g1, spec.g2
        assert g1.shape == g2.shape == (P,)
        assert np.abs(g1 - ref1).max() <= 1e-13
        assert np.abs(g2 - ref2).max() <= 1e-13

    def test_residual_block_boundaries(self, monkeypatch):
        # q = 256: 129 representatives, 127 one-period targets
        patch = small_patch(b=0.6, m=5, K=8, seed=4, scale=3e-4)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * 1280)  # one block
        spec = residual(patch, 1280)
        whole = (spec.g1, spec.g2)
        whole_sines = sine_coefficients(patch, 1280)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * 16)  # 16-target blocks
        spec = residual(patch, 1280)
        blocked = (spec.g1, spec.g2)
        blocked_sines = sine_coefficients(patch, 1280)
        for full, part in zip(whole + whole_sines, blocked + blocked_sines):
            assert np.abs(part - full).max() <= 1e-13

    def test_collision_guard_on_grid_passes(self):
        # the residual and Jacobian passes share the guard of stream_integral
        patch = annulus_patch(1e-9, 2, 1, 0.0)
        with pytest.raises(BoundaryCollision):
            residual(patch, 64)
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
        # the size cap K P <= MAX_KP, checked before any table is built
        P = 2 * (contour.MAX_KP // 6)  # even, K P just below the cap
        assert contour._collocation_grid(4, 3, P)[0] == P // 2
        with pytest.raises(PreconditionError, match=f"P={P + 2} with K=3 .* cap K\\*P <= {contour.MAX_KP}"):
            residual(patch, P + 2)

    def test_one_period_collocation_matches_full_grid(self):
        # reference: all P targets evaluated with no grid symmetry, and the
        # length-P real FFT of them; the unfolded period and the projection
        # over half a period reproduce them to summation roundoff
        for m, K, P in [(4, 3, 1024), (6, 2, 50)] + SYMMETRY_GRIDS:
            for seed in (1, 5, 9):
                patch = small_patch(b=0.6, m=m, K=K, seed=seed, scale=3e-4)
                values = np.stack(full_grid_residuals(patch, P))
                spec = np.fft.rfft(values)
                ref = -2.0 * np.imag(spec[:, np.arange(1, K + 1) * m]) / P
                got = residual(patch, P)
                assert np.abs(np.stack([got.g1, got.g2]) - values).max() <= 1e-14
                assert np.abs(got.r1 - ref[0]).max() <= 1e-14
                assert np.abs(got.r2 - ref[1]).max() <= 1e-14

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_residual_is_the_newton_projection(self, m, K, P):
        # residual() and Newton's F share one projection, bit for bit
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        spec = residual(patch, P)
        r1, r2 = sine_coefficients(patch, P)
        assert np.array_equal(spec.r1, r1) and np.array_equal(spec.r2, r2)

    @pytest.mark.parametrize("m,K,P", SYMMETRY_GRIDS)
    def test_values_and_coefficients_are_one_pass(self, m, K, P):
        # the coefficients are the grid's projection of the returned values.
        # The pass projects each G as the imaginary part of a complex array,
        # a view of stride 2; a contiguous vector takes another BLAS path
        # that may round differently, so the reference uses that stride
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        spec = residual(patch, P)
        _, targets, proj = contour._collocation_grid(m, K, P)
        for g, r in ((spec.g1, spec.r1), (spec.g2, spec.r2)):
            strided = np.empty((proj.shape[0], 2))
            strided[:, 0] = g[targets]
            assert np.array_equal(strided[:, 0] @ proj, r)


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
        fp = contour._system(patch, xp, s, vhat, P)
        fm = contour._system(patch, xm, s, vhat, P)
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
        exact, _ = contour._exact_jacobian(patch, x, 1e-3, self.VHAT, P)
        fd = fd_jacobian(patch, x, 1e-3, self.VHAT, P)
        assert np.abs(exact - fd).max() <= 1e-7 * np.abs(exact).max()

    def test_chunk_boundaries(self, monkeypatch):
        patch = small_patch(b=0.6, m=5, K=8, seed=4, scale=3e-4)
        x = contour._pack(patch)
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * 1280)  # one block
        whole, _ = contour._exact_jacobian(patch, x, 0.0, self.VHAT, 1280)
        # q = 256: 127 targets in blocks of 64 + 63, then 100 + 27
        for block in (64, 100):
            monkeypatch.setattr(contour, "_BLOCK_PAIRS", 1280 * block)
            chunked, _ = contour._exact_jacobian(patch, x, 0.0, self.VHAT, 1280)
            assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()

    @pytest.mark.parametrize("m,K,P", [(5, 8, 1280), (6, 2, 256), (4, 1, 20)])
    def test_fused_residual_matches_system(self, m, K, P):
        patch = small_patch(b=0.6, m=m, K=K, seed=3, scale=3e-4)
        x = contour._pack(patch)
        _, fused = contour._exact_jacobian(patch, x, 1e-3, self.VHAT, P)
        fvec = contour._system(patch, x, 1e-3, self.VHAT, P)
        assert np.abs(fused - fvec).max() <= 1e-14
        assert np.abs(fused[:-1]).max() == pytest.approx(np.abs(fvec[:-1]).max(), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_annulus_block_is_mode_matrix(self, n):
        # criterion 8 without a step: the exact block at frequency n m is
        # -(n m) M_{n m}, up to the discretization error at P = 4096
        m, b, omega, P = 5, 0.5, 0.25, 4096
        K = n + 2
        consts = AnnulusConstants.build(b, n_max=200)
        patch = annulus_patch(b, m, K, omega)
        jac, _ = contour._exact_jacobian(patch, contour._pack(patch), 0.0, self.VHAT, P)
        idx = [n - 1, K + n - 1]
        observed = jac[np.ix_(idx, idx)]
        mat = mode_matrix(n * m, b, omega, consts)
        expected = -(n * m) * np.array([[mat.m11, mat.m12], [mat.m21, mat.m22]])
        assert np.abs(observed - expected).max() <= 1e-5 * np.abs(expected).max()


class TestNewton:
    def test_zero_amplitude_returns_annulus(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        vhat = kernel_direction(m, 0.6, "plus", consts_06)
        start = annulus_patch(0.6, m, 4, row.omega_plus)
        corrected, rnorm = newton_correct(start, 0.0, vhat, P=320)
        assert corrected.omega == row.omega_plus
        assert np.all(corrected.a == 0.0) and np.all(corrected.c == 0.0)
        assert rnorm <= 1e-10

    def test_small_amplitude_converges(self, consts_06):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        v1, v2 = vhat = kernel_direction(m, 0.6, "plus", consts_06)
        s = 1e-3
        K = 4
        a = np.zeros(K)
        c = np.zeros(K)
        a[0] = s * v1
        c[0] = s * v2
        predictor = PatchPair(b=0.6, m=m, K=K, a=a, c=c, omega=row.omega_plus)
        corrected, rnorm = newton_correct(predictor, s, vhat, P=320)
        assert rnorm <= 1e-10
        assert abs(corrected.omega - row.omega_plus) <= 1e-3
        # amplitude constraint pinned to s
        assert corrected.a[0] * v1 + corrected.c[0] * v2 == pytest.approx(s, abs=1e-12)

    def test_no_convergence_when_iterations_exhausted(self, consts_06, monkeypatch):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        vhat = kernel_direction(m, 0.6, "plus", consts_06)
        start = annulus_patch(0.6, m, 4, row.omega_plus)
        monkeypatch.setattr(contour, "_MAX_ITER", 0)
        with pytest.raises(NoConvergence):
            newton_correct(start, 1e-3, vhat, P=320)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_rejects_bad_tolerance(self, consts_06, tol):
        m = threshold_N(0.6, consts_06) + 1
        row = bifurcation_row(m, 0.6, consts_06)
        vhat = kernel_direction(m, 0.6, "plus", consts_06)
        start = annulus_patch(0.6, m, 4, row.omega_plus)
        with pytest.raises(PreconditionError):
            newton_correct(start, 1e-3, vhat, P=320, newton_tol=tol)

    @pytest.mark.parametrize("s,vhat", [
        (math.nan, None), (math.inf, None), (-math.inf, None),
        (1e-3, (math.nan, 1.0)), (1e-3, (0.0, math.inf)),
    ])
    def test_rejects_non_finite_amplitude_before_any_kernel_pass(
            self, consts_06, monkeypatch, s, vhat):
        m = threshold_N(0.6, consts_06) + 1
        start, unit = self.first_step(consts_06, m, 4, 1e-3)
        for name in ("_exact_jacobian", "_system"):
            monkeypatch.setattr(contour, name, lambda *args: pytest.fail("kernel pass"))
        with pytest.raises(PreconditionError, match="must be finite"):
            newton_correct(start, s, unit if vhat is None else vhat, P=320)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_coarse_jacobian_matches_fine_grid(self, consts_06, sign):
        # the premise of the two-grid Newton: at the criterion-10 step-10
        # point the Jacobian on the 4Km grid is the one at P = 1280
        m, K, P = 5, 8, 1280
        run = branch_continue(m, 0.6, sign, steps=10, ds=1e-3, K=K, P=P, consts=consts_06)
        assert run.stopped_reason is None
        pt = run.points[-1]
        vhat = kernel_direction(m, 0.6, sign, consts_06)
        x = contour._pack(pt.patch)
        fine = contour._exact_jacobian(pt.patch, x, pt.s, vhat, P)[0]
        coarse = contour._exact_jacobian(pt.patch, x, pt.s, vhat, 4 * K * m)[0]
        assert np.abs(coarse - fine).max() <= 1e-12 * np.abs(fine).max()

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_residual_at_p_decides_when_coarse_grid_under_resolves(self, consts_06, sign):
        # with K = 1 the 4Km = 20 grid misses the solution at P = 320, so
        # Newton must go on from the residual at P until that one converges
        m, K, P = 5, 1, 320
        run = branch_continue(m, 0.6, sign, steps=4, ds=1e-2, K=K, P=P, consts=consts_06)
        assert run.stopped_reason is None and len(run.points) == 5
        vhat = kernel_direction(m, 0.6, sign, consts_06)
        for pt in run.points[1:]:
            x = contour._pack(pt.patch)
            at_p = np.abs(contour._system(pt.patch, x, pt.s, vhat, P)[:-1]).max()
            at_coarse = np.abs(contour._system(pt.patch, x, pt.s, vhat, 4 * K * m)[:-1]).max()
            assert pt.residual_norm == at_p <= 1e-10
            assert at_coarse > 1e-6

    @staticmethod
    def first_step(consts, m, K, s):
        """The linear predictor at amplitude s on the plus branch, and its
        unit kernel direction."""
        row = bifurcation_row(m, 0.6, consts)
        v1, v2 = vhat = kernel_direction(m, 0.6, "plus", consts)
        a, c = np.zeros(K), np.zeros(K)
        a[0], c[0] = s * v1, s * v2
        return PatchPair(b=0.6, m=m, K=K, a=a, c=c, omega=row.omega_plus), vhat

    def test_ill_conditioned_jacobian_raises(self, consts_06, monkeypatch):
        m = threshold_N(0.6, consts_06) + 1
        start, vhat = self.first_step(consts_06, m, 4, 1e-3)
        monkeypatch.setattr(contour, "_COND_LIMIT", 1.0)
        with pytest.raises(SingularJacobian, match="condition estimate"):
            newton_correct(start, 1e-3, vhat, P=320)

    def test_overshooting_step_is_halved_and_jacobian_rebuilt(self, consts_06, monkeypatch):
        # a first Jacobian a third of the true one makes the full step three
        # times too long: that trial is valid but raises the residual, so the
        # line search halves it, accepts, and rebuilds the Jacobian
        builds, trials = [], []
        exact, system = contour._exact_jacobian, contour._system

        def scaled(*args):
            jac, fvec = exact(*args)
            builds.append(np.abs(fvec).max())
            return (jac / 3.0 if len(builds) == 1 else jac), fvec

        def recorded(*args):
            fvec = system(*args)
            trials.append(np.abs(fvec).max())
            return fvec

        monkeypatch.setattr(contour, "_exact_jacobian", scaled)
        monkeypatch.setattr(contour, "_system", recorded)
        m = threshold_N(0.6, consts_06) + 1
        start, vhat = self.first_step(consts_06, m, 4, 1e-3)
        _, rnorm = newton_correct(start, 1e-3, vhat, P=320)
        assert rnorm <= 1e-10
        assert len(builds) == 2
        assert trials[0] > builds[0] > trials[1]  # full step rejected, half step accepted
        assert builds[1] == pytest.approx(trials[1], rel=1e-9)  # rebuilt at the accepted point

    def test_stale_chord_jacobian_is_refreshed_after_a_failed_line_search(
            self, consts_06, monkeypatch):
        # K = 1, P = 320: the coarse (4Km = 20) Jacobian is kept as a chord
        # once the residual at P takes over; when that chord's whole line
        # search fails, Newton builds a fresh coarse Jacobian and goes on
        m, K, P = 5, 1, 320
        grids, at_p = [], []
        exact, system = contour._exact_jacobian, contour._system

        def counted(*args):
            grids.append(args[-1])
            return exact(*args)

        def inflated(*args):
            fvec = system(*args)
            if args[-1] == P:
                at_p.append(None)
                # the first P residual is the switch; the next ones are the
                # trials of the first line search on the P grid
                if 2 <= len(at_p) <= 1 + contour._MAX_BACKTRACK:
                    fvec = fvec * 1e6 + 1.0
            return fvec

        monkeypatch.setattr(contour, "_exact_jacobian", counted)
        monkeypatch.setattr(contour, "_system", inflated)
        start, vhat = self.first_step(consts_06, m, K, 1e-2)
        _, rnorm = newton_correct(start, 1e-2, vhat, P=P)
        assert rnorm <= 1e-10
        assert grids == [4 * K * m] * 2
        assert len(at_p) > 1 + contour._MAX_BACKTRACK


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
        # refused before rounding, so the message names the size given
        for P in (0, -5):
            with pytest.raises(PreconditionError, match=f"P={P} "):
                branch_continue(5, 0.6, "plus", steps=1, ds=1e-3, K=4, P=P, consts=consts_06)

    def test_one_jacobian_and_one_residual_pass_per_step(self, consts_06, monkeypatch):
        # Newton forms its Jacobian on the 4Km grid only; a kernel pass at a
        # finer P is a residual, and from step 3 on (quadratic predictor)
        # each point costs one Jacobian pass at 4Km and one residual pass
        # at P, plus one 4Km trial residual when P > 4Km
        calls = []
        for name in ("_exact_jacobian", "_system"):
            def counted(*args, _name=name, _orig=getattr(contour, name)):
                calls.append((_name, args[-1]))
                return _orig(*args)
            monkeypatch.setattr(contour, name, counted)
        step_calls = []
        newton = contour.newton_correct
        depth = 0

        def per_step(*args):
            # an inner call of newton_correct is counted in its outer step
            nonlocal depth
            if depth == 0:
                calls.clear()
            depth += 1
            try:
                return newton(*args)
            finally:
                depth -= 1
                if depth == 0:
                    step_calls.append(list(calls))

        monkeypatch.setattr(contour, "newton_correct", per_step)
        m = threshold_N(0.6, consts_06) + 1
        K = 4
        coarse = 4 * K * m
        for P in (coarse, 4 * coarse):
            step_calls.clear()
            run = branch_continue(m, 0.6, "plus", steps=6, ds=1e-3, K=K, P=P, consts=consts_06)
            assert run.stopped_reason is None and len(run.points) == 7
            assert len(step_calls) == 6
            for k, step in enumerate(step_calls):
                assert all(grid in (coarse, P) for _, grid in step)
                assert step.count(("_exact_jacobian", P)) == (1 if P == coarse else 0)
                if k >= 2:
                    assert step.count(("_exact_jacobian", coarse)) == 1
                    assert step.count(("_system", P)) == 1
                    assert len(step) == (2 if P == coarse else 3)

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


class TestBranchRunCodec:
    """``BranchRun.to_dict``/``from_dict`` are the branch JSON format's one
    writer and one reader."""

    @pytest.fixture(scope="class")
    def run(self, consts_06):
        return branch_continue(5, 0.6, "minus", steps=2, ds=1e-3, K=4, P=320, consts=consts_06)

    def test_json_round_trip(self, run):
        data = run.to_dict()
        back = BranchRun.from_dict(json.loads(json.dumps(data)))
        assert back.to_dict() == data
        assert (back.sign, back.P, back.stopped_reason) == ("minus", 320, None)
        for pt, ref in zip(back.points, run.points, strict=True):
            for got, want in ((pt.patch.a, ref.patch.a), (pt.patch.c, ref.patch.c)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert (pt.s, pt.residual_norm, pt.patch.omega) == (ref.s, ref.residual_norm, ref.patch.omega)

    def test_file_layout(self, run):
        data = run.to_dict()
        assert list(data) == ["b", "m", "K", "P", "sign", "stopped_reason", "points"]
        assert list(data["points"][0]) == ["s", "omega", "a", "c", "residual_norm"]
        assert (data["b"], data["m"], data["K"]) == (0.6, 5, 4)

    @pytest.mark.parametrize("path", ["points[0].s", "points[1].c[2]"])
    def test_integer_beyond_float_range_names_its_path(self, run, path):
        data = json.loads(json.dumps(run.to_dict()))
        if path.endswith("s"):
            data["points"][0]["s"] = -10**400
        else:
            data["points"][1]["c"][2] = 10**400
        with pytest.raises(PreconditionError, match=f"at {re.escape(path)}: expected float, got an integer"):
            BranchRun.from_dict(data)


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

    def test_collision_in_a_block_reaches_the_caller(self, monkeypatch):
        # 16 blocks of 4 targets; the colliding target 21 is in block 5:
        # the five blocks before it are yielded, then the pass raises
        P = 64
        nodes = contour._nodes(P)
        dst = 0.5 * nodes
        dst[21] = nodes[3]
        monkeypatch.setattr(contour, "_BLOCK_PAIRS", 4 * P)
        done = []
        with pytest.raises(BoundaryCollision):
            for rows, *_ in contour._distance_blocks(contour._difference_tables(nodes, dst), slice(0, P), False):
                done.append(rows.start)
        assert done == [0, 4, 8, 12, 16]
