"""Discretized boundary equations for doubly connected rotating patches.

A patch pair is represented by truncated expansions of the two exterior
conformal maps on the unit circle,

    Phi_1(w) = w   + sum_{n=1}^{K} a_n w^{-(n m - 1)},
    Phi_2(w) = b w + sum_{n=1}^{K} c_n w^{-(n m - 1)},

with real coefficients (reflection symmetry about the real axis) supported
on the m-fold symmetric frequencies.  The rotating-patch conditions on the
two boundaries read, for j in {1, 2} and w on the unit circle,

    G_j(w) = Im{ (Omega Phi_j(w) - S(Phi_1, Phi_j)(w) + S(Phi_2, Phi_j)(w))
                 * conj(Phi_j'(w)) * conj(w) } = 0,

where S is the mean-value boundary integral

    S(Phi_i, Phi_j)(w) = avg_{tau in T} [tau Phi_i'(tau) - w Phi_j'(w)]
                                        / |Phi_i(tau) - Phi_j(w)|.

The self-interaction integrand (i = j) is bounded but has a corner where
tau passes w; quadrature uses trapezoidal sums on half-offset nodes, the
standard contour-dynamics treatment, validated against closed forms by the
``verify`` module.  The interaction integrand (i != j) is smooth because
the boundaries are disjoint, and the same rule converges spectrally.

``residual`` collocates G_1, G_2 on a uniform grid and projects onto the
retained sine modes sin(n m theta); ``newton_correct`` and
``branch_continue`` trace solution branches off the annulus in the kernel
direction of the linearized operator.  The Newton Jacobian is the exact
derivative of the discrete residual: both maps are linear in (a, c), so
every column follows in closed form from the kernel matrices of one pass.
Central differences remain only as the independent oracle, in the tests
and in ``verify``.

Grid symmetry.  With P quadrature nodes tau_j = exp(2 pi i (j + 1/2) / P)
and targets w_k = exp(2 pi i k / P), let g = gcd(m, P) and q = P / g.
Rotation by 2 pi / g permutes both node sets, and because g | m every map
obeys Phi(rho z) = rho Phi(z), so the discrete residual is q-periodic:
G_{k+q} = G_k.  Conjugation maps node j to node P-1-j and target k to
target P-k, and real coefficients give Phi(conj z) = conj Phi(z), so it is
odd: G_{P-k} = -G_k.  Both identities hold for the discrete sums, not
only in the limit, so every kernel pass evaluates only the orbit
representatives k = 0..floor(q/2) (see :func:`_collocation_grid` and
:func:`collocation_residual`); the rest are copies up to summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    BoundaryCollision,
    NoConvergence,
    NotSimple,
    PreconditionError,
    SingularJacobian,
)
from .specfun import AnnulusConstants
from .spectrum import KernelVector, bifurcation_row, kernel_vector, mode_matrix, threshold_N

__all__ = [
    "PatchPair",
    "collocation_residual",
    "ResidualSpectrum",
    "BranchPoint",
    "BranchRun",
    "annulus_patch",
    "eval_maps",
    "stream_integral",
    "residual",
    "linearization_check",
    "newton_correct",
    "branch_continue",
    "boundary_samples",
]

TWO_PI = 2.0 * math.pi

# Disjointness guard: quadrature denominators below this signal touching
# or crossing boundaries.
COLLISION_TOL = 1e-10

# Kernel pairs per target block of every kernel pass: about 1 MB per
# P x block buffer, so the block stays in cache.
_BLOCK_PAIRS = 1 << 17


@dataclass(frozen=True)
class PatchPair:
    """Truncated conformal representation of the two patch boundaries.

    ``a`` and ``c`` hold the K retained outer/inner coefficients at the
    m-fold frequencies n m - 1, n = 1..K.  Construction validates the
    coefficient-size guard

        sum_n (n m - 1) (|a_n| + |c_n|) < min(b, 1 - b) / 2,

    a conservative solver guard that keeps both maps univalent in practice
    and the boundaries disjoint.
    """

    b: float
    m: int
    K: int
    a: np.ndarray
    c: np.ndarray
    omega: float

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise PreconditionError(f"inner radius must satisfy 0 < b < 1, got {self.b}")
        if self.m < 2:
            raise PreconditionError(f"fold symmetry must satisfy m >= 2, got {self.m}")
        if self.K < 1:
            raise PreconditionError(f"truncation must satisfy K >= 1, got {self.K}")
        a = np.asarray(self.a, dtype=float).copy()
        c = np.asarray(self.c, dtype=float).copy()
        if a.shape != (self.K,) or c.shape != (self.K,):
            raise PreconditionError(
                f"coefficient arrays must have shape ({self.K},), got {a.shape} and {c.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(c).all() and math.isfinite(self.omega)):
            raise PreconditionError("coefficients and omega must be finite")
        weights = self.mode_exponents()
        budget = float(np.dot(weights, np.abs(a) + np.abs(c)))
        bound = 0.5 * min(self.b, 1.0 - self.b)
        if budget >= bound:
            raise PreconditionError(
                f"coefficient budget {budget:.3e} exceeds univalence guard {bound:.3e}"
            )
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    def mode_exponents(self) -> np.ndarray:
        """Exponents n m - 1 of the retained negative powers."""
        return np.arange(1, self.K + 1) * self.m - 1

    def with_state(self, a: np.ndarray, c: np.ndarray, omega: float) -> "PatchPair":
        return PatchPair(b=self.b, m=self.m, K=self.K, a=a, c=c, omega=omega)


def annulus_patch(b: float, m: int, K: int, omega: float) -> PatchPair:
    """The trivial solution: both maps are pure scalings."""
    return PatchPair(b=b, m=m, K=K, a=np.zeros(K), c=np.zeros(K), omega=omega)


@dataclass(frozen=True)
class ResidualSpectrum:
    """Sine coefficients of the two boundary residuals at the retained
    frequencies n m, plus the maximum spectral magnitude found at
    frequencies that are not multiples of m (the leakage diagnostic).

    The collocated residual is exactly periodic with period 2 pi / g,
    g = gcd(m, P), so its spectrum lives on multiples of g.  When m | P
    (g = m) ``leak`` is therefore zero up to FFT roundoff; when g < m it
    measures the aliasing at multiples of g that are not multiples of m.
    """

    m: int
    K: int
    r1: np.ndarray
    r2: np.ndarray
    leak: float

    def max_abs(self) -> float:
        return max(float(np.abs(self.r1).max()), float(np.abs(self.r2).max()))


@dataclass(frozen=True)
class BranchPoint:
    """One accepted point on a bifurcation branch, at amplitude ``s`` along
    the kernel direction."""

    s: float
    patch: PatchPair
    residual_norm: float
    step_index: int


@dataclass(frozen=True)
class BranchRun:
    """A traced branch.  ``stopped_reason`` is None for a complete run, or
    a short message naming the failure that truncated it.  ``P`` is the
    effective collocation size used (the requested size rounded up to a
    multiple of 4 K m)."""

    points: tuple[BranchPoint, ...]
    stopped_reason: Optional[str]
    P: int


def _monomials(patch: PatchPair, w: np.ndarray) -> np.ndarray:
    """The (len(w), K) table w^{-(n m - 1)}: the derivative of either map
    with respect to its n-th coefficient."""
    return w[:, None] ** (-patch.mode_exponents()[None, :])


def _map_values(patch: PatchPair, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Phi_1, Phi_2, Phi_1', Phi_2' on an array of unit-circle points."""
    p = patch.mode_exponents()
    wneg = _monomials(patch, w)
    phi1 = w + wneg @ patch.a
    phi2 = patch.b * w + wneg @ patch.c
    # Phi'(w) = 1 - sum (nm-1) a_n w^{-nm}
    wneg_d = wneg * w[:, None] ** (-1)
    dphi1 = 1.0 - wneg_d @ (p * patch.a)
    dphi2 = patch.b - wneg_d @ (p * patch.c)
    return phi1, phi2, dphi1, dphi2


def eval_maps(patch: PatchPair, theta: float) -> tuple[complex, complex, complex, complex]:
    """Boundary points and tangential derivatives at angle ``theta``.

    Returns (Phi_1, Phi_2, dPhi_1/dtheta, dPhi_2/dtheta) at w = e^{i theta};
    the tangential derivative is i w Phi'(w).
    """
    w = np.array([np.exp(1j * theta)])
    phi1, phi2, dphi1, dphi2 = _map_values(patch, w)
    iw = 1j * w[0]
    return complex(phi1[0]), complex(phi2[0]), complex(iw * dphi1[0]), complex(iw * dphi2[0])


def stream_integral(src: int, dst: int, patch: PatchPair, theta: float, P: int) -> complex:
    """S(Phi_src, Phi_dst) at w = e^{i theta} by offset trapezoidal quadrature.

    The integration variable is tau = w e^{i eta} with eta on the P
    half-offset nodes 2 pi (k + 1/2) / P; the offset keeps the node set
    clear of eta = 0 where the self-interaction integrand has its bounded
    corner.  This is the one-target case of :func:`_stream_on_grid` on the
    rotated nodes.  Raises :class:`BoundaryCollision` if any quadrature
    denominator drops below the disjointness guard.
    """
    if src not in (1, 2) or dst not in (1, 2):
        raise PreconditionError(f"boundary selectors must be 1 or 2, got src={src}, dst={dst}")
    if P < 64 or P % 2:
        raise PreconditionError(f"quadrature size must be even and >= 64, got {P}")
    w = np.array([np.exp(1j * theta)])
    tau = w * np.exp(1j * TWO_PI * (np.arange(P) + 0.5) / P)
    maps_t = _map_values(patch, tau)
    maps_w = _map_values(patch, w)
    # _map_values returns (Phi_1, Phi_2, Phi_1', Phi_2')
    value = _stream_on_grid(tau, maps_t[src - 1], maps_t[src + 1], w, maps_w[dst - 1], maps_w[dst + 1])
    return complex(value[0])


def _distance_blocks(
    phi_src_t: np.ndarray, phi_dst_w: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The kernel distances |D| = |Phi_src(tau) - Phi_dst(w)|, one block of
    targets w at a time: the one place every kernel pass forms them.

    Targets are split into blocks of about ``_BLOCK_PAIRS`` kernel pairs.
    Two flat buffers are allocated once per call, so a pass holds two
    P x block arrays whatever its target count.  Yields (lo, hi, d, spare)
    per block, where ``d`` holds |D| for targets lo..hi-1 as a contiguous
    (P, hi - lo) view and ``spare`` is working space of the same shape; the
    caller may overwrite both before the next block.  Raises
    :class:`BoundaryCollision` if any distance drops below the
    disjointness guard.
    """
    P = phi_src_t.size
    n_dst = phi_dst_w.size
    step = max(1, _BLOCK_PAIRS // P)
    src_re = np.ascontiguousarray(phi_src_t.real)
    src_im = np.ascontiguousarray(phi_src_t.imag)
    # one allocation for both buffers: freed whole, it lifts glibc's dynamic
    # mmap and trim thresholds above their joint size, so the pages stay in
    # the heap for the next pass (two separate buffers were returned to the
    # kernel and faulted in again, page by page, on every call)
    d_buf, spare_buf = np.empty((2, P * min(step, n_dst)))
    for lo in range(0, n_dst, step):
        hi = min(lo + step, n_dst)
        d = d_buf[:P * (hi - lo)].reshape(P, hi - lo)
        spare = spare_buf[:P * (hi - lo)].reshape(P, hi - lo)
        np.subtract.outer(src_re, phi_dst_w.real[lo:hi], out=d)
        np.subtract.outer(src_im, phi_dst_w.imag[lo:hi], out=spare)
        d *= d
        spare *= spare
        d += spare
        np.sqrt(d, out=d)
        if d.min() < COLLISION_TOL:
            raise BoundaryCollision(
                f"boundaries closer than {COLLISION_TOL} at a quadrature node"
            )
        yield lo, hi, d, spare


def _stream_on_grid(
    tau: np.ndarray,
    phi_src_t: np.ndarray,
    dphi_src_t: np.ndarray,
    w: np.ndarray,
    phi_dst_w: np.ndarray,
    dphi_dst_w: np.ndarray,
) -> np.ndarray:
    """S(Phi_src, Phi_dst) at every target w, vectorized.

    tau runs over the P quadrature nodes and w over the targets; on the
    half-offset master grid and the integer grid the relative offsets
    reproduce the single-point rule of :func:`stream_integral` exactly.
    The kernel 1/|D| comes block by block from :func:`_distance_blocks`.
    """
    P = tau.size
    num_src = tau * dphi_src_t
    # Re A, Im A and the ones that give the column sum, all in one matrix
    # product per block
    sums = np.stack([num_src.real, num_src.imag, np.ones(P)])
    out = np.empty(w.size, dtype=complex)
    for lo, hi, d, _ in _distance_blocks(phi_src_t, phi_dst_w):
        np.reciprocal(d, out=d)
        re, im, total = sums @ d
        out[lo:hi] = (re + 1j * im - (w[lo:hi] * dphi_dst_w[lo:hi]) * total) / P
    return out


def _check_grid(m: int, K: int, P: int) -> None:
    if P % 2 or P < 4 * K * m:
        raise PreconditionError(
            f"collocation size P={P} must be even and >= 4*K*m = {4 * K * m}"
        )


def _boundary_residuals(patch: PatchPair, theta: np.ndarray, P: int) -> tuple[np.ndarray, np.ndarray]:
    """G_1, G_2 at the target angles ``theta``, with the stream integrals
    taken over the P half-offset quadrature nodes."""
    eta = TWO_PI * (np.arange(P) + 0.5) / P
    w = np.exp(1j * theta)
    tau = np.exp(1j * eta)
    phi1_w, phi2_w, dphi1_w, dphi2_w = _map_values(patch, w)
    phi1_t, phi2_t, dphi1_t, dphi2_t = _map_values(patch, tau)

    s11 = _stream_on_grid(tau, phi1_t, dphi1_t, w, phi1_w, dphi1_w)
    s21 = _stream_on_grid(tau, phi2_t, dphi2_t, w, phi1_w, dphi1_w)
    s12 = _stream_on_grid(tau, phi1_t, dphi1_t, w, phi2_w, dphi2_w)
    s22 = _stream_on_grid(tau, phi2_t, dphi2_t, w, phi2_w, dphi2_w)

    g1 = np.imag((patch.omega * phi1_w - s11 + s21) * np.conj(dphi1_w) * np.conj(w))
    g2 = np.imag((patch.omega * phi2_w - s12 + s22) * np.conj(dphi2_w) * np.conj(w))
    return g1, g2


def _symmetry_period(m: int, P: int) -> int:
    """Period q = P / gcd(m, P), in grid steps, of the discrete residual."""
    return P // math.gcd(m, P)


def collocation_residual(patch: PatchPair, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise boundary residuals (G_1, G_2) on the P uniform collocation
    angles 2 pi k / P, k = 0..P-1.

    ``P`` must be even and at least 4 K m so the retained frequency band is
    resolved with margin.  With q = P / gcd(m, P), only the orbit
    representatives k = 0..floor(q/2) are evaluated; the grid symmetries
    (module docstring) give G_k = G_r for r = k mod q <= q/2 and
    G_k = -G_{q-r} above, exactly up to summation order.
    """
    _check_grid(patch.m, patch.K, P)
    q = _symmetry_period(patch.m, P)
    half = q // 2
    g1, g2 = _boundary_residuals(patch, TWO_PI * np.arange(half + 1) / P, P)
    r = np.arange(P) % q
    mirrored = r > half
    src = np.where(mirrored, q - r, r)
    sign = np.where(mirrored, -1.0, 1.0)
    return sign * g1[src], sign * g2[src]


def residual(patch: PatchPair, P: int) -> ResidualSpectrum:
    """Collocate G_1, G_2 on P uniform angles and project onto sine modes.

    The reported coefficient for mode n m is the coefficient of
    sin(n m theta) in the real-valued residual; the leakage diagnostic is
    the largest spectral magnitude at frequencies that are not multiples
    of m.
    """
    m, K = patch.m, patch.K
    g1, g2 = collocation_residual(patch, P)
    freqs = np.arange(1, K + 1) * m
    spec1 = np.fft.rfft(g1)
    spec2 = np.fft.rfft(g2)
    # real signal: g = sum_p [ (2 Re X_p / P) cos - (2 Im X_p / P) sin ]
    r1 = -2.0 * np.imag(spec1[freqs]) / P
    r2 = -2.0 * np.imag(spec2[freqs]) / P
    p_all = np.arange(spec1.size)
    off = p_all % m != 0
    leak = 0.0
    if off.any():
        leak = 2.0 / P * max(float(np.abs(spec1[off]).max()), float(np.abs(spec2[off]).max()))
    r1.setflags(write=False)
    r2.setflags(write=False)
    return ResidualSpectrum(m=m, K=K, r1=r1, r2=r2, leak=leak)


def _linearization_probe(
    m: int,
    b: float,
    omega: float,
    n: int,
    h: float,
    P: int,
    consts: AnnulusConstants,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Central-difference block of the residual Jacobian at the annulus.

    Perturbs coefficient n of each boundary by +-h, assembles the observed
    2x2 block at frequency n m, and compares with the analytic block
    -(n m) M_{n m}.  Returns (observed, expected, max relative block error,
    off-block magnitude relative to the block scale).
    """
    K = max(2, n + 2)
    zeros = np.zeros(K)
    observed = np.zeros((2, 2))
    offblock = 0.0
    idx = n - 1
    for col, boundary in enumerate(("outer", "inner")):
        dpls = zeros.copy()
        dpls[idx] = h
        if boundary == "outer":
            plus = PatchPair(b, m, K, dpls, zeros, omega)
            minus = PatchPair(b, m, K, -dpls, zeros, omega)
        else:
            plus = PatchPair(b, m, K, zeros, dpls, omega)
            minus = PatchPair(b, m, K, zeros, -dpls, omega)
        rp = residual(plus, P)
        rm = residual(minus, P)
        d1 = (rp.r1 - rm.r1) / (2.0 * h)
        d2 = (rp.r2 - rm.r2) / (2.0 * h)
        observed[0, col] = d1[idx]
        observed[1, col] = d2[idx]
        others = np.delete(np.arange(K), idx)
        if others.size:
            offblock = max(offblock, float(np.abs(d1[others]).max()), float(np.abs(d2[others]).max()))
        offblock = max(offblock, max(rp.leak, rm.leak) / (2.0 * h))
    p = n * m
    expected = -p * mode_matrix(p, b, omega, consts).matrix()
    scale = float(np.abs(expected).max())
    rel = float(np.abs(observed - expected).max()) / scale
    return observed, expected, rel, offblock / scale


def linearization_check(
    m: int,
    b: float,
    omega: float,
    n: int,
    h: float,
    P: int,
    consts: Optional[AnnulusConstants] = None,
) -> float:
    """Max relative error between the finite-difference Jacobian block of
    the residual at the annulus (frequency n m) and the analytic block
    -(n m) M_{n m}.

    The minus sign reflects the sine convention: the linearized operator
    contributes -(n m) sin(n m theta) M_{n m} per unit coefficient.
    """
    if n * m - 1 < 1:
        raise PreconditionError(f"perturbed exponent n*m-1 must be >= 1, got n={n}, m={m}")
    if consts is None:
        consts = AnnulusConstants.build(b, n_max=max(200, 4 * (n + 2) * m))
    _, _, rel, _ = _linearization_probe(m, b, omega, n, h, P, consts)
    return rel


def _collocation_grid(m: int, K: int, P: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Target angles, their sine table sin(n m theta) and projection scale.

    The one target rule of the Newton path.  With g = gcd(m, P) and
    q = P / g the discrete residual is q-periodic and odd (module
    docstring), and so is sin(n m theta_k) because g | n m.  The
    full-circle projection (2/P) sum_k G_k sin(n m theta_k) is therefore
    g times the sum over one period, whose terms k and q - k are equal and
    whose terms k = 0 and k = q/2 vanish (sin(n m theta_k) = 0 there).  The
    targets are k = 1..ceil(q/2)-1 and the retained coefficient is
    (4/q) sum_k G(theta_k) sin(n m theta_k).  g = 1 needs no special case.
    """
    q = _symmetry_period(m, P)
    theta = TWO_PI * np.arange(1, (q + 1) // 2) / P
    sines = np.sin(np.outer(theta, np.arange(1, K + 1) * m))
    return theta, sines, 4.0 / q


# ---------------------------------------------------------------------------
# Newton corrector and branch continuation
# ---------------------------------------------------------------------------

_COND_LIMIT = 1e14
_MAX_BACKTRACK = 8


def _pack(patch: PatchPair) -> np.ndarray:
    return np.concatenate([patch.a, patch.c, [patch.omega]])


def _augmented(
    g1: np.ndarray,
    g2: np.ndarray,
    sines: np.ndarray,
    scale: float,
    x: np.ndarray,
    s: float,
    vhat: tuple[float, float],
) -> tuple[np.ndarray, float]:
    """The augmented residual F from G_1, G_2 on the targets of
    :func:`_collocation_grid`: the 2K retained sine coefficients, then the
    amplitude constraint, which pins the projection of (a_1, c_1) onto the
    normalized kernel direction to s.  Returns (F, max sine coefficient).
    """
    K = sines.shape[1]
    fvec = np.empty(2 * K + 1)
    fvec[:K] = scale * (g1 @ sines)
    fvec[K:2 * K] = scale * (g2 @ sines)
    fvec[2 * K] = x[0] * vhat[0] + x[K] * vhat[1] - s
    return fvec, float(np.abs(fvec[:2 * K]).max())


def _system(patch_like: PatchPair, x: np.ndarray, s: float, vhat: tuple[float, float], P: int) -> tuple[np.ndarray, float]:
    """Augmented residual (:func:`_augmented`) at x = (a, c, Omega), one
    kernel pass over the targets of :func:`_collocation_grid`."""
    K = patch_like.K
    patch = patch_like.with_state(x[:K], x[K:2 * K], float(x[2 * K]))
    _check_grid(patch.m, K, P)
    theta, sines, scale = _collocation_grid(patch.m, K, P)
    g1, g2 = _boundary_residuals(patch, theta, P)
    return _augmented(g1, g2, sines, scale, x, s, vhat)


def _source_tables(t_neg: np.ndarray, num: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand sides that turn the kernel matrices R, U, V of one source
    map into every column sum :func:`_pair_derivatives` needs.

    ``t_neg`` is the monomial table T = tau^{-p} and ``num`` the numerator
    A = tau Phi'(tau) of the source map on the P quadrature nodes.  Column
    blocks, which :func:`_pair_derivatives` slices by position:
    t_r = [Re T, Im T, 1, Re A, Im A],
    t_u = [Re T, Re A Re T, Im A Re T, 1, Re A, Im A] and t_v the same
    with Im T in place of Re T.
    """
    ones = np.ones((num.size, 1))
    tail = np.column_stack([ones, num.real, num.imag])
    t_r = np.column_stack([t_neg.real, t_neg.imag, tail])
    t_u = np.column_stack([t_neg.real, num.real[:, None] * t_neg.real, num.imag[:, None] * t_neg.real, tail])
    t_v = np.column_stack([t_neg.imag, num.real[:, None] * t_neg.imag, num.imag[:, None] * t_neg.imag, tail])
    return t_r, t_u, t_v


def _pair_derivatives(
    phi_src_t: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    phi_dst_w: np.ndarray,
    num_dst_w: np.ndarray,
    w_neg: np.ndarray,
    p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S(Phi_src, Phi_dst) at every target w and its exact derivatives
    with respect to the source and destination coefficients.

    With D = Phi_src(tau) - Phi_dst(w), R = 1/|D|, A = tau Phi_src'(tau)
    and B = w Phi_dst'(w), the rule is S = avg_tau (A - B) R.  A source
    coefficient moves D by tau^{-p} and A by -p tau^{-p}; a destination
    coefficient moves D by -w^{-p} and B by -p w^{-p}; and
    dR = -R^3 Re(conj(D) dD).  With U = Re(D) R^3 and V = Im(D) R^3 every
    column is a product of R, U or V with a table of
    :func:`_source_tables`.  R, U and V are formed block by block in the
    two buffers of :func:`_distance_blocks`, as in :func:`_stream_on_grid`.
    Returns (S, dS/dsource, dS/ddestination), the last two as (len(w), K)
    arrays.
    """
    P = phi_src_t.size
    K = p.size
    t_r, t_u, t_v = tables
    r_cols, u_cols, v_cols = (np.empty((phi_dst_w.size, t.shape[1])) for t in tables)
    for lo, hi, d, spare in _distance_blocks(phi_src_t, phi_dst_w):
        np.multiply(d, d, out=spare)
        spare *= d
        np.reciprocal(d, out=d)  # R
        np.reciprocal(spare, out=spare)  # R^3
        r_cols[lo:hi] = d.T @ t_r
        np.subtract.outer(phi_src_t.real, phi_dst_w.real[lo:hi], out=d)
        d *= spare  # U
        u_cols[lo:hi] = d.T @ t_u
        np.subtract.outer(phi_src_t.imag, phi_dst_w.imag[lo:hi], out=d)
        d *= spare  # V
        v_cols[lo:hi] = d.T @ t_v

    def tail(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # column sum and sum against A
        return cols[:, -3], cols[:, -2] + 1j * cols[:, -1]

    sum_r, r_a = tail(r_cols)
    sum_u, u_a = tail(u_cols)
    sum_v, v_a = tail(v_cols)
    b = num_dst_w[:, None]
    value = (r_a - num_dst_w * sum_r) / P
    d_src = (
        -p * (r_cols[:, :K] + 1j * r_cols[:, K:2 * K])
        - (u_cols[:, K:2 * K] + 1j * u_cols[:, 2 * K:3 * K])
        - (v_cols[:, K:2 * K] + 1j * v_cols[:, 2 * K:3 * K])
        + b * (u_cols[:, :K] + v_cols[:, :K])
    ) / P
    d_dst = (
        p * w_neg * sum_r[:, None]
        + w_neg.real * (u_a - num_dst_w * sum_u)[:, None]
        + w_neg.imag * (v_a - num_dst_w * sum_v)[:, None]
    ) / P
    return value, d_src, d_dst


def _exact_jacobian(
    patch_like: PatchPair, x: np.ndarray, s: float, vhat: tuple[float, float], P: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_system` at x = (a, c, Omega) and its exact derivative, from
    one kernel pass.

    The same half-offset quadrature, targets and sine projection as the
    residual, differentiated in closed form: G_j = Im(E_j conj(B_j)) with
    E_j = Omega Phi_j - S(Phi_1, Phi_j) + S(Phi_2, Phi_j) and
    B_j = w Phi_j'(w), so each coefficient column is
    Im(dE_j conj(B_j)) + Im(E_j conj(dB_j)) and the Omega column is
    Im(Phi_j conj(B_j)).  The pass forms every E_j, so G_j and F cost no
    further kernel work.  Each (source, destination) pair is one call of
    :func:`_pair_derivatives` over all targets, one source map's tables at
    a time.  Returns (J, F, max sine coefficient); F agrees with
    :func:`_system` up to summation order.
    """
    K = patch_like.K
    patch = patch_like.with_state(x[:K], x[K:2 * K], float(x[2 * K]))
    _check_grid(patch.m, K, P)
    theta, sines, scale = _collocation_grid(patch.m, K, P)
    p = patch.mode_exponents()
    w = np.exp(1j * theta)
    tau = np.exp(1j * TWO_PI * (np.arange(P) + 0.5) / P)
    t_neg = _monomials(patch, tau)
    w_neg = _monomials(patch, w)
    phi1_t, phi2_t, dphi1_t, dphi2_t = _map_values(patch, tau)
    phi1_w, phi2_w, dphi1_w, dphi2_w = _map_values(patch, w)
    src = ((phi1_t, tau * dphi1_t), (phi2_t, tau * dphi2_t))
    dst = ((phi1_w, w * dphi1_w), (phi2_w, w * dphi2_w))

    # e_val[j] = E_j and d_e[j][k] = dE_j / d(coefficients of map k)
    e_val = [patch.omega * phi_w for phi_w, _ in dst]
    d_e = [[np.zeros((w.size, K), dtype=complex) for _ in range(2)] for _ in range(2)]
    for j in range(2):
        d_e[j][j] += patch.omega * w_neg
    for i, sign in ((0, -1.0), (1, 1.0)):
        phi_t, num_t = src[i]
        tables = _source_tables(t_neg, num_t)
        for j, (phi_w, num_w) in enumerate(dst):
            value, d_src, d_dst = _pair_derivatives(phi_t, tables, phi_w, num_w, w_neg, p)
            e_val[j] += sign * value
            d_e[j][i] += sign * d_src
            d_e[j][j] += sign * d_dst
        del tables  # one source's tables live at a time

    g1, g2 = (np.imag(e * np.conj(num_w)) for e, (_, num_w) in zip(e_val, dst))
    jac = np.zeros((2 * K + 1, 2 * K + 1))
    proj = scale * sines.T
    for j, (phi_w, num_w) in enumerate(dst):
        conj_b = np.conj(num_w)[:, None]
        rows = slice(j * K, (j + 1) * K)
        for k in range(2):
            d_g = np.imag(d_e[j][k] * conj_b)
            if k == j:
                d_g -= p * np.imag(e_val[j][:, None] * np.conj(w_neg))
            jac[rows, k * K:(k + 1) * K] = proj @ d_g
        jac[rows, 2 * K] = proj @ np.imag(phi_w * np.conj(num_w))
    jac[2 * K, 0] = vhat[0]
    jac[2 * K, K] = vhat[1]
    return (jac, *_augmented(g1, g2, sines, scale, x, s, vhat))


def _check_tol(newton_tol: float) -> None:
    if not (math.isfinite(newton_tol) and newton_tol > 0.0):
        raise PreconditionError(f"Newton tolerance must be finite and > 0, got {newton_tol}")


def newton_correct(
    patch: PatchPair,
    s: float,
    kernel: KernelVector,
    P: int,
    max_iter: int = 25,
    newton_tol: float = 1e-10,
) -> tuple[PatchPair, float]:
    """Solve the augmented system {residual = 0, kernel projection = s}.

    Damped Newton on the 2K+1 unknowns (a, c, Omega).  The Jacobian is the
    exact derivative of the discrete residual (same quadrature, targets and
    projection), and one kernel pass (:func:`_exact_jacobian`) gives both
    the residual F and the Jacobian at a point; central differences serve
    only as the oracle in the tests and in ``verify``.  The residual is
    evaluated on its own only at line-search trial points, so an iterate
    that converges after one full step costs one Jacobian pass and one
    residual pass.  The Jacobian is reused across iterations while full
    steps keep reducing the residual, and refreshed when progress stalls.
    Returns the corrected patch and its residual norm (max sine
    coefficient).

    Raises
    ------
    PreconditionError
        if ``newton_tol`` is not finite and positive.
    NoConvergence
        after ``max_iter`` iterations above tolerance.
    SingularJacobian
        if the condition estimate of the Jacobian exceeds 1e14.
    """
    _check_tol(newton_tol)
    K = patch.K
    vhat = kernel.normalized()
    x = _pack(patch)
    jac: Optional[np.ndarray]
    jac, fvec, rnorm = _exact_jacobian(patch, x, s, vhat, P)
    jac_fresh = True
    for _ in range(max_iter):
        if np.abs(fvec).max() <= newton_tol:
            break
        if jac is None:
            jac, fvec, rnorm = _exact_jacobian(patch, x, s, vhat, P)
            jac_fresh = True
        if jac_fresh and np.linalg.cond(jac) > _COND_LIMIT:
            raise SingularJacobian(
                f"Jacobian condition estimate exceeds {_COND_LIMIT:.0e}"
            )
        dx = np.linalg.solve(jac, -fvec)
        fnorm = np.abs(fvec).max()
        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACK):
            try:
                f_try, r_try = _system(patch, x + step * dx, s, vhat, P)
            except (PreconditionError, BoundaryCollision):
                step *= 0.5
                continue
            if np.abs(f_try).max() <= (1.0 - 1e-4 * step) * fnorm:
                x = x + step * dx
                fvec, rnorm = f_try, r_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if jac_fresh:
                raise NoConvergence("damped Newton step failed to reduce the residual")
            jac = None  # stale chord Jacobian: refresh and retry
            continue
        if step < 1.0:
            jac = None
        else:
            jac_fresh = False
    if np.abs(fvec).max() <= newton_tol:
        return patch.with_state(x[:K], x[K:2 * K], float(x[2 * K])), rnorm
    raise NoConvergence(f"Newton did not reach {newton_tol} in {max_iter} iterations")


# Polynomial extrapolation in s through the last 2 or 3 accepted points of
# a branch with equal steps, newest first.  Each row reproduces linear
# data, so the linear amplitude constraint, met at the accepted points,
# holds at the predicted point up to roundoff.
_EXTRAPOLATION = {2: (2.0, -1.0), 3: (3.0, -3.0, 1.0)}


def _predict(history: list[np.ndarray], ds: float, vhat: tuple[float, float]) -> np.ndarray:
    """Predicted unknowns x = (a, c, Omega) one step ``ds`` past the last
    accepted point, from ``history``, the accepted points oldest first.

    From the start point alone the step follows the kernel direction in
    the (a_1, c_1) plane; after that, every unknown is extrapolated by the
    secant, then the quadratic, through the last two or three points.
    """
    if len(history) == 1:
        K = (history[0].size - 1) // 2
        x = history[0].copy()
        x[0] += ds * vhat[0]
        x[K] += ds * vhat[1]
        return x
    weights = _EXTRAPOLATION[min(len(history), 3)]
    return sum(wt * xk for wt, xk in zip(weights, reversed(history)))


def branch_continue(
    m: int,
    b: float,
    sign: str,
    steps: int,
    ds: float,
    K: int = 32,
    P: int = 4096,
    newton_tol: float = 1e-10,
    max_iter: int = 25,
    consts: Optional[AnnulusConstants] = None,
) -> BranchRun:
    """Trace the branch bifurcating from the annulus at Omega_m^{sign}.

    The first step leaves the annulus along the kernel direction embedded
    in the (a_1, c_1) plane.  Later predictors extrapolate all 2K+1
    unknowns (a, c, Omega) in s: the secant through the last two accepted
    points, then the quadratic through the last three (:func:`_predict`),
    which leaves a predictor residual small enough for one Newton
    iteration.  The corrector is :func:`newton_correct`.  On a guard or
    Newton failure the partial branch up to the last good point is
    returned with ``stopped_reason`` set; nothing is discarded.

    ``P`` must be positive; it is rounded up to the nearest multiple of
    4 K m so every retained mode is resolved with alias margin and
    gcd(m, P) = m, the largest grid symmetry: every kernel pass then
    evaluates about P / (2 m) targets (:func:`_collocation_grid`).  The
    effective size is recorded on the returned run.
    """
    if sign not in ("plus", "minus"):
        raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if steps < 0 or not (math.isfinite(ds) and ds > 0.0):
        raise PreconditionError(f"need steps >= 0 and finite ds > 0, got steps={steps}, ds={ds}")
    if K < 1 or m < 2 or P < 1:
        raise PreconditionError(f"need K >= 1, m >= 2 and P >= 1, got K={K}, m={m}, P={P}")
    _check_tol(newton_tol)
    block = 4 * K * m
    P = block * -(-P // block)
    if consts is None:
        consts = AnnulusConstants.build(b, n_max=max(200, 4 * K * m))
    elif consts.b != b:
        raise PreconditionError(f"constants were built for b={consts.b}, got b={b}")
    n_threshold = threshold_N(b, consts)
    if m < n_threshold:
        raise NotSimple(f"mode m={m} is below the threshold N({b}) = {n_threshold}")
    row = bifurcation_row(m, b, consts)
    omega0 = row.omega_plus if sign == "plus" else row.omega_minus
    kern = kernel_vector(m, b, omega0, consts)
    vhat = kern.normalized()

    start = annulus_patch(b, m, K, omega0)
    start_norm = residual(start, P).max_abs()
    points = [BranchPoint(s=0.0, patch=start, residual_norm=start_norm, step_index=0)]
    history = [_pack(start)]
    stopped: Optional[str] = None
    s = 0.0
    for step_index in range(1, steps + 1):
        s += ds
        x = _predict(history, ds, vhat)
        try:
            predictor = start.with_state(x[:K], x[K:2 * K], float(x[2 * K]))
            patch, rnorm = newton_correct(predictor, s, kern, P, max_iter, newton_tol)
        except (PreconditionError, BoundaryCollision, NoConvergence, SingularJacobian) as exc:
            stopped = f"{type(exc).__name__} at step {step_index}: {exc}"
            break
        points.append(BranchPoint(s=s, patch=patch, residual_norm=rnorm, step_index=step_index))
        history = history[-2:] + [_pack(patch)]
    return BranchRun(points=tuple(points), stopped_reason=stopped, P=P)


def boundary_samples(patch: PatchPair, npoints: int = 512) -> np.ndarray:
    """Sample both boundaries for rendering or CSV export.

    Returns an (npoints, 5) array with columns theta, x1, y1, x2, y2.
    """
    theta = TWO_PI * np.arange(npoints) / npoints
    w = np.exp(1j * theta)
    phi1, phi2, _, _ = _map_values(patch, w)
    return np.column_stack([theta, phi1.real, phi1.imag, phi2.real, phi2.imag])
