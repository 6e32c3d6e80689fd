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

Quadrature and collocation share one grid: the P nodes
tau_l = exp(2 pi i l / P) are also the targets.  The maps have one
evaluator, :func:`_map_values`.  On the grid a term w^{-p} is
e^{-2 pi i p l / P}, which depends on p only through p mod P, so each
map's coefficient series is one FFT with exponent p in bin p mod P; the
fold is exact on the grid for every P.  Every power of a node is a node,
tau_k^p = tau_{(k p) mod P}, so the Jacobian's monomial table and the sine
projection table are index lookups (:func:`_node_powers`).

The interaction integrand (i != j) is smooth because the boundaries are
disjoint, and the trapezoidal weight 1/P converges spectrally.  The
self-interaction integrand (i = j) has a corner where tau passes w, so it
gets Martensen-Kussmaul product integration (R. Kress, *Linear Integral
Equations*, ch. 12): f = (A - B) |tau - w| / |D| is smooth and vanishes
at tau = w, and 1/|tau - w| is integrated exactly against the
trigonometric interpolant of f.  The moments are the (c1) circle moments
mu_n = -2/pi - s_sum(|n|), mu_0 = 0, so pair (l, k) has the weight
V_{(l-k) mod P} / |D|, with V_j = W_j 2|sin(pi j / P)| and W the inverse
FFT of mu; V_0 = 0 drops the diagonal.

``residual`` collocates G_1, G_2 on a uniform grid and projects onto the
retained sine modes sin(n m theta); ``newton_correct`` and
``branch_continue`` trace solution branches off the annulus in the kernel
direction of the linearized operator.  The Newton Jacobian is the exact
derivative of the discrete residual: both maps are linear in (a, c), so
every column follows in closed form from the kernel matrices of one pass.
Central differences remain only as the independent oracle, in the tests
and in ``verify``.

Grid symmetry.  Let g = gcd(m, P) and q = P / g.  Rotation by 2 pi / g
shifts every grid index by q, and because g | m every map obeys
Phi(rho z) = rho Phi(z); the self weights depend only on l - k, so the
discrete residual is q-periodic: G_{k+q} = G_k.  Conjugation maps index l
to P - l, real coefficients give Phi(conj z) = conj Phi(z), and V is even
(V_j = V_{P-j}), so it is odd: G_{P-k} = -G_k, which forces
G_0 = G_{q/2} = 0.  Both identities hold for the discrete sums, not only
in the limit, so every kernel pass evaluates only the orbit
representatives k = 1..ceil(q/2)-1, which :func:`_collocation_grid` alone
defines; the rest are copies up to summation order, or zero.

Threads.  The target blocks of a kernel pass are independent, and numpy
releases the GIL inside its ufuncs and matrix products, so the residual
passes (:func:`_stream_on_grid`) run their blocks on one thread per usable
core: the caller and a thread pool started by the first pass with more
than one block.  A single-block pass, or a process on one core, runs
inline.  The block layout depends only on P and the number of targets, so
every result is bitwise the same on any number of cores.  The Jacobian
pass keeps one worker: a multithreaded BLAS already splits its wider
matrix products.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BoundaryCollision,
    NoConvergence,
    NotSimple,
    PreconditionError,
    SingularJacobian,
)
from .specfun import AnnulusConstants, _s_table
from .spectrum import KernelVector, bifurcation_row, kernel_vector, threshold_N

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
    "newton_correct",
    "branch_continue",
    "boundary_samples",
]

TWO_PI = 2.0 * math.pi

# Disjointness guard: quadrature denominators below this signal touching
# or crossing boundaries.
COLLISION_TOL = 1e-10

# Kernel pairs per target block of every kernel pass: about 512 KB per
# P x block buffer, two buffers per worker, so on two cores the pass keeps
# 2 MB in flight and each worker's blocks stay in cache.
_BLOCK_PAIRS = 1 << 16

# Kernel-pass workers, the calling thread included: one per usable core.
# The block layout depends only on P and the number of targets, never on
# this count, so results do not either.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# The kernel-pass thread pool: _WORKERS - 1 threads beside the caller,
# started by the first pass with more than one block.
_pool = None
_pool_lock = threading.Lock()


def _reset_pool() -> None:
    """Forget the pool in a forked child: its threads were not copied."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _executor():
    """The kernel-pass thread pool, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="vstates-kernel")
        return _pool


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
    effective collocation size used: 4 K m by default, or the requested
    size rounded up to a multiple of 4 K m."""

    points: tuple[BranchPoint, ...]
    stopped_reason: Optional[str]
    P: int


def _nodes(P: int) -> np.ndarray:
    """The P grid nodes e^{2 pi i l / P}, quadrature nodes and targets alike."""
    return np.exp(1j * TWO_PI * np.arange(P) / P)


def _node_powers(P: int, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (k, p) table tau_k^p for grid indices k and integer exponents
    p, by lookup: tau_k^p is the node tau_{(k p) mod P}."""
    return _nodes(P)[np.outer(k, p) % P]


def _map_values(
    patch: PatchPair, P: int, theta: float = 0.0
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(Phi_j, A_j = w Phi_j'(w)) for both maps on the rotated grid
    w_l = e^{i theta} tau_l, l = 0..P-1: the one map evaluator.

    A term c w^{-p} equals c e^{-i p theta} e^{-2 pi i (p mod P) l / P} on
    the grid, so each coefficient series is one FFT with that coefficient
    in bin p mod P; A_j carries -p on every term.  The leading terms w and
    b w are added as they are.  P = 1 is the single point e^{i theta}.
    """
    p = patch.mode_exponents()
    coeffs = np.array([patch.a, patch.c, -p * patch.a, -p * patch.c]) * np.exp(-1j * theta * p)
    bins = np.zeros((4, P), dtype=complex)
    np.add.at(bins, (slice(None), p % P), coeffs)
    s1, s2, t1, t2 = np.fft.fft(bins)
    w = np.exp(1j * theta) * _nodes(P)
    return (w + s1, w + t1), (patch.b * w + s2, patch.b * w + t2)


def eval_maps(patch: PatchPair, theta: float) -> tuple[complex, complex, complex, complex]:
    """Boundary points and tangential derivatives at angle ``theta``.

    Returns (Phi_1, Phi_2, dPhi_1/dtheta, dPhi_2/dtheta) at w = e^{i theta};
    the tangential derivative is i w Phi'(w).
    """
    (phi1, a1), (phi2, a2) = _map_values(patch, 1, theta)
    return complex(phi1[0]), complex(phi2[0]), complex(1j * a1[0]), complex(1j * a2[0])


def stream_integral(src: int, dst: int, patch: PatchPair, theta: float, P: int) -> complex:
    """S(Phi_src, Phi_dst) at w = e^{i theta}: the one-target case of
    :func:`_stream_on_grid` on the grid tau_l = w e^{2 pi i l / P}, whose
    node 0 is w.

    Product integration on a self pair (src = dst), the trapezoidal rule
    otherwise.  Raises :class:`BoundaryCollision` if any quadrature
    denominator other than the self pair's zero diagonal drops below the
    disjointness guard.
    """
    if src not in (1, 2) or dst not in (1, 2):
        raise PreconditionError(f"boundary selectors must be 1 or 2, got src={src}, dst={dst}")
    if P < 64 or P % 2:
        raise PreconditionError(f"quadrature size must be even and >= 64, got {P}")
    maps = _map_values(patch, P, theta)
    return complex(_stream_on_grid(maps[src - 1], maps[dst - 1], slice(0, 1), src == dst)[0])


@lru_cache(maxsize=8)
def _self_weights(P: int) -> np.ndarray:
    """Self-pair weights as a read-only (P + 1, P) view of the array [V, V]
    whose row k holds P V_{(l-k) mod P} for the nodes l = 0..P-1.

    W, the inverse real FFT of the (c1) moments with mu_0 = 0 (module
    docstring), takes the Nyquist term once.  The factor P lets self and
    cross pairs share the final 1/P of every kernel sum.
    """
    mu = np.concatenate(([0.0], -2.0 / math.pi - _s_table(P // 2)))
    v = np.fft.irfft(mu, P) * P * 2.0 * np.abs(np.sin(math.pi * np.arange(P) / P))
    return sliding_window_view(np.concatenate([v, v]), P)[::-1]


def _distance_blocks(
    phi_src: np.ndarray,
    phi_dst: np.ndarray,
    targets: slice,
    self_pair: bool,
    block: Callable[[int, int, np.ndarray, np.ndarray, np.ndarray | float], None],
    workers: int,
) -> None:
    """The kernel distances |D| = |Phi_src(tau_l) - Phi_dst(tau_k)| from the
    P grid nodes l to the targets k in the index range ``targets``, one
    block of targets at a time: the one place every kernel pass forms them.

    Blocks hold about ``_BLOCK_PAIRS`` kernel pairs; their layout depends
    only on P and the number of targets.  They are dealt in turn to
    min(workers, blocks) stripes, each with two buffers of its own, all
    allocated once per call.  The calling thread runs the first stripe and
    the thread pool of :func:`_executor` the others.  Calls
    ``block(lo, hi, d, spare, weight)`` per block, from the stripe's
    thread: ``d`` holds |D| for targets lo..hi-1 of ``targets`` as a
    contiguous (hi - lo, P) view and ``spare`` is working space of the
    same shape; ``block`` may overwrite both, and writes only rows lo..hi-1
    of its outputs, so every result is bitwise independent of ``workers``.
    The pair weight is ``weight`` / P: the matching rows of
    :func:`_self_weights` on a self pair, 1.0 on a cross pair.  On a self
    pair the diagonal l = k, where D = 0, is set to +inf, so it passes the
    guard and its kernel ``weight / d`` is exactly 0.  Raises
    :class:`BoundaryCollision` if any other distance drops below the
    disjointness guard; the pass waits for every stripe before it raises
    the error of the first stripe that failed.
    """
    P = phi_src.size
    first = targets.start
    dst = phi_dst[targets]
    n_dst = dst.size
    step = max(1, _BLOCK_PAIRS // P)
    starts = range(0, n_dst, step)
    stripes = max(1, min(workers, len(starts)))
    weights = _self_weights(P) if self_pair else None
    # one allocation for every buffer: freed whole, it lifts glibc's dynamic
    # mmap and trim thresholds above their joint size, so the pages stay in
    # the heap for the next pass (separate buffers were returned to the
    # kernel and faulted in again, page by page, on every call)
    buffers = np.empty((stripes, 2, P * min(step, n_dst)))

    def stripe(i: int) -> None:
        d_buf, spare_buf = buffers[i]
        for lo in starts[i::stripes]:
            hi = min(lo + step, n_dst)
            d = d_buf[:P * (hi - lo)].reshape(hi - lo, P)
            spare = spare_buf[:P * (hi - lo)].reshape(hi - lo, P)
            np.subtract(phi_src.real, dst.real[lo:hi, None], out=d)
            np.subtract(phi_src.imag, dst.imag[lo:hi, None], out=spare)
            d *= d
            spare *= spare
            d += spare
            np.sqrt(d, out=d)
            weight = 1.0
            if weights is not None:
                np.fill_diagonal(d[:, first + lo:first + hi], np.inf)
                weight = weights[first + lo:first + hi]
            if d.min() < COLLISION_TOL:
                raise BoundaryCollision(
                    f"boundaries closer than {COLLISION_TOL} at a quadrature node"
                )
            block(lo, hi, d, spare, weight)

    if stripes == 1:
        stripe(0)
        return
    from concurrent.futures import wait

    # the caller takes the first stripe, the pool the others
    futures = [_executor().submit(stripe, i) for i in range(1, stripes)]
    try:
        stripe(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _stream_on_grid(
    src: tuple[np.ndarray, np.ndarray],
    dst: tuple[np.ndarray, np.ndarray],
    targets: slice,
    self_pair: bool,
) -> np.ndarray:
    """S(Phi_src, Phi_dst) at the targets ``targets`` of the P grid nodes,
    from (Phi, A) of each map on the nodes (:func:`_map_values`).  The
    weighted kernel comes block by block from :func:`_distance_blocks`,
    on every kernel-pass worker.
    """
    phi_src, num_src = src
    phi_dst, num_dst = dst
    P = phi_src.size
    # Re A, Im A and the ones that give the row sum, all in one matrix
    # product per block
    sums = np.column_stack([num_src.real, num_src.imag, np.ones(P)])
    num_w = num_dst[targets]
    out = np.empty(num_w.size, dtype=complex)

    def block(lo: int, hi: int, d: np.ndarray, _: np.ndarray, weight: np.ndarray | float) -> None:
        np.divide(weight, d, out=d)
        re, im, total = (d @ sums).T
        out[lo:hi] = (re + 1j * im - num_w[lo:hi] * total) / P

    _distance_blocks(phi_src, phi_dst, targets, self_pair, block, _WORKERS)
    return out


def _boundary_residuals(patch: PatchPair, targets: slice, P: int) -> tuple[np.ndarray, np.ndarray]:
    """G_1, G_2 at the targets ``targets``, a range of grid indices, with
    the stream integrals taken over the P grid nodes: one map evaluation."""
    maps = _map_values(patch, P)
    g = []
    for j, (phi, num) in enumerate(maps):
        # E_j = Omega Phi_j - S(Phi_1, Phi_j) + S(Phi_2, Phi_j)
        e = patch.omega * phi[targets]
        e -= _stream_on_grid(maps[0], maps[j], targets, j == 0)
        e += _stream_on_grid(maps[1], maps[j], targets, j == 1)
        g.append(np.imag(e * np.conj(num[targets])))
    return tuple(g)


def _collocation_grid(m: int, K: int, P: int) -> tuple[int, slice, np.ndarray]:
    """The residual period q, the orbit representatives (the targets of
    every kernel pass) and their projection table: the one target rule.

    With g = gcd(m, P) and q = P / g the discrete residual is q-periodic
    and odd (module docstring), and so is sin(n m theta_k) because
    g | n m.  The full-circle projection (2/P) sum_k G_k sin(n m theta_k)
    is therefore g times the sum over one period, whose terms k and q - k
    are equal and whose terms k = 0 and k = q/2 vanish.  The targets are
    k = 1..ceil(q/2)-1 and the table holds (4/q) sin(n m theta_k), the
    imaginary part of the node tau_{(k n m) mod P}, so the retained
    coefficient is G @ table.  g = 1 needs no special case.

    Raises :class:`PreconditionError` unless P is even and >= 4 K m.
    """
    if P % 2 or P < 4 * K * m:
        raise PreconditionError(
            f"collocation size P={P} must be even and >= 4*K*m = {4 * K * m}"
        )
    q = P // math.gcd(m, P)
    targets = slice(1, (q + 1) // 2)
    sines = _node_powers(P, np.arange(targets.start, targets.stop), np.arange(1, K + 1) * m).imag
    return q, targets, 4.0 / q * sines


def collocation_residual(patch: PatchPair, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise boundary residuals (G_1, G_2) on the P uniform collocation
    angles 2 pi k / P, k = 0..P-1.

    ``P`` must be even and at least 4 K m so the retained frequency band is
    resolved with margin.  Only the targets of :func:`_collocation_grid`
    are evaluated; the grid symmetries (module docstring) give the rest:
    G is q-periodic, G_{q-k} = -G_k, and G_0 = G_{q/2} = 0 exactly.
    """
    q, targets, _ = _collocation_grid(patch.m, patch.K, P)
    period = np.zeros((2, q))
    period[:, targets] = _boundary_residuals(patch, targets, P)
    k = np.arange(targets.start, targets.stop)
    period[:, q - k] = -period[:, k]
    g1, g2 = np.tile(period, P // q)
    return g1, g2


def residual(patch: PatchPair, P: int) -> ResidualSpectrum:
    """Collocate G_1, G_2 on P uniform angles and project onto sine modes.

    The reported coefficient for mode n m is the coefficient of
    sin(n m theta) in the real-valued residual; the leakage diagnostic is
    the largest spectral magnitude at frequencies that are not multiples
    of m.
    """
    m, K = patch.m, patch.K
    spec = np.fft.rfft(np.stack(collocation_residual(patch, P)))
    # real signal: g = sum_p [ (2 Re X_p / P) cos - (2 Im X_p / P) sin ]
    r = -2.0 * np.imag(spec[:, np.arange(1, K + 1) * m]) / P
    r.setflags(write=False)
    off = np.arange(spec.shape[1]) % m != 0
    leak = 2.0 / P * float(np.abs(spec[:, off]).max()) if off.any() else 0.0
    return ResidualSpectrum(m=m, K=K, r1=r[0], r2=r[1], leak=leak)


# ---------------------------------------------------------------------------
# Newton corrector and branch continuation
# ---------------------------------------------------------------------------

_COND_LIMIT = 1e14
_MAX_BACKTRACK = 8


def _pack(patch: PatchPair) -> np.ndarray:
    return np.concatenate([patch.a, patch.c, [patch.omega]])


def _augmented(g: tuple[np.ndarray, ...], proj: np.ndarray, x: np.ndarray,
               s: float, vhat: tuple[float, float]) -> tuple[np.ndarray, float]:
    """The augmented residual F from g = (G_1, G_2) on the targets of
    :func:`_collocation_grid` and its projection table ``proj``: the 2K
    retained sine coefficients, then the amplitude constraint, which pins
    the projection of (a_1, c_1) onto the normalized kernel direction to s.
    Returns (F, max sine coefficient).
    """
    K = proj.shape[1]
    coeffs = np.concatenate([g_j @ proj for g_j in g])
    return np.append(coeffs, x[0] * vhat[0] + x[K] * vhat[1] - s), float(np.abs(coeffs).max())


def _system(patch_like: PatchPair, x: np.ndarray, s: float, vhat: tuple[float, float], P: int) -> tuple[np.ndarray, float]:
    """Augmented residual (:func:`_augmented`) at x = (a, c, Omega), one
    kernel pass over the targets of :func:`_collocation_grid`."""
    K = patch_like.K
    patch = patch_like.with_state(x[:K], x[K:2 * K], float(x[2 * K]))
    _, targets, proj = _collocation_grid(patch.m, K, P)
    return _augmented(_boundary_residuals(patch, targets, P), proj, x, s, vhat)


def _source_tables(t_neg: np.ndarray, num: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand sides that turn the kernel matrices R, U, V of one source
    map into every column sum :func:`_pair_derivatives` needs.

    ``t_neg`` is the monomial table T = tau^{-p} and ``num`` the numerator
    A = tau Phi'(tau) of the source map on the P grid nodes.  Column
    blocks, which :func:`_pair_derivatives` slices by position:
    t_r = [Re T, Im T, 1, Re A, Im A],
    t_u = [Re T, Re A Re T, Im A Re T, 1, Re A, Im A] and t_v the same
    with Im T in place of Re T.
    """
    tail = np.column_stack([np.ones(num.size), num.real, num.imag])
    t_r = np.column_stack([t_neg.real, t_neg.imag, tail])
    t_u = np.column_stack([t_neg.real, num.real[:, None] * t_neg.real, num.imag[:, None] * t_neg.real, tail])
    t_v = np.column_stack([t_neg.imag, num.real[:, None] * t_neg.imag, num.imag[:, None] * t_neg.imag, tail])
    return t_r, t_u, t_v


def _pair_derivatives(
    phi_src: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    dst: tuple[np.ndarray, np.ndarray],
    targets: slice,
    self_pair: bool,
    w_neg: np.ndarray,
    p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S(Phi_src, Phi_dst) at the targets ``targets`` and its exact
    derivatives with respect to the source and destination coefficients.

    With D = Phi_src(tau) - Phi_dst(w), A = tau Phi_src'(tau),
    B = w Phi_dst'(w) and the pair weight c (1/P, or V_{l-k} on a self
    pair), S = sum_tau (A - B) R with R = c/|D|.  A source coefficient
    moves D by tau^{-p} and A by -p tau^{-p}; a destination coefficient
    moves D by -w^{-p} and B by -p w^{-p}; c is constant, so
    dR = -(c/|D|^3) Re(conj(D) dD).  With U = Re(D) c/|D|^3 and
    V = Im(D) c/|D|^3 every column is a product of R, U or V with a table
    of :func:`_source_tables`, formed block by block in the buffers of
    :func:`_distance_blocks`.  ``dst`` is (Phi_dst, B) on the nodes and
    ``w_neg`` is w^{-p} at the targets.  Returns
    (S, dS/dsource, dS/ddestination), the last two as (targets, K) arrays.
    """
    P = phi_src.size
    K = p.size
    t_r, t_u, t_v = tables
    phi_w = dst[0][targets]
    num_w = dst[1][targets]
    r_cols, u_cols, v_cols = (np.empty((phi_w.size, t.shape[1])) for t in tables)

    def block(lo: int, hi: int, d: np.ndarray, spare: np.ndarray, weight: np.ndarray | float) -> None:
        np.multiply(d, d, out=spare)
        spare *= d
        np.divide(weight, d, out=d)  # R
        np.divide(weight, spare, out=spare)  # c/|D|^3
        r_cols[lo:hi] = d @ t_r
        np.subtract(phi_src.real, phi_w.real[lo:hi, None], out=d)
        d *= spare  # U
        u_cols[lo:hi] = d @ t_u
        np.subtract(phi_src.imag, phi_w.imag[lo:hi, None], out=d)
        d *= spare  # V
        v_cols[lo:hi] = d @ t_v

    # one worker: a multithreaded BLAS already splits the Jacobian's wider
    # matrix products
    _distance_blocks(phi_src, dst[0], targets, self_pair, block, 1)

    def tail(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # column sum and sum against A
        return cols[:, -3], cols[:, -2] + 1j * cols[:, -1]

    sum_r, r_a = tail(r_cols)
    sum_u, u_a = tail(u_cols)
    sum_v, v_a = tail(v_cols)
    b = num_w[:, None]
    value = (r_a - num_w * sum_r) / P
    d_src = (
        -p * (r_cols[:, :K] + 1j * r_cols[:, K:2 * K])
        - (u_cols[:, K:2 * K] + 1j * u_cols[:, 2 * K:3 * K])
        - (v_cols[:, K:2 * K] + 1j * v_cols[:, 2 * K:3 * K])
        + b * (u_cols[:, :K] + v_cols[:, :K])
    ) / P
    d_dst = (
        p * w_neg * sum_r[:, None]
        + w_neg.real * (u_a - num_w * sum_u)[:, None]
        + w_neg.imag * (v_a - num_w * sum_v)[:, None]
    ) / P
    return value, d_src, d_dst


def _exact_jacobian(
    patch_like: PatchPair, x: np.ndarray, s: float, vhat: tuple[float, float], P: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_system` at x = (a, c, Omega) and its exact derivative, from
    one kernel pass.

    The same grid, weights, targets and sine projection as the residual,
    differentiated in closed form: G_j = Im(E_j conj(B_j)) with
    E_j = Omega Phi_j - S(Phi_1, Phi_j) + S(Phi_2, Phi_j) and
    B_j = w Phi_j'(w), so each coefficient column is
    Im(dE_j conj(B_j)) + Im(E_j conj(dB_j)) and the Omega column is
    Im(Phi_j conj(B_j)).  The maps and the monomial table tau^{-p} are
    formed once, on the P nodes, and the pass forms every E_j, so G_j and
    F cost no further kernel work.  Each (source, destination) pair is one
    call of :func:`_pair_derivatives`, one source map's tables at a time.
    Returns (J, F, max sine coefficient); F agrees with :func:`_system` up
    to summation order.
    """
    K = patch_like.K
    patch = patch_like.with_state(x[:K], x[K:2 * K], float(x[2 * K]))
    _, targets, proj = _collocation_grid(patch.m, K, P)
    p = patch.mode_exponents()
    t_neg = _node_powers(P, np.arange(P), -p)
    w_neg = t_neg[targets]
    maps = _map_values(patch, P)
    dst = [(phi[targets], num[targets]) for phi, num in maps]

    # e_val[j] = E_j and d_e[j][k] = dE_j / d(coefficients of map k)
    e_val = [patch.omega * phi_w for phi_w, _ in dst]
    d_e = [[np.zeros(w_neg.shape, dtype=complex) for _ in range(2)] for _ in range(2)]
    for j in range(2):
        d_e[j][j] += patch.omega * w_neg
    for i, sign in ((0, -1.0), (1, 1.0)):
        phi_t, num_t = maps[i]
        tables = _source_tables(t_neg, num_t)
        for j in range(2):
            value, d_src, d_dst = _pair_derivatives(phi_t, tables, maps[j], targets, i == j, w_neg, p)
            e_val[j] += sign * value
            d_e[j][i] += sign * d_src
            d_e[j][j] += sign * d_dst
        del tables  # one source's tables live at a time

    jac = np.zeros((2 * K + 1, 2 * K + 1))
    for j, (phi_w, num_w) in enumerate(dst):
        conj_b = np.conj(num_w)[:, None]
        rows = slice(j * K, (j + 1) * K)
        for k in range(2):
            d_g = np.imag(d_e[j][k] * conj_b)
            if k == j:
                d_g -= p * np.imag(e_val[j][:, None] * np.conj(w_neg))
            jac[rows, k * K:(k + 1) * K] = proj.T @ d_g
        jac[rows, 2 * K] = proj.T @ np.imag(phi_w * np.conj(num_w))
    jac[2 * K, 0] = vhat[0]
    jac[2 * K, K] = vhat[1]
    g = [np.imag(e * np.conj(num_w)) for e, (_, num_w) in zip(e_val, dst)]
    return (jac, *_augmented(g, proj, x, s, vhat))


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
    P: Optional[int] = None,
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

    ``P`` defaults to 4 K m, which resolves every retained mode with alias
    margin; an explicit ``P`` must be positive and is rounded up to the
    nearest multiple of 4 K m.  Either way gcd(m, P) = m, the largest grid
    symmetry, so every kernel pass evaluates about P / (2 m) targets
    (:func:`_collocation_grid`).  The effective size is recorded on the
    returned run.
    """
    if sign not in ("plus", "minus"):
        raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if steps < 0 or not (math.isfinite(ds) and ds > 0.0):
        raise PreconditionError(f"need steps >= 0 and finite ds > 0, got steps={steps}, ds={ds}")
    if K < 1 or m < 2 or (P is not None and P < 1):
        raise PreconditionError(f"need K >= 1, m >= 2 and P >= 1, got K={K}, m={m}, P={P}")
    _check_tol(newton_tol)
    block = 4 * K * m
    P = block if P is None else block * -(-P // block)
    if consts is None:
        consts = AnnulusConstants.build(b)
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
    history = [_pack(start)]
    _, start_norm = _system(start, history[0], 0.0, vhat, P)
    points = [BranchPoint(s=0.0, patch=start, residual_norm=start_norm, step_index=0)]
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
    if npoints < 1:
        raise PreconditionError(f"need npoints >= 1, got {npoints}")
    theta = TWO_PI * np.arange(npoints) / npoints
    (phi1, _), (phi2, _) = _map_values(patch, npoints)
    return np.column_stack([theta, phi1.real, phi1.imag, phi2.real, phi2.imag])
