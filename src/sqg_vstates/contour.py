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

Quadrature and collocation share one grid, with no rotation: the P
nodes tau_l = exp(2 pi i l / P) are also the targets.  The maps have one
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

``residual`` collocates G_1, G_2 on the grid and, in one pass, projects
onto the retained sine modes sin(n m theta) with the projection Newton
drives to zero (:func:`_sine_coefficients`); ``newton_correct`` and
``branch_continue`` trace solution branches off the annulus in the kernel
direction of the linearized operator.  The Newton Jacobian comes from
the 4 K m grid, where it is the exact derivative of that grid's discrete
residual: both maps are linear in (a, c), so every column follows in
closed form from the kernel matrices of one pass.  On a finer grid P it
agrees with the exact one to roundoff once 4 K m resolves the solution
(2.3e-15 relative at P = 1280, K = 8, m = 5), so a kernel pass at P is
only ever a residual; acceptance, ``residual_norm`` and the tolerance
are always at P.  The corrector carries only x, F and J, and reads
``residual_norm`` off F.  Central differences remain only as the
independent oracle, in the tests and in ``verify``.

Grid symmetry.  Let g = gcd(m, P) and q = P / g.  Rotation by 2 pi / g
shifts every grid index by q, and because g | m every map obeys
Phi(rho z) = rho Phi(z); the self weights depend only on l - k, so the
discrete residual is q-periodic: G_{k+q} = G_k.  Conjugation maps index l
to P - l, real coefficients give Phi(conj z) = conj Phi(z), and V is even
(V_j = V_{P-j}), so it is odd: G_{P-k} = -G_k, which forces
G_0 = G_{q/2} = 0.  Both identities hold for the discrete sums, not only
in the limit, so every kernel pass targets only the orbit
representatives k = 1..ceil(q/2)-1, which :func:`_collocation_grid` alone
defines; the rest are copies up to summation order, or zero.  The same
group acts on the cross kernel C[r, l] = 1/|Phi_2(tau_l) - Phi_1(tau_r)|:
C[r+q, l+q] = C[r, l] = C[-r, -l], and A_j = w Phi_j'(w) turns like Phi_j.
So the rows r = 0..floor(q/2) represent all P rows, and one block of
them gives both cross streams: S(Phi_2, Phi_1) from its rows and
S(Phi_1, Phi_2), which reads C by columns, from its columns folded over
the group (:func:`_cross_streams`).

Kernel passes.  Every pass, a residual's two self passes
(:func:`_stream_on_grid`) and its cross block (:func:`_cross_streams`),
and the Jacobian's :func:`_source_derivatives`, is one loop over the
blocks of targets that the generator :func:`_distance_blocks` yields, on
the calling thread; BLAS threads are the only parallelism.  Re D and Im D
come from factor tables built once per pass (:func:`_difference_tables`)
as products with inner dimension 2 (:func:`_differences`), each entry
the sum of two exact products rounded once: bitwise the subtraction,
whatever the number of BLAS threads.  The cross block's transposed
products have the size of its row products, and like them give the same
bytes at any thread count.  So residuals, and the whole criterion-10
branch (K = 8, P = 1280), are bitwise independent of the thread count.
The Jacobian's column products at K = 32 are large enough
for OpenBLAS to split over threads, so a default ``vstates branch``
(K = 32) can differ in the last bits between thread counts.  The grid
nodes and the collocation grid are built once per grid size and are
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BoundaryCollision,
    NoConvergence,
    NotSimple,
    PreconditionError,
    SingularJacobian,
)
from .specfun import AnnulusConstants, _is_integer, _s_table
from .spectrum import bifurcation_row, kernel_vector, threshold_N

__all__ = [
    "PatchPair",
    "ResidualSpectrum",
    "BranchPoint",
    "BranchRun",
    "annulus_patch",
    "residual",
    "newton_correct",
    "branch_continue",
    "boundary_samples",
]

TWO_PI = 2.0 * math.pi

# Disjointness guard: quadrature denominators below this signal touching
# or crossing boundaries.
COLLISION_TOL = 1e-10

# Grid cap: a pass's tables grow like K P; near the cap the traced peaks are
# 250 MB (Jacobian, K = 320, m = 5) and 440 MB (grid and maps, K = 1).
MAX_KP = 1 << 21

# Kernel pairs per target block of every kernel pass: about 512 KB per
# P x block buffer, so the pass's two buffers stay in cache.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class PatchPair:
    """Truncated conformal representation of the two patch boundaries.

    ``a`` and ``c`` hold the K retained outer/inner coefficients at the
    m-fold frequencies n m - 1, n = 1..K.  Construction checks m and K
    (:func:`_check_sizes`) and validates the coefficient-size guard

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
        _check_sizes(self.m, self.K)
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


def annulus_patch(b: float, m: int, K: int, omega: float) -> PatchPair:
    """The trivial solution: both maps are pure scalings."""
    return PatchPair(b=b, m=m, K=K, a=np.zeros(K), c=np.zeros(K), omega=omega)


@dataclass(frozen=True)
class ResidualSpectrum:
    """One kernel pass's boundary residuals on the P grid: the values
    ``g1``, ``g2`` at the angles 2 pi k / P and the sine coefficients
    ``r1``, ``r2`` at the retained frequencies n m, all read-only.  The
    values are exactly periodic with period 2 pi / g, g = gcd(m, P), so
    the first q = P / g of them are one period."""

    g1: np.ndarray
    g2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


@dataclass(frozen=True)
class BranchPoint:
    """One accepted point on a bifurcation branch, at amplitude ``s`` along
    the kernel direction."""

    s: float
    patch: PatchPair
    residual_norm: float


def _schema_error(path: str, why: str) -> PreconditionError:
    return PreconditionError(f"branch JSON schema violation at {path}: {why}")


def _json_value(value, typ: type, path: str):
    """``value`` checked against ``typ``, a float as a Python float: a JSON
    integer is a valid float if it fits one; a JSON boolean is neither."""
    accepted = (int, float) if typ is float else typ
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise _schema_error(path, f"expected {typ.__name__}")
    if typ is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise _schema_error(path, "expected float, got an integer beyond its range") from None


def _json_fields(obj, path: str, fields: tuple[tuple[str, type], ...]) -> list:
    """The values of the (key, type) ``fields`` of the JSON object ``obj``
    at ``path``, in order, each checked by :func:`_json_value`."""
    if not isinstance(obj, dict):
        raise _schema_error(path, "expected an object")
    prefix = "" if path == "$" else path + "."
    values = []
    for key, typ in fields:
        if key not in obj:
            raise _schema_error(prefix + key, "missing")
        values.append(_json_value(obj[key], typ, prefix + key))
    return values


@dataclass(frozen=True)
class BranchRun:
    """A branch traced from the annulus, ``points[0]``, at Omega_m^{sign}
    ("plus" or "minus").  ``stopped_reason`` is None for a complete run, or
    a short message naming the failure that truncated it.  ``P`` is the
    effective collocation size used: 4 K m by default, or the requested
    size rounded up to a multiple of 4 K m.  The branch JSON file is
    ``json.dumps(run.to_dict(), indent=2)``; :meth:`from_dict` reads it."""

    points: tuple[BranchPoint, ...]
    stopped_reason: Optional[str]
    P: int
    sign: str

    def to_dict(self) -> dict:
        """The branch JSON object: b, m, K, P, sign, stopped_reason and one
        {s, omega, a, c, residual_norm} per point, in that order."""
        start = self.points[0].patch
        return {
            "b": start.b, "m": start.m, "K": start.K, "P": self.P, "sign": self.sign,
            "stopped_reason": self.stopped_reason,
            "points": [{"s": pt.s, "omega": pt.patch.omega, "a": pt.patch.a.tolist(),
                        "c": pt.patch.c.tolist(), "residual_norm": pt.residual_norm}
                       for pt in self.points],
        }

    @classmethod
    def from_dict(cls, data) -> BranchRun:
        """The run of a :meth:`to_dict` object, such as a parsed branch JSON
        file.  Every field is type-checked (:func:`_json_value`) and every
        point builds its :class:`PatchPair`, so all patch guards apply; a
        missing ``stopped_reason`` reads as null.  Raises
        :class:`PreconditionError` naming the first bad field by its path."""
        b, m, K, P, sign, points = _json_fields(data, "$", (
            ("b", float), ("m", int), ("K", int), ("P", int), ("sign", str), ("points", list)))
        stopped = data.get("stopped_reason")
        if stopped is not None and not isinstance(stopped, str):
            raise _schema_error("stopped_reason", "expected str or null")
        if not points:
            raise _schema_error("points", "expected at least the annulus point")
        run_points = []
        for i, pt in enumerate(points):
            path = f"points[{i}]"
            s, omega, a, c, norm = _json_fields(pt, path, (
                ("s", float), ("omega", float), ("a", list), ("c", list), ("residual_norm", float)))
            a = [_json_value(v, float, f"{path}.a[{k}]") for k, v in enumerate(a)]
            c = [_json_value(v, float, f"{path}.c[{k}]") for k, v in enumerate(c)]
            patch = PatchPair(b=b, m=m, K=K, a=a, c=c, omega=omega)
            run_points.append(BranchPoint(s=s, patch=patch, residual_norm=norm))
        return cls(points=tuple(run_points), stopped_reason=stopped, P=P, sign=sign)


@lru_cache(maxsize=8)
def _nodes(P: int) -> np.ndarray:
    """The P grid nodes e^{2 pi i l / P}, quadrature nodes and targets alike,
    as a read-only array built once per grid."""
    nodes = np.exp(1j * TWO_PI * np.arange(P) / P)
    nodes.setflags(write=False)
    return nodes


def _node_powers(P: int, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (k, p) table tau_k^p for grid indices k and integer exponents
    p, by lookup: tau_k^p is the node tau_{(k p) mod P}."""
    return _nodes(P)[np.outer(k, p) % P]


def _map_values(patch: PatchPair, P: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(Phi_j, A_j = w Phi_j'(w)) for both maps on the P grid nodes: the
    one map evaluator.

    A term c w^{-p} equals c e^{-2 pi i (p mod P) l / P} on the grid, so
    each coefficient series is one FFT with that coefficient in bin
    p mod P; A_j carries -p on every term.  The leading terms w and b w
    are added as they are.
    """
    p = patch.mode_exponents()
    coeffs = np.array([patch.a, patch.c, -p * patch.a, -p * patch.c])
    bins = np.zeros((4, P), dtype=complex)
    np.add.at(bins, (slice(None), p % P), coeffs)
    s1, s2, t1, t2 = np.fft.fft(bins)
    w = _nodes(P)
    return (w + s1, w + t1), (patch.b * w + s2, patch.b * w + t2)


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


def _difference_tables(phi_src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank-2 factor tables of the kernel coordinate differences
    D = Phi_src(tau_l) - Phi_dst(w_k), from the P source values ``phi_src``
    to the destination values ``dst``, built once per pass.

    For the part x = Re (index 0) or Im (index 1), ``left[x]`` is the
    (targets, 2) table [1, -x_k] and ``right[x]`` the (2, P) table
    [x_l; 1], so row k of ``left[x] @ right[x]`` is x(D) for the target k
    (:func:`_differences`).
    """
    left = np.ones((2, dst.size, 2))
    left[..., 1] = [-dst.real, -dst.imag]
    right = np.ones((2, 2, phi_src.size))
    right[:, 0] = [phi_src.real, phi_src.imag]
    return left, right


def _differences(tables: tuple[np.ndarray, np.ndarray], part: int, rows: slice,
                 out: np.ndarray) -> np.ndarray:
    """Re D (``part`` 0) or Im D (``part`` 1) of :func:`_difference_tables`
    for the target positions ``rows``, written to the (rows, P) array
    ``out``: the one place a kernel pass forms coordinate differences.

    One BLAS product with inner dimension 2.  Each entry
    1 * x_l + (-x_k) * 1 is the sum of two exact products, rounded once,
    so it is bitwise the difference x_l - x_k, except that an exact zero
    may carry the other sign, which |D| squares away.
    """
    left, right = tables
    return np.matmul(left[part, rows], right[part], out=out)


def _distance_blocks(tables: tuple[np.ndarray, np.ndarray], targets: slice,
                     self_pair: bool) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray | float]]:
    """The kernel distances |D| = |Phi_src(tau_l) - Phi_dst(tau_k)| from the
    P grid nodes l to the targets k in the index range ``targets``, one
    block of targets at a time, from the factor tables
    :func:`_difference_tables` of Phi_src and of Phi_dst at ``targets``:
    Re D and Im D are two exact rank-2 products per block
    (:func:`_differences`).

    A generator: blocks hold about ``_BLOCK_PAIRS`` kernel pairs in two
    buffers allocated once per pass and yield ``(rows, d, spare, weight)``:
    ``d`` holds |D| for the positions ``rows`` of ``targets`` as a
    contiguous (rows, P) view, and ``spare`` is working space of the same
    shape that the loop body, like ``d``, may overwrite.  The pair weight
    is ``weight`` / P: the matching rows of :func:`_self_weights` on a self
    pair, 1.0 on a cross pair.  On a self pair the diagonal l = k, where
    D = 0, is set to +inf, so it passes the guard and its kernel
    ``weight / d`` is exactly 0.  Raises :class:`BoundaryCollision` if any
    other distance drops below the disjointness guard, after the blocks
    before it have been yielded.
    """
    n_dst, P = tables[0].shape[1], tables[1].shape[2]
    first = targets.start
    step = max(1, _BLOCK_PAIRS // P)
    weights = _self_weights(P) if self_pair else None
    # one allocation for both buffers: freed whole, it lifts glibc's dynamic
    # mmap and trim thresholds above their joint size, so the pages stay in
    # the heap for the next pass (separate buffers were returned to the
    # kernel and faulted in again, page by page, on every call)
    d_buf, spare_buf = np.empty((2, P * min(step, n_dst)))
    for lo in range(0, n_dst, step):
        hi = min(lo + step, n_dst)
        rows = slice(lo, hi)
        d = _differences(tables, 0, rows, d_buf[:P * (hi - lo)].reshape(hi - lo, P))
        spare = _differences(tables, 1, rows, spare_buf[:P * (hi - lo)].reshape(hi - lo, P))
        d *= d
        spare *= spare
        d += spare
        np.sqrt(d, out=d)
        weight = 1.0
        if weights is not None:
            np.fill_diagonal(d[:, first + lo:first + hi], np.inf)
            weight = weights[first + lo:first + hi]
        if d.min() < COLLISION_TOL:
            raise BoundaryCollision(f"boundaries closer than {COLLISION_TOL} at a quadrature node")
        yield rows, d, spare, weight


def _stream_on_grid(
    src: tuple[np.ndarray, np.ndarray],
    dst: tuple[np.ndarray, np.ndarray],
    targets: slice,
    self_pair: bool,
) -> np.ndarray:
    """S(Phi_src, Phi_dst) at the targets ``targets`` of the P grid nodes,
    from (Phi, A) of each map on the nodes (:func:`_map_values`).  The
    weighted kernel comes block by block from :func:`_distance_blocks`.
    """
    phi_src, num_src = src
    phi_dst, num_dst = dst
    P = phi_src.size
    # Re A, Im A and the ones that give the row sum, all in one matrix
    # product per block
    sums = np.column_stack([num_src.real, num_src.imag, np.ones(P)])
    num_w = num_dst[targets]
    out = np.empty(num_w.size, dtype=complex)
    tables = _difference_tables(phi_src, phi_dst[targets])
    for rows, d, _, weight in _distance_blocks(tables, targets, self_pair):
        np.divide(weight, d, out=d)
        re, im, total = (d @ sums).T
        out[rows] = (re + 1j * im - num_w[rows] * total) / P
    return out


def _cross_streams(
    maps: tuple[tuple[np.ndarray, np.ndarray], ...],
    targets: slice,
    q: int,
) -> tuple[np.ndarray, np.ndarray]:
    """S(Phi_2, Phi_1) and S(Phi_1, Phi_2) at the targets ``targets``, grid
    indices within 1..floor(q/2), from (Phi, A) of both maps on the P nodes
    (:func:`_map_values`) and the residual period q: one loop over
    :func:`_distance_blocks` for both cross streams.

    The block holds C[r, l] = 1/|Phi_2(tau_l) - Phi_1(tau_r)| for the rows
    r = 0..floor(q/2), the orbit representatives of all P rows under the
    grid group (module docstring).  Row products give S(Phi_2, Phi_1) at
    the targets.  S(Phi_1, Phi_2)_k needs the column sums
    sum_l C[l, k] A_1(l) and sum_l C[l, k] over all P rows, which the
    group folds onto the representatives.  With g = P / q,
    rho = e^{2 pi i / g}, indices mod P and the row weights w_r (1/2 on
    the rows 0 and q/2 that reflection fixes, 1 otherwise), the
    transposed products give Y = sum_r w_r C[r, .] A_1(r) and its
    conjugate counterpart Z = sum_r w_r C[r, .] conj A_1(r), and

        sum_l C[l, k] A_1(l) = sum_{j<g} rho^j (Y[k - j q] + Z[j q - k]);

    the plain sum is the same fold of sum_r w_r C[r, .] with no phase, and
    S(Phi_1, Phi_2)_k = (sum_l C[l, k] A_1(l) - A_2(k) sum_l C[l, k]) / P.
    """
    (phi1, num1), (phi2, num2) = maps
    P = phi1.size
    reps = slice(0, q // 2 + 1)
    row_sums = np.column_stack([num2.real, num2.imag, np.ones(P)])
    col_sums = np.ones((3, reps.stop))
    col_sums[0] = num1[reps].real
    col_sums[1] = num1[reps].imag
    # rows 0 and q/2 are their own reflections: their orbits hold g rows, not 2 g
    col_sums[:, 0] *= 0.5
    if q % 2 == 0:
        col_sums[:, -1] *= 0.5
    rows_out = np.empty((reps.stop, 3))
    cols_out = np.zeros((3, P))
    for rows, d, _, _ in _distance_blocks(_difference_tables(phi2, phi1[reps]), reps, False):
        np.divide(1.0, d, out=d)
        rows_out[rows] = d @ row_sums
        cols_out += col_sums[:, rows] @ d
    re, im, total = rows_out[targets].T
    s21 = (re + 1j * im - num1[targets] * total) / P
    # the fold for targets 0 < k < q: with u_n = sum_j rho^-j Y[n + j q],
    # the Z terms sum to rho conj(u_{q-k}), since Z[j q - k] = conj Y[j q - k]
    k = np.arange(targets.start, targets.stop)
    nodes = _nodes(P)
    u = np.conj(nodes[::q]) @ (cols_out[0] + 1j * cols_out[1]).reshape(-1, q)
    t = cols_out[2].reshape(-1, q).sum(axis=0)
    col_a = u[k] + nodes[q % P] * np.conj(u[q - k])
    s12 = (col_a - num2[targets] * (t[k] + t[q - k])) / P
    return s21, s12


def _boundary_residuals(patch: PatchPair, P: int) -> tuple[np.ndarray, np.ndarray]:
    """G_1, G_2 at the targets of :func:`_collocation_grid`, with the stream
    integrals taken over the P grid nodes: one map evaluation, one self
    pass per boundary (:func:`_stream_on_grid`) and one block for both
    cross streams (:func:`_cross_streams`)."""
    q, targets, _ = _collocation_grid(patch.m, patch.K, P)
    maps = _map_values(patch, P)
    (phi1, num1), (phi2, num2) = maps
    s21, s12 = _cross_streams(maps, targets, q)
    # E_j = Omega Phi_j - S(Phi_1, Phi_j) + S(Phi_2, Phi_j)
    e1 = patch.omega * phi1[targets] - _stream_on_grid(maps[0], maps[0], targets, True) + s21
    e2 = patch.omega * phi2[targets] - s12 + _stream_on_grid(maps[1], maps[1], targets, True)
    return np.imag(e1 * np.conj(num1[targets])), np.imag(e2 * np.conj(num2[targets]))


def _check_sizes(m: int, K: int, P: Optional[int] = None) -> None:
    """The one size rule, checked before any array of a patch, pass or run
    is allocated: :class:`PreconditionError` unless m, K and P (if given)
    are integers, m >= 2, K >= 1, P is even with 4 K m <= P <= MAX_KP / K,
    and the exponents n m - 1 fit in int64, which the grid cap implies."""
    for name, value in (("m", m), ("K", K), ("P", P)):
        if value is not None and not _is_integer(value):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
    m, K = int(m), int(K)
    if m < 2:
        raise PreconditionError(f"fold symmetry must satisfy m >= 2, got {m}")
    if K < 1:
        raise PreconditionError(f"truncation must satisfy K >= 1, got {K}")
    if P is not None and (P % 2 or not 4 * K * m <= P <= MAX_KP // K):
        raise PreconditionError(f"collocation size P={P} with K={K} modes must be even,"
                                f" >= 4*K*m = {4 * K * m} and within the cap K*P <= {MAX_KP}")
    if K * m > np.iinfo(np.int64).max:
        raise PreconditionError(f"mode exponents n*m - 1 must fit in int64, got K={K}, m={m}")


@lru_cache(maxsize=8, typed=True)
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
    coefficient is G @ table.  g = 1 needs no special case.  Checks the
    sizes first (:func:`_check_sizes`); a valid grid's result is built once
    and its table is read-only, while an invalid one raises on every call.
    The cache is typed, so a float equal to a cached size is checked, not
    served.
    """
    _check_sizes(m, K, P)
    q = P // math.gcd(m, P)
    targets = slice(1, (q + 1) // 2)
    sines = _node_powers(P, np.arange(targets.start, targets.stop), np.arange(1, K + 1) * m).imag
    proj = 4.0 / q * sines
    proj.setflags(write=False)
    return q, targets, proj


def _sine_coefficients(g: tuple[np.ndarray, ...], proj: np.ndarray) -> np.ndarray:
    """The (2, K) retained sine coefficients of g = (G_1, G_2) on the targets
    of :func:`_collocation_grid`: the one projection, for F and residual()."""
    return np.stack([g_j @ proj for g_j in g])


def residual(patch: PatchPair, P: int) -> ResidualSpectrum:
    """G_1, G_2 on the P angles 2 pi k / P with their sine coefficients,
    from one kernel pass (:class:`ResidualSpectrum`).

    Only the targets of :func:`_collocation_grid` are evaluated; the grid
    symmetries (module docstring) unfold them to one period of q = P / g
    values, G_{q-k} = -G_k with G_0 = G_{q/2} = 0 exactly, which tiles
    all P.  The coefficient of mode n m is that of sin(n m theta), bitwise
    the one Newton drives to zero (:func:`_sine_coefficients`).
    """
    q, targets, proj = _collocation_grid(patch.m, patch.K, P)
    g = _boundary_residuals(patch, P)
    r = _sine_coefficients(g, proj)
    period = np.zeros((2, q))
    period[:, targets] = g
    k = np.arange(targets.start, targets.stop)
    period[:, q - k] = -period[:, k]
    values = np.tile(period, P // q)
    for arr in (r, values):
        arr.setflags(write=False)
    return ResidualSpectrum(g1=values[0], g2=values[1], r1=r[0], r2=r[1])


# ---------------------------------------------------------------------------
# Newton corrector and branch continuation
# ---------------------------------------------------------------------------

_COND_LIMIT = 1e14
_MAX_BACKTRACK = 8
_MAX_ITER = 25


def _pack(patch: PatchPair) -> np.ndarray:
    return np.concatenate([patch.a, patch.c, [patch.omega]])


def _unpack(patch_like: PatchPair, x: np.ndarray) -> PatchPair:
    """The patch at unknowns x = (a, c, Omega), with b, m and K of ``patch_like``."""
    K = patch_like.K
    return PatchPair(b=patch_like.b, m=patch_like.m, K=K, a=x[:K], c=x[K:2 * K], omega=float(x[2 * K]))


def _augmented(g: tuple[np.ndarray, ...], proj: np.ndarray, x: np.ndarray,
               s: float, vhat: tuple[float, float]) -> np.ndarray:
    """The augmented residual F from g = (G_1, G_2) on the targets of
    :func:`_collocation_grid` and its projection table ``proj``: the 2K
    retained sine coefficients, then the amplitude constraint, which pins
    the projection of (a_1, c_1) onto the normalized kernel direction to s.
    """
    K = proj.shape[1]
    return np.append(_sine_coefficients(g, proj).ravel(), x[0] * vhat[0] + x[K] * vhat[1] - s)


def _system(patch_like: PatchPair, x: np.ndarray, s: float, vhat: tuple[float, float], P: int) -> np.ndarray:
    """Augmented residual (:func:`_augmented`) at x = (a, c, Omega), one
    kernel pass over the targets of :func:`_collocation_grid`."""
    patch = _unpack(patch_like, x)
    proj = _collocation_grid(patch.m, patch.K, P)[2]
    return _augmented(_boundary_residuals(patch, P), proj, x, s, vhat)


def _source_derivatives(
    maps: tuple[tuple[np.ndarray, np.ndarray], ...],
    source: int,
    targets: slice,
    t_neg: np.ndarray,
    w_neg: np.ndarray,
    p: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """S(Phi_i, Phi_j) at the targets ``targets`` for source map i =
    ``source`` and both destinations j, with its exact derivatives with
    respect to the source and destination coefficients.

    With D = Phi_i(tau) - Phi_j(w), A = tau Phi_i'(tau), B = w Phi_j'(w)
    and the pair weight c (1/P, or V_{l-k} on a self pair),
    S = sum_tau (A - B) R with R = c/|D|.  A source coefficient moves D by
    tau^{-p} and A by -p tau^{-p}; a destination coefficient moves D by
    -w^{-p} and B by -p w^{-p}; c is constant, so
    dR = -(c/|D|^3) Re(conj(D) dD).  With U = Re(D) c/|D|^3 and
    V = Im(D) c/|D|^3 every column is a product of R, U or V with a table
    of the source map, built once for both destinations: with T = tau^{-p}
    (``t_neg``) the column blocks are t_r = [Re T, Im T, 1, Re A, Im A],
    t_u = [Re T, Re A Re T, Im A Re T, 1, Re A, Im A] and t_v the same with
    Im T in place of Re T.  ``maps`` holds (Phi, A) of both maps on the
    nodes and ``w_neg`` is w^{-p} at the targets.  Yields, for j = 1, 2,
    (S, dS/dsource, dS/ddestination), the last two as (targets, K) arrays.
    """
    phi_src, num_src = maps[source]
    P = phi_src.size
    K = p.size
    tail = np.column_stack([np.ones(P), num_src.real, num_src.imag])
    t_r = np.column_stack([t_neg.real, t_neg.imag, tail])
    t_u = np.column_stack([t_neg.real, num_src.real[:, None] * t_neg.real, num_src.imag[:, None] * t_neg.real, tail])
    t_v = np.column_stack([t_neg.imag, num_src.real[:, None] * t_neg.imag, num_src.imag[:, None] * t_neg.imag, tail])
    # the column sums, refilled for each destination
    r_cols, u_cols, v_cols = (np.empty((w_neg.shape[0], t.shape[1])) for t in (t_r, t_u, t_v))
    for j, (phi_dst, num_dst) in enumerate(maps):
        num_w = num_dst[targets]
        # one set of factor tables for |D| and for the U and V columns
        tables = _difference_tables(phi_src, phi_dst[targets])
        for rows, d, spare, weight in _distance_blocks(tables, targets, j == source):
            np.multiply(d, d, out=spare)
            spare *= d
            np.divide(weight, d, out=d)  # R
            np.divide(weight, spare, out=spare)  # c/|D|^3
            r_cols[rows] = d @ t_r
            _differences(tables, 0, rows, d)
            d *= spare  # U
            u_cols[rows] = d @ t_u
            _differences(tables, 1, rows, d)
            d *= spare  # V
            v_cols[rows] = d @ t_v
        d = spare = None  # release this pass's buffers before the next pass allocates its own
        # the last three columns: the column sum and the sum against A
        sum_r, sum_u, sum_v = r_cols[:, -3], u_cols[:, -3], v_cols[:, -3]
        r_a, u_a, v_a = (cols[:, -2] + 1j * cols[:, -1] for cols in (r_cols, u_cols, v_cols))
        value = (r_a - num_w * sum_r) / P
        d_src = (
            -p * (r_cols[:, :K] + 1j * r_cols[:, K:2 * K])
            - (u_cols[:, K:2 * K] + 1j * u_cols[:, 2 * K:3 * K])
            - (v_cols[:, K:2 * K] + 1j * v_cols[:, 2 * K:3 * K])
            + num_w[:, None] * (u_cols[:, :K] + v_cols[:, :K])
        ) / P
        d_dst = (
            p * w_neg * sum_r[:, None]
            + w_neg.real * (u_a - num_w * sum_u)[:, None]
            + w_neg.imag * (v_a - num_w * sum_v)[:, None]
        ) / P
        yield value, d_src, d_dst


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
    F cost no further kernel work.  Each source map is one call of
    :func:`_source_derivatives`, one source's tables at a time.
    Returns (J, F); F agrees with :func:`_system` up to summation order.
    """
    patch = _unpack(patch_like, x)
    K = patch.K
    _, targets, proj = _collocation_grid(patch.m, K, P)
    p = patch.mode_exponents()
    t_neg = _node_powers(P, np.arange(P), -p)
    w_neg = t_neg[targets]
    maps = _map_values(patch, P)
    dst = [(phi[targets], num[targets]) for phi, num in maps]
    own = [slice(0, K), slice(K, 2 * K)]  # the columns of map j's coefficients

    # e_val[j] = E_j and d_e[j] = dE_j / d(a, c), a (targets, 2K) array
    e_val = [patch.omega * phi_w for phi_w, _ in dst]
    d_e = [np.zeros((w_neg.shape[0], 2 * K), dtype=complex) for _ in range(2)]
    for j in range(2):
        d_e[j][:, own[j]] += patch.omega * w_neg
    for i, sign in ((0, -1.0), (1, 1.0)):
        for j, (value, d_src, d_dst) in enumerate(_source_derivatives(maps, i, targets, t_neg, w_neg, p)):
            e_val[j] += sign * value
            d_e[j][:, own[i]] += sign * d_src
            d_e[j][:, own[j]] += sign * d_dst

    jac = np.zeros((2 * K + 1, 2 * K + 1))
    for j, (phi_w, num_w) in enumerate(dst):
        d_g = np.imag(d_e[j] * np.conj(num_w)[:, None])
        d_g[:, own[j]] -= p * np.imag(e_val[j][:, None] * np.conj(w_neg))
        for k in range(2):  # per block: one 2K-column product rounds differently at K = 1
            jac[own[j], own[k]] = proj.T @ d_g[:, own[k]]
        jac[own[j], 2 * K] = proj.T @ np.imag(phi_w * np.conj(num_w))
    jac[2 * K, 0] = vhat[0]
    jac[2 * K, K] = vhat[1]
    g = [np.imag(e * np.conj(num_w)) for e, (_, num_w) in zip(e_val, dst)]
    return jac, _augmented(g, proj, x, s, vhat)


def _check_tol(newton_tol: float) -> None:
    if not (math.isfinite(newton_tol) and newton_tol > 0.0):
        raise PreconditionError(f"Newton tolerance must be finite and > 0, got {newton_tol}")


def newton_correct(
    patch: PatchPair,
    s: float,
    vhat: tuple[float, float],
    P: int,
    newton_tol: float = 1e-10,
) -> tuple[PatchPair, float]:
    """Solve the augmented system {residual = 0, kernel projection = s}
    on the P grid, where the projection of (a_1, c_1) is onto the unit
    kernel direction ``vhat`` (``kernel_vector(...).normalized()``).

    Damped Newton on the 2K+1 unknowns (a, c, Omega) with the Jacobian of
    the 4 K m grid: the exact derivative of the discrete residual there,
    from the kernel pass (:func:`_exact_jacobian`) that also gives that
    grid's residual F where the correction starts.  Newton carries only
    the unknowns x, the augmented residual F and the Jacobian J.  It
    first solves the 4 K m system; when P is larger, it then evaluates the
    residual at P and goes on from there with that residual as the
    right-hand side and the same 4 K m Jacobian (a two-grid Newton, or
    defect correction), so a kernel pass at P is only ever a residual.  A
    point is accepted only on its residual at P.  When the 4 K m grid
    resolves the solution, a point that converges after one full step
    costs one Jacobian pass and one residual pass at 4 K m and one
    residual pass at P.  The residual is evaluated on its own only at
    line-search trial points and at that switch.  The Jacobian is reused
    across iterations while full steps keep reducing the residual, and
    refreshed when progress stalls; a refresh keeps the F already held at
    the same x.  The budget of ``_MAX_ITER`` = 25
    iterations spans both grids.  Central differences serve only as the
    oracle in the tests and in ``verify``.  Returns the corrected patch
    and its residual norm, max |F[:-1]| at P.

    Raises
    ------
    PreconditionError
        if ``newton_tol`` is not finite and positive, ``s`` or ``vhat`` is
        not finite, or P is not even and at least 4 K m.
    NoConvergence
        after ``_MAX_ITER`` = 25 iterations above tolerance.
    SingularJacobian
        if the condition estimate of the Jacobian exceeds 1e14.
    """
    _check_tol(newton_tol)
    if not all(map(math.isfinite, (s, *vhat))):
        raise PreconditionError(f"amplitude s={s} and kernel direction vhat={vhat} must be finite")
    K = patch.K
    coarse = 4 * K * patch.m
    _check_sizes(patch.m, K, P)
    x = _pack(patch)
    jac: Optional[np.ndarray]
    jac, fvec = _exact_jacobian(patch, x, s, vhat, coarse)
    jac_fresh = True
    grid = coarse  # the grid of fvec and of the line-search trials
    iterations = 0
    while True:
        if np.abs(fvec).max() <= newton_tol:
            if grid == P:
                return _unpack(patch, x), float(np.abs(fvec[:-1]).max())
            grid = P
            fvec = _system(patch, x, s, vhat, P)
            continue
        if iterations == _MAX_ITER:
            raise NoConvergence(f"Newton did not reach {newton_tol} in {_MAX_ITER} iterations")
        iterations += 1
        if jac is None:
            jac, _ = _exact_jacobian(patch, x, s, vhat, coarse)  # fvec already holds F at this x
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
                f_try = _system(patch, x + step * dx, s, vhat, grid)
            except (PreconditionError, BoundaryCollision):
                step *= 0.5
                continue
            if np.abs(f_try).max() <= (1.0 - 1e-4 * step) * fnorm:
                x = x + step * dx
                fvec = f_try
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
    consts: Optional[AnnulusConstants] = None,
) -> BranchRun:
    """Trace the branch bifurcating from the annulus at Omega_m^{sign}.

    The first step leaves the annulus along the kernel direction embedded
    in the (a_1, c_1) plane.  Later predictors extrapolate all 2K+1
    unknowns (a, c, Omega) in s: the secant through the last two accepted
    points, then the quadratic through the last three (:func:`_predict`),
    which leaves a predictor residual small enough for one Newton
    iteration.  The corrector is :func:`newton_correct`: its Jacobian
    comes from the 4 K m grid, while every accepted point's
    ``residual_norm`` is its residual at P and meets ``newton_tol``
    there.  On a guard or Newton failure the partial branch up to the
    last good point is returned with ``stopped_reason`` set; nothing is
    discarded.

    ``P`` defaults to 4 K m, which resolves every retained mode with alias
    margin; an explicit ``P`` must be positive and is rounded up to the
    nearest multiple of 4 K m.  Either way gcd(m, P) = m, the largest grid
    symmetry, so every kernel pass evaluates about P / (2 m) targets
    (:func:`_collocation_grid`).  The effective size is recorded on the
    returned run.
    """
    if sign not in ("plus", "minus"):
        raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not (_is_integer(steps) and steps >= 0 and math.isfinite(ds) and ds > 0.0):
        raise PreconditionError(f"need an integer steps >= 0 and finite ds > 0, got steps={steps!r}, ds={ds}")
    _check_tol(newton_tol)
    # 4 K m and the rounded P from Python ints, as numpy sizes would wrap; a
    # non-integer fails the size rule
    block = 4 * int(K) * int(m) if _is_integer(K) and _is_integer(m) else None
    _check_sizes(m, K, block)  # the smallest grid, before any array of K or P entries
    if _is_integer(P) and P <= 0:  # before rounding, so the message names the P given
        raise PreconditionError(f"collocation size P={P} must be positive")
    P = block if P is None else (block * -(-int(P) // block) if _is_integer(P) else P)
    _check_sizes(m, K, P)
    if consts is None:
        consts = AnnulusConstants.build(b, m)  # checks its own length first
    n_threshold = threshold_N(b, consts)
    if m < n_threshold:
        raise NotSimple(f"mode m={m} is below the threshold N({b}) = {n_threshold}")
    row = bifurcation_row(m, b, consts)
    omega0 = row.omega_plus if sign == "plus" else row.omega_minus
    vhat = kernel_vector(m, b, omega0, consts).normalized()

    start = annulus_patch(b, m, K, omega0)
    history = [_pack(start)]
    start_norm = float(np.abs(_system(start, history[0], 0.0, vhat, P)[:-1]).max())
    points = [BranchPoint(s=0.0, patch=start, residual_norm=start_norm)]
    stopped: Optional[str] = None
    s = 0.0
    for step_index in range(1, steps + 1):
        s += ds
        x = _predict(history, ds, vhat)
        try:
            patch, norm = newton_correct(_unpack(start, x), s, vhat, P, newton_tol)
        except (PreconditionError, BoundaryCollision, NoConvergence, SingularJacobian) as exc:
            stopped = f"{type(exc).__name__} at step {step_index}: {exc}"
            break
        points.append(BranchPoint(s=s, patch=patch, residual_norm=norm))
        history = history[-2:] + [_pack(patch)]
    return BranchRun(points=tuple(points), stopped_reason=stopped, P=P, sign=sign)


def boundary_samples(patch: PatchPair, npoints: int = 512) -> np.ndarray:
    """Sample both boundaries for rendering or CSV export.

    Returns an (npoints, 5) array with columns theta, x1, y1, x2, y2.
    """
    if not (_is_integer(npoints) and npoints >= 1):
        raise PreconditionError(f"npoints must be an integer >= 1, got {npoints!r}")
    theta = TWO_PI * np.arange(npoints) / npoints
    (phi1, _), (phi2, _) = _map_values(patch, npoints)
    return np.column_stack([theta, phi1.real, phi1.imag, phi2.real, phi2.imag])
