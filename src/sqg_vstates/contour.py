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

Quadrature on P, collocation on the 4 K m sub-grid.  The quadrature
runs on one grid with no rotation, the P nodes tau_l = exp(2 pi i l / P);
the targets are nodes of its coarsest even sub-grid of P_c >= 4 K m nodes
tau_{j k}, j = P / P_c (:func:`_collocation_grid`): P_c = 4 K m on every
run's grid, P_c = P on a grid with no such proper sub-grid.  The maps
have one evaluator, :func:`_map_values`.  On the grid a term w^{-p} is
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

``residual`` collocates G_1, G_2 on the sub-grid and, in one pass,
projects onto the retained sine modes sin(n m theta) with the projection
Newton drives to zero (:func:`_sine_coefficients`); ``newton_correct``
and ``branch_continue`` trace solution branches off the annulus in the
kernel direction of the linearized operator, and a branch is its points,
from which each step predicts (:func:`_predict`).  The Newton Jacobian comes
from the 4 K m grid, where it is the exact derivative of that grid's
discrete residual: both maps are linear in (a, c), so every column
follows in closed form from the kernel matrices of one pass.  With the
quadrature on a finer grid P it agrees with the exact one to roundoff
once 4 K m resolves the solution (2.3e-15 relative at P = 1280, K = 8,
m = 5), so a kernel pass at P is only ever a residual; acceptance,
``residual_norm`` and the tolerance always take the quadrature at P,
collocated on the 4 K m sub-grid.  Near the annulus the boundaries are
analytic, so G has geometrically decaying harmonics, and its 4 K m
nodes project it onto the K retained modes as all P nodes would (to
5e-16 on the criterion-10 branch at P = 1280).  :func:`_system` and
:func:`_exact_jacobian` take a patch and return its 2K collocation
equations (and their Jacobian); only ``newton_correct`` holds x and the
bordered F and J.  Central differences remain only as the independent oracle, in tests and
``verify``.

Grid symmetry.  The symmetry group is that of the collocation grid:
let g = gcd(m, P_c) and q = P_c / g.  Rotation by 2 pi / g shifts every
sub-grid index by q, and because g | m every map obeys
Phi(rho z) = rho Phi(z); the self weights depend only on l - k, so the
discrete residual is q-periodic: G_{k+q} = G_k.  Conjugation maps
sub-grid index k to P_c - k, real coefficients give
Phi(conj z) = conj Phi(z), and V is even (V_j = V_{P-j}), so it is odd:
G_{P_c-k} = -G_k, which forces G_0 = G_{q/2} = 0.  Both identities hold
for the discrete sums, not only in the limit.  So every kernel pass
targets only the orbit representatives k = 1..ceil(q/2)-1, the P grid
indices j k, which :func:`_collocation_grid` alone defines; the rest of
the sub-grid are copies up to summation order, or zero.  On the whole
grid (j = 1, as at every run's default P = 4 K m) the same group acts on
the cross kernel C[r, l] = 1/|Phi_2(tau_l) - Phi_1(tau_r)|:
C[r+q, l+q] = C[r, l] = C[-r, -l], and A_j = w Phi_j'(w) turns like
Phi_j.  So the rows r = 0..floor(q/2) represent all P rows, and one
block of them gives both cross streams: S(Phi_2, Phi_1) from its rows at
the targets and S(Phi_1, Phi_2), which reads C by columns, from its
columns folded over the group (:func:`_cross_streams`).  That block
forms floor(q/2) + 1 rows for both streams, where two row passes over
the targets would form 2 (ceil(q/2) - 1).  On a proper sub-grid (j > 1)
the group leaves about j q / 2 representatives of the P rows, which grow
with j while the targets do not, so there the cross streams are two row
passes over the targets, like the self passes (:func:`_boundary_residuals`).

Kernel passes.  Every pass, a residual's two self passes
(:func:`_stream_on_grid`) and its cross streams (one block or two row
passes), and the Jacobian's :func:`_source_derivatives`, is one loop
over the blocks of targets that the generator :func:`_distance_blocks`
yields, on the calling thread; BLAS threads are the only parallelism.
Re D and Im D come from factor tables built once per pass
(:func:`_difference_tables`) as products with inner dimension 2
(:func:`_differences`), each entry the sum of two exact products rounded
once: bitwise the subtraction, whatever the number of BLAS threads.  The
cross block's transposed products have the size of its row products,
and like them give the same bytes at any thread count.  So residuals,
and the whole criterion-10 branch (K = 8, P = 1280), are bitwise
independent of the thread count.  The Jacobian's column products at
K = 32 are large enough for OpenBLAS to split over threads, so a default
``vstates branch`` (K = 32) can differ in the last bits between thread
counts.  The grid nodes and the collocation grid are built once per grid
size and are read-only.
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
from .specfun import AnnulusConstants, _is_integer, _s_table, _validate_mode_radius
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
        _validate_mode_radius(1, self.b)
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
    """One kernel pass's boundary residuals, with quadrature on the P grid
    and collocation on its sub-grid of P_c nodes (:func:`_collocation_grid`;
    P_c = 4 K m on a run's grid): the values ``g1``, ``g2`` at the P_c
    angles 2 pi k / P_c and the sine coefficients ``r1``, ``r2`` at the
    retained frequencies n m, all read-only.  The values are exactly
    periodic with period 2 pi / g, g = gcd(m, P_c), so the first
    q = P_c / g of them are one period."""

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
    effective quadrature size used (:func:`_run_grid`), and the points
    are the whole continuation state.  The branch JSON file is
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
        file.  Every field is type-checked (:func:`_json_value`), a point's
        ``s`` must be finite and its ``residual_norm`` finite and >= 0.
        ``b``, ``m`` and ``K`` meet the radius and size rules
        (:func:`_check_sizes`), checked before the points, and every point
        builds its :class:`PatchPair`, so all patch guards apply.  A missing
        ``stopped_reason`` reads as null, ``sign`` must be plus or minus,
        and P, checked after the points, a size that :func:`_run_grid`
        keeps.  Raises :class:`PreconditionError` naming the first bad
        field, or the point that fails a guard, by its path."""
        b, m, K, P, sign, points = _json_fields(data, "$", (
            ("b", float), ("m", int), ("K", int), ("P", int), ("sign", str), ("points", list)))
        if sign not in ("plus", "minus"):
            raise _schema_error("sign", f"expected 'plus' or 'minus', got {sign!r}")
        stopped = data.get("stopped_reason")
        if stopped is not None and not isinstance(stopped, str):
            raise _schema_error("stopped_reason", "expected str or null")
        # the header's patch fields before any point, so an error names them
        for key, check, args in (("b", _validate_mode_radius, (1, b)), ("m", _check_sizes, (m, 1)),
                                 ("K", _check_sizes, (m, K))):
            try:
                check(*args)
            except PreconditionError as exc:
                raise _schema_error(key, str(exc)) from exc
        if not points:
            raise _schema_error("points", "expected at least the annulus point")
        run_points = []
        for i, pt in enumerate(points):
            path = f"points[{i}]"
            s, omega, a, c, norm = _json_fields(pt, path, (
                ("s", float), ("omega", float), ("a", list), ("c", list), ("residual_norm", float)))
            if not math.isfinite(s):
                raise _schema_error(f"{path}.s", f"expected a finite float, got {s!r}")
            if not (math.isfinite(norm) and norm >= 0.0):
                raise _schema_error(f"{path}.residual_norm", f"expected a finite float >= 0, got {norm!r}")
            a = [_json_value(v, float, f"{path}.a[{k}]") for k, v in enumerate(a)]
            c = [_json_value(v, float, f"{path}.c[{k}]") for k, v in enumerate(c)]
            try:
                patch = PatchPair(b=b, m=m, K=K, a=a, c=c, omega=omega)
            except PreconditionError as exc:
                raise _schema_error(path, str(exc)) from exc
            run_points.append(BranchPoint(s=s, patch=patch, residual_norm=norm))
        try:
            grid = _run_grid(m, K, P)
        except PreconditionError:
            grid = None
        if grid != P:
            raise _schema_error("P", f"expected a multiple of 4Km = {4 * K * m} up to {MAX_KP // K}, got {P}")
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
    P grid nodes l to the targets k of the grid slice ``targets``, whose
    step may exceed 1, one block of targets at a time, from the factor
    tables :func:`_difference_tables` of Phi_src and of Phi_dst at
    ``targets``: Re D and Im D are two exact rank-2 products per block
    (:func:`_differences`).

    A generator: blocks hold about ``_BLOCK_PAIRS`` kernel pairs in two
    buffers allocated once per pass and yield ``(rows, d, spare, weight)``:
    ``d`` holds |D| for the positions ``rows`` of ``targets`` as a
    contiguous (rows, P) view, and ``spare`` is working space of the same
    shape that the loop body, like ``d``, may overwrite.  The pair weight
    is ``weight`` / P: the matching rows of :func:`_self_weights` on a self
    pair, 1.0 on a cross pair.  On a self pair the column l = k of each
    target k, where D = 0, is set to +inf, so it passes the guard and its
    kernel ``weight / d`` is exactly 0.  Raises :class:`BoundaryCollision`
    if any other distance drops below the disjointness guard, after the
    blocks before it have been yielded.
    """
    n_dst, P = tables[0].shape[1], tables[1].shape[2]
    first, stride = targets.start, targets.step or 1
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
            own = slice(first + lo * stride, first + hi * stride, stride)
            np.fill_diagonal(d[:, own], np.inf)
            weight = weights[own]
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
    q: int,
) -> tuple[np.ndarray, np.ndarray]:
    """S(Phi_2, Phi_1) and S(Phi_1, Phi_2) at the targets of a whole-grid
    collocation (P_c = P), the P grid indices 1..ceil(q/2)-1, from (Phi, A)
    of both maps on the P nodes (:func:`_map_values`) and the period
    q = P / g, g = gcd(m, P), of the residual (:func:`_collocation_grid`):
    one loop over :func:`_distance_blocks` for both cross streams.

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
    k = np.arange(1, (q + 1) // 2)
    re, im, total = rows_out[k].T
    s21 = (re + 1j * im - num1[k] * total) / P
    # the fold for targets 0 < k < q: with u_n = sum_j rho^-j Y[n + j q],
    # the Z terms sum to rho conj(u_{q-k}), since Z[j q - k] = conj Y[j q - k]
    nodes = _nodes(P)
    u = np.conj(nodes[::q]) @ (cols_out[0] + 1j * cols_out[1]).reshape(-1, q)
    t = cols_out[2].reshape(-1, q).sum(axis=0)
    col_a = u[k] + nodes[q % P] * np.conj(u[q - k])
    s12 = (col_a - num2[k] * (t[k] + t[q - k])) / P
    return s21, s12


def _boundary_residuals(patch: PatchPair, P: int) -> tuple[np.ndarray, np.ndarray]:
    """G_1, G_2 at the targets of :func:`_collocation_grid`, with the stream
    integrals taken over the P grid nodes: one map evaluation, one self
    pass per boundary (:func:`_stream_on_grid`) and the two cross streams.

    When the collocation grid is the whole grid (stride 1, as at a run's
    P = 4 K m), one block of floor(q/2) + 1 rows gives both cross streams
    (:func:`_cross_streams`).  On a proper sub-grid (stride j > 1) the
    fold would still need about j q / 2 rows to represent all P source
    rows, so the cross streams are two row passes over the ceil(q/2) - 1
    targets instead, like the self passes: their rows do not grow with j."""
    q, targets, _ = _collocation_grid(patch.m, patch.K, P)
    maps = _map_values(patch, P)
    (phi1, num1), (phi2, num2) = maps
    if targets.step == 1:
        s21, s12 = _cross_streams(maps, q)
    else:
        s21 = _stream_on_grid(maps[1], maps[0], targets, False)
        s12 = _stream_on_grid(maps[0], maps[1], targets, False)
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
        raise PreconditionError(f"quadrature size P={P} with K={K} modes must be even,"
                                f" >= 4*K*m = {4 * K * m} and within the cap K*P <= {MAX_KP}")
    if K * m > np.iinfo(np.int64).max:
        raise PreconditionError(f"mode exponents n*m - 1 must fit in int64, got K={K}, m={m}")


def _run_grid(m: int, K: int, P: Optional[int] = None) -> int:
    """A run's quadrature size, the one grid rule: 4 K m for None, else the
    positive P rounded up to a multiple of 4 K m, in Python ints (numpy
    sizes would wrap), and within the size rule (:func:`_check_sizes`)."""
    block = 4 * int(K) * int(m) if _is_integer(K) and _is_integer(m) else None
    _check_sizes(m, K, block)  # the smallest grid, before any array of K or P entries
    if _is_integer(P) and P <= 0:  # before rounding, so the message names the P given
        raise PreconditionError(f"quadrature size P={P} must be positive")
    P = block if P is None else (block * -(-int(P) // block) if _is_integer(P) else P)
    _check_sizes(m, K, P)
    return P


@lru_cache(maxsize=8, typed=True)
def _collocation_grid(m: int, K: int, P: int) -> tuple[int, slice, np.ndarray]:
    """The residual period q, the collocation targets and their projection
    table: the one target rule.

    Quadrature runs on all P nodes, collocation on the sub-grid of the
    P_c = P / j nodes tau_{j k}: the coarsest with P_c even and
    P_c >= 4 K m, whose nodes resolve the K retained sine modes with alias
    margin.  A run's grid, a multiple of 4 K m (:func:`_run_grid`),
    collocates on P_c = 4 K m; a grid with no such proper sub-grid keeps
    P_c = P.

    With g = gcd(m, P_c) and q = P_c / g the discrete residual on the
    sub-grid is q-periodic and odd, and so is sin(n m theta_k) because
    g | n m.  The projection (2/P_c) sum_k G_k sin(n m theta_k) over the
    sub-grid is therefore g times the sum over one period, whose terms k
    and q - k are equal and whose terms k = 0 and k = q/2 vanish.  The
    targets are the sub-grid nodes k = 1..ceil(q/2)-1, as the slice of P
    grid indices j k with step j, and the table holds
    (4/q) sin(n m theta_k), the imaginary part of the node
    tau_{(j k n m) mod P}, so the retained coefficient is G @ table.
    g = 1 needs no special case.  Checks the sizes first
    (:func:`_check_sizes`); a valid grid's result, divisor search
    included, is built once and its table is read-only, while an invalid
    one raises on every call.  The cache is typed, so a float equal to a
    cached size is checked, not served.
    """
    _check_sizes(m, K, P)
    sizes = (n for d in range(1, math.isqrt(P) + 1) if P % d == 0 for n in (d, P // d))
    P_c = min(n for n in sizes if n % 2 == 0 and n >= 4 * K * m)
    stride = P // P_c
    q = P_c // math.gcd(m, P_c)
    targets = slice(stride, stride * ((q + 1) // 2), stride)
    k = np.arange(targets.start, targets.stop, stride)
    proj = 4.0 / q * _node_powers(P, k, np.arange(1, K + 1) * m).imag
    proj.setflags(write=False)
    return q, targets, proj


def _sine_coefficients(g: tuple[np.ndarray, ...], proj: np.ndarray) -> np.ndarray:
    """The (2, K) retained sine coefficients of g = (G_1, G_2) on the targets
    of :func:`_collocation_grid`: the one projection, for F and residual()."""
    return np.stack([g_j @ proj for g_j in g])


def residual(patch: PatchPair, P: int) -> ResidualSpectrum:
    """G_1, G_2 with the stream integrals taken over the P grid nodes, on
    the P_c angles 2 pi k / P_c of the collocation sub-grid
    (:func:`_collocation_grid`; P_c = 4 K m on a run's grid), with their
    sine coefficients, from one kernel pass (:class:`ResidualSpectrum`).

    Only the targets of :func:`_collocation_grid` are evaluated; the grid
    symmetries (module docstring) unfold them to one period of
    q = P_c / g values, G_{q-k} = -G_k with G_0 = G_{q/2} = 0 exactly,
    which tiles all P_c.  The coefficient of mode n m is that of
    sin(n m theta), bitwise the one Newton drives to zero
    (:func:`_sine_coefficients`).
    """
    q, targets, proj = _collocation_grid(patch.m, patch.K, P)
    g = _boundary_residuals(patch, P)
    r = _sine_coefficients(g, proj)
    period = np.zeros((2, q))
    k = np.arange(1, (q + 1) // 2)
    period[:, k] = g
    period[:, q - k] = -period[:, k]
    values = np.tile(period, P // targets.step // q)
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


def _system(patch: PatchPair, P: int) -> np.ndarray:
    """The 2K collocation equations of ``patch`` with quadrature on the P
    grid: the retained sine coefficients of G_1, then of G_2
    (:func:`_sine_coefficients`), from one kernel pass over the targets of
    :func:`_collocation_grid`."""
    proj = _collocation_grid(patch.m, patch.K, P)[2]
    return _sine_coefficients(_boundary_residuals(patch, P), proj).ravel()


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


def _exact_jacobian(patch: PatchPair, P: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact derivative of :func:`_system` with respect to the unknowns
    (a, c, Omega), and :func:`_system` itself, from one kernel pass.

    The same grid, weights, targets and sine projection as the residual,
    differentiated in closed form: G_j = Im(E_j conj(B_j)) with
    E_j = Omega Phi_j - S(Phi_1, Phi_j) + S(Phi_2, Phi_j) and
    B_j = w Phi_j'(w), so each coefficient column is
    Im(dE_j conj(B_j)) + Im(E_j conj(dB_j)) and the Omega column is
    Im(Phi_j conj(B_j)).  The maps and the monomial table tau^{-p} are
    formed once, on the P nodes, and the pass forms every E_j, so G_j and
    F cost no further kernel work.  Each source map is one call of
    :func:`_source_derivatives`, one source's tables at a time.
    Returns the (2K, 2K + 1) block J and the 2K equations F; F agrees
    with :func:`_system` up to summation order.
    """
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

    jac = np.zeros((2 * K, 2 * K + 1))
    for j, (phi_w, num_w) in enumerate(dst):
        d_g = np.imag(d_e[j] * np.conj(num_w)[:, None])
        d_g[:, own[j]] -= p * np.imag(e_val[j][:, None] * np.conj(w_neg))
        for k in range(2):  # per block: one 2K-column product rounds differently at K = 1
            jac[own[j], own[k]] = proj.T @ d_g[:, own[k]]
        jac[own[j], 2 * K] = proj.T @ np.imag(phi_w * np.conj(num_w))
    g = [np.imag(e * np.conj(num_w)) for e, (_, num_w) in zip(e_val, dst)]
    return jac, _sine_coefficients(g, proj).ravel()


def _check_tol(newton_tol: float) -> None:
    if not (math.isfinite(newton_tol) and newton_tol > 0.0):
        raise PreconditionError(f"Newton tolerance must be finite and > 0, got {newton_tol}")


def newton_correct(
    patch: PatchPair,
    s: float,
    vhat: tuple[float, float],
    P: int,
    newton_tol: float = 1e-10,
) -> BranchPoint:
    """Solve the bordered system {2K collocation equations = 0, kernel
    projection = s} on the P grid, where the projection of (a_1, c_1) is
    onto the unit kernel direction ``vhat`` (``kernel_vector(...).normalized()``).

    :func:`_system` and :func:`_exact_jacobian` take a patch and return the
    2K equations and their (2K, 2K + 1) block; Newton alone holds the
    unknowns x = (a, c, Omega), the amplitude row (its value
    x_0 vhat_0 + x_K vhat_1 - s and its gradient) and the bordered F and J.
    Damped Newton uses the Jacobian of the 4 K m grid, the exact derivative
    of the discrete residual there, from the kernel pass that also gives
    that grid's equations where the correction starts.  It first solves the
    4 K m system; when P is larger, it then evaluates the equations at P and
    goes on from there with them as the right-hand side and the same 4 K m
    Jacobian (a two-grid Newton, or defect correction), so a kernel pass at
    P is only ever a residual.  A point is accepted only on its residual at
    P: quadrature on P, collocation on the 4 K m sub-grid of the Jacobian
    (:func:`_collocation_grid`), so the residual at P differs from the 4 K m
    one by the quadrature alone.  When the 4 K m grid resolves the solution, a point that converges
    after one full step costs one Jacobian pass and one residual pass at
    4 K m and one residual pass at P.  The residual is evaluated on its own
    only at that switch and at line-search trials, whose patches are built
    inside the search: a trial past a patch guard halves the step.  The
    Jacobian is reused across iterations while full steps keep reducing the
    residual, and refreshed when progress stalls; a refresh keeps the F
    already held at the same x.  The budget of ``_MAX_ITER`` = 25
    iterations spans both grids.  Returns the :class:`BranchPoint` at
    ``s``, whose ``residual_norm`` is the largest equation at P.

    Raises
    ------
    PreconditionError
        before any kernel pass: ``newton_tol`` not finite and > 0, ``s`` not finite,
        ``vhat`` not a pair of finite numbers, or P not a run's grid, a
        multiple of 4 K m within the cap (:func:`_run_grid`).
    NoConvergence
        after ``_MAX_ITER`` = 25 iterations above tolerance.
    SingularJacobian
        if the condition estimate of the Jacobian exceeds 1e14.
    """
    _check_tol(newton_tol)
    if not (len(vhat) == 2 and all(map(math.isfinite, (s, *vhat)))):
        raise PreconditionError(f"amplitude s={s} must be finite and vhat={vhat} a finite pair")
    K = patch.K
    coarse = 4 * K * patch.m
    if _run_grid(patch.m, K, P) != P:
        raise PreconditionError(f"quadrature size P={P} with K={K} modes must be a multiple of 4*K*m = {coarse}")

    # the amplitude row: its value at x after the 2K equations f; its gradient
    def bordered(f: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.append(f, x[0] * vhat[0] + x[K] * vhat[1] - s)
    border = np.zeros((1, 2 * K + 1))
    border[0, [0, K]] = vhat

    x = _pack(patch)  # from here on, ``patch`` is the patch at x
    block, f = _exact_jacobian(patch, coarse)
    jac: Optional[np.ndarray] = np.vstack([block, border])
    fvec = bordered(f, x)
    jac_fresh = True
    grid = coarse  # the grid of fvec and of the line-search trials
    iterations = 0
    while True:
        if np.abs(fvec).max() <= newton_tol:
            if grid == P:
                return BranchPoint(s=s, patch=patch, residual_norm=float(np.abs(fvec[:-1]).max()))
            grid = P
            fvec = bordered(_system(patch, P), x)
            continue
        if iterations == _MAX_ITER:
            raise NoConvergence(f"Newton did not reach {newton_tol} in {_MAX_ITER} iterations")
        iterations += 1
        if jac is None:  # fvec already holds F at this x
            jac = np.vstack([_exact_jacobian(patch, coarse)[0], border])
            jac_fresh = True
        if jac_fresh and np.linalg.cond(jac) > _COND_LIMIT:
            raise SingularJacobian(f"Jacobian condition estimate exceeds {_COND_LIMIT:.0e}")
        dx = np.linalg.solve(jac, -fvec)
        fnorm = np.abs(fvec).max()
        step = 1.0
        for _ in range(_MAX_BACKTRACK):
            x_try = x + step * dx
            try:
                trial = _unpack(patch, x_try)
                f_try = bordered(_system(trial, grid), x_try)
            except (PreconditionError, BoundaryCollision):
                step *= 0.5
                continue
            if np.abs(f_try).max() <= (1.0 - 1e-4 * step) * fnorm:
                x, patch, fvec = x_try, trial, f_try
                break
            step *= 0.5
        else:  # no trial accepted
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


def _predict(points: list[BranchPoint], ds: float, vhat: tuple[float, float]) -> PatchPair:
    """The patch, guards applied, one step ``ds`` past the last of the
    accepted ``points`` (oldest first): from the start point alone along
    the kernel direction in the (a_1, c_1) plane, after that with every
    unknown (a, c, Omega) extrapolated by the secant, then the quadratic,
    through the last two or three points."""
    last = points[-1].patch
    if len(points) == 1:
        x = _pack(last)
        x[[0, last.K]] += ds * np.asarray(vhat)
    else:
        weights = _EXTRAPOLATION[min(len(points), 3)]
        x = sum(wt * _pack(pt.patch) for wt, pt in zip(weights, reversed(points)))
    return _unpack(last, x)


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
    iteration.  The corrector, :func:`newton_correct`, returns each point
    at ``points[-1].s + ds``; the accepted points are the loop's only
    state.  On a guard or Newton failure the partial branch up to the
    last good point is returned with ``stopped_reason`` set; nothing is
    discarded.

    ``P`` defaults to 4 K m, which resolves every retained mode with alias
    margin; an explicit ``P`` must be positive and is rounded up to the
    nearest multiple of 4 K m (:func:`_run_grid`).  Either way the
    collocation sub-grid is the 4 K m grid, whose symmetry
    gcd(m, 4 K m) = m is the largest, so every kernel pass evaluates
    2 K - 1 targets (:func:`_collocation_grid`).  A residual's cross streams are one folded
    block of 2 K + 1 rows at P = 4 K m and two row passes over the 2 K - 1
    targets at a larger P (:func:`_boundary_residuals`).  The effective
    size is recorded on the returned run.
    """
    if sign not in ("plus", "minus"):
        raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not (_is_integer(steps) and steps >= 0 and math.isfinite(ds) and ds > 0.0):
        raise PreconditionError(f"need an integer steps >= 0 and finite ds > 0, got steps={steps!r}, ds={ds}")
    _check_tol(newton_tol)
    P = _run_grid(m, K, P)
    if consts is None:
        consts = AnnulusConstants.build(b, m)  # checks its own length first
    n_threshold = threshold_N(b, consts)
    if m < n_threshold:
        raise NotSimple(f"mode m={m} is below the threshold N({b}) = {n_threshold}")
    row = bifurcation_row(m, b, consts)
    omega0 = row.omega_plus if sign == "plus" else row.omega_minus
    vhat = kernel_vector(m, b, omega0, consts).normalized()

    start = annulus_patch(b, m, K, omega0)
    points = [BranchPoint(s=0.0, patch=start, residual_norm=float(np.abs(_system(start, P)).max()))]
    stopped: Optional[str] = None
    for step_index in range(1, steps + 1):
        try:
            point = newton_correct(_predict(points, ds, vhat), points[-1].s + ds, vhat, P, newton_tol)
        except (PreconditionError, BoundaryCollision, NoConvergence, SingularJacobian) as exc:
            stopped = f"{type(exc).__name__} at step {step_index}: {exc}"
            break
        points.append(point)
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
