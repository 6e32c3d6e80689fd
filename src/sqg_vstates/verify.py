"""One-command oracle suite: every closed-form identity used by the
library is bound to an independent numerical check.

This module holds all of the library's check-only code; no solver module
calls it.  Besides the checks it holds the special-function
oracles: the 2F1 series ``gauss_2f1`` and its Euler integral
``gauss_2f1_euler``, ``contiguous_residuals``, ``lambda_integral_oracle``
and the adaptive Gauss-Kronrod rule ``adaptive_quad`` under them, and the
eigenvalue ordering scan ``eigenvalue_monotonicity_scan``.

The checks fall into four groups:

* ``check_c1_c2`` -- the self-interaction circle moments (c1), (c2):
  Gauss-Legendre quadrature (Golub-Welsch nodes) of the corner-type
  integrands, in the angle from the evaluation point, against their
  odd-harmonic closed forms.
* ``check_c3_c8`` -- the cross-circle kernel moments (c3)..(c8): per
  radius b, a trapezoid on 2 (n_max + 2) + ceil(40 / |ln b|) nodes of the
  smooth periodic integrands against their hypergeometric closed forms.
  (c4) and (c5) carry the conjugate symmetry of (c3) and (c6): the same
  real factor attached to the conjugate power of the evaluation point.
* ``check_spectral`` -- algebraic structure of the mode matrices:
  determinant quadratic, reduced-discriminant identity, eigenvalue
  monotonicity and interleaving, kernel residuals, and agreement of the
  two threshold definitions.
* ``check_linearization`` -- finite differences of the discretized
  residual at the annulus against the analytic frequency blocks.

Each check emits :class:`CheckReport` rows aggregated by name; tolerances
live in one table (``TOLERANCES``).  The moment quadratures get 1e-7
(both rules reach about 1e-14), algebraic identities 1e-10 to 1e-12.
Random sample points derive from one seed, so the suite is deterministic:
each check draws its points from its own standard-library
``random.Random(seed)`` stream, in its documented loop order, and the
moment checks evaluate every case in one array expression.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .contour import MAX_KP, PatchPair, ResidualSpectrum, residual
from .errors import NoConvergence, PreconditionError
from .specfun import AnnulusConstants, _s_table, _validate_mode_radius
from .spectrum import (
    _det,
    _det_scale,
    _entries,
    _factors,
    _quadratic,
    _table_values,
    discriminant,
    kernel_vector,
    mode_matrix,
    spectrum_columns,
    threshold_N,
)

__all__ = [
    "CheckReport",
    "TOLERANCES",
    "check_c1_c2",
    "check_c3_c8",
    "check_spectral",
    "eigenvalue_monotonicity_scan",
    "check_linearization",
    "run_default_suite",
    "format_report_table",
    "adaptive_quad", "pochhammer_ratio", "gauss_2f1", "gauss_2f1_euler",
    "contiguous_residuals", "lambda_integral_oracle",
]

DEFAULT_SEED = 12345

TOLERANCES = {
    "c1": 1e-7,
    "c2": 1e-7,
    "c3": 1e-7,
    "c4": 1e-7,
    "c5": 1e-7,
    "c6": 1e-7,
    "c7": 1e-7,
    "c8": 1e-7,
    "rotation_invariance": 1e-12,
    "spectral_determinant": 1e-12,
    "spectral_discriminant": 1e-10,
    "spectral_monotonicity": 0.0,
    "spectral_kernel": 1e-10,
    "spectral_threshold": 1e-12,
    "linearization_block": 1e-5,
    "linearization_offblock": 1e-7,
}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over ``cases`` sample points."""

    name: str
    max_error: float
    tolerance: float
    passed: bool
    cases: int

    def to_dict(self) -> dict:
        return asdict(self)


def _report(name: str, max_error: float, cases: int) -> CheckReport:
    tol = TOLERANCES[name]
    return CheckReport(name, float(max_error), tol, bool(max_error <= tol), int(cases))


def _rng(seed: int) -> random.Random:
    """A check's point stream, seeded with the integer value of ``seed``
    (a numpy integer seeds as the equal int).  Raises
    :class:`PreconditionError` for a negative seed, which would draw the
    points of its absolute value."""
    seed = operator.index(seed)
    if seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


# --- special-function oracles -------------------------------------------------
# Independent routes to the constants the solver tabulates.  Their
# integrands are smooth after endpoint substitutions, so the adaptive
# Gauss-Kronrod rule converges quickly; its depth cap is an error.

# Kronrod-15 abscissae on [-1, 1]; every second entry (odd index) is a
# Gauss-7 abscissa, so one set of integrand values serves both rules.
_XK = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_WK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = [f(mid + h * x) for x in _XK]
    kron = h * sum(w * v for w, v in zip(_WK, fv))
    gauss = h * sum(w * fv[2 * i + 1] for i, w in enumerate(_WG))
    return kron, abs(kron - gauss)


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_depth: int = 40,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to combined absolute/relative ``tol``,
    halving each interval whose Gauss-7 and Kronrod-15 sums differ by more.

    The tolerance is interpreted per subinterval as
    ``err <= tol * max(1, |estimate|)``.

    Raises
    ------
    NoConvergence
        if a subinterval still misses the tolerance after ``max_depth``
        halvings; the message names that interval.
    """

    def recurse(lo: float, hi: float, depth: int) -> float:
        est, err = _gk15(f, lo, hi)
        if err <= tol * max(1.0, abs(est)):
            return est
        if depth >= max_depth:
            raise NoConvergence(
                f"adaptive quadrature unresolved on [{lo!r}, {hi!r}] after {max_depth} "
                f"halvings: error estimate {err:.3e} exceeds tolerance {tol:.3e}"
            )
        mid = 0.5 * (lo + hi)
        return recurse(lo, mid, depth + 1) + recurse(mid, hi, depth + 1)

    if a == b:
        return 0.0
    return recurse(a, b, 0)


def pochhammer_ratio(x: float, n: int) -> float:
    """The ratio (x)_n / n!, accumulated factor by factor.

    Unlike the quotient of (x)_n and n! this stays in range for large
    ``n`` (both numerator and denominator overflow separately long before
    their ratio does).
    """
    if n < 0:
        raise PreconditionError(f"pochhammer_ratio requires n >= 0, got {n}")
    p = 1.0
    for k in range(1, n + 1):
        p *= (x + k - 1.0) / k
    if not math.isfinite(p):
        raise OverflowError(f"pochhammer_ratio({x}, {n}) overflows double precision")
    return p


def _validate_2f1_args(a: float, b: float, c: float, z: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise PreconditionError(f"2F1 parameter c must not be a non-positive integer, got {c}")
    if not 0.0 <= z < 1.0:
        raise PreconditionError(f"2F1 argument z must lie in [0, 1), got {z}")


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function F(a, b, c; z) by its power series,
    an oracle only: no production constant is built from it.

    Terms are accumulated until the current term falls below
    1e-15 (1 - z) relative to the partial sum: the terms decay like z^n,
    so the tail left out is about the last term over 1 - z.  No
    transformation formulas are applied, so the term count grows like
    1/(1 - z); ``NoConvergence`` is raised after 100000 terms.
    """
    _validate_2f1_args(a, b, c, z)
    term = 1.0
    total = 1.0
    tol = 1e-15 * (1.0 - z)
    for n in range(100000):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= tol * abs(total):
            return total
    raise NoConvergence(f"2F1 series did not converge in 100000 terms (a={a}, b={b}, c={c}, z={z})")


def gauss_2f1_euler(a: float, b: float, c: float, z: float) -> float:
    """F(a, b, c; z) via the Euler integral representation (c > b > 0).

    Evaluates ``Gamma(c) / (Gamma(b) Gamma(c-b)) * integral_0^1
    x^(b-1) (1-x)^(c-b-1) (1-z x)^(-a) dx`` by adaptive quadrature.  The
    interval is split at 1/2 and each half is power-substituted so the
    endpoint factor becomes at least cubic; the transformed integrands are
    then smooth enough for the Gauss-Kronrod rule.

    This is the independent oracle for :func:`gauss_2f1`.
    """
    _validate_2f1_args(a, b, c, z)
    if not (c > b > 0.0):
        raise PreconditionError(f"Euler representation requires c > b > 0, got b={b}, c={c}")

    p_lo = max(1, math.ceil(3.0 / b))
    p_hi = max(1, math.ceil(3.0 / (c - b)))

    def left(u: float) -> float:
        # x = u**p_lo straightens the x^(b-1) endpoint at x = 0
        x = u ** p_lo
        return p_lo * u ** (p_lo * b - 1.0) * (1.0 - x) ** (c - b - 1.0) * (1.0 - z * x) ** (-a)

    def right(u: float) -> float:
        # 1 - x = u**p_hi straightens the (1-x)^(c-b-1) endpoint at x = 1
        x = 1.0 - u ** p_hi
        return p_hi * u ** (p_hi * (c - b) - 1.0) * x ** (b - 1.0) * (1.0 - z * x) ** (-a)

    integral = adaptive_quad(left, 0.0, 0.5 ** (1.0 / p_lo)) + adaptive_quad(
        right, 0.0, 0.5 ** (1.0 / p_hi)
    )
    return math.gamma(c) / (math.gamma(b) * math.gamma(c - b)) * integral


def contiguous_residuals(a: float, b: float, c: float, z: float) -> tuple[float, float, float, float]:
    """Left-hand sides of four contiguous relations of F; all must vanish.

    The four relations (each identically zero for admissible parameters):

    1. c F(a,b,c;z) - c F(a+1,b,c;z) + b z F(a+1,b+1,c+1;z)
    2. c F(a,b,c;z) - c F(a,b+1,c;z) + a z F(a+1,b+1,c+1;z)
    3. b F(a,b+1,c;z) - a F(a+1,b,c;z) + (a-b) F(a,b,c;z)
    4. c F(a,b,c;z) - (c-b) F(a,b,c+1;z) - b F(a,b+1,c+1;z)
    """
    f = gauss_2f1(a, b, c, z)
    f_a1 = gauss_2f1(a + 1, b, c, z)
    f_b1 = gauss_2f1(a, b + 1, c, z)
    f_a1b1c1 = gauss_2f1(a + 1, b + 1, c + 1, z)
    f_c1 = gauss_2f1(a, b, c + 1, z)
    f_b1c1 = gauss_2f1(a, b + 1, c + 1, z)
    r1 = c * f - c * f_a1 + b * z * f_a1b1c1
    r2 = c * f - c * f_b1 + a * z * f_a1b1c1
    r3 = b * f_b1 - a * f_a1 + (a - b) * f
    r4 = c * f - (c - b) * f_c1 - b * f_b1c1
    return (r1, r2, r3, r4)


def lambda_integral_oracle(n: int, b: float) -> float:
    """Independent quadrature route to :func:`~sqg_vstates.specfun.lambda_coeff`.

    Evaluates ``b^(n-1)/pi * integral_0^1 x^(n-1/2) (1-x)^(-1/2)
    (1-b^2 x)^(-1/2) dx`` with the square-root endpoint removed by the
    substitution x = 1 - u**2.  (The 1/pi prefactor is 1/Gamma(1/2)^2.)
    """
    _validate_mode_radius(n, b)
    b2 = b * b

    def integrand(u: float) -> float:
        x = 1.0 - u * u
        return 2.0 * x ** (n - 0.5) * (1.0 - b2 * x) ** (-0.5)

    return b ** (n - 1) / math.pi * adaptive_quad(integrand, 0.0, 1.0)


def check_c1_c2(n_max: int = 20, samples: int = 8,
                seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Quadrature of the two self-interaction circle moments against their
    odd-harmonic closed forms:

        avg_tau (tau^n - w^n) / |w - tau| = -(2 w^n / pi) sum_{k=0}^{n-1} 1/(2k+1)
        avg_tau (tau-w)^2 (tau^n - w^n) / |w - tau|^3 = (2 w^{n+2} / pi) sum_{k=1}^{n} 1/(2k+1)

    (both as mean-value integrals with weight dtau/tau), that is
    -w^n (2/pi + s_sum(n)) and w^{n+2} s_sum(n+1).  The closed forms read
    the library's own S_n column, one ``_s_table(n_max + 1)`` (bitwise the
    ``s_sum`` values); the quadrature side forms tau^n - w^n
    and |w - tau| directly, so it checks the multiplier the spectrum is
    built on.  In the angle phi in (0, 2 pi) from w, tau = w e^{i phi},
    the integrands' corner at tau = w sits at both interval ends and they
    are analytic on the closed interval, so 2 n_max + 24 Gauss-Legendre
    nodes in phi resolve them to roundoff: the eigenvalues of the Jacobi
    matrix, with weights from the first eigenvector components
    (Golub-Welsch).  The angles of the points w are drawn from
    ``random.Random(seed)`` in the order of a loop over n then samples.  A
    rotation-invariance report checks that the quadrature error at n = 3
    is independent of w.
    Raises :class:`PreconditionError` past n_max samples (2 n_max + 24) <= ``MAX_KP``.
    """
    if n_max * samples * (2 * n_max + 24) > MAX_KP:
        raise PreconditionError(f"check_c1_c2 with n_max={n_max}, samples={samples} is past"
                                f" the cap n_max*samples*(2*n_max + 24) <= {MAX_KP}")
    rng = _rng(seed)
    phi = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_max * samples)]
    w = np.exp(1j * np.array(phi)).reshape(n_max, samples)
    k = np.arange(1, 2 * n_max + 24)
    x, vec = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    turn = np.exp(1j * math.pi * (x + 1.0))  # e^{i phi}, phi = pi (x + 1)
    wts = vec[0] ** 2  # half the Gauss weight 2 v_0^2: the mean over phi
    s = _s_table(n_max + 1)[:, None]  # s_sum(1..n_max + 1)
    n = np.arange(1, n_max + 1)[:, None]
    wn = w ** n
    tau = w[..., None] * turn
    tau_n = tau ** n[..., None] - wn[..., None]
    dist = np.abs(w[..., None] - tau)
    err1 = np.abs((tau_n / dist) @ wts + wn * (2.0 / math.pi + s[:-1]))
    err2 = np.abs(((tau - w[..., None]) ** 2 * tau_n / dist ** 3) @ wts - wn * w * w * s[1:])
    rot = err1[2:3].ravel()  # the n = 3 row
    return [
        _report("c1", err1.max(initial=0.0), err1.size),
        _report("c2", err2.max(initial=0.0), err2.size),
        _report("rotation_invariance", np.ptp(rot) if rot.size else 0.0, rot.size),
    ]


def _c3_c8_nodes(b: float, n_max: int) -> int:
    """Trapezoid nodes for (c3)..(c8) at radius b: past the powers up to
    n_max + 2 the integrands' Fourier coefficients decay like |b|^k, so
    the ceil(40 / |ln b|) extra nodes leave aliasing below e^-40.  Raises
    :class:`PreconditionError` for |b| >= 1 or past n_max P <= ``MAX_KP``."""
    if not abs(b) < 1.0:
        raise PreconditionError(f"check_c3_c8 requires |b| < 1, got b={b}")
    P = 2 * (n_max + 2) + (math.ceil(40.0 / -math.log(abs(b))) if b else 0)
    if n_max * P > MAX_KP:
        raise PreconditionError(f"check_c3_c8 at b={b} needs P={P} nodes for n_max={n_max},"
                                f" past the cap n_max*P <= {MAX_KP}")
    return P


def check_c3_c8(b_set: tuple[float, ...] = (0.3, 0.6), n_max: int = 10,
                seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Quadrature of the cross-circle kernel moments against their
    hypergeometric closed forms, for inner radii in ``b_set`` and modes up
    to ``n_max``.  The weighted moments (c7), (c8) are exercised with
    random real weight pairs.  Each radius gets the half-offset trapezoid
    on ``_c3_c8_nodes(b, n_max)`` nodes, all checked before anything is
    built, and reads tau^n from one table of e^{i pi j / P} - 1 (angles in
    (-pi, pi]); |b tau - w| comes from b - 1 + b (tau / w - 1), which keeps
    its relative accuracy as b -> +-1 (for b < 0 from |b| and the node
    angle shifted by pi, so the kernel's peak never sits where the sum
    cancels).  Each case draws (w angle, wa, wc) from
    ``random.Random(seed)``, in the order of a loop over b then n.
    """
    nodes = [_c3_c8_nodes(b, n_max) for b in b_set]
    rng = _rng(seed)
    draws = np.array([(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)) for _ in range(len(b_set) * n_max)])
    draws = draws.reshape(len(b_set), n_max, 3)
    n = np.arange(1, n_max + 1)[:, None]
    errs = np.zeros(6)
    for b, P, (phi, wa, wc) in zip(b_set, nodes, draws.transpose(0, 2, 1)[..., None]):
        b2 = b * b
        half, three, g7, g8 = np.array([
            [pochhammer_ratio(0.5, k) * gauss_2f1(0.5, k + 0.5, k + 1.0, b2),
             pochhammer_ratio(1.5, k) * gauss_2f1(1.5, k + 1.5, k + 1.0, b2),
             pochhammer_ratio(1.5, k + 1) * gauss_2f1(0.5, k + 2.5, k + 2.0, b2),
             pochhammer_ratio(0.5, k + 2) * gauss_2f1(1.5, k + 2.5, k + 3.0, b2)]
            for k in range(1, n_max + 1)]).reshape(-1, 4).T[..., None] * b ** n
        roots_m1 = np.expm1(1j * np.pi * ((np.arange(2 * P) + P) % (2 * P) - P) / P)  # e^{i pi j/P} - 1
        odd = np.arange(1, 2 * P, 2)  # node xi_l = e^{i pi (2l + 1) / P}
        w = np.exp(1j * phi)
        wn = w ** n
        tau = w * (1.0 + roots_m1[odd])
        tau_n = wn * (1.0 + roots_m1[n * odd % (2 * P)])
        # (b tau - w) / w = |b| (tau / w) e^{i pi [b < 0]} + |b| - 1
        delta = abs(b) * roots_m1[(odd + (P if b < 0 else 0)) % (2 * P)] + (abs(b) - 1.0)
        den1 = np.abs(delta)
        den3 = den1 ** 3
        lhs = np.array([f.mean(axis=1, keepdims=True) for f in (
            tau_n / den1, tau_n.conj() / den1, tau_n.conj() / den3, tau_n / den3,
            w * delta * (wa * wn - wc * tau_n) / den3 * tau,
            tau * delta.conj() * (wc * wn - wa * tau_n) / den3 * tau)])  # b w - tau = tau conj(delta)
        rhs = np.array([wn * half, wn.conj() * half, wn.conj() * three, wn * three,
                        -wn * w * w * b * (wa * 1.5 * gauss_2f1(0.5, 2.5, 2.0, b2) - wc * g7),
                        -wn * w * w * b2 * (wc * 0.375 * gauss_2f1(1.5, 2.5, 3.0, b2) - wa * g8)])
        errs = np.maximum(errs, (abs(lhs - rhs) / (1.0 + abs(rhs))).max(axis=(1, 2), initial=0.0))
    return [_report(f"c{j}", err, len(b_set) * n_max) for j, err in enumerate(errs, 3)]


def eigenvalue_monotonicity_scan(b: float, n_hi: int, consts: AnnulusConstants) -> list[str]:
    """Check the eigenvalue ordering over modes N(b) <= n <= n_hi.

    Verifies, for consecutive modes, that Delta_n and lambda_n^+ increase
    strictly and lambda_n^- decreases strictly, and for every pair
    m > n >= N(b) the interleaving lambda_m^- < lambda_n^- < lambda_n^+
    < lambda_m^+.  Returns a list of human-readable violations (expected
    empty), ordered by mode.
    """
    start = threshold_N(b, consts)
    if n_hi < start:
        return []
    cols = spectrum_columns(start, n_hi, b, consts)
    delta, lam_minus, lam_plus = cols.delta_m, cols.lambda_minus, cols.lambda_plus
    violations: list[str] = []
    up_delta = delta[1:] > delta[:-1]
    up_plus = lam_plus[1:] > lam_plus[:-1]
    down_minus = lam_minus[1:] < lam_minus[:-1]
    for i in np.flatnonzero(~(up_delta & up_plus & down_minus)).tolist():
        n = start + 1 + i
        if not up_delta[i]:
            violations.append(f"Delta_{n} <= Delta_{n-1} at b={b}")
        if not up_plus[i]:
            violations.append(f"lambda^+_{n} <= lambda^+_{n-1} at b={b}")
        if not down_minus[i]:
            violations.append(f"lambda^-_{n} >= lambda^-_{n-1} at b={b}")
    # Interleaving across non-adjacent pairs follows from the monotone
    # sequences, but is asserted directly as an independent consistency net.
    # A low mode interleaves with every higher one exactly when it does with
    # the largest lambda^- and the smallest lambda^+ above it (a NaN
    # propagates and fails), so pairs are listed only for low modes that fail.
    top_minus = np.maximum.accumulate(lam_minus[::-1])[::-1][1:]
    bottom_plus = np.minimum.accumulate(lam_plus[::-1])[::-1][1:]
    low_minus, low_plus = lam_minus[:-1], lam_plus[:-1]
    nested = (top_minus < low_minus) & (low_minus < low_plus) & (low_plus < bottom_plus)
    lo_list, hi_list = lam_minus.tolist(), lam_plus.tolist()
    for i in np.flatnonzero(~nested).tolist():
        for j in range(i + 1, len(lo_list)):
            if not (lo_list[j] < lo_list[i] < hi_list[i] < hi_list[j]):
                violations.append(
                    f"interleaving failed for modes {start + i} < {start + j} at b={b}"
                )
    return violations


def check_spectral(b_set: tuple[float, ...] = (0.2, 0.5, 0.8), m_hi: int = 200,
                   samples: int = 400, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Algebraic structure of the mode matrices over ``b_set``:

    * determinant of the assembled matrix equals the quadratic
      (b/4)(lambda^2 - 2 C lambda + D) on a random (n, omega) sweep;
    * reduced discriminant equals C^2 - D;
    * eigenvalue monotonicity and interleaving scans report no violations;
    * kernel residual |M v| vanishes at both eigenvalues;
    * the E_n sign-change threshold agrees with the equivalent
      sum-inequality definition, and E_1 = -(1+b)^2 L_1.

    Each case of the sweep draws n = ``randint(2, m_hi)``, then omega =
    ``uniform(-1.5, 1.5)``, from ``random.Random(seed)``.  Raises
    :class:`PreconditionError` for ``m_hi`` < 2, before any table is built.
    """
    if m_hi < 2:
        raise PreconditionError(f"check_spectral draws modes n in 2..m_hi, so needs m_hi >= 2, got m_hi={m_hi}")
    rng = _rng(seed)
    det_err = disc_err = kern_err = thr_err = 0.0
    violations = 0
    det_cases = kern_cases = 0
    for b in b_set:
        consts = AnnulusConstants.build(b, n_max=m_hi)
        n_thr = threshold_N(b, consts)

        violations += len(eigenvalue_monotonicity_scan(b, m_hi, consts))

        draws = [(rng.randint(2, m_hi), rng.uniform(-1.5, 1.5)) for _ in range(samples)]
        n = np.array([d[0] for d in draws], dtype=int)
        omega = np.array([d[1] for d in draws], dtype=float)
        s_n, lam_n = _table_values(n, consts)
        lam_1 = consts.lam(1)
        entries = _entries(b, omega, s_n, lam_1, lam_n)
        lam = 1.0 - 2.0 * omega
        c_n, d_n = _quadratic(b, s_n, lam_1, lam_n)
        quad = 0.25 * b * (lam * lam - 2.0 * c_n * lam + d_n)
        det_err = max(det_err, np.max(abs(_det(*entries) - quad) / _det_scale(*entries),
                                      initial=0.0))
        delta, e_n, f_n = _factors(b, s_n, lam_1, lam_n)
        ref = np.maximum(1.0, abs(delta))
        disc_err = max(disc_err, np.max(abs(c_n * c_n - d_n - delta) / ref, initial=0.0),
                       np.max(abs(e_n * f_n - delta) / ref, initial=0.0))
        det_cases += samples

        # the kernel checks read their modes from one set of columns
        modes = range(n_thr, m_hi + 1, max(1, (m_hi - n_thr) // 8))
        cols = spectrum_columns(n_thr, m_hi, b, consts) if modes else None
        for m in modes:
            for omega in (cols.omega_minus[m - n_thr].item(), cols.omega_plus[m - n_thr].item()):
                vec = kernel_vector(m, b, omega, consts)
                mat = mode_matrix(m, b, omega, consts)
                scale = mat.det_scale() * max(1.0, math.hypot(vec.v1, vec.v2))
                resid = max(
                    abs(mat.m11 * vec.v1 + mat.m12 * vec.v2),
                    abs(mat.m21 * vec.v1 + mat.m22 * vec.v2),
                )
                kern_err = max(kern_err, resid / scale)
                kern_cases += 1

        # threshold: E_n sign change vs the sum-form inequality
        # S_n > b ((1+b^2) L_1 + 2 b L_n) / (1+b); both must give the same N
        n = 2
        while not (
            consts.s(n) > b * ((1.0 + b * b) * consts.lam(1) + 2.0 * b * consts.lam(n)) / (1.0 + b)
        ):
            n += 1
        if n != n_thr:
            thr_err = math.inf
        _, e_1, _ = discriminant(1, b, consts)
        thr_err = max(thr_err, abs(e_1 + (1.0 + b) ** 2 * consts.lam(1)))
    return [
        _report("spectral_determinant", det_err, det_cases),
        _report("spectral_discriminant", disc_err, det_cases),
        _report("spectral_monotonicity", float(violations), len(b_set)),
        _report("spectral_kernel", kern_err, kern_cases),
        _report("spectral_threshold", thr_err, len(b_set)),
    ]


def _leak(res: ResidualSpectrum, m: int, P: int) -> float:
    """The largest amplitude of the residual ``res`` of an m-fold patch on
    the P grid at frequencies that are not multiples of m.

    The residual is q-periodic, q = P / gcd(m, P), so its spectrum lives on
    multiples of g = gcd(m, P) and is read from the real FFT of the first
    period, whose bin j is frequency j g.  When m | P (g = m) no frequency
    is left and the leak is exactly 0.0; when g < m it measures the
    aliasing at multiples of g that are not multiples of m.
    """
    q = P // math.gcd(m, P)
    spec = np.fft.rfft(np.stack([res.g1[:q], res.g2[:q]]))
    # real signal: a frequency's amplitude is 2 |Y_j| / q
    off = np.arange(spec.shape[1]) * (P // q) % m != 0
    return 2.0 / q * float(np.abs(spec[:, off]).max()) if off.any() else 0.0


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
    -(n m) M_{n m}; the minus sign is the sine convention.  Returns
    (observed, expected, max relative block error, off-block magnitude
    relative to the block scale).
    """
    K = n + 2
    observed = np.zeros((2, 2))
    offblock = 0.0
    for col in range(2):  # outer, then inner boundary
        step = np.zeros((2, K))
        step[col, n - 1] = h
        rp = residual(PatchPair(b, m, K, *step, omega), P)
        rm = residual(PatchPair(b, m, K, *-step, omega), P)
        deriv = (np.stack([rp.r1, rp.r2]) - np.stack([rm.r1, rm.r2])) / (2.0 * h)
        observed[:, col] = deriv[:, n - 1]
        others = float(np.abs(np.delete(deriv, n - 1, axis=1)).max())
        offblock = max(offblock, others, max(_leak(rp, m, P), _leak(rm, m, P)) / (2.0 * h))
    p = n * m
    mat = mode_matrix(p, b, omega, consts)
    expected = -p * np.array([[mat.m11, mat.m12], [mat.m21, mat.m22]])
    scale = float(np.abs(expected).max())
    rel = float(np.abs(observed - expected).max()) / scale
    return observed, expected, rel, offblock / scale


def check_linearization(b_set: tuple[float, ...] = (0.5, 0.7),
                        modes: tuple[int, ...] = (1, 2),
                        h: float = 1e-6, P: int = 512,
                        omega: float = 0.25) -> list[CheckReport]:
    """Finite-difference Jacobian blocks of the residual at the annulus
    against the analytic blocks -(n m) M_{n m}, for m = N(b) + 1.

    Emits the worst relative in-block error and the worst off-block
    magnitude (relative to the block scale); the operator is diagonal
    across frequencies, so off-block entries measure pure discretization
    leakage.  The default P = 512 resolves every probe (P >= 4 (n + 2) m)
    and keeps one probe with m not dividing P (m = 6), where aliasing
    would show.
    """
    block_err = off_err = 0.0
    cases = 0
    for b in b_set:
        consts = AnnulusConstants.build(b)
        m = threshold_N(b, consts) + 1
        for n in modes:
            _, _, rel, off = _linearization_probe(m, b, omega, n, h, P, consts)
            block_err = max(block_err, rel)
            off_err = max(off_err, off)
            cases += 1
    return [
        _report("linearization_block", block_err, cases),
        _report("linearization_offblock", off_err, cases),
    ]


def run_default_suite(seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run every check at its default configuration; deterministic given
    ``seed``.  Reports are ordered by group then name."""
    reports: list[CheckReport] = []
    reports += check_c1_c2(seed=seed)
    reports += check_c3_c8(seed=seed)
    reports += check_spectral(seed=seed)
    reports += check_linearization()
    return reports


def format_report_table(reports: list[CheckReport]) -> str:
    """Fixed-width plain-text table, one row per report."""
    lines = [f"{'check':<24} {'cases':>6} {'max_error':>12} {'tolerance':>12} {'status':>8}"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<24} {r.cases:>6d} {r.max_error:>12.3e} {r.tolerance:>12.3e} {status:>8}"
        )
    return "\n".join(lines)
