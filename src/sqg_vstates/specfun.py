"""Special-function kernel: odd-harmonic sums, the annulus coupling
coefficients, and the Pochhammer and Gauss hypergeometric oracles.

All quantities are real scalars in double precision.  The two quantities
the rest of the library is built on are

* ``s_sum(n)`` -- the scaled odd-harmonic sum ``(2/pi) * sum_{k=1}^{n-1}
  1/(2k+1)``, the self-interaction Fourier multiplier of a circular
  boundary, and
* ``lambda_coeff(n, b)`` -- the coupling coefficient between the circles of
  radius ``b`` and 1 at Fourier mode ``n``,
  ``((1/2)_n / n!) * b^(n-1) * F(1/2, n+1/2, n+1; b^2)``.

Each evaluation route here is paired with an independent oracle so the
kernel can be cross-validated end to end:

* ``gauss_2f1`` sums the defining power series of F(a, b, c; z);
  ``gauss_2f1_euler`` evaluates the Euler integral representation (valid
  for c > b > 0, cf. DLMF 15.6.1) by adaptive quadrature.
* ``lambda_coeff`` reads the AGM-and-recurrence ``_lambda_table``;
  ``lambda_integral_oracle`` integrates the equivalent Beta-type integral.
* ``contiguous_residuals`` exposes four contiguous-parameter relations of
  F (cf. DLMF 15.5.11 ff.) that must vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PreconditionError
from .quadrature import adaptive_quad

__all__ = [
    "pochhammer_ratio",
    "gauss_2f1",
    "gauss_2f1_euler",
    "contiguous_residuals",
    "s_sum",
    "lambda_coeff",
    "lambda_integral_oracle",
    "AnnulusConstants",
]


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


def _s_table(n_max: int) -> np.ndarray:
    """``s_sum(n)`` for n = 1..n_max, as one cumulative sum."""
    k = np.arange(1, n_max)
    return np.concatenate(([0.0], np.cumsum(1.0 / (2.0 * k + 1.0)))) * (2.0 / math.pi)


def s_sum(n: int) -> float:
    """Odd-harmonic sum (2/pi) * sum_{k=1}^{n-1} 1/(2k+1); zero at n = 1."""
    if n < 1:
        raise PreconditionError(f"s_sum requires n >= 1, got {n}")
    return float(_s_table(n)[-1])


def _validate_mode_radius(n: int, b: float) -> None:
    if n < 1:
        raise PreconditionError(f"mode index must satisfy n >= 1, got {n}")
    if not 0.0 < b < 1.0:
        raise PreconditionError(f"inner radius must satisfy 0 < b < 1, got {b}")


# Longest recurrence _lambda_table runs: a table built for b needs about
# 41.5 / (1 - b) steps, so the cap is reached from b = 1 - 4.15e-6.
_MAX_RECURRENCE = 10**7


def _agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of x >= y > 0.  The relative gap at least
    halves each step, and from 1e-9 one more mean is exact to rounding."""
    while x - y > 1e-9 * x:
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return 0.5 * (x + y)


def _lambda_table(b: float, n_max: int) -> np.ndarray:
    """``lambda_coeff(n, b)`` for n = 1..n_max.  Lambda_n = b^(n) / (2b) for
    the Laplace coefficients b^(j) of (1 - 2b cos psi + b^2)^(-1/2), with
    b^(0) = 2 / AGM(1 + b, 1 - b) (DLMF 19.8); Lambda_n is the minimal
    solution of (j + 1/2) b^(j+1) = j (b + 1/b) b^(j) - (j - 1/2) b^(j-1),
    run backwards from 40 / |ln b| past n_max (Miller's algorithm) in the
    deviation sigma_j = 1 - b^(j) / (b b^(j-1)), whose terms are positive.
    Entries depend only on (b, n): a table is bitwise a prefix of a larger one.
    """
    start = n_max + math.ceil(40.0 / -math.log(b)) + 2
    if start > _MAX_RECURRENCE:
        raise NoConvergence(f"Lambda_n at b={b} needs a recurrence of {start} steps,"
                            f" over the cap of {_MAX_RECURRENCE}")
    b2, half_gap = b * b, 0.5 * (1.0 - b) * (1.0 + b)
    sigma, sigmas = 0.5 / start, []
    for j in range(start - 1, 0, -1):
        t = b2 * (j + 0.5) * sigma
        sigma = (half_gap + t) / (j - 0.5 * b2 + t)
        if j <= n_max:
            sigmas.append(sigma)
    log_prod = np.cumsum(np.log1p(-np.array(sigmas[::-1])))
    return (1.0 / _agm(1.0 + b, 1.0 - b)) * b ** np.arange(n_max) * np.exp(log_prod)


def lambda_coeff(n: int, b: float) -> float:
    """Annulus coupling coefficient ``((1/2)_n / n!) * b^(n-1) * F(1/2, n+1/2,
    n+1; b^2)``, the last entry of ``_lambda_table(b, n)``.  Positive,
    strictly decreasing in ``n``, strictly increasing in ``b``."""
    _validate_mode_radius(n, b)
    return float(_lambda_table(b, n)[-1])


def lambda_integral_oracle(n: int, b: float) -> float:
    """Independent quadrature route to :func:`lambda_coeff`.

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


@dataclass(frozen=True)
class AnnulusConstants:
    """Inner radius ``b`` plus tables of ``s_sum`` and ``lambda_coeff``
    for modes 1..n_max.

    ``s(n)`` and ``lam(n)`` answer only for the modes the table holds and
    raise :class:`PreconditionError` for any other ``n``; a table from
    :meth:`build` reaches N(b) + 20.  Tables are built eagerly and frozen,
    so instances are immutable and safe to share across threads.  Indices
    are 1-based to match the mode numbering used throughout the library.
    """

    b: float
    n_max: int
    s_table: np.ndarray
    lambda_table: np.ndarray

    @classmethod
    def build(cls, b: float, n_max: int = 200) -> "AnnulusConstants":
        """Tables of max(n_max, ceil(1.5 / (1 - b)) + 20) modes: ``n_max`` is a
        floor, and the second term reaches N(b) + 20, the default rows of
        ``vstates spectrum`` (N(b) (1 - b) -> 1.4226; N over ceil(1.5 / (1 - b))
        was at most 0.95 on 3981 radii in (0, 0.995] and 200 in [0.99, 0.99999]).
        The recurrence length is checked before anything is allocated."""
        _validate_mode_radius(1, b)
        if n_max < 1:
            raise PreconditionError(f"n_max must be >= 1, got {n_max}")
        n_max = max(n_max, math.ceil(1.5 / (1.0 - b)) + 20)
        lam = _lambda_table(b, n_max)
        s = _s_table(n_max)
        s.setflags(write=False)
        lam.setflags(write=False)
        return cls(b=b, n_max=n_max, s_table=s, lambda_table=lam)

    def require(self, n: int) -> None:
        """Raise :class:`PreconditionError` unless the table holds mode ``n``."""
        if not 1 <= n <= self.n_max:
            raise PreconditionError(f"mode n={n} is outside the table's modes 1..n_max="
                                    f"{self.n_max}; AnnulusConstants.build(b, n_max=n) holds 1..n")

    def s(self, n: int) -> float:
        """``s_sum(n)`` from the table."""
        self.require(n)
        return float(self.s_table[n - 1])

    def lam(self, n: int) -> float:
        """``lambda_coeff(n, b)`` from the table."""
        self.require(n)
        return float(self.lambda_table[n - 1])
