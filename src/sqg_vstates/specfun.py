"""Special-function kernel: Pochhammer ratios, the Gauss hypergeometric
series, odd-harmonic sums, and the annulus coupling coefficients.

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
* ``lambda_coeff`` uses the closed hypergeometric form;
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


def gauss_2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    tol: float = 1e-15,
    max_terms: int = 100000,
) -> float:
    """Gauss hypergeometric function F(a, b, c; z) by its power series.

    Terms are accumulated until the current term falls below ``tol``
    relative to the partial sum.  No transformation formulas are applied,
    and the terms decay like z^n, so the term count grows like 1/(1 - z).
    The library's uses have ``z = b_radius**2``: at inner radius 0.9999
    (z = 0.9998) ``lambda_coeff`` needs more than the default
    ``max_terms`` and ``NoConvergence`` is raised.

    Raises
    ------
    NoConvergence
        if ``max_terms`` terms do not reach the tolerance (z too close
        to 1 for the given parameters).
    """
    _validate_2f1_args(a, b, c, z)
    term = 1.0
    total = 1.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= tol * abs(total):
            return total
    raise NoConvergence(
        f"2F1 series did not converge in {max_terms} terms for "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


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


def lambda_coeff(n: int, b: float) -> float:
    """Annulus coupling coefficient at mode ``n`` for inner radius ``b``.

    Closed form ``((1/2)_n / n!) * b^(n-1) * F(1/2, n+1/2, n+1; b^2)``.
    Positive, strictly decreasing in ``n``, strictly increasing in ``b``.
    """
    _validate_mode_radius(n, b)
    return pochhammer_ratio(0.5, n) * b ** (n - 1) * gauss_2f1(0.5, n + 0.5, n + 1.0, b * b)


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
    """Inner radius ``b`` plus a cache of ``s_sum`` and ``lambda_coeff``
    for modes 1..n_max.

    ``s(n)`` and ``lam(n)`` answer for every mode n >= 1: up to ``n_max``
    they read the table, above it they call the function the table is
    built from, so ``n_max`` sets what is precomputed, not what can be
    asked.  Tables are built eagerly and frozen, and a lookup past them
    stores nothing, so instances are immutable and safe to share across
    threads.  Indices are 1-based to match the mode numbering used
    throughout the library.
    """

    b: float
    n_max: int
    s_table: np.ndarray
    lambda_table: np.ndarray

    @classmethod
    def build(cls, b: float, n_max: int = 200) -> "AnnulusConstants":
        _validate_mode_radius(1, b)
        if n_max < 1:
            raise PreconditionError(f"n_max must be >= 1, got {n_max}")
        s = _s_table(n_max)
        lam = np.array([lambda_coeff(n, b) for n in range(1, n_max + 1)])
        s.setflags(write=False)
        lam.setflags(write=False)
        return cls(b=b, n_max=n_max, s_table=s, lambda_table=lam)

    def s(self, n: int) -> float:
        """``s_sum(n)``, from the table when 1 <= n <= n_max."""
        if 1 <= n <= self.n_max:
            return float(self.s_table[n - 1])
        return s_sum(n)

    def lam(self, n: int) -> float:
        """``lambda_coeff(n, b)``, from the table when 1 <= n <= n_max."""
        if 1 <= n <= self.n_max:
            return float(self.lambda_table[n - 1])
        return lambda_coeff(n, self.b)
