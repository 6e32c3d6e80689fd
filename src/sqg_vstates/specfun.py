"""Special-function kernel of the solver: odd-harmonic sums, the annulus
coupling coefficients, and the cached tables of both.

All quantities are real scalars in double precision.  The two quantities
the rest of the library is built on are

* ``s_sum(n)`` -- the scaled odd-harmonic sum ``(2/pi) * sum_{k=1}^{n-1}
  1/(2k+1)``, the self-interaction Fourier multiplier of a circular
  boundary, and
* ``lambda_coeff(n, b)`` -- the coupling coefficient between the circles of
  radius ``b`` and 1 at Fourier mode ``n``,
  ``((1/2)_n / n!) * b^(n-1) * F(1/2, n+1/2, n+1; b^2)``, read from the
  AGM-and-recurrence ``_lambda_table``.

:class:`AnnulusConstants` holds both as tables over modes 1..n_max.  The
oracles that check them live in :mod:`sqg_vstates.verify`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PreconditionError

__all__ = ["s_sum", "lambda_coeff", "AnnulusConstants"]


def __getattr__(name: str):
    """:func:`~sqg_vstates.verify.lambda_integral_oracle`, loaded on first use
    (PEP 562).  The benchmark's ``diagram`` gate still reads it from here;
    this forward goes when that gate reads ``verify`` (ROADMAP item 12)."""
    if name == "lambda_integral_oracle":
        from . import verify

        return verify.lambda_integral_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _is_integer(value) -> bool:
    """A Python or numpy integer; booleans are not sizes or modes."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _s_table(n_max: int) -> np.ndarray:
    """``s_sum(n)`` for n = 1..n_max, as one cumulative sum."""
    k = np.arange(1, n_max)
    return np.concatenate(([0.0], np.cumsum(1.0 / (2.0 * k + 1.0)))) * (2.0 / math.pi)


def s_sum(n: int) -> float:
    """Odd-harmonic sum (2/pi) * sum_{k=1}^{n-1} 1/(2k+1); zero at n = 1."""
    if not (_is_integer(n) and n >= 1):
        raise PreconditionError(f"s_sum requires an integer n >= 1, got {n}")
    return float(_s_table(n)[-1])


def _validate_mode_radius(n: int, b: float) -> None:
    if not (_is_integer(n) and n >= 1):
        raise PreconditionError(f"mode index must be an integer n >= 1, got {n}")
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


@dataclass(frozen=True)
class AnnulusConstants:
    """Inner radius ``b`` plus tables of ``s_sum`` and ``lambda_coeff``
    for modes 1..n_max.

    ``s(n)`` and ``lam(n)`` answer only for the modes the table holds and
    raise :class:`PreconditionError` for any other ``n``; a table from
    :meth:`build` reaches N(b) + 20.  Construction checks that both tables
    have shape (n_max,).  Tables are built eagerly and frozen, so
    instances are immutable and safe to share across threads.  Indices are
    1-based to match the mode numbering used throughout the library.
    """

    b: float
    n_max: int
    s_table: np.ndarray
    lambda_table: np.ndarray

    def __post_init__(self) -> None:
        shapes = np.shape(self.s_table), np.shape(self.lambda_table)
        if not (_is_integer(self.n_max) and self.n_max >= 1) or shapes != ((self.n_max,),) * 2:
            raise PreconditionError(f"tables need shape (n_max,) with an integer n_max >= 1,"
                                    f" got {self.n_max}, {shapes}")

    @classmethod
    def build(cls, b: float, n_max: int = 200) -> "AnnulusConstants":
        """Tables of max(n_max, ceil(1.5 / (1 - b)) + 20) modes: ``n_max`` is a
        floor, and the second term reaches N(b) + 20, the default rows of
        ``vstates spectrum`` (N(b) (1 - b) -> 1.4226; N over ceil(1.5 / (1 - b))
        was at most 0.95 on 3981 radii in (0, 0.995] and 200 in [0.99, 0.99999]).
        The recurrence length is checked before anything is allocated."""
        _validate_mode_radius(1, b)
        if not (_is_integer(n_max) and n_max >= 1):
            raise PreconditionError(f"n_max must be >= 1 and an integer, got {n_max}")
        n_max = max(n_max, math.ceil(1.5 / (1.0 - b)) + 20)
        lam = _lambda_table(b, n_max)
        s = _s_table(n_max)
        s.setflags(write=False)
        lam.setflags(write=False)
        return cls(b=b, n_max=n_max, s_table=s, lambda_table=lam)

    def require(self, n: int) -> None:
        """Raise :class:`PreconditionError` unless the table holds mode ``n``."""
        if not (_is_integer(n) and 1 <= n <= self.n_max):
            raise PreconditionError(f"mode n={n} is outside the table's integer modes 1..n_max="
                                    f"{self.n_max}; AnnulusConstants.build(b, n_max=n) holds 1..n")

    def s(self, n: int) -> float:
        """``s_sum(n)`` from the table."""
        self.require(n)
        return float(self.s_table[n - 1])

    def lam(self, n: int) -> float:
        """``lambda_coeff(n, b)`` from the table."""
        self.require(n)
        return float(self.lambda_table[n - 1])
