"""Linearization of the patch equations at the annulus: mode matrices,
their determinants, eigenvalues, the bifurcation threshold, kernel vectors
and transversality.

The linearized boundary operator at the annular solution acts diagonally
across Fourier frequencies; at mode ``n`` it multiplies the coefficient
pair (outer, inner) by the 2x2 matrix

    M_n = [[ Omega - S_n + b^2 L_1,   -b^2 L_n ],
           [ b L_n,                    b Omega + S_n - b L_1 ]]

where ``S_n = s_sum(n)`` and ``L_n = lambda_coeff(n, b)``.  In the shifted
variable ``lambda = 1 - 2 Omega`` the determinant is the quadratic

    det(M_n) = (b/4) (lambda^2 - 2 C_n lambda + D_n),

and the reduced discriminant ``Delta_n = C_n^2 - D_n`` factors as
``E_n * F_n``.  The two angular velocities at which mode ``m`` acquires a
kernel are

    Omega_m^{+,-} = (1 - lambda_m^{-,+}) / 2,   lambda_m^{+,-} = C_m -+ sqrt(Delta_m),

real and distinct exactly when ``Delta_m > 0``, which happens for every
mode at or above the threshold ``N(b)`` (the first mode with
``E_n(b) > 0``).  Transversality of the bifurcating branch is equivalent
to the eigenvalue being simple, i.e. to ``Delta_m > 0``, which
:func:`bifurcation_row` requires; the table writers of the command line
report the flag as ``Delta_m > 1e-12``.

Each per-mode formula is written once, on values that are either one
mode's floats or arrays over many modes.  The scalar functions
(:func:`mode_matrix`, :func:`quadratic_coeffs`, :func:`discriminant`)
evaluate it for one mode and return Python floats; :func:`spectrum_columns`
evaluates it over a whole mode range from slices of the constant tables.
Elementwise ``+ - * /`` and ``sqrt`` round exactly as on Python floats, so
a column entry is bitwise the scalar value.  One type, :class:`Spectrum`,
holds the result: arrays over modes from :func:`spectrum_columns`, Python
scalars from :func:`bifurcation_row`, which is the one-mode column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAnEigenvalue, NotSimple, PreconditionError
from .specfun import AnnulusConstants, _is_integer

__all__ = [
    "ModeMatrix",
    "Spectrum",
    "KernelVector",
    "mode_matrix",
    "quadratic_coeffs",
    "discriminant",
    "threshold_N",
    "spectrum_columns",
    "bifurcation_row",
    "kernel_vector",
]


# The per-mode formulas.  Every argument but ``b`` is one mode's float or
# an array over modes; the operation order is the same either way.

def _entries(b, omega, s_n, lam_1, lam_n):
    """Entries (m11, m12, m21, m22) of M_n."""
    return (
        omega - s_n + b * b * lam_1,
        -b * b * lam_n,
        b * lam_n,
        b * omega + s_n - b * lam_1,
    )


def _det(m11, m12, m21, m22):
    return m11 * m22 - m12 * m21


# Determinant-zero tests scale with the entry products; entries grow like
# s_sum(m) ~ log(m), so the floor max(1, .) keeps the test meaningful for
# all modes.
def _det_scale(m11, m12, m21, m22):
    return np.maximum(1.0, np.maximum(abs(m11 * m22), abs(m12 * m21)))


def _quadratic(b, s_n, lam_1, lam_n):
    """(C_n, D_n) of the determinant quadratic."""
    c_n = 1.0 + (1.0 / b - 1.0) * s_n - (1.0 - b * b) * lam_1
    # D_n = alpha beta + 4 b^2 L_n^2 from the diagonal entries -(lambda - alpha)/2
    # and -b (lambda - beta)/2; the product avoids the cancellation of the
    # expanded polynomial, whose terms are several times larger than D_n
    alpha = 1.0 - 2.0 * s_n + 2.0 * b * b * lam_1
    beta = 1.0 + 2.0 * s_n / b - 2.0 * lam_1
    d_n = alpha * beta + 4.0 * b * b * lam_n * lam_n
    return c_n, d_n


def _factors(b, s_n, lam_1, lam_n):
    """(Delta_n, E_n, F_n)."""
    core = (1.0 / b + 1.0) * s_n - (1.0 + b * b) * lam_1
    e_n = core - 2.0 * b * lam_n
    f_n = core + 2.0 * b * lam_n
    delta = core * core - 4.0 * b * b * lam_n * lam_n
    return delta, e_n, f_n


def _table_values(n: np.ndarray, consts: AnnulusConstants) -> tuple[np.ndarray, np.ndarray]:
    """(S_n, L_n) at an integer array of modes n >= 1, read from the tables;
    :class:`PreconditionError` when a mode lies past them."""
    consts.require(int(n.max(initial=1)))
    return consts.s_table[n - 1], consts.lambda_table[n - 1]


# Smallest inner radius: S_n < 6 for every mode a table can hold, so the
# largest product formed here, (S_n / b)^2, stays finite for b >= 1e-150.
MIN_RADIUS = 1e-150


def _check_tables(b: float, consts: AnnulusConstants) -> None:
    if b < MIN_RADIUS:
        raise PreconditionError(f"inner radius b={b} is below {MIN_RADIUS}, where the"
                                " spectrum's products (S_n / b)^2 overflow")
    if consts.b != b:
        raise PreconditionError(f"constants were built for b={consts.b}, got b={b}")


@dataclass(frozen=True)
class ModeMatrix:
    """The entries of a 2x2 linearization block M_n (:func:`mode_matrix`)."""

    m11: float
    m12: float
    m21: float
    m22: float

    def det(self) -> float:
        return _det(self.m11, self.m12, self.m21, self.m22)

    def det_scale(self) -> float:
        return float(_det_scale(self.m11, self.m12, self.m21, self.m22))


@dataclass(frozen=True)
class Spectrum:
    """Bifurcation data of modes ``m``: quadratic coefficients,
    discriminant and eigenvalues in both the ``lambda`` and ``Omega``
    variables.  Every field is an array over consecutive modes
    (:func:`spectrum_columns`) or one mode's Python scalar
    (:func:`bifurcation_row`)."""

    m: np.ndarray
    c_m: np.ndarray
    d_m: np.ndarray
    delta_m: np.ndarray
    lambda_minus: np.ndarray
    lambda_plus: np.ndarray
    omega_minus: np.ndarray
    omega_plus: np.ndarray


@dataclass(frozen=True)
class KernelVector:
    """Generator (v1, v2) of the nullspace of the mode matrix at an
    eigenvalue: v2 = -L_m(b), and v1 makes the row of M_m with the larger
    entries vanish: v1 = Omega + S_m/b - L_1(b) = m22/b from row 2 at a
    plus eigenvalue, v1 = -b^2 L_m^2 / m11 from row 1 at a minus one, where
    m22 cancels (at b = 1e-6, m = 3 the row-2 form reads 5.8e-11 for 2.9e-43)."""

    v1: float
    v2: float

    def normalized(self) -> tuple[float, float]:
        norm = math.hypot(self.v1, self.v2)
        return self.v1 / norm, self.v2 / norm


def mode_matrix(n: int, b: float, omega: float, consts: AnnulusConstants) -> ModeMatrix:
    """Assemble the linearization block M_n for a mode 2 <= n <= consts.n_max."""
    if n < 2:
        raise PreconditionError(f"mode matrix is defined for n >= 2, got {n}")
    _check_tables(b, consts)
    m11, m12, m21, m22 = _entries(b, omega, consts.s(n), consts.lam(1), consts.lam(n))
    return ModeMatrix(m11, m12, m21, m22)


def quadratic_coeffs(n: int, b: float, consts: AnnulusConstants) -> tuple[float, float]:
    """Coefficients (C_n, D_n) of the determinant quadratic in lambda = 1 - 2 Omega."""
    if n < 2:
        raise PreconditionError(f"quadratic coefficients defined for n >= 2, got {n}")
    _check_tables(b, consts)
    return _quadratic(b, consts.s(n), consts.lam(1), consts.lam(n))


def discriminant(n: int, b: float, consts: AnnulusConstants) -> tuple[float, float, float]:
    """Reduced discriminant Delta_n and its factors (E_n, F_n).

    Delta_n = ((1/b + 1) S_n - (1 + b^2) L_1)^2 - 4 b^2 L_n^2 = E_n * F_n with
    E_n, F_n the difference/sum factors; E_1 = -(1+b)^2 L_1 < 0 always.
    """
    _check_tables(b, consts)
    return _factors(b, consts.s(n), consts.lam(1), consts.lam(n))


def threshold_N(b: float, consts: AnnulusConstants) -> int:
    """Smallest mode ``n >= 2`` with E_n(b) > 0, found over the whole table.

    E_n is strictly increasing in ``n``, E_1 < 0 and E_n -> +infinity (S_n
    grows like (1/pi) log n while L_n decreases to 0), so the first mode
    with E_n > 0 is the unique sign change.  A table from
    :meth:`AnnulusConstants.build` reaches N(b); a hand-made table that
    ends below it raises :class:`PreconditionError`.  At and above N(b)
    the reduced discriminant is positive and both eigenvalues are real
    and simple.  Equivalent to the smallest ``n`` with ``S_n > b ((1+b^2)
    L_1 + 2 b L_n) / (1+b)`` (the same inequality scaled by b/(1+b) > 0).
    """
    _check_tables(b, consts)
    _, e_n, _ = _factors(b, consts.s_table[1:], consts.lam(1), consts.lambda_table[1:])
    # ~(E_n <= 0), not E_n > 0: a NaN entry ends the scan at its mode
    above = np.flatnonzero(~(e_n <= 0.0))
    if not above.size:
        raise PreconditionError(f"the table's modes 1..{consts.n_max} end below N({b});"
                                " AnnulusConstants.build(b) reaches it")
    return int(above[0]) + 2


def spectrum_columns(m_min: int, m_max: int, b: float,
                     consts: AnnulusConstants) -> Spectrum:
    """Eigenvalue pairs and angular velocities of the modes m_min..m_max.

    lambda_m^{+,-} = C_m +- sqrt(Delta_m), the root of smaller magnitude
    taken as D_m over the other, and Omega_m^{+,-} = (1 - lambda_m^{-,+})/2;
    requires Delta_m > 0 (every mode at or above the threshold) and raises
    :class:`NotSimple` at the first mode where it fails.
    """
    if not (_is_integer(m_min) and _is_integer(m_max)):
        raise PreconditionError(f"spectrum modes must be integers, got {m_min}..{m_max}")
    if m_min < 2:
        raise PreconditionError(f"spectrum rows are defined for m >= 2, got {m_min}")
    if m_max < m_min:
        raise PreconditionError(f"mode range {m_min}..{m_max} is empty")
    _check_tables(b, consts)
    consts.require(m_max)  # before the range is allocated
    m = np.arange(m_min, m_max + 1)
    s_n, lam_n = _table_values(m, consts)
    lam_1 = consts.lam(1)
    c_m, d_m = _quadratic(b, s_n, lam_1, lam_n)
    delta, _, _ = _factors(b, s_n, lam_1, lam_n)
    low = np.flatnonzero(delta <= 0.0)
    if low.size:
        i = low[0]
        raise NotSimple(f"Delta_{int(m[i])}(b={b}) = {float(delta[i])} <= 0:"
                        " eigenvalues not simple")
    # the root of larger magnitude, then the other from the product of the
    # roots, D_m: C_m - sqrt(Delta_m) cancels when D_m << C_m^2 (small b)
    q = c_m + np.copysign(np.sqrt(delta), c_m)
    lambda_minus = np.minimum(q, d_m / q)
    lambda_plus = np.maximum(q, d_m / q)
    return Spectrum(
        m=m,
        c_m=c_m,
        d_m=d_m,
        delta_m=delta,
        lambda_minus=lambda_minus,
        lambda_plus=lambda_plus,
        omega_minus=0.5 * (1.0 - lambda_plus),
        omega_plus=0.5 * (1.0 - lambda_minus),
    )


def bifurcation_row(m: int, b: float, consts: AnnulusConstants) -> Spectrum:
    """Eigenvalue pair and angular velocities at mode ``m``: the one-mode
    :func:`spectrum_columns`, each entry a Python scalar."""
    cols = vars(spectrum_columns(m, m, b, consts))
    return Spectrum(**{name: value.item() for name, value in cols.items()})


def kernel_vector(m: int, b: float, omega: float, consts: AnnulusConstants) -> KernelVector:
    """Nullspace generator of M_m at an eigenvalue ``omega``: the
    :class:`KernelVector`, which spans the kernel precisely when det(M_m) = 0.

    Each row's residual (M_m v)_i is checked against the summed magnitudes
    of the terms that form it, the summands of m11 and m22 included, plus
    the smallest normal float times the magnitudes it multiplies, since at
    small b entries and v (v2 = -L_m) underflow.  Raises
    :class:`NotAnEigenvalue` when ``omega`` is not an eigenvalue and
    :class:`PreconditionError` when L_m(b) underflows to 0.
    """
    mat = mode_matrix(m, b, omega, consts)
    s_m, lam_1, lam_m = consts.s(m), consts.lam(1), consts.lam(m)
    if lam_m == 0.0:
        raise PreconditionError(f"L_{m}(b={b}) underflows to 0: the kernel vector (v1, -L_{m}) vanishes")
    v2 = -lam_m
    if max(abs(mat.m11), abs(mat.m12)) > max(abs(mat.m21), abs(mat.m22)):
        v1 = -mat.m12 * v2 / mat.m11
    else:
        v1 = omega + s_m / b - lam_1
    rows = (
        (mat.m11, mat.m12, (abs(omega) + s_m + b * b * lam_1) * abs(v1) + abs(mat.m12 * v2)),
        (mat.m21, mat.m22, abs(mat.m21 * v1) + (b * abs(omega) + s_m + b * lam_1) * abs(v2)),
    )
    for i, (x1, x2, scale) in enumerate(rows, start=1):
        res = abs(x1 * v1 + x2 * v2)
        underflow = np.finfo(float).tiny * (1.0 + abs(x1) + abs(x2) + abs(v1) + abs(v2))
        if not res <= 1e-10 * scale + underflow:
            raise NotAnEigenvalue(f"omega={omega} is not an eigenvalue of M_{m}"
                                  f" (row {i}: |(M v)_{i}| = {res:.3e} against {scale:.3e})")
    return KernelVector(v1, v2)

