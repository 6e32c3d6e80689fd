"""Adaptive Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss / 15-point Kronrod pair drives recursive bisection: an
interval is accepted when the Gauss-Kronrod difference is below tolerance,
otherwise it is split in half, down to a maximum depth.  Integrands handed
to this routine are expected to be smooth after endpoint substitutions
(the callers in :mod:`sqg_vstates.specfun` take care of that), so the rule
converges quickly; reaching the depth cap is an error, never a silent
answer.
"""

from __future__ import annotations

from typing import Callable

from .errors import NoConvergence

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
    """Integrate ``f`` over ``[a, b]`` to combined absolute/relative ``tol``.

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
