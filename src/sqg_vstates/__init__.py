"""Doubly connected rotating patches (V-states) of the surface
quasi-geostrophic equation: bifurcation diagram at the annulus and
finite-amplitude branch continuation.

The library is organized in four layers:

* :mod:`sqg_vstates.specfun` -- scalar special functions (odd-harmonic
  sums, annulus coupling coefficients) and the cached
  :class:`~sqg_vstates.specfun.AnnulusConstants` tables;
* :mod:`sqg_vstates.spectrum` -- the linearized operator at the annulus:
  mode matrices, eigenvalues (per mode or as columns over a mode range),
  bifurcation threshold, kernel vectors;
* :mod:`sqg_vstates.contour` -- the discretized nonlinear boundary
  equations, singular-integral quadrature, and Newton branch continuation;
* :mod:`sqg_vstates.verify` -- the oracle suite cross-checking every
  closed form against independent quadrature, with the check-only special
  functions and quadrature it uses; no solver module calls it.

The ``vstates`` command line (see :mod:`sqg_vstates.cli`) exposes spectrum
tables, threshold queries, branch tracing, the verification suite, and SVG
rendering of computed boundaries.
"""

from .errors import (
    BoundaryCollision,
    NoConvergence,
    NotAnEigenvalue,
    NotSimple,
    PreconditionError,
    SingularJacobian,
    VStatesError,
)
from .specfun import _MOVED, AnnulusConstants, lambda_coeff, s_sum
from .spectrum import (
    KernelVector,
    ModeMatrix,
    SpectrumColumns,
    SpectrumRow,
    bifurcation_row,
    discriminant,
    eigenvalue_monotonicity_scan,
    kernel_vector,
    mode_matrix,
    quadratic_coeffs,
    spectrum_columns,
    threshold_N,
)
from .contour import (
    BranchPoint,
    BranchRun,
    PatchPair,
    ResidualSpectrum,
    annulus_patch,
    boundary_samples,
    branch_continue,
    newton_correct,
    residual,
)

__version__ = "0.1.0"

# Public names of the oracle suite; importing the package does not load it.
_FROM_VERIFY = _MOVED | {"CheckReport", "run_default_suite"}


def __getattr__(name: str):
    """The :mod:`~sqg_vstates.verify` object ``name``, loaded on first use (PEP 562)."""
    if name in _FROM_VERIFY:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnnulusConstants",
    "BoundaryCollision",
    "BranchPoint",
    "BranchRun",
    "CheckReport",
    "KernelVector",
    "ModeMatrix",
    "NoConvergence",
    "NotAnEigenvalue",
    "NotSimple",
    "PatchPair",
    "PreconditionError",
    "ResidualSpectrum",
    "SingularJacobian",
    "SpectrumColumns",
    "SpectrumRow",
    "VStatesError",
    "annulus_patch",
    "bifurcation_row",
    "boundary_samples",
    "branch_continue",
    "contiguous_residuals",
    "discriminant",
    "eigenvalue_monotonicity_scan",
    "gauss_2f1",
    "gauss_2f1_euler",
    "kernel_vector",
    "lambda_coeff",
    "lambda_integral_oracle",
    "mode_matrix",
    "newton_correct",
    "pochhammer_ratio",
    "quadratic_coeffs",
    "residual",
    "run_default_suite",
    "s_sum",
    "spectrum_columns",
    "threshold_N",
]
