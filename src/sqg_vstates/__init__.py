"""Doubly connected rotating patches (V-states) of the surface
quasi-geostrophic equation: bifurcation diagram at the annulus and
finite-amplitude branch continuation.

The library is organized in four layers:

* :mod:`sqg_vstates.specfun` -- scalar special functions (Gauss
  hypergeometric series with an Euler-integral oracle, odd-harmonic sums,
  annulus coupling coefficients) and the memoized
  :class:`~sqg_vstates.specfun.AnnulusConstants` tables;
* :mod:`sqg_vstates.spectrum` -- the linearized operator at the annulus:
  mode matrices, eigenvalues, bifurcation threshold, kernel vectors;
* :mod:`sqg_vstates.contour` -- the discretized nonlinear boundary
  equations, singular-integral quadrature, and Newton branch continuation;
* :mod:`sqg_vstates.verify` -- the oracle suite cross-checking every
  closed form against independent quadrature.

The ``vstates`` command line (see :mod:`sqg_vstates.cli`) exposes spectrum
tables, threshold queries, branch tracing, the verification suite, and SVG
rendering of computed boundaries.
"""

from .errors import (
    BoundaryCollision,
    IndexOutOfTable,
    NoConvergence,
    NotAnEigenvalue,
    NotSimple,
    PreconditionError,
    SingularJacobian,
    TableExhausted,
    VStatesError,
)
from .specfun import (
    AnnulusConstants,
    contiguous_residuals,
    gauss_2f1,
    gauss_2f1_euler,
    lambda_coeff,
    lambda_integral_oracle,
    pochhammer_ratio,
    s_sum,
)
from .spectrum import (
    KernelVector,
    ModeMatrix,
    SpectrumRow,
    bifurcation_row,
    discriminant,
    eigenvalue_monotonicity_scan,
    kernel_vector,
    mode_matrix,
    quadratic_coeffs,
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
    collocation_residual,
    eval_maps,
    linearization_check,
    newton_correct,
    residual,
    stream_integral,
)
from .verify import CheckReport, run_default_suite

__version__ = "0.1.0"

__all__ = [
    "AnnulusConstants",
    "BoundaryCollision",
    "BranchPoint",
    "BranchRun",
    "CheckReport",
    "IndexOutOfTable",
    "KernelVector",
    "ModeMatrix",
    "NoConvergence",
    "NotAnEigenvalue",
    "NotSimple",
    "PatchPair",
    "PreconditionError",
    "ResidualSpectrum",
    "SingularJacobian",
    "SpectrumRow",
    "TableExhausted",
    "VStatesError",
    "annulus_patch",
    "bifurcation_row",
    "boundary_samples",
    "branch_continue",
    "collocation_residual",
    "contiguous_residuals",
    "discriminant",
    "eigenvalue_monotonicity_scan",
    "eval_maps",
    "gauss_2f1",
    "gauss_2f1_euler",
    "kernel_vector",
    "lambda_coeff",
    "lambda_integral_oracle",
    "linearization_check",
    "mode_matrix",
    "newton_correct",
    "pochhammer_ratio",
    "quadratic_coeffs",
    "residual",
    "run_default_suite",
    "s_sum",
    "stream_integral",
    "threshold_N",
]
