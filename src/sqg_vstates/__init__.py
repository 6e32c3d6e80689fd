"""Doubly connected rotating patches (V-states) of the surface
quasi-geostrophic equation: bifurcation diagram at the annulus and
finite-amplitude branch continuation.

The library is organized in four layers:

* :mod:`sqg_vstates.specfun` -- scalar special functions (odd-harmonic
  sums, annulus coupling coefficients) and the cached
  :class:`~sqg_vstates.specfun.AnnulusConstants` tables;
* :mod:`sqg_vstates.spectrum` -- the linearized operator at the annulus:
  mode matrices, eigenvalues as one :class:`~sqg_vstates.spectrum.Spectrum`
  (one mode or a mode range), bifurcation threshold, kernel vectors;
* :mod:`sqg_vstates.contour` -- the discretized nonlinear boundary
  equations, singular-integral quadrature, and Newton branch continuation;
* :mod:`sqg_vstates.verify` -- the oracle suite cross-checking every
  closed form against independent quadrature, with the check-only special
  functions, quadrature and eigenvalue scan it uses; no solver module
  calls it.  The package serves its public names on first use.

The package exports the ``__all__`` of errors and of each solver layer.

The ``vstates`` command line (see :mod:`sqg_vstates.cli`) exposes spectrum
tables, threshold queries, branch tracing, the verification suite, and SVG
rendering of computed boundaries.
"""

from . import contour, errors, specfun, spectrum
from .errors import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .specfun import _MOVED
from .spectrum import *  # noqa: F401,F403
from .contour import *  # noqa: F401,F403

__version__ = "0.1.0"

# Public names of the oracle suite; importing the package does not load it.
_FROM_VERIFY = _MOVED | {"CheckReport", "run_default_suite", "eigenvalue_monotonicity_scan"}


def __getattr__(name: str):
    """The :mod:`~sqg_vstates.verify` object ``name``, loaded on first use (PEP 562)."""
    if name in _FROM_VERIFY:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Each public name is written once, in the ``__all__`` of its module.
__all__ = sorted({*errors.__all__, *specfun.__all__, *spectrum.__all__, *contour.__all__}
                 | _FROM_VERIFY)
