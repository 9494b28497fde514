"""Moments of lattice-point counts in balls over number fields.

Exact height machinery, Poisson main terms, explicit error bounds, and
independent empirical oracles, for the rationals, quadratic fields, and
cyclotomic fields.  Each layer module declares its public names in its own
__all__; the package exports exactly their concatenation.
"""

from . import bounds, heights, moments, numberfield, oracle
from .numberfield import *  # noqa: F403
from .heights import *  # noqa: F403
from .moments import *  # noqa: F403
from .bounds import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = numberfield.__all__ + heights.__all__ + moments.__all__ + bounds.__all__ + oracle.__all__
