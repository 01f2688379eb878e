"""Numerical laboratory for eigenvalue fluctuations of centrosymmetric matrices.

Capabilities: ensemble sampling, the Weaver orthogonal block split, a
self-contained dense nonsymmetric eigensolver, exact Gaussian chain
expectations by enumeration, Monte Carlo fluctuation statistics, and
the limiting variance both in closed form and by contour quadrature.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import centro, eig, errors, fluctuation, oracle, poly, variance
from .centro import *  # noqa: F403
from .eig import *  # noqa: F403
from .errors import *  # noqa: F403
from .fluctuation import *  # noqa: F403
from .oracle import *  # noqa: F403
from .poly import *  # noqa: F403
from .variance import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (centro, eig, errors, fluctuation, oracle, poly, variance)
    for name in module.__all__
)
