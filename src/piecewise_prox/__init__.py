"""First-order optimization for composite objectives F(x) = g(x) + h(x)
where h is a separable, piecewise convex (possibly nonconvex) regularizer.

The package namespace is every name in its submodules' ``__all__``.
"""

from . import certificate, harness, piecewise, prox, smooth, solvers
from .certificate import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .piecewise import *  # noqa: F401,F403
from .prox import *  # noqa: F401,F403
from .smooth import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*certificate.__all__, *harness.__all__, *piecewise.__all__, *prox.__all__,
           *smooth.__all__, *solvers.__all__]
