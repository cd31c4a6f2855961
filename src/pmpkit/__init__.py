"""Maximum-principle toolkit for finite-dimensional optimal control.

Subpackages cover polyhedral cone geometry, time-dependent flows and their
tangent/cotangent lifts, control systems and piecewise-constant signals,
needle-variation perturbation cones, maximum-principle condition checks and
extremal classification, indirect shooting, and reachable-set sampling.
The command-line front end, `pmpkit.cli`, is imported only on demand.
"""

from . import cone_geometry  # noqa: F401
from . import control_system  # noqa: F401
from . import flows  # noqa: F401
from . import perturbations  # noqa: F401
from . import pmp  # noqa: F401
from . import shooting  # noqa: F401
from . import reachable  # noqa: F401

__version__ = "0.1.0"
