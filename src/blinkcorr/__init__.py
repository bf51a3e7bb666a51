"""Intensity correlation of blinking single-molecule emitters.

Closed-form correlation curves, rate extraction from the full quantum
master equation, photon stream simulation, correlation estimation from
arrival times, and model fitting.

The public names are those of each submodule's ``__all__``, which is the
one place a name is declared public.
"""

from . import correlation, errors, fitting, liouville, markov, params, simulate
from .correlation import *  # noqa: F403
from .errors import *  # noqa: F403
from .fitting import *  # noqa: F403
from .liouville import *  # noqa: F403
from .markov import *  # noqa: F403
from .params import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *correlation.__all__,
    *errors.__all__,
    *fitting.__all__,
    *liouville.__all__,
    *markov.__all__,
    *params.__all__,
    *simulate.__all__,
    "__version__",
]
