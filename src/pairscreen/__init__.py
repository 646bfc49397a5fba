"""pairscreen: two-stage pairwise-interaction testing with FDR control.

The library screens variables by marginal Wald statistics, tests
interactions among the survivors with misspecification-robust working
GLMs, and picks the rejection cutoff that targets a desired false
discovery rate.  A seeded simulation harness reproduces the reference
FDR/power/efficiency experiments at desk scale.
"""

from . import errors, glm, metrics, normal, pipeline, simulate
from .errors import *  # noqa: F403
from .glm import *  # noqa: F403
from .metrics import *  # noqa: F403
from .normal import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

# the names README.md documents, each module listing its own
__all__ = [
    *errors.__all__,
    *glm.__all__,
    *metrics.__all__,
    *normal.__all__,
    *pipeline.__all__,
    *simulate.__all__,
]
