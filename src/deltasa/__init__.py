"""Self-adjointness analysis for Jacobi matrices of point-interaction models.

The package decides, for a half-line Schrödinger operator with delta
couplings on a discrete grid (equivalently, its Jacobi matrix), whether
the minimal operator is self-adjoint or has deficiency indices (1, 1).
Analytic tests run first; a numerical solve of the eigenvector recurrence
at non-real spectral points provides an independent cross-check and a
clearly labelled advisory fallback when no test certifies.

Each module's ``__all__`` is its list of public names; the package
re-exports those lists.
"""

from . import criteria, deficiency, grid, jacobi, verify
from .criteria import *  # noqa: F403
from .deficiency import *  # noqa: F403
from .grid import *  # noqa: F403
from .jacobi import *  # noqa: F403
from .numerics import TriState
from .verify import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [
    "__version__",
    *grid.__all__,
    *jacobi.__all__,
    *criteria.__all__,
    *deficiency.__all__,
    *verify.__all__,
    "TriState",
]
