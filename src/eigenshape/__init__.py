"""Spectral shape optimization on level-set grids.

Minimizes functionals of Dirichlet-Laplacian eigenvalues plus volume by a
gradient flow of the boundary, with the tail-regularized objective that
keeps eigenvalue weights well defined through degeneracies, and ships the
free-boundary diagnostics (boundary energies, optimality residuals,
density classification, torsion probes) used to inspect the minimizers.

The package exports every name in its modules' ``__all__``; each module's
list is the only list of its public names.
"""

__version__ = "0.1.0"

from . import diagnostics, domain, objective, optimizer, spectral
from .diagnostics import *  # noqa: F401,F403
from .domain import *  # noqa: F401,F403
from .objective import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__all__ = ["__version__", *diagnostics.__all__, *domain.__all__, *objective.__all__,
           *optimizer.__all__, *spectral.__all__]
