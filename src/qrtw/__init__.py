"""Resonant transmission of a two-channel lattice walk through a pair
of identical coin defects, solved four independent ways: in closed
form, as a linear system, as a bounce series, and by direct time
stepping.  A delta-potential chain maps onto the same walk, giving the
transmission spectrum and its perfect-transmission wave numbers."""

from . import artifacts, coin, errors, evolution, qgraph, scattering, series
from .artifacts import *
from .coin import *
from .errors import *
from .evolution import *
from .qgraph import *
from .scattering import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    name for module in (artifacts, coin, errors, evolution, qgraph, scattering, series) for name in module.__all__
]
