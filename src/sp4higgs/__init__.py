"""Exact-arithmetic classification of maximal rank-2 real-symplectic
Higgs data: number-field scalars, the explicit subgroup embeddings and
their differentials, bundle-level stability and topological invariants,
and the connected-component census with its deformation verdicts.

The package re-exports the ``__all__`` of each of these modules.
"""

from .numfield import *
from .matalg import *
from .liegroup import *
from .f2 import *
from .higgs import *
from .moduli import *

__version__ = "0.1.0"
