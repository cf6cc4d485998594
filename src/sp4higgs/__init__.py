"""Exact-arithmetic classification of maximal rank-2 real-symplectic
Higgs data: number-field scalars, the explicit subgroup embeddings and
their differentials, bundle-level stability and topological invariants,
and the connected-component census with its deformation verdicts.

The package re-exports the ``__all__`` of each of these modules.
``import sp4higgs`` loads the classifier: ``numfield``, ``f2``, ``higgs``
and ``moduli``.  The names of the Lie layer, ``matalg`` and ``liegroup``,
which no datum request uses, resolve at each lookup through the module
``__getattr__`` (PEP 562), which imports their module at the first one;
``sp4higgs.phi`` is ``liegroup.phi``, and ``dir()`` and
``from sp4higgs import *`` hold every re-exported name.
"""

import importlib

from . import f2, higgs, moduli, numfield
from .numfield import *
from .f2 import *
from .higgs import *
from .moduli import *

# the __all__ of each Lie-layer module; a test checks both against the modules
_LAZY = {
    **dict.fromkeys((
        "SingularMatrix", "SqMatrix", "kron", "conjugate", "is_symplectic",
        "preserves_symplectic_up_to_scalar", "exp_nilpotent",
        "kron_identities_check", "kron_exp_identity_check", "J2", "I2", "I4",
        "J13", "J12", "J0", "H_PERM", "H_SYM3", "H_SYM3_INV", "T2", "T4",
        "HTILDE"), "matalg"),
    **dict.fromkeys((
        "SingularNormalization", "NormalizerReport", "sl2", "rho1", "rho13",
        "rho_p", "rho_delta", "phi", "gl1_torus", "rho13_star", "phi_star",
        "m_field_matrix", "s_matrix", "s_conjugate", "normalizer_witness_check",
        "HT", "HT_INV", "T2_DET1", "SWAP", "GOLDEN_E_MINUS_F", "GOLDEN_E_PLUS_F",
        "GOLDEN_H0"), "liegroup"),
}

__all__ = [*numfield.__all__, *f2.__all__, *higgs.__all__, *moduli.__all__, *_LAZY]

__version__ = "0.1.0"


def __getattr__(name):
    # not cached in the package, so each lookup reads the module's own binding
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return list({*globals(), *_LAZY})
