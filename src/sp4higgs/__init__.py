"""Exact-arithmetic classification of maximal rank-2 real-symplectic
Higgs data: number-field scalars, the explicit subgroup embeddings and
their differentials, bundle-level stability and topological invariants,
and the connected-component census with its deformation verdicts.
"""

from .numfield import (
    DivisionByZero, FieldElem,
    ZERO, ONE, I_UNIT, SQRT2, SQRT3, SQRT6,
    fe, embed_u_v,
)
from .matalg import (
    SingularMatrix, SqMatrix, kron, conjugate, is_symplectic,
    preserves_symplectic_up_to_scalar, exp_nilpotent, kron_identities_check,
    J2, I2, I4, J13, J12, J0, H_PERM, H_SYM3, T4, HTILDE,
)
from .liegroup import (
    NotInAlgebra, SingularNormalization, CartanSplit, NormalizerReport,
    sl2, rho1, rho13, rho_p, rho_delta, phi, gl1_torus,
    rho13_star, phi_star, s_conjugate, cartan_split,
    m_delta_membership, m_delta_element, normalizer_witness_check,
)
from .f2 import F2Vector
from .higgs import (
    RequiresExplicitH0, OutOfClassifiedRange, NotMaximal, NotPolystable,
    CurveCtx, LineBundleClass, SectionSlot,
    DiagonalShape, CoverOrthShape, TorsionSplitShape, SL2RDatum,
    IrreducibleImage, DirectSum, HiggsDatum,
    Stability, StabilityReport, CayleyCase, CayleyPartner, SWInvariants,
    h0, milnor_wood, rank, toledo, is_maximal,
    stability_sp4, stability_report, stability_sl2,
    cayley_partner, sw_invariants,
    gdelta_reduction_check, gp_reduction_check, sl2xsl2_reduction_check,
    irr_embed, direct_sum, is_hitchin_minimum, iso_normal_form,
)
from .moduli import (
    ScanBudgetExceeded, Subgroup, Hitchin, ZeroSW, SW, ComponentLabel,
    ReductionVerdict, ComponentCount, FiberGeometry,
    classify, reduction_verdict, count_components, count_components_sp2n,
    fiber_geometry, quotient_roundtrip, f2_pairing, f2_sw_map,
    f2_image_scan, sp2n_reduction_witness,
)

__version__ = "0.1.0"
