"""Bundle classes, section dimensions, stability, invariants, reductions."""

import random
from fractions import Fraction

import pytest

import sp4higgs as sh
from sp4higgs import (
    CurveCtx, DiagonalShape, F2Vector, LineBundleClass, NotMaximal,
    NotPolystable, OutOfClassifiedRange, RequiresExplicitH0, SectionSlot,
    Stability, cayley_partner, direct_sum, gdelta_reduction_check,
    gp_reduction_check, h0, irr_embed, is_hitchin_minimum, is_maximal,
    iso_normal_form, milnor_wood, sl2xsl2_reduction_check, stability_report,
    stability_sl2, stability_sp4, sw_invariants, toledo,
)

from builders import (
    cover_shape, diagonal_shape, max_sl2, sl2_of_degree, slot, torsion_split,
)


CTX2 = CurveCtx(2)
CTX3 = CurveCtx(3)


def e(ctx, k):
    return F2Vector.unit(ctx.two_g, k)


# -- line bundle classes -------------------------------------------------------


def test_degree_arithmetic():
    k = LineBundleClass.canonical(CTX3)
    assert k.degree(CTX3) == 4
    half = LineBundleClass.half_canonical(CTX3)
    assert half.degree(CTX3) == 2
    assert (half.power(3)).degree(CTX3) == 6
    assert half.power(2) == k  # torsion doubles away


def test_dual_negates_everything():
    n = LineBundleClass(Fraction(1, 2), 3, e(CTX3, 1))
    nd = n.dual()
    assert nd.degree(CTX3) == -n.degree(CTX3)
    assert (n * nd).is_trivial()


def test_genus_validation():
    with pytest.raises(ValueError):
        CurveCtx(1)


# -- h0 --------------------------------------------------------------------------


def test_h0_table():
    k = LineBundleClass.canonical(CTX3)
    assert h0(CTX3, k.power(2)) == 6  # 3g - 3
    assert h0(CTX3, k) == 3  # g
    assert h0(CTX3, LineBundleClass.trivial(CTX3)) == 1
    assert h0(CTX3, LineBundleClass.two_torsion(e(CTX3, 0))) == 0
    assert h0(CTX3, LineBundleClass(Fraction(0), -1, CTX3.zero_torsion())) == 0


def test_h0_riemann_roch_range():
    # deg N = c + g - 1 with c = 1: h0(N^2 K) = 2c + 3g - 3
    n = LineBundleClass(Fraction(1, 2), 1, CTX3.zero_torsion())
    k = LineBundleClass.canonical(CTX3)
    assert h0(CTX3, n.power(2) * k) == 8
    assert h0(CTX3, n.power(-2) * k.power(3)) == 4  # 3g - 3 - 2c


def test_h0_refuses_special_range():
    half = LineBundleClass.half_canonical(CTX3)
    with pytest.raises(RequiresExplicitH0):
        h0(CTX3, half)  # theta characteristic: parity-dependent


def test_section_slot_validation():
    k2 = LineBundleClass.canonical(CTX3, 2)
    good = SectionSlot(k2, (1, 0, 0, 0, 0, 0))
    good.validate(CTX3)
    with pytest.raises(ValueError):
        SectionSlot(k2, (1,)).validate(CTX3)
    override = SectionSlot(LineBundleClass.half_canonical(CTX3), (1,),
                           h0_override=1)
    override.validate(CTX3)


def test_section_slot_rejects_negative_h0_override():
    k = LineBundleClass.canonical(CTX3)
    with pytest.raises(ValueError, match="h0_override"):
        SectionSlot(k, (), h0_override=-1)
    with pytest.raises(ValueError, match="h0_override"):
        SectionSlot.zero(CTX3, k, h0_override=-1)
    assert SectionSlot.zero(CTX3, k, h0_override=0).coeffs == ()


# -- Milnor-Wood ------------------------------------------------------------------


def test_milnor_wood():
    assert milnor_wood(CTX2, 2)
    assert not milnor_wood(CTX2, 3)
    assert milnor_wood(CTX2, 0)
    assert milnor_wood(CTX3, -4)


# -- stability: the nine rank-2 cases ---------------------------------------------


def test_stability_high_range_stable():
    d = diagonal_shape(CTX3, 2, b2=1)
    assert stability_sp4(CTX3, d) == Stability.STABLE


def test_stability_high_range_unstable():
    d = diagonal_shape(CTX3, 2, b2=0)
    assert stability_sp4(CTX3, d) == Stability.UNSTABLE


def test_stability_boundary_cases():
    both = diagonal_shape(CTX3, 0, b1=1, b2=1)
    assert stability_sp4(CTX3, both) == Stability.STABLE
    only_b2 = diagonal_shape(CTX3, 0, b1=0, b2=1)
    assert stability_sp4(CTX3, only_b2) == Stability.SEMISTABLE_NOT_POLY
    only_b1 = diagonal_shape(CTX3, 0, b1=1, b2=0)
    assert stability_sp4(CTX3, only_b1) == Stability.SEMISTABLE_NOT_POLY
    neither = diagonal_shape(CTX3, 0, b1=0, b2=0)
    assert stability_sp4(CTX3, neither) == Stability.STRICTLY_POLYSTABLE


def test_stability_cover_shape():
    assert stability_sp4(CTX3, cover_shape(CTX3)) == Stability.STABLE


def test_stability_torsion_split():
    distinct = torsion_split(CTX3, e(CTX3, 0), e(CTX3, 1))
    rep = stability_report(CTX3, distinct)
    assert rep.verdict == Stability.STABLE and rep.non_simple
    equal = torsion_split(CTX3, e(CTX3, 0), e(CTX3, 0))
    rep = stability_report(CTX3, equal)
    assert rep.verdict == Stability.STRICTLY_POLYSTABLE and rep.non_simple


def test_stability_out_of_range():
    n = LineBundleClass(Fraction(1, 2), -1, CTX3.zero_torsion())
    k = LineBundleClass.canonical(CTX3)
    d = DiagonalShape(
        N=n,
        beta1=slot(CTX3, n.power(2) * k),
        beta2=slot(CTX3, n.power(-2) * k.power(3)),
        beta3=slot(CTX3, k.power(2)))
    with pytest.raises(OutOfClassifiedRange):
        stability_sp4(CTX3, d)


# -- stability: the three rank-1 cases ----------------------------------------------


def test_sl2_positive_degree():
    assert stability_sl2(CTX3, max_sl2(CTX3, gamma=1)) == Stability.STABLE
    assert stability_sl2(CTX3, max_sl2(CTX3, gamma=0)) == Stability.UNSTABLE


def test_sl2_zero_degree():
    both_zero = sl2_of_degree(CTX3, 0, beta=0, gamma=0)
    assert stability_sl2(CTX3, both_zero) == Stability.STRICTLY_POLYSTABLE
    both = sl2_of_degree(CTX3, 0, beta=1, gamma=1)
    assert stability_sl2(CTX3, both) == Stability.STRICTLY_POLYSTABLE
    one = sl2_of_degree(CTX3, 0, beta=1, gamma=0)
    assert stability_sl2(CTX3, one) == Stability.UNSTABLE


def test_sl2_negative_degree():
    d = sl2_of_degree(CTX3, -(CTX3.genus - 1), beta=1)
    assert stability_sl2(CTX3, d) == Stability.STABLE


def test_sl2_degree_above_bound_forced_unstable():
    # gamma lives in a negative-degree bundle: empty slot, hence zero
    d = sl2_of_degree(CTX3, CTX3.genus)
    assert len(d.gamma.coeffs) == 0 and d.gamma.is_zero
    assert stability_sl2(CTX3, d) == Stability.UNSTABLE


# -- Cayley partner and invariants ---------------------------------------------------


def test_cayley_split_case_low():
    d = diagonal_shape(CTX3, 0, b1=0, b2=0)
    cp = cayley_partner(CTX3, d)
    assert cp.case.kind == "split"
    assert cp.case.L.degree(CTX3) == 0
    assert not cp.theta_present


def test_cayley_split_case_hitchin():
    d = diagonal_shape(CTX3, CTX3.deg_k)
    cp = cayley_partner(CTX3, d)
    assert cp.case.kind == "split"
    assert cp.case.L.degree(CTX3) == CTX3.deg_k
    assert cp.theta_present  # beta2 is the unit section


def test_cayley_cover_passthrough():
    d = cover_shape(CTX3, w1=e(CTX3, 2), w2=1)
    cp = cayley_partner(CTX3, d)
    assert cp.case.kind == "cover"
    assert cp.case.w1 == e(CTX3, 2) and cp.case.w2 == 1


def test_cayley_requires_maximal():
    with pytest.raises(NotMaximal):
        cayley_partner(CTX3, sl2_of_degree(CTX3, 0))


def test_cayley_requires_polystable():
    bad = diagonal_shape(CTX3, 2, b2=0)
    with pytest.raises(NotPolystable):
        cayley_partner(CTX3, bad)


def test_sw_invariants_torsion_pairing():
    g = CTX2.genus
    t1 = F2Vector.unit(CTX2.two_g, 0)          # a_1
    t2 = F2Vector.unit(CTX2.two_g, g)          # b_1
    inv = sw_invariants(CTX2, torsion_split(CTX2, t1, t2))
    assert inv.w1 == t1 + t2
    assert inv.w2 == 1  # intersection pairing of dual classes


def test_sw_invariants_equal_torsion_cancels():
    t = e(CTX3, 1)
    inv = sw_invariants(CTX3, torsion_split(CTX3, t, t))
    assert inv.w1.is_zero and inv.c == 0 and inv.w2 == 0


def test_sw_invariants_diagonal():
    inv = sw_invariants(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0))
    assert inv.w1.is_zero and inv.c == 0
    inv = sw_invariants(CTX3, diagonal_shape(CTX3, 1))
    assert inv.c == 1 and inv.w2 == 1


def test_sw_invariants_additive_w1():
    rng = random.Random(13)
    for _ in range(20):
        t1 = F2Vector(rng.getrandbits(1) for _ in range(CTX3.two_g))
        t2 = F2Vector(rng.getrandbits(1) for _ in range(CTX3.two_g))
        a, b = max_sl2(CTX3, t1), max_sl2(CTX3, t2)
        s = direct_sum(CTX3, a, b)
        inv = sw_invariants(CTX3, s)
        assert inv.w1 == t1 + t2


def test_duality_negates_toledo():
    # (V, beta, gamma) -> (V*, gamma, beta): the dual summand degrees
    # add up to minus the Toledo invariant
    d = diagonal_shape(CTX3, 1)
    n = d.N
    k = LineBundleClass.canonical(CTX3)
    v2 = n.dual() * k  # second summand of V
    dual_degree = n.dual().degree(CTX3) + v2.dual().degree(CTX3)
    assert dual_degree == -toledo(CTX3, d)


# -- reduction checkers ----------------------------------------------------------


def test_gdelta_on_diagonal():
    assert gdelta_reduction_check(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0))
    assert gdelta_reduction_check(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0, b3=1))
    assert not gdelta_reduction_check(CTX3, diagonal_shape(CTX3, 1))


def test_gdelta_on_cover():
    assert gdelta_reduction_check(CTX3, cover_shape(CTX3, beta=False))
    assert not gdelta_reduction_check(CTX3, cover_shape(CTX3, beta=True))


def test_gdelta_on_torsion_split():
    t1, t2 = e(CTX3, 0), e(CTX3, 1)
    assert gdelta_reduction_check(CTX3, torsion_split(CTX3, t1, t2, b1=0, b2=0))
    assert gdelta_reduction_check(CTX3, torsion_split(CTX3, t1, t2, b1=2, b2=2))
    assert not gdelta_reduction_check(CTX3, torsion_split(CTX3, t1, t2, b1=1, b2=0))


def test_sl2xsl2_checker():
    assert sl2xsl2_reduction_check(CTX3, torsion_split(CTX3, e(CTX3, 0), e(CTX3, 1)))
    assert sl2xsl2_reduction_check(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0))
    assert not sl2xsl2_reduction_check(CTX3, diagonal_shape(CTX3, 1))
    assert not sl2xsl2_reduction_check(CTX3, cover_shape(CTX3))


def test_gp_checker():
    assert gp_reduction_check(CTX3, cover_shape(CTX3))
    assert gp_reduction_check(CTX3, torsion_split(CTX3, e(CTX3, 0), e(CTX3, 1)))
    assert gp_reduction_check(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0))
    assert not gp_reduction_check(CTX3, diagonal_shape(CTX3, 1))


# -- slope oracle for the rank-4 pair ------------------------------------------------
#
# The rank-4 pair (V + V*, [[0, beta], [gamma, 0]]) decomposes into four
# line summands.  On the summand-respecting subbundles, invariance under
# the field is decided by which entries vanish, and the slope test is an
# oracle independent of the case analysis in stability_sp4.


def _diagonal_slope_audit(ctx, datum):
    """Max slope over field-invariant proper sub-sums of the four line
    summands (N, N^-1 K, N^-1, N K^-1); None if no proper sub-sum is
    invariant."""
    g = ctx.genus
    dn = datum.N.degree(ctx)
    degs = {1: dn, 2: 2 * g - 2 - dn, 3: -dn, 4: dn - (2 * g - 2)}
    b1, b2, b3 = (not datum.beta1.is_zero, not datum.beta2.is_zero,
                  not datum.beta3.is_zero)
    # field components: gamma is the unit off-diagonal form, so 1 -> 4
    # and 2 -> 3 always; beta feeds 3 and 4 back into 1 and 2
    targets = {1: {4}, 2: {3},
               3: ({1} if b1 else set()) | ({2} if b3 else set()),
               4: ({1} if b3 else set()) | ({2} if b2 else set())}
    best = None
    for mask in range(1, 15):
        subset = {k for k in (1, 2, 3, 4) if mask & (1 << (k - 1))}
        if len(subset) == 4:
            continue
        if all(targets[k] <= subset for k in subset):
            slope = Fraction(sum(degs[k] for k in subset), len(subset))
            best = slope if best is None else max(best, slope)
    return best


def test_gl4c_slope_oracle_on_diagonal_shapes():
    for g in (2, 3, 4):
        ctx = CurveCtx(g)
        for c in range(0, ctx.deg_k + 1):
            combos = [(a, b, d) for a in (0, 1) for b in (0, 1)
                      for d in (0, 1)]
            for b1, b2, b3 in combos:
                if c == ctx.deg_k and not b2:
                    continue  # the unit section is part of that shape
                datum = diagonal_shape(ctx, c, b1=b1, b2=b2, b3=b3)
                verdict = stability_sp4(ctx, datum)
                best = _diagonal_slope_audit(ctx, datum)
                if verdict == Stability.STABLE:
                    assert best is None or best < 0
                elif verdict == Stability.UNSTABLE:
                    assert best is not None and best > 0
                else:
                    assert best is not None and best == 0


def test_gl4c_slope_never_positive_on_torsion_split():
    # the symplectic stability of split shapes is weaker than the
    # rank-4 slope condition: the sub-sum (L1 K^(1/2), L1 K^(-1/2)) is
    # always invariant of slope zero, but never positive
    ctx = CurveCtx(3)
    degs = [ctx.genus - 1, ctx.genus - 1, 1 - ctx.genus, 1 - ctx.genus]
    for b1 in (0, 1):
        for b2 in (0, 1):
            datum = torsion_split(ctx, e(ctx, 0), e(ctx, 1), b1=b1, b2=b2)
            assert stability_sp4(ctx, datum).is_polystable
            targets = {1: {3}, 2: {4},
                       3: {1} if b1 else set(),
                       4: {2} if b2 else set()}
            for mask in range(1, 15):
                subset = {k for k in (1, 2, 3, 4) if mask & (1 << (k - 1))}
                if len(subset) == 4:
                    continue
                if all(targets[k] <= subset for k in subset):
                    slope = Fraction(sum(degs[k - 1] for k in subset),
                                     len(subset))
                    assert slope <= 0


# -- irreducible embedding ----------------------------------------------------------


def test_irr_embed_maximal():
    base = max_sl2(CTX3, torsion=e(CTX3, 1))
    img = irr_embed(CTX3, base)
    assert toledo(CTX3, img) == 2 * (CTX3.genus - 1)
    assert is_maximal(CTX3, img)
    assert stability_sp4(CTX3, img) == Stability.STABLE


def test_irr_embed_intermediate_degrees():
    for d in range(1, CTX3.genus):
        base = sl2_of_degree(CTX3, d, gamma=1)
        img = irr_embed(CTX3, base)
        assert toledo(CTX3, img) == 2 * d
        assert milnor_wood(CTX3, toledo(CTX3, img))
        assert stability_sp4(CTX3, img) == Stability.STABLE


def test_irr_embed_degree_zero_polystable():
    base = sl2_of_degree(CTX3, 0, beta=0, gamma=0)
    img = irr_embed(CTX3, base)
    assert stability_sp4(CTX3, img) == Stability.STRICTLY_POLYSTABLE


def test_irr_embed_rejects_bad_degree():
    with pytest.raises(OutOfClassifiedRange):
        irr_embed(CTX3, sl2_of_degree(CTX3, CTX3.genus, gamma=0, beta=1))


def test_irr_embed_rejects_unstable():
    with pytest.raises(NotPolystable):
        irr_embed(CTX3, max_sl2(CTX3, gamma=0))


def test_irr_embed_zero_beta_is_the_component_minimum():
    img = irr_embed(CTX3, max_sl2(CTX3, beta=0))
    assert is_hitchin_minimum(CTX3, img)
    img = irr_embed(CTX3, max_sl2(CTX3, beta=1))
    assert not is_hitchin_minimum(CTX3, img)


# -- direct sums ---------------------------------------------------------------------


def test_direct_sum_of_max_sl2_is_torsion_split():
    a = max_sl2(CTX3, e(CTX3, 0))
    b = max_sl2(CTX3, e(CTX3, 1))
    s = direct_sum(CTX3, a, b)
    assert isinstance(s, sh.TorsionSplitShape)
    assert s.t1 == e(CTX3, 0) and s.t2 == e(CTX3, 1)


def test_root_of_k_encoding_has_one_message():
    # maximal rank-1 data whose L is encoded as O(g-1), not as K^(1/2)
    a = sl2_of_degree(CTX3, CTX3.genus - 1, gamma=1)
    b = sl2_of_degree(CTX3, CTX3.genus - 1, gamma=1, torsion=e(CTX3, 0))
    pair = sh.DirectSum((a, b))
    calls = [
        (sw_invariants, pair), (sh.classify, pair), (cayley_partner, pair),
        (gdelta_reduction_check, pair), (gp_reduction_check, pair),
        (sl2xsl2_reduction_check, pair), (is_hitchin_minimum, pair),
        (sw_invariants, a), (sh.classify, irr_embed(CTX3, a)),
    ]
    messages = set()
    for fn, datum in calls:
        with pytest.raises(OutOfClassifiedRange) as info:
            fn(CTX3, datum)
        messages.add(str(info.value))
    assert len(messages) == 1
    with pytest.raises(OutOfClassifiedRange, match="square root of K"):
        direct_sum(CTX3, a, b)


def test_direct_sum_with_empty_is_identity():
    a = max_sl2(CTX3)
    assert direct_sum(CTX3, a, sh.DirectSum(())) is a
    assert direct_sum(CTX3, sh.DirectSum(()), a) is a


def test_direct_sum_toledo_additive():
    a = max_sl2(CTX3)
    b = sl2_of_degree(CTX3, 0, beta=1, gamma=1)
    s = direct_sum(CTX3, a, b)
    assert toledo(CTX3, s) == toledo(CTX3, a) + toledo(CTX3, b)


def test_direct_sum_flattens():
    a, b, c = (max_sl2(CTX3, e(CTX3, k)) for k in range(3))
    nested = sh.DirectSum((sh.DirectSum((a, b)), c))
    assert len(nested.summands) == 3


# -- minima ---------------------------------------------------------------------------


def test_hitchin_minimum_in_hitchin_component():
    assert is_hitchin_minimum(CTX3, diagonal_shape(CTX3, CTX3.deg_k, b1=0, b3=0))
    assert not is_hitchin_minimum(CTX3, diagonal_shape(CTX3, CTX3.deg_k, b3=1))


def test_minimum_in_intermediate_component():
    assert is_hitchin_minimum(CTX3, diagonal_shape(CTX3, 1, b1=0, b3=0))
    assert not is_hitchin_minimum(CTX3, diagonal_shape(CTX3, 1, b1=1))


def test_minimum_in_c0_requires_all_beta_zero():
    assert is_hitchin_minimum(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0, b3=0))
    assert not is_hitchin_minimum(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0, b3=1))


def test_minimum_in_cover_component():
    assert is_hitchin_minimum(CTX3, cover_shape(CTX3, beta=False))
    assert not is_hitchin_minimum(CTX3, cover_shape(CTX3, beta=True))


# -- normal form --------------------------------------------------------------------


def test_normal_form_scales_pivot_to_one():
    n = LineBundleClass(Fraction(1, 2), 1, CTX3.zero_torsion())
    k = LineBundleClass.canonical(CTX3)
    d = DiagonalShape(
        N=n,
        beta1=slot(CTX3, n.power(2) * k, coeffs=(7,) + (0,) * 7),
        beta2=slot(CTX3, n.power(-2) * k.power(3), coeffs=(3, 5, 0, 0)),
        beta3=slot(CTX3, k.power(2)))
    nf = iso_normal_form(CTX3, d)
    assert nf.beta2.coeffs[0] == sh.fe(1)
    assert nf.beta2.coeffs[1] == sh.fe(Fraction(5, 3))
    assert nf.beta1.coeffs[0] == sh.fe(21)  # scaled by t^2 = 3
    assert nf.beta3 == d.beta3


def test_normal_form_idempotent_and_orbit_constant():
    d = diagonal_shape(CTX3, 1, b1=2, b2=3, b3=4)
    nf = iso_normal_form(CTX3, d)
    assert iso_normal_form(CTX3, nf) == nf
    # act with t^2 = 9/2 and renormalize
    t2 = Fraction(9, 2)
    moved = DiagonalShape(
        N=d.N,
        beta1=d.beta1.scale(t2),
        beta2=d.beta2.scale(Fraction(1, 1) / t2),
        beta3=d.beta3)
    assert iso_normal_form(CTX3, moved) == nf


def test_normal_form_hitchin_range_is_identity():
    d = diagonal_shape(CTX3, CTX3.deg_k, b1=5, b3=2)
    assert iso_normal_form(CTX3, d) == d


def test_normal_form_rejects_unstable():
    d = diagonal_shape(CTX3, 1, b2=0)
    with pytest.raises(OutOfClassifiedRange):
        iso_normal_form(CTX3, d)


def test_normal_form_rejects_c_zero():
    with pytest.raises(OutOfClassifiedRange):
        iso_normal_form(CTX3, diagonal_shape(CTX3, 0))


# -- slot/shape validation -------------------------------------------------------------


def test_shape_validation_catches_wrong_bundle():
    k = LineBundleClass.canonical(CTX3)
    n = LineBundleClass(Fraction(1, 2), 1, CTX3.zero_torsion())
    bad = DiagonalShape(
        N=n,
        beta1=slot(CTX3, k.power(2)),  # wrong slot bundle
        beta2=slot(CTX3, n.power(-2) * k.power(3), 1),
        beta3=slot(CTX3, k.power(2)))
    with pytest.raises(ValueError):
        bad.validate(CTX3)


def test_cover_shape_needs_nonzero_w1():
    with pytest.raises(ValueError):
        sh.CoverOrthShape(w1=CTX3.zero_torsion(), w2=0)
