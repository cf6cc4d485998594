"""Bundle classes, section dimensions, stability, invariants, reductions."""

import random
from fractions import Fraction

import pytest

import sp4higgs as sh
from sp4higgs import (
    CoverPartner, CurveCtx, DiagonalShape, F2Vector, LineBundleClass,
    NotMaximal, NotPolystable, OutOfClassifiedRange, RequiresExplicitH0,
    SectionSlot, SplitPartner, Stability, cayley_partner, direct_sum,
    gdelta_reduction_check, gp_reduction_check, h0, irr_embed,
    is_hitchin_minimum, is_maximal, iso_normal_form, milnor_wood,
    sl2xsl2_reduction_check, stability_report, stability_sl2, stability_sp4,
    sw_invariants, toledo, diagonal_shape, max_sl2, torsion_split,
)
from sp4higgs._record import Record

from builders import cover_shape, sl2_of_degree
from test_acceptance import _generate_maximal_polystable
from test_golden import corpus


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


def test_half_canonical_keeps_the_label_it_is_given():
    # an empty label is kept, not replaced by the zero label of length 2g
    empty = F2Vector(0, 0)
    assert LineBundleClass.half_canonical(CTX2, empty).torsion is empty
    label = e(CTX2, 1)
    assert LineBundleClass.half_canonical(CTX2, label).torsion is label
    assert LineBundleClass.half_canonical(CTX2).torsion == CTX2.zero_torsion()


def test_dual_negates_everything():
    n = LineBundleClass(Fraction(1, 2), 3, e(CTX3, 1))
    nd = n.dual()
    assert nd.degree(CTX3) == -n.degree(CTX3)
    assert n * nd == LineBundleClass(Fraction(0), 0, CTX3.zero_torsion())


def _bundles(x):
    """Every LineBundleClass held in the record ``x``, at any depth."""
    if type(x) is LineBundleClass:
        yield x
    elif isinstance(x, Record):
        for name in x._fields:
            yield from _bundles(getattr(x, name))
    elif type(x) is tuple:
        for item in x:
            yield from _bundles(item)


def _same_bundle(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert type(got.k_power) is Fraction and type(got.extra_degree) is int
    assert type(got.torsion) is F2Vector


def test_bundle_algebra_matches_the_public_constructor():
    # dual, * and power build past the constructor's checks; each result
    # must be the bundle the constructor builds from the same fields
    golden = {b for _, _, datum, _ in corpus() for b in _bundles(datum)}
    roots = {LineBundleClass.canonical(CurveCtx(g)) for g in (2, 3, 4)}
    roots |= {LineBundleClass.half_canonical(CurveCtx(g), t)
              for g in (2, 3, 4) for t in F2Vector.all_vectors(2 * g)}
    assert len(golden) > 80 and len(roots) == 3 + 16 + 64 + 256
    for a in golden | roots:
        _same_bundle(a.dual(), LineBundleClass(-a.k_power, -a.extra_degree, a.torsion))
        for n in range(-3, 4):
            torsion = a.torsion if n % 2 else F2Vector.zero(len(a.torsion))
            _same_bundle(a.power(n), LineBundleClass(a.k_power * n, a.extra_degree * n,
                                                     torsion))
        for b in golden:
            if len(b.torsion) == len(a.torsion):
                _same_bundle(a * b, LineBundleClass(a.k_power + b.k_power,
                                                    a.extra_degree + b.extra_degree,
                                                    a.torsion + b.torsion))


_K3 = LineBundleClass.canonical(CTX3)


# the bundle algebra takes exact ints and bundles only: each of these
# constructed silently, or failed naming a field, not the argument
@pytest.mark.parametrize("call, message", [
    (lambda: _K3.power(True), "n True is not an int"),
    (lambda: _K3.power(2.0), "n 2.0 is not an int"),
    (lambda: _K3.power(Fraction(2)), "n Fraction(2, 1) is not an int"),
    (lambda: LineBundleClass.canonical(CTX3, True), "power True is not an int"),
    (lambda: LineBundleClass.canonical(CTX3, 1.5), "power 1.5 is not an int"),
    (lambda: LineBundleClass.canonical(CTX3, "1"), "power '1' is not an int"),
    (lambda: LineBundleClass.canonical(CTX3, Fraction(1)),
     "power Fraction(1, 1) is not an int"),
    (lambda: _K3 * 3, "unsupported operand type(s) for *: 'LineBundleClass' and 'int'"),
    (lambda: 3 * _K3, "unsupported operand type(s) for *: 'int' and 'LineBundleClass'"),
    (lambda: _K3 * CTX3.zero_torsion(),
     "unsupported operand type(s) for *: 'LineBundleClass' and 'F2Vector'"),
], ids=["power-bool", "power-float", "power-fraction", "canonical-bool",
        "canonical-float", "canonical-str", "canonical-fraction", "mul-int",
        "rmul-int", "mul-f2vector"])
def test_bundle_algebra_takes_exact_ints(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_genus_validation():
    with pytest.raises(ValueError):
        CurveCtx(1)


# -- h0 --------------------------------------------------------------------------


def test_h0_table():
    k = LineBundleClass.canonical(CTX3)
    assert h0(CTX3, k.power(2)) == 6  # 3g - 3
    assert h0(CTX3, k) == 3  # g
    assert h0(CTX3, LineBundleClass(Fraction(0), 0, CTX3.zero_torsion())) == 1
    assert h0(CTX3, LineBundleClass(Fraction(0), 0, e(CTX3, 0))) == 0
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
    assert SectionSlot(k, (), h0_override=0).coeffs == ()


def test_h0_override_must_agree_with_a_determined_h0():
    k = LineBundleClass.canonical(CTX3)
    negative = LineBundleClass(Fraction(1), -6, CTX3.zero_torsion())  # deg -2
    large = k.power(2)  # deg 8 > 2g - 2: h0 = 6
    for bundle, override, dim in ((negative, 1, 0), (k, 2, 3), (large, 5, 6)):
        slot = SectionSlot(bundle, (1,) * override, h0_override=override)
        with pytest.raises(ValueError,
                           match=r"h0_override %d .* h0 = %d" % (override, dim)):
            slot.validate(CTX3)
        agreeing = SectionSlot(bundle, (0,) * dim, h0_override=dim)
        assert agreeing.dimension(CTX3) == dim
        agreeing.validate(CTX3)
    # where the degree leaves h0 open the override stays required and trusted
    half = LineBundleClass.half_canonical(CTX3)
    assert SectionSlot(half, (), h0_override=0).dimension(CTX3) == 0
    assert SectionSlot(half, (1, 0), h0_override=2).dimension(CTX3) == 2
    with pytest.raises(RequiresExplicitH0):
        SectionSlot(half, (1,)).dimension(CTX3)


@pytest.mark.parametrize("genus", [2, 3, 10**6])
def test_degree_and_h0_match_the_fraction_formula(genus):
    ctx = CurveCtx(genus)
    for n in range(-7, 8):
        k = Fraction(n, 2)
        for extra in range(-2, 3):
            for torsion in (ctx.zero_torsion(), e(ctx, 0)):
                bundle = LineBundleClass(k, extra, torsion)
                d = extra + k * ctx.deg_k
                assert type(bundle.degree(ctx)) is int
                assert bundle.degree(ctx) == d
                if d < 0:
                    want = 0
                elif d > ctx.deg_k:
                    want = d - genus + 1
                elif k == 0 and extra == 0:
                    want = 1 if torsion.is_zero else 0
                elif k == 1 and extra == 0 and torsion.is_zero:
                    want = genus
                else:
                    with pytest.raises(RequiresExplicitH0):
                        h0(ctx, bundle)
                    continue
                assert h0(ctx, bundle) == want


# Fraction's constructor, arithmetic, conversions and comparisons
_FRACTION_OPS = [
    name for name in (
        "add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv",
        "floordiv", "rfloordiv", "mod", "rmod", "divmod", "rdivmod", "pow",
        "rpow", "pos", "neg", "abs", "int", "trunc", "floor", "ceil", "round",
        "bool", "eq", "lt", "gt", "le", "ge")
    if "__%s__" % name in Fraction.__dict__]


def _count_fraction_ops(monkeypatch) -> list:
    """Patch Fraction so that each construction or operation appends its
    name to the returned list."""
    ops = []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            ops.append(name)
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(counted("new", Fraction.__new__)))
    for name in _FRACTION_OPS:
        dunder = "__%s__" % name
        monkeypatch.setattr(Fraction, dunder, counted(name, getattr(Fraction, dunder)))
    return ops


def test_bundle_invariants_make_no_fraction(monkeypatch):
    hitchin = diagonal_shape(CTX3, CTX3.deg_k, spin=e(CTX3, 2))
    rank1 = max_sl2(CTX3, e(CTX3, 1))
    image = irr_embed(CTX3, rank1)
    bundles = [hitchin.N, rank1.L, LineBundleClass(Fraction(0), 0, CTX3.zero_torsion()),
               LineBundleClass(Fraction(0), 0, e(CTX3, 0)),
               LineBundleClass.canonical(CTX3), LineBundleClass.canonical(CTX3, -2),
               LineBundleClass(Fraction(-3, 2), 2, CTX3.zero_torsion())]
    bundles += [s.bundle for s in (hitchin.beta1, hitchin.beta2, hitchin.beta3,
                                   rank1.beta, rank1.gamma)]
    # N a square root of K, not a cube: no spin label
    not_a_cube = DiagonalShape(rank1.L, hitchin.beta1, hitchin.beta2, hitchin.beta3)
    ops = _count_fraction_ops(monkeypatch)
    assert Fraction(1, 2) < 1  # the counter sees a construction and a compare
    assert ops == ["new", "lt"]
    del ops[:]
    for bundle in bundles:
        bundle.degree(CTX3)
        try:
            h0(CTX3, bundle)
        except RequiresExplicitH0:
            pass
    assert sh.higgs._root_of_k_label(rank1.L) == e(CTX3, 1)
    assert hitchin.hitchin_spin(CTX3) == e(CTX3, 2)
    assert image.hitchin_spin(CTX3) == e(CTX3, 1)
    with pytest.raises(OutOfClassifiedRange):
        sh.higgs._root_of_k_label(hitchin.N)
    with pytest.raises(NotPolystable):
        not_a_cube.hitchin_spin(CTX3)
    assert ops == []


def test_contradicting_override_cannot_flip_stability():
    # deg L = g, so the rank-1 datum is stable only if gamma != 0, but
    # gamma lives in a bundle of degree -2 and has no sections
    datum = sl2_of_degree(CTX3, 3)
    assert stability_report(CTX3, datum).verdict is Stability.UNSTABLE
    gamma = SectionSlot(datum.gamma.bundle, (1,), h0_override=1)
    forged = sh.SL2RDatum(datum.L, datum.beta, gamma)
    with pytest.raises(ValueError, match="h0_override 1 .* h0 = 0"):
        stability_report(CTX3, forged)


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
    # c = -1: deg N = g-2, below the maximal range
    with pytest.raises(OutOfClassifiedRange):
        stability_sp4(CTX3, diagonal_shape(CTX3, -1, b2=0))


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
    assert type(cp) is SplitPartner
    assert cp.L.degree(CTX3) == 0
    assert not cp.theta_present


def test_cayley_split_case_hitchin():
    d = diagonal_shape(CTX3, CTX3.deg_k)
    cp = cayley_partner(CTX3, d)
    assert type(cp) is SplitPartner
    assert cp.L.degree(CTX3) == CTX3.deg_k
    assert cp.theta_present  # beta2 is the unit section


def test_cayley_cover_passthrough():
    d = cover_shape(CTX3, w1=e(CTX3, 2), w2=1)
    cp = cayley_partner(CTX3, d)
    assert type(cp) is CoverPartner
    assert cp.w1 == e(CTX3, 2) and cp.w2 == 1


def test_cover_w1_of_another_length_is_rejected():
    with pytest.raises(ValueError) as info:
        stability_report(CTX3, cover_shape(CTX3, w1=e(CTX2, 0)))
    assert str(info.value) == "w1 has length 4, expected 6"


def test_cayley_requires_maximal():
    with pytest.raises(NotMaximal):
        cayley_partner(CTX3, sl2_of_degree(CTX3, 0))


def test_cayley_requires_polystable():
    bad = diagonal_shape(CTX3, 2, b2=0)
    with pytest.raises(NotPolystable):
        cayley_partner(CTX3, bad)


@pytest.mark.parametrize("spin", ["010000", 4, (0, 1, 0, 0, 0, 0)])
def test_cayley_spin_choice_must_be_an_f2_vector(spin):
    with pytest.raises(TypeError) as info:
        cayley_partner(CTX3, diagonal_shape(CTX3, 1), spin)
    assert str(info.value) == "spin_choice %r is not of type F2Vector" % (spin,)


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


@pytest.mark.parametrize("c", [-1, 5])  # c = -1 and c = 2g-1 at g = 3
@pytest.mark.parametrize("rule", [sw_invariants, sh.classify])
def test_c_outside_range_is_caught_by_stability(rule, c):
    # the partner's deg L = c is read with no range check: every caller
    # reaches it after stability, which bounds deg N = c + g-1 to [g-1, 3g-3]
    with pytest.raises(OutOfClassifiedRange) as info:
        rule(CTX3, diagonal_shape(CTX3, c))
    assert str(info.value) == "deg N = %d outside [g-1, 3g-3] = [2, 6]" % (c + 2)


def test_sw_invariants_additive_w1():
    rng = random.Random(13)
    for _ in range(20):
        t1, t2 = (F2Vector.from_string("".join(str(rng.getrandbits(1))
                                              for _ in range(CTX3.two_g)))
                  for _ in range(2))
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
    base = max_sl2(CTX3, spin=e(CTX3, 1))
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


@pytest.mark.parametrize("datum", [
    diagonal_shape(CTX3, 1), cover_shape(CTX3), irr_embed(CTX3, max_sl2(CTX3)),
    sh.DirectSum((max_sl2(CTX3),))])
def test_irr_embed_takes_only_a_rank1_datum(datum):
    with pytest.raises(sh.WrongShape) as info:
        irr_embed(CTX3, datum)
    assert str(info.value) == "the irreducible embedding expects a rank-1 (sl2r) datum"


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


def _classify_outcome(ctx, datum):
    try:
        return sh.classify(ctx, datum)
    except (NotPolystable, OutOfClassifiedRange) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["g2", "g3"])
def test_one_summand_sum_is_its_summand(ctx):
    # the criterion-9 data of the golden corpus, each wrapped alone
    for datum in _generate_maximal_polystable(ctx):
        single = sh.DirectSum((datum,))
        assert stability_report(ctx, single) == stability_report(ctx, datum)
        assert _classify_outcome(ctx, single) == _classify_outcome(ctx, datum)


@pytest.mark.parametrize("wrap", [
    lambda a, b: (a, b),
    lambda a, b: (sh.DirectSum((a,)), b),
    lambda a, b: (a, sh.DirectSum((b,))),
    lambda a, b: (sh.DirectSum(()), sh.DirectSum((a, b))),
    lambda a, b: (sh.DirectSum((a, b)), sh.DirectSum(())),
], ids=["bare", "left-one-summand", "right-one-summand", "empty-and-pair",
        "pair-and-empty"])
def test_direct_sum_resolves_however_wrapped(wrap):
    # two maximal rank-1 data are the torsion-split shape, whichever
    # sums they arrive in
    a, b = max_sl2(CTX3, CTX3.zero_torsion()), max_sl2(CTX3, e(CTX3, 0))
    s = direct_sum(CTX3, *wrap(a, b))
    k2 = LineBundleClass.canonical(CTX3, 2)
    assert s == sh.TorsionSplitShape(CTX3.zero_torsion(), e(CTX3, 0),
                                     SectionSlot(k2, a.beta.coeffs),
                                     SectionSlot(k2, b.beta.coeffs))
    assert stability_report(CTX3, s).verdict == Stability.STABLE


def test_direct_sum_of_a_lone_summand_and_nothing_is_the_summand():
    a = max_sl2(CTX3)
    assert direct_sum(CTX3, sh.DirectSum((a,)), sh.DirectSum(())) is a
    assert direct_sum(CTX3, sh.DirectSum(()), sh.DirectSum(())) == sh.DirectSum(())


def test_direct_sum_keeps_pairs_that_are_not_two_maximal_rank1_data():
    maximal, low = max_sl2(CTX3), sl2_of_degree(CTX3, 0, beta=1, gamma=1)
    no_gamma = max_sl2(CTX3, gamma=0)
    for a, b in ((maximal, low), (low, maximal), (maximal, no_gamma),
                 (irr_embed(CTX3, maximal), maximal)):
        assert direct_sum(CTX3, a, b) == sh.DirectSum((a, b))


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
    base = diagonal_shape(CTX3, 1)
    d = DiagonalShape(
        N=base.N,
        beta1=SectionSlot(base.beta1.bundle, (7,) + (0,) * 7),
        beta2=SectionSlot(base.beta2.bundle, (3, 5, 0, 0)),
        beta3=base.beta3)
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


@pytest.mark.parametrize("datum", [
    cover_shape(CTX3), torsion_split(CTX3, e(CTX3, 0), e(CTX3, 1)), max_sl2(CTX3),
    sh.DirectSum((diagonal_shape(CTX3, 1),))])
def test_normal_form_takes_only_a_diagonal_datum(datum):
    # checked before validation: the cover shape has no c invariant
    with pytest.raises(sh.WrongShape) as info:
        iso_normal_form(CTX3, datum)
    assert str(info.value) == "normal-form expects a diagonal-shape datum"


# -- slot/shape validation -------------------------------------------------------------


def test_shape_validation_catches_wrong_bundle():
    d = diagonal_shape(CTX3, 1)
    # beta1 in H0(K^2), not H0(N^2 K)
    bad = DiagonalShape(N=d.N, beta1=d.beta3, beta2=d.beta2, beta3=d.beta3)
    with pytest.raises(ValueError):
        bad.validate(CTX3)


def test_cover_shape_needs_nonzero_w1():
    with pytest.raises(ValueError):
        sh.CoverOrthShape(w1=CTX3.zero_torsion(), w2=0)


# (call, exception, exact message) of the argument guards that the CLI's
# datum decoding never reaches
GUARDS = {
    "cover-w2": (lambda: sh.CoverOrthShape(e(CTX3, 0), 2), ValueError,
                 "w2 must be 0 or 1"),
    "cayley-spin-length": (
        lambda: cayley_partner(CTX3, diagonal_shape(CTX3, 1), F2Vector.zero(4)),
        ValueError, "spin_choice has length 4, expected 6"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_messages(name):
    call, exc, message = GUARDS[name]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
