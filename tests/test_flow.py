"""The Cayley partner moves with the spin, and every maximal datum flows
to a minimum of its component.

Both properties run over the rank-2 golden data that classify.  For a
change of square root of K by a 2-torsion class s, the split partner's
L and each torsion label m_i gain s, theta and w1 stay, and w2 gains
<w1, s>.  ``minimum``, the t -> 0 limit of phi -> t phi, is polystable,
is a fixed point of itself, keeps the component label, agrees with the
minimum rule per c range, and no reduction checker accepts a datum and
rejects its minimum.
"""

import random
from fractions import Fraction

import pytest

import sp4higgs as sh
from sp4higgs import CurveCtx, F2Vector, LineBundleClass, diagonal_shape, max_sl2

from builders import cover_shape
from test_golden import corpus

CTX3 = CurveCtx(3)
CHECKERS = (sh.gdelta_reduction_check, sh.gp_reduction_check,
            sh.sl2xsl2_reduction_check)


def _classifiable_rank2():
    out = []
    for ident, ctx, datum, _ in corpus():
        if datum.rank != 2:
            continue
        try:
            label = sh.classify(ctx, datum)
        except ValueError:
            continue
        out.append((ident, ctx, datum, label))
    return out


RANK2 = _classifiable_rank2()


def _spins(ctx):
    """All spins at g = 2, eight seeded ones above."""
    if ctx.genus == 2:
        return list(F2Vector.all_vectors(ctx.two_g))
    rng = random.Random(ctx.genus)
    return [F2Vector(rng.getrandbits(ctx.two_g), ctx.two_g)
            for _ in range(8)]


def _w1_w2(ctx, partner):
    """Stiefel-Whitney classes of an orthogonal partner W."""
    if type(partner) is sh.CoverPartner:
        return partner.w1, partner.w2
    if type(partner) is sh.TorsionPartner:
        return partner.m1 + partner.m2, partner.m1.pairing(partner.m2)
    return ctx.zero_torsion(), partner.L.degree(ctx) % 2


def test_corpus_has_the_classifiable_rank2_data():
    assert len(RANK2) == 231
    assert {type(d).__name__ for _, _, d, _ in RANK2} == {
        "DiagonalShape", "CoverOrthShape", "TorsionSplitShape",
        "IrreducibleImage", "DirectSum"}


def test_cayley_partner_is_spin_covariant():
    for ident, ctx, datum, _ in RANK2:
        base = sh.cayley_partner(ctx, datum)
        w1, w2 = _w1_w2(ctx, base)
        for s in _spins(ctx):
            moved = sh.cayley_partner(ctx, datum, s)
            where = (ident, s)
            assert type(moved) is type(base), where
            assert moved.theta_present == base.theta_present, where
            assert _w1_w2(ctx, moved) == (w1, (w2 + w1.pairing(s)) % 2), where
            if type(base) is sh.SplitPartner:
                assert moved.L == base.L * LineBundleClass(Fraction(0), 0, s), where
            if type(base) is sh.TorsionPartner:
                assert (moved.m1, moved.m2) == (base.m1 + s, base.m2 + s), where


def _rule_per_c_range(ctx, datum):
    """The minima stated per shape: beta1 = beta3 = 0 in the c > 0
    diagonal shapes, every beta zero at c = 0 and in the torsion-split
    and cover shapes, beta = 0 in the irreducible image."""
    if isinstance(datum, sh.DiagonalShape):
        return (datum.beta1.is_zero and datum.beta3.is_zero
                and (datum.c_invariant(ctx) > 0 or datum.beta2.is_zero))
    if isinstance(datum, sh.CoverOrthShape):
        return not datum.beta_present
    if isinstance(datum, sh.TorsionSplitShape):
        return datum.beta1.is_zero and datum.beta2.is_zero
    return datum.beta.is_zero


def _resolved(ctx, datum):
    """The datum as the rules see it: adding the empty sum resolves a
    sum to its summand or to the torsion-split shape."""
    return sh.direct_sum(ctx, datum, sh.DirectSum(()))


def test_every_datum_flows_to_a_minimum_of_its_component():
    for ident, ctx, datum, label in RANK2:
        low = sh.minimum(ctx, datum)
        assert sh.stability_sp4(ctx, low).is_polystable, ident
        assert sh.minimum(ctx, low) == low, ident
        assert sh.classify(ctx, low) == label, ident
        assert sh.is_hitchin_minimum(ctx, datum) == _rule_per_c_range(
            ctx, _resolved(ctx, datum)), ident
        for check in CHECKERS:
            assert not check(ctx, datum) or check(ctx, low), (ident, check)


def test_c0_diagonal_minimum_loses_beta2():
    # at c = 0 a kept beta2 would leave beta1 = 0 != beta2: not polystable
    stable = diagonal_shape(CTX3, 0, b1=1, b2=1, b3=1)
    assert sh.minimum(CTX3, stable) == diagonal_shape(CTX3, 0, b1=0, b2=0)


# the rules that only the rank-2 shapes answer
RANK2_RULES = (sh.cayley_partner, sh.gdelta_reduction_check, sh.gp_reduction_check,
               sh.sl2xsl2_reduction_check, sh.minimum, sh.is_hitchin_minimum)


@pytest.mark.parametrize("datum", [
    max_sl2(CTX3),
    sh.DirectSum(tuple(max_sl2(CTX3, F2Vector.unit(6, k)) for k in range(3))),
    sh.DirectSum(()),
    sh.DirectSum((cover_shape(CTX3), max_sl2(CTX3), max_sl2(CTX3, F2Vector.unit(6, 1)))),
])
def test_minimum_of_a_datum_that_is_not_rank2_is_unsupported(datum):
    """Maximal polystable data of rank 1, 3, 0 and 4: each rule names the
    rank and the shape class it got."""
    assert sh.is_maximal(CTX3, datum) and sh.stability_sp4(CTX3, datum).is_polystable
    message = "the rule needs a rank-2 datum, not a rank-%d %s" % (
        datum.rank, type(datum).__name__)
    for rule in RANK2_RULES:
        with pytest.raises(sh.OutOfClassifiedRange) as info:
            rule(CTX3, datum)
        assert str(info.value) == message, rule
