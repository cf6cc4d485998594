"""Component labels, verdicts, counting, fibers, the mod-2 scan."""

import random
from fractions import Fraction

import pytest

import sp4higgs as sh
from sp4higgs import moduli
from sp4higgs import (
    CurveCtx, F2Vector, Hitchin, OutOfClassifiedRange, SW, ScanBudgetExceeded,
    Stability, Subgroup, ZeroSW, classify, count_components,
    count_components_sp2n, f2_image_scan, f2_sw_map, fiber_geometry,
    irr_embed, quotient_roundtrip, reduction_verdict,
    sp2n_reduction_witness, stability_sp4, sw_invariants, toledo,
    diagonal_shape, max_sl2, torsion_split,
)

from builders import cover_shape

CTX2 = CurveCtx(2)
CTX3 = CurveCtx(3)


def e(ctx, k):
    return F2Vector.unit(ctx.two_g, k)


# -- classification ------------------------------------------------------------


def test_classify_zero_sw():
    assert classify(CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0)) == ZeroSW(0)
    assert classify(CTX3, diagonal_shape(CTX3, 1)) == ZeroSW(1)


def test_classify_hitchin():
    spin = e(CTX3, 2)
    label = classify(CTX3, diagonal_shape(CTX3, CTX3.deg_k, spin=spin))
    assert label == Hitchin(spin)


def test_classify_sw():
    label = classify(CTX3, torsion_split(CTX3, e(CTX3, 0), e(CTX3, 1)))
    assert label == SW(e(CTX3, 0) + e(CTX3, 1), 0)
    label = classify(CTX3, cover_shape(CTX3, w1=e(CTX3, 1), w2=1))
    assert label == SW(e(CTX3, 1), 1)


def test_classify_irr_embed_is_hitchin():
    spin = e(CTX3, 3)
    img = irr_embed(CTX3, max_sl2(CTX3, spin))
    assert classify(CTX3, img) == Hitchin(spin)
    assert reduction_verdict(classify(CTX3, img)).admits == {Subgroup.G_I}


def test_classify_equal_torsion_split_is_c0():
    t = e(CTX3, 1)
    assert classify(CTX3, torsion_split(CTX3, t, t)) == ZeroSW(0)


# -- verdicts ---------------------------------------------------------------------


def test_reduction_verdicts():
    assert reduction_verdict(Hitchin(e(CTX3, 0))).admits == {Subgroup.G_I}
    both = {Subgroup.G_DELTA, Subgroup.G_P}
    assert reduction_verdict(ZeroSW(0)).admits == both
    assert reduction_verdict(SW(e(CTX3, 0), 1)).admits == both
    v = reduction_verdict(ZeroSW(1))
    assert v.admits == frozenset() and v.zariski_dense_component


def test_verdict_invariant():
    with pytest.raises(ValueError):
        sh.ReductionVerdict(frozenset(), False)


# -- counting ---------------------------------------------------------------------


def test_counts_g2():
    c = count_components(CTX2)
    assert c.total == 48
    assert c.rep_variety_total == 99
    assert (c.grouped_hitchin, c.grouped_gdelta_gp,
            c.grouped_zariski_dense) == (16, 31, 1)


def test_counts_g3():
    assert count_components(CTX3).total == 194


def test_count_breakdowns_agree_up_to_g10():
    for g in range(2, 11):
        c = count_components(CurveCtx(g))
        assert c.sw + c.zero_sw + c.hitchin == c.total
        assert (c.grouped_hitchin + c.grouped_gdelta_gp
                + c.grouped_zariski_dense) == c.total
        assert c.total == 3 * 2 ** (2 * g) + 2 * g - 4


def component_representatives(ctx):
    """One maximal polystable datum per component, built from its
    construction and not from its label."""
    vectors = list(F2Vector.all_vectors(ctx.two_g))
    data = [irr_embed(ctx, max_sl2(ctx, spin)) for spin in vectors]
    data += [cover_shape(ctx, w1, w2)
             for w1 in vectors if not w1.is_zero for w2 in (0, 1)]
    # at c = 0 a single nonzero beta is semistable but not polystable
    data += [diagonal_shape(ctx, c, b2=int(c > 0)) for c in range(ctx.deg_k)]
    return data


@pytest.mark.parametrize("g", [2, 3, 4])
def test_constructive_census(g):
    ctx = CurveCtx(g)
    data = component_representatives(ctx)
    labels = [classify(ctx, d) for d in data]
    vectors = list(F2Vector.all_vectors(2 * g))
    expected = ({Hitchin(s) for s in vectors}
                | {SW(w1, w2) for w1 in vectors if not w1.is_zero for w2 in (0, 1)}
                | {ZeroSW(c) for c in range(2 * g - 2)})
    # a bijection of the data onto the label set
    assert len(set(labels)) == len(labels) == len(expected)
    assert set(labels) == expected
    c = count_components(ctx)
    assert len(labels) == c.total == 3 * 2 ** (2 * g) + 2 * g - 4
    verdicts = [reduction_verdict(label) for label in labels]
    grouped = (sum(v.admits == {Subgroup.G_I} for v in verdicts),
               sum(v.admits == {Subgroup.G_DELTA, Subgroup.G_P} for v in verdicts),
               sum(v.zariski_dense_component for v in verdicts))
    assert sum(grouped) == len(labels)
    assert grouped == (c.grouped_hitchin, c.grouped_gdelta_gp,
                       c.grouped_zariski_dense)


def test_sp2n_counts():
    assert count_components_sp2n(CTX2, 3) == 48
    assert count_components_sp2n(CTX3, 5) == 192
    for g in range(2, 8):
        ctx = CurveCtx(g)
        assert (count_components_sp2n(ctx, 4)
                == count_components(ctx).total - (2 * g - 4))
    with pytest.raises(ValueError):
        count_components_sp2n(CTX2, 2)


# -- fiber geometry -----------------------------------------------------------------


def test_fiber_values():
    geom = fiber_geometry(CurveCtx(4), 1)
    assert (geom.r, geom.s, geom.total_dim) == (11, 6, 30)
    geom = fiber_geometry(CTX3, 1)
    assert (geom.r, geom.s, geom.total_dim) == (8, 3, 20)


def test_fiber_dimension_identity_up_to_g50():
    for g in range(3, 51):
        ctx = CurveCtx(g)
        for c in range(1, g - 1):
            assert fiber_geometry(ctx, c).total_dim == 10 * g - 10


def test_fiber_rejects_boundary():
    with pytest.raises(OutOfClassifiedRange):
        fiber_geometry(CTX3, CTX3.genus - 1)
    with pytest.raises(OutOfClassifiedRange):
        fiber_geometry(CTX3, 0)


# -- quotient roundtrip ---------------------------------------------------------------


def test_quotient_roundtrip_zero_section():
    assert quotient_roundtrip([0, 0, 0], [1, 2])


def test_quotient_roundtrip_scaled_orbit():
    rng = random.Random(21)
    for _ in range(10):
        z = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4)]
        w = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
        if all(x == 0 for x in w):
            w[0] = Fraction(1)
        assert quotient_roundtrip(z, w)
        t2 = Fraction(4)
        assert quotient_roundtrip([t2 * x for x in z],
                                  [x / t2 for x in w])


def test_quotient_roundtrip_rejects_zero_line():
    with pytest.raises(ValueError):
        quotient_roundtrip([1], [0, 0])


def test_same_orbit_needs_one_scalar():
    same_orbit, fe = moduli._same_orbit, sh.fe
    z, w = [fe(1), fe(-2)], [fe(1), fe(2)]
    thirds = [fe(Fraction(1, 3)), fe(Fraction(-2, 3))]
    assert same_orbit(z, w, thirds, [fe(3), fe(6)])  # s = 3
    assert not same_orbit(z, w, z, [fe(3), fe(6)])  # z' is not z / 3
    assert not same_orbit(z, w, thirds, [fe(3), fe(5)])  # w' off the line of w
    assert not same_orbit(z, w, z, [fe(0), fe(0)])  # s = 0


def test_quotient_roundtrip_reads_the_normalized_representative(monkeypatch):
    seen = []
    monkeypatch.setattr(moduli, "_same_orbit", lambda *pairs: seen.append(pairs) or True)
    assert quotient_roundtrip([1, 2], [0, 4, 6])
    z, w, z_prime, w_prime = seen[0]
    assert w_prime == [0, 1, Fraction(3, 2)] and z_prime == [4, 8]


# -- mod-2 arithmetic -----------------------------------------------------------------


def test_sw_map_examples():
    g1 = F2Vector.from_string("10")
    assert f2_sw_map(g1, g1) == (F2Vector.from_string("00"), 0)
    x = F2Vector.from_string("1011")
    zero = F2Vector.zero(4)
    assert f2_sw_map(x, zero) == (x, 0)


def test_scan_g1():
    image = f2_image_scan(1)
    assert len(image) == 7
    assert (F2Vector.zero(2), 1) not in image
    assert (F2Vector.zero(2), 0) in image


def test_scan_g2_and_g3_miss_only_zero_one():
    for g in (2, 3):
        image = f2_image_scan(g)
        two_g = 2 * g
        universe = {(v, w) for v in F2Vector.all_vectors(two_g)
                    for w in (0, 1)}
        assert universe - image == {(F2Vector.zero(two_g), 1)}


def test_scan_nonzero_w1_with_unit_pairing_always_present():
    image = f2_image_scan(2)
    for v in F2Vector.all_vectors(4):
        if not v.is_zero:
            assert (v, 1) in image


def test_scan_matches_object_level_reference():
    # reference: the pair-sum map applied to every (x, y) as F2Vector objects
    for g in (1, 2, 3):
        vectors = list(F2Vector.all_vectors(2 * g))
        reference = {f2_sw_map(x, y) for x in vectors for y in vectors}
        assert f2_image_scan(g) == reference


def test_scan_g4_and_g5_exhaustive_miss_only_zero_one():
    for g, size in ((4, 511), (5, 2047)):
        image = f2_image_scan(g)
        two_g = 2 * g
        universe = {(v, w) for v in F2Vector.all_vectors(two_g)
                    for w in (0, 1)}
        assert universe - image == {(F2Vector.zero(two_g), 1)}
        assert len(image) == size


def _packed_image(g):
    """Reference: every pair (x, y) enumerated on ints whose binary form,
    padded to 2g digits, is the bitstring; w1 = x ^ y, and w2 is the
    parity of (x with its halves swapped) AND y."""
    two_g, low = 2 * g, (1 << g) - 1
    found = set()
    for x in range(1 << two_g):
        x_swapped = (x & low) << g | x >> g
        found.update((x ^ y, bin(x_swapped & y).count("1") & 1)
                     for y in range(1 << two_g))
    return {(F2Vector.from_string(format(w1, "0%db" % two_g)), w2)
            for w1, w2 in found}


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_scan_matches_packed_enumeration(g):
    assert f2_image_scan(g) == _packed_image(g)


def test_scan_budget():
    image = f2_image_scan(7)
    universe = {(v, w) for v in F2Vector.all_vectors(14) for w in (0, 1)}
    assert universe - image == {(F2Vector.zero(14), 1)}
    assert len(image) == 2 ** 15 - 1
    with pytest.raises(ScanBudgetExceeded):
        f2_image_scan(8)


def test_scan_rejects_non_exhaustive():
    with pytest.raises(ValueError):
        f2_image_scan(2, exhaustive=False)


def test_scan_rejects_a_non_alternating_pairing(monkeypatch):
    monkeypatch.setattr(F2Vector, "pairing", lambda x, y: 1)
    with pytest.raises(ArithmeticError) as info:
        f2_image_scan(2)
    assert str(info.value) == "the mod-2 pairing is not alternating"


def test_scan_rejects_a_witness_that_misses_its_class(monkeypatch):
    # every witness becomes the pair for (w1, 0), so (w1, 1) is missed
    realizing = moduli._pair_realizing
    monkeypatch.setattr(moduli, "_pair_realizing", lambda w1, w2: realizing(w1, 0))
    with pytest.raises(ArithmeticError) as info:
        f2_image_scan(2)
    assert str(info.value) == "a witness pair misses its class"


# -- datum builders ---------------------------------------------------------------------


@pytest.mark.parametrize("g", [2, 3, 4])
def test_builders_make_valid_data(g):
    """Every diagonal shape for c in [0, 2g-2] and every maximal rank-1
    datum, at every spin, is valid and gets a stability verdict, and
    carries the invariant or root label it was built with."""
    ctx = CurveCtx(g)
    spins = list(F2Vector.all_vectors(ctx.two_g))
    for spin in spins:
        for c in range(ctx.deg_k + 1):
            d = diagonal_shape(ctx, c, spin)
            assert isinstance(sh.stability_report(ctx, d), sh.StabilityReport)
            assert d.c_invariant(ctx) == c
        r = max_sl2(ctx, spin)
        assert isinstance(sh.stability_report(ctx, r), sh.StabilityReport)
        assert sh.higgs._root_of_k_label(r.L) == spin
    labels = [ctx.zero_torsion()] + [e(ctx, k) for k in range(ctx.two_g)]
    for t1 in labels:
        for t2 in labels:
            torsion_split(ctx, t1, t2, 1, 2).validate(ctx)


# -- higher-rank witnesses --------------------------------------------------------------


def test_witness_plain_invariants():
    w1 = e(CTX3, 1) + e(CTX3, 4)
    for w2 in (0, 1):
        datum = sp2n_reduction_witness(CTX3, 3, w1, w2)
        inv = sw_invariants(CTX3, datum)
        assert inv.w1 == w1 and inv.w2 == w2
        assert toledo(CTX3, datum) == 3 * (CTX3.genus - 1)
        assert stability_sp4(CTX3, datum) == Stability.STRICTLY_POLYSTABLE


def test_witness_zero_zero():
    datum = sp2n_reduction_witness(CTX3, 3, CTX3.zero_torsion(), 0)
    inv = sw_invariants(CTX3, datum)
    assert inv.w1.is_zero and inv.w2 == 0


def test_witness_zero_one_uses_rank2_piece():
    for ctx in (CTX2, CTX3):
        datum = sp2n_reduction_witness(ctx, 3, ctx.zero_torsion(), 1)
        inv = sw_invariants(ctx, datum)
        assert inv.w1.is_zero and inv.w2 == 1
        assert toledo(ctx, datum) == 3 * (ctx.genus - 1)
        assert stability_sp4(ctx, datum) == Stability.STRICTLY_POLYSTABLE


def test_witness_every_invariant_pair_reducible():
    # every rank-3 maximal class has a strictly polystable product witness
    for v in F2Vector.all_vectors(CTX2.two_g):
        for w2 in (0, 1):
            datum = sp2n_reduction_witness(CTX2, 3, v, w2)
            inv = sw_invariants(CTX2, datum)
            assert (inv.w1, inv.w2) == (v, w2)
            assert stability_sp4(CTX2, datum).is_polystable


def test_witness_needs_n_at_least_3():
    with pytest.raises(ValueError):
        sp2n_reduction_witness(CTX2, 2, CTX2.zero_torsion(), 0)


# (call, exception, exact message) of the argument guards
GUARDS = {
    "scan-genus-0": (lambda: f2_image_scan(0), ValueError, "genus must be at least 1"),
    "pair-realizing-0-1": (lambda: moduli._pair_realizing(F2Vector.zero(4), 1),
                           ValueError, "(0, 1) is not realized by any pair"),
    "witness-w2": (lambda: sp2n_reduction_witness(CTX2, 3, CTX2.zero_torsion(), 2),
                   ValueError, "w2 must be 0 or 1"),
    # the label, n and w2 are checked before any bundle algebra runs
    "witness-w1-length": (lambda: sp2n_reduction_witness(CTX3, 3, F2Vector.unit(4, 0), 0),
                          ValueError, "w1 has length 4, expected 6"),
    "witness-n-float": (lambda: sp2n_reduction_witness(CTX3, 3.0, e(CTX3, 0), 0),
                        TypeError, "n 3.0 is not an int"),
    "witness-w2-bool": (lambda: sp2n_reduction_witness(CTX3, 3, e(CTX3, 0), True),
                        TypeError, "w2 True is not an int"),
    "sp2n-count-n-float": (lambda: count_components_sp2n(CTX3, 3.5),
                           TypeError, "n 3.5 is not an int"),
    "witness-w1-list": (lambda: sp2n_reduction_witness(CTX3, 3, [1, 0, 0, 0, 0, 0], 0),
                        TypeError, "w1 [1, 0, 0, 0, 0, 0] is not of type F2Vector"),
    # the builders check their label before any bundle algebra, which
    # would only say "length mismatch"
    "diagonal-spin-length": (lambda: diagonal_shape(CTX3, 1, F2Vector.unit(4, 0)),
                             ValueError, "spin has length 4, expected 6"),
    "max-sl2-spin-length": (lambda: max_sl2(CTX3, F2Vector.unit(4, 0)),
                            ValueError, "spin has length 4, expected 6"),
    "sl2r-L-torsion-length": (
        lambda: moduli.sl2r_datum(CTX3, sh.LineBundleClass.half_canonical(CTX2)),
        ValueError, "L torsion has length 4, expected 6"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_messages(name):
    call, exc, message = GUARDS[name]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
