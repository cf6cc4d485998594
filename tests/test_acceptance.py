"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact (field equality) except the explicit runtime caps.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction

import sp4higgs as sh
from sp4higgs import (
    CurveCtx, F2Vector, Hitchin, Stability, Subgroup, SW, ZeroSW,
    diagonal_shape, max_sl2, torsion_split,
)
from sp4higgs.liegroup import (
    GOLDEN_E_MINUS_F, GOLDEN_E_PLUS_F, GOLDEN_H0, gl1_torus,
    normalizer_witness_check, phi, phi_star, rho1, rho13, s_conjugate, sl2,
)
from sp4higgs.matalg import (
    H_PERM, J12, J13, SqMatrix, conjugate, is_symplectic, kron,
)
from sp4higgs.numfield import ONE, fe

from builders import cover_shape, sl2_of_degree


def ok(num, slug):
    print("[acceptance] criterion %02d (%s): PASS" % (num, slug))


def rand_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_sl2_bounded(rng, entry_bound=1000):
    """Random determinant-1 matrix with every entry's numerator and
    denominator bounded by ``entry_bound`` in absolute value."""
    while True:
        a = rand_fraction(rng, 9)
        if a == 0:
            continue
        b, c = rand_fraction(rng, 9), rand_fraction(rng, 9)
        d = (1 + b * c) / a
        entries = (a, b, c, d)
        if all(abs(x.numerator) <= entry_bound and x.denominator <= entry_bound
               for x in entries):
            return sl2(a, b, c, d)


def test_criterion_01_symplecticity_of_rho13():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(100):
        a = rand_sl2_bounded(rng)
        assert is_symplectic(rho13(a), J13)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "took %.2fs" % elapsed
    ok(1, "rho13 symplecticity, 100 samples in %.2fs" % elapsed)


def test_criterion_02_golden_differentials():
    e = SqMatrix([[0, 1], [0, 0]])
    f = SqMatrix([[0, 0], [1, 0]])
    h0 = SqMatrix([[1, 0], [0, -1]])
    assert phi_star(e - f) == GOLDEN_E_MINUS_F
    assert phi_star(e + f) == GOLDEN_E_PLUS_F
    assert phi_star(h0) == GOLDEN_H0
    ok(2, "three golden differential matrices reproduced exactly")


def test_criterion_03_s_conjugation():
    rng = random.Random(103)
    for _ in range(20):
        beta = rand_fraction(rng, 50)
        gamma = rand_fraction(rng, 50)
        if gamma == 0:
            gamma = Fraction(3)
        got = s_conjugate(beta, gamma)
        r = fe(beta) / fe(gamma)
        want = SqMatrix([
            [0, 0, 16 * r * r, 5 * r],
            [0, 0, 5 * r, ONE],
            [0, ONE, 0, 0],
            [ONE, 0, 0, 0]]).scale(fe(gamma))
        assert got == want
    ok(3, "S-conjugation normal form, 20 random (beta, gamma)")


def test_criterion_04_phi_on_the_torus():
    rng = random.Random(104)
    lams = set()
    while len(lams) < 20:
        lam = rand_fraction(rng, 12)
        if lam != 0:
            lams.add(lam)
    for lam in lams:
        lf = fe(lam)
        assert phi(gl1_torus(lam)) == SqMatrix.diag(
            lf ** 3, lf ** -1, lf ** -3, lf)
    ok(4, "phi diagonalizes the torus, 20 rational parameters")


def test_criterion_05_component_counts():
    c2 = sh.count_components(CurveCtx(2))
    assert c2.total == 48 and c2.rep_variety_total == 99
    assert sh.count_components(CurveCtx(3)).total == 194
    for n in (3, 4, 7):
        assert sh.count_components_sp2n(CurveCtx(2), n) == 48
    for g in range(2, 11):
        c = sh.count_components(CurveCtx(g))
        assert c.sw + c.zero_sw + c.hitchin == c.total
        assert (c.grouped_hitchin + c.grouped_gdelta_gp
                + c.grouped_zariski_dense) == c.total
        assert c.total == 3 * 2 ** (2 * g) + 2 * g - 4
    ok(5, "counts: 48/99 at g=2, 194 at g=3, rank-n 48, breakdowns to g=10")


def test_criterion_06_f2_scan_exhaustive():
    start = time.monotonic()
    for g in (1, 2, 3):
        image = sh.f2_image_scan(g)
        two_g = 2 * g
        universe = {(v, w) for v in F2Vector.all_vectors(two_g)
                    for w in (0, 1)}
        assert universe - image == {(F2Vector.zero(two_g), 1)}
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    ok(6, "mod-2 scan misses exactly (0,1) for g=1,2,3 in %.2fs" % elapsed)


def test_criterion_07_stability_table():
    ctx = CurveCtx(3)
    t0 = F2Vector.unit(ctx.two_g, 0)
    t1 = F2Vector.unit(ctx.two_g, 1)
    cases = [
        (diagonal_shape(ctx, 2, b2=1), Stability.STABLE),
        (diagonal_shape(ctx, 2, b2=0), Stability.UNSTABLE),
        (diagonal_shape(ctx, 0, b1=1, b2=1), Stability.STABLE),
        (diagonal_shape(ctx, 0, b1=0, b2=1), Stability.SEMISTABLE_NOT_POLY),
        (diagonal_shape(ctx, 0, b1=1, b2=0), Stability.SEMISTABLE_NOT_POLY),
        (diagonal_shape(ctx, 0, b1=0, b2=0), Stability.STRICTLY_POLYSTABLE),
        (cover_shape(ctx, w1=t0, w2=1), Stability.STABLE),
        (torsion_split(ctx, t0, t0), Stability.STRICTLY_POLYSTABLE),
        (torsion_split(ctx, t0, t1), Stability.STABLE),
    ]
    for datum, expected in cases:
        assert sh.stability_sp4(ctx, datum) == expected
    # the three rank-1 cases
    assert sh.stability_sl2(ctx, max_sl2(ctx, gamma=1)) == Stability.STABLE
    assert sh.stability_sl2(ctx, max_sl2(ctx, gamma=0)) == Stability.UNSTABLE
    assert sh.stability_sl2(
        ctx, sl2_of_degree(ctx, -(ctx.genus - 1), beta=1)) == Stability.STABLE
    assert sh.stability_sl2(
        ctx, sl2_of_degree(ctx, 0)) == Stability.STRICTLY_POLYSTABLE
    assert sh.stability_sl2(
        ctx, sl2_of_degree(ctx, 0, beta=1, gamma=1)) == Stability.STRICTLY_POLYSTABLE
    forced = sl2_of_degree(ctx, ctx.genus)  # gamma slot is empty
    assert sh.stability_sl2(ctx, forced) == Stability.UNSTABLE
    ok(7, "nine rank-2 cases and three rank-1 cases verdicts")


def test_criterion_08_normalizer_witness():
    rep = normalizer_witness_check()
    assert rep.det_value == ONE
    assert rep.normalizes_ok
    assert not rep.symplectic_for_j0
    ok(8, "swap witness: det 1, normalizes, fails the symplectic test")


def _generate_maximal_polystable(ctx):
    """Maximal polystable sample data covering every shape family."""
    two_g = ctx.two_g
    e = lambda k: F2Vector.unit(two_g, k)
    out = []
    # diagonal shapes for every invariant c
    for c in range(0, ctx.deg_k + 1):
        if c == 0:
            for b3 in (0, 1):
                out.append(diagonal_shape(ctx, 0, b1=0, b2=0, b3=b3))
                out.append(diagonal_shape(ctx, 0, b1=1, b2=1, b3=b3))
        elif c == ctx.deg_k:
            for spin in (ctx.zero_torsion(), e(0), e(1)):
                out.append(diagonal_shape(ctx, c, b1=0, b3=0, spin=spin))
                out.append(diagonal_shape(ctx, c, b1=1, b3=1, spin=spin))
        else:
            for b1 in (0, 1):
                for b3 in (0, 1):
                    out.append(diagonal_shape(ctx, c, b1=b1, b2=1, b3=b3))
    # connected-cover shapes
    w1s = [e(k) for k in range(min(4, two_g))] + [e(0) + e(1)]
    for w1 in w1s:
        for w2 in (0, 1):
            for beta in (False, True):
                out.append(cover_shape(ctx, w1=w1, w2=w2, beta=beta))
    # torsion-split shapes
    pairs = [(e(0), e(1)), (e(0), e(ctx.genus)), (e(1), e(1)),
             (ctx.zero_torsion(), e(0)), (e(0) + e(1), e(2))]
    for a, b in pairs:
        for b1, b2 in ((0, 0), (1, 1), (1, 0)):
            out.append(torsion_split(ctx, a, b, b1=b1, b2=b2))
    # irreducible images of maximal rank-1 data
    for spin in (ctx.zero_torsion(), e(0), e(1)):
        for bt in (0, 1):
            out.append(sh.irr_embed(ctx, max_sl2(ctx, spin, beta=bt)))
    # sums of two maximal rank-1 data
    for a, b in [(ctx.zero_torsion(), ctx.zero_torsion()),
                 (e(0), e(1)), (e(0), e(0)), (e(1), e(ctx.genus))]:
        out.append(sh.direct_sum(ctx, max_sl2(ctx, a), max_sl2(ctx, b)))
    return out


def test_criterion_09_checkers_never_contradict_verdicts():
    total = 0
    for g in (2, 3, 4):
        ctx = CurveCtx(g)
        for datum in _generate_maximal_polystable(ctx):
            total += 1
            assert sh.is_maximal(ctx, datum)
            assert sh.stability_sp4(ctx, datum).is_polystable
            label = sh.classify(ctx, datum)
            verdict = sh.reduction_verdict(label)
            if sh.gdelta_reduction_check(ctx, datum):
                assert Subgroup.G_DELTA in verdict.admits
            if sh.gp_reduction_check(ctx, datum):
                assert Subgroup.G_P in verdict.admits
            if sh.sl2xsl2_reduction_check(ctx, datum):
                assert Subgroup.G_P in verdict.admits
            if isinstance(label, ZeroSW) and 0 < label.c < ctx.deg_k:
                assert verdict.admits == frozenset()
                assert verdict.zariski_dense_component
            if isinstance(datum, sh.IrreducibleImage):
                assert isinstance(label, Hitchin)
                assert verdict.admits == {Subgroup.G_I}
    assert total >= 200
    ok(9, "no checker/verdict contradiction on %d maximal data" % total)


def test_criterion_10_fiber_identity_and_quotient():
    for g in range(3, 51):
        ctx = CurveCtx(g)
        for c in range(1, g - 1):
            geom = sh.fiber_geometry(ctx, c)
            assert geom.base_dim + geom.r + geom.s + geom.extra == 10 * g - 10
    rng = random.Random(110)
    count = 0
    for _ in range(50):
        z = [rand_fraction(rng, 6) for _ in range(5)]
        w = [rand_fraction(rng, 6) for _ in range(4)]
        if all(x == 0 for x in w):
            w[0] = Fraction(1)
        assert sh.quotient_roundtrip(z, w)
        count += 1
        t2 = rand_fraction(rng, 6)
        if t2 == 0:
            t2 = Fraction(4)
        assert sh.quotient_roundtrip([t2 * x for x in z], [x / t2 for x in w])
        count += 1
    assert count == 100
    ok(10, "dimension identity to g=50; 100 quotient roundtrips")


def test_criterion_11_irreducible_embedding():
    for g in (2, 3, 4):
        ctx = CurveCtx(g)
        for d in range(1, g):
            if d == g - 1:
                base = max_sl2(ctx, F2Vector.unit(ctx.two_g, 1))
            else:
                base = sl2_of_degree(ctx, d, gamma=1)
            img = sh.irr_embed(ctx, base)
            assert sh.stability_sp4(ctx, img) == Stability.STABLE
            assert sh.toledo(ctx, img) == 2 * d
            if d == g - 1:
                assert sh.classify(ctx, img) == Hitchin(base.L.torsion)
    ok(11, "irreducible embedding: stability, degree doubling, spin label")


def test_criterion_12_kron_appendix_identities():
    rng = random.Random(112)
    for _ in range(100):
        a, b, c, d = (SqMatrix([[rand_fraction(rng, 9) for _ in range(2)]
                                for _ in range(2)]) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
        assert kron(a, b).T == kron(a.T, b.T)
        assert kron(a, b) == H_PERM * kron(b, a) * H_PERM
    assert H_PERM * J12 == J13 * H_PERM
    ok(12, "kron mixed-product, transpose, swap-conjugation, form relation")
