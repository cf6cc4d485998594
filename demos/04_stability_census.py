"""Maximal shapes, stability verdicts and topological invariants.

A maximal rank-2 datum is one of three explicit shapes: the diagonal
shape N + N^-1 K, the connected-cover orthogonal shape, or a split into
two 2-torsion twists of a square root of K.  Stability is decided by
which field entries vanish; the invariants (w1, w2 or the integer lift
c) come from the orthogonal Cayley partner.
"""

from fractions import Fraction

from sp4higgs import (
    CurveCtx, F2Vector, LineBundleClass, SectionSlot, DiagonalShape,
    RequiresExplicitH0, cayley_partner, h0, milnor_wood, stability_report,
    sw_invariants,
)

ctx = CurveCtx(3)
print("genus:", ctx.genus, " canonical degree:", ctx.deg_k)
print("Toledo bound: |d| <=", ctx.deg_k,
      " (3 in bounds:", milnor_wood(ctx, 3), ")")

print()
print("== section-space dimensions ==")
K = LineBundleClass.canonical(ctx)
N = LineBundleClass(Fraction(1, 2), 1, ctx.zero_torsion())  # c = 1
print("h0(K^2)       =", h0(ctx, K.power(2)))
print("h0(N^2 K)     =", h0(ctx, N.power(2) * K))
print("h0(N^-2 K^3)  =", h0(ctx, N.power(-2) * K.power(3)))

print()
print("== the stability table on the diagonal shape ==")


def diag(c, b1, b2, b3=0):
    if c == ctx.deg_k:
        n = LineBundleClass(Fraction(3, 2), 0, ctx.zero_torsion())
    else:
        n = LineBundleClass(Fraction(1, 2), c, ctx.zero_torsion())

    def slot(bundle, v):
        try:
            dim = h0(ctx, bundle)
            override = None
        except RequiresExplicitH0:
            dim, override = 1, 1
        coeffs = ((v,) + (0,) * dim)[:dim]
        return SectionSlot(bundle, coeffs, override)

    return DiagonalShape(n, slot(n.power(2) * K, b1),
                         slot(n.power(-2) * K.power(3), b2),
                         slot(K.power(2), b3))


for c, b1, b2 in [(2, 0, 1), (2, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 0)]:
    rep = stability_report(ctx, diag(c, b1, b2))
    print("c=%d beta1=%d beta2=%d -> %-22s [%s]"
          % (c, b1, b2, rep.verdict.value, rep.clause))

print()
print("== Cayley partner and invariants ==")
d0 = diag(0, 0, 0)
cp = cayley_partner(ctx, d0)
print("c = 0 shape: Cayley case:", type(cp).__name__,
      " deg L:", cp.L.degree(ctx), " theta:", cp.theta_present)
print("invariants:", sw_invariants(ctx, d0))

print()
print("== a torsion split and its mod-2 invariants ==")
from sp4higgs import TorsionSplitShape  # noqa: E402

t1 = F2Vector.unit(ctx.two_g, 0)
t2 = F2Vector.unit(ctx.two_g, ctx.genus)  # the dual cycle: pairing 1
k2 = K.power(2)
zero = SectionSlot(k2, (0,) * h0(ctx, k2))
split = TorsionSplitShape(t1, t2, zero, zero)
inv = sw_invariants(ctx, split)
print("w1 =", inv.w1, " w2 =", inv.w2, " (cup product of the labels)")
