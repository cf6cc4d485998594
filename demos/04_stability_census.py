"""Maximal shapes, stability verdicts and topological invariants.

A maximal rank-2 datum is one of three explicit shapes: the diagonal
shape N + N^-1 K, the connected-cover orthogonal shape, or a split into
two 2-torsion twists of a square root of K.  Stability is decided by
which field entries vanish; the invariants (w1, w2 or the integer lift
c) come from the orthogonal Cayley partner.
"""

from sp4higgs import (
    CurveCtx, F2Vector, cayley_partner, diagonal_shape, h0, milnor_wood,
    stability_report, sw_invariants, torsion_split,
)

ctx = CurveCtx(3)
print("genus:", ctx.genus, " canonical degree:", ctx.deg_k)
print("Toledo bound: |d| <=", ctx.deg_k,
      " (3 in bounds:", milnor_wood(ctx, 3), ")")

print()
print("== section-space dimensions ==")
d1 = diagonal_shape(ctx, 1)  # the slot bundles of the c = 1 diagonal shape
print("h0(K^2)       =", h0(ctx, d1.beta3.bundle))
print("h0(N^2 K)     =", h0(ctx, d1.beta1.bundle))
print("h0(N^-2 K^3)  =", h0(ctx, d1.beta2.bundle))

print()
print("== the stability table on the diagonal shape ==")
for c, b1, b2 in [(2, 0, 1), (2, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 0)]:
    rep = stability_report(ctx, diagonal_shape(ctx, c, b1=b1, b2=b2))
    print("c=%d beta1=%d beta2=%d -> %-22s [%s]"
          % (c, b1, b2, rep.verdict.value, rep.clause))

print()
print("== Cayley partner and invariants ==")
d0 = diagonal_shape(ctx, 0, b2=0)
cp = cayley_partner(ctx, d0)
print("c = 0 shape: Cayley case:", type(cp).__name__,
      " deg L:", cp.L.degree(ctx), " theta:", cp.theta_present)
print("invariants:", sw_invariants(ctx, d0))

print()
print("== a torsion split and its mod-2 invariants ==")
t1 = F2Vector.unit(ctx.two_g, 0)
t2 = F2Vector.unit(ctx.two_g, ctx.genus)  # the dual cycle: pairing 1
inv = sw_invariants(ctx, torsion_split(ctx, t1, t2))
print("w1 =", inv.w1, " w2 =", inv.w2, " (cup product of the labels)")
