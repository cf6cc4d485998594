"""Connected components, deformation verdicts and the census.

Each maximal polystable datum classifies into a Hitchin component (one
per square root of K), an intermediate component with integer invariant
c, or a component labeled by nonzero (w1, w2).  The verdict of the
classification: Hitchin components deform into the irreducible SL(2);
the (w1, w2) components and the c = 0 component deform into both the
product and diagonal subgroups; the 2g-3 intermediate components deform
into nothing proper, so their representations are Zariski-dense.
"""

from sp4higgs import (
    CurveCtx, F2Vector, classify, count_components, count_components_sp2n,
    direct_sum, f2_image_scan, fiber_geometry, irr_embed, max_sl2,
    reduction_verdict, sp2n_reduction_witness, stability_sp4, sw_invariants,
    toledo,
)

ctx = CurveCtx(3)


print("== the census ==")
for g in (2, 3, 4):
    c = count_components(CurveCtx(g))
    print("g=%d: %d components (%d + %d + %d); representation variety: %d"
          % (g, c.total, c.sw, c.zero_sw, c.hitchin, c.rep_variety_total))
print("rank-n, n >= 3, g=2:", count_components_sp2n(CurveCtx(2), 3))

print()
print("== classify an irreducible image ==")
spin = F2Vector.unit(ctx.two_g, 1)
img = irr_embed(ctx, max_sl2(ctx, spin))
label = classify(ctx, img)
verdict = reduction_verdict(label)
print("label  :", label)
print("admits :", sorted(s.value for s in verdict.admits))

print()
print("== classify a sum of two rank-1 pieces ==")
s = direct_sum(ctx, max_sl2(ctx, F2Vector.unit(ctx.two_g, 0)),
               max_sl2(ctx, F2Vector.unit(ctx.two_g, ctx.genus)))
label = classify(ctx, s)
verdict = reduction_verdict(label)
print("label  :", label)
print("admits :", sorted(sg.value for sg in verdict.admits),
      " zariski dense:", verdict.zariski_dense_component)

print()
print("== fiber geometry of an intermediate component ==")
geom = fiber_geometry(CurveCtx(4), 1)
print("g=4, c=1: r=%d, s=%d, total dimension %d" % (geom.r, geom.s,
                                                    geom.total_dim))

print()
print("== the mod-2 image scan ==")
image = f2_image_scan(2)
universe = {(v, w) for v in F2Vector.all_vectors(4) for w in (0, 1)}
print("g=2: image size %d of %d; missing: %s"
      % (len(image), len(universe),
         sorted((v.to_string(), w) for v, w in universe - image)))

print()
print("== a higher-rank witness ==")
w = sp2n_reduction_witness(ctx, 3, F2Vector.unit(ctx.two_g, 0), 1)
inv = sw_invariants(ctx, w)
print("n=3 witness: toledo %d, w1 %s, w2 %d, stability %s"
      % (toledo(ctx, w), inv.w1, inv.w2, stability_sp4(ctx, w).value))
