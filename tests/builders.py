"""Shared constructors for test data."""

from fractions import Fraction

import sp4higgs as sh


def slot(ctx, bundle, value=0, coeffs=None, override=None):
    """Section slot of the right dimension; ``value`` goes in the first
    coordinate.  Bundles with bundle-dependent section spaces get an
    explicit one-dimensional override (the generic-bundle convention
    used throughout the tests)."""
    try:
        dim = override if override is not None else sh.h0(ctx, bundle)
    except sh.RequiresExplicitH0:
        dim, override = 1, 1
    if coeffs is None:
        coeffs = ((value,) + (0,) * dim)[:dim]
    return sh.SectionSlot(bundle, tuple(coeffs), override)


def diagonal_shape(ctx, c, b1=0, b2=1, b3=0, torsion=None):
    """Diagonal shape with invariant c (deg N = c + g - 1).

    At c = 2g-2 the bundle N is encoded as the cube of a square root of
    K, which is forced there; beta2 then lives in a one-dimensional
    space and defaults to the unit section.
    """
    t = torsion if torsion is not None else ctx.zero_torsion()
    k = sh.LineBundleClass.canonical(ctx)
    if c == ctx.deg_k:
        n = sh.LineBundleClass(Fraction(3, 2), 0, t)
    else:
        n = sh.LineBundleClass(Fraction(1, 2), c, t)
    return sh.DiagonalShape(
        N=n,
        beta1=slot(ctx, n.power(2) * k, b1),
        beta2=slot(ctx, n.power(-2) * k.power(3), b2),
        beta3=slot(ctx, k.power(2), b3))


def cover_shape(ctx, w1=None, w2=0, beta=False):
    if w1 is None:
        w1 = sh.F2Vector.unit(ctx.two_g, 0)
    return sh.CoverOrthShape(w1=w1, w2=w2, beta_present=beta)


def torsion_split(ctx, t1, t2, b1=0, b2=0):
    k2 = sh.LineBundleClass.canonical(ctx, 2)
    return sh.TorsionSplitShape(
        t1=t1, t2=t2,
        beta1=slot(ctx, k2, b1),
        beta2=slot(ctx, k2, b2))


def max_sl2(ctx, torsion=None, beta=0, gamma=1):
    """Maximal rank-1 datum on a square root of K."""
    l = sh.LineBundleClass.half_canonical(ctx, torsion)
    k = sh.LineBundleClass.canonical(ctx)
    return sh.SL2RDatum(
        L=l,
        beta=slot(ctx, l.power(2) * k, beta),
        gamma=slot(ctx, l.power(-2) * k, gamma))


def sl2_of_degree(ctx, d, beta=0, gamma=0, torsion=None):
    """Rank-1 datum with deg L = d, L encoded as O(d) times torsion."""
    t = torsion if torsion is not None else ctx.zero_torsion()
    l = sh.LineBundleClass(Fraction(0), d, t)
    k = sh.LineBundleClass.canonical(ctx)
    return sh.SL2RDatum(
        L=l,
        beta=slot(ctx, l.power(2) * k, beta),
        gamma=slot(ctx, l.power(-2) * k, gamma))


def dense_elem(rng, bound=9):
    """A field element whose 8 coordinates are all nonzero, over mixed
    denominators up to ``bound``."""
    return sh.FieldElem([Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                                  rng.randint(1, bound)) for _ in range(8)])
