"""Shared constructors for test data.  The shapes' own builders are the
library's (``sp4higgs.moduli``); these are one-line wrappers for the two
forms the tests use that the library does not build."""

from fractions import Fraction

import sp4higgs as sh


def cover_shape(ctx, w1=None, w2=0, beta=False):
    """Connected-cover shape, w1 the first unit label by default."""
    return sh.CoverOrthShape(sh.F2Vector.unit(ctx.two_g, 0) if w1 is None else w1, w2, beta)


def sl2_of_degree(ctx, d, beta=0, gamma=0, torsion=None):
    """Rank-1 datum with deg L = d, L encoded as O(d) times torsion."""
    t = ctx.zero_torsion() if torsion is None else torsion
    return sh.sl2r_datum(ctx, sh.LineBundleClass(Fraction(0), d, t), beta, gamma)


def dense_elem(rng, bound=9):
    """A field element whose 8 coordinates are all nonzero, over mixed
    denominators up to ``bound``."""
    return sh.FieldElem([Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                                  rng.randint(1, bound)) for _ in range(8)])
