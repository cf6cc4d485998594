"""Component-level classification of the maximal moduli space.

Maps a maximal polystable datum to its connected component, decides
which proper reductive subgroups the component's points can be deformed
into, evaluates the component-counting formulas, describes the fiber
geometry of the intermediate components, and certifies that every
invariant pair except (0, 1) arises from sums of two rank-1 pieces,
through the same witness pairs that build the rank-n witnesses.

It also holds the datum builders, one per slot rule of the shapes:
``diagonal_shape``, ``torsion_split``, ``sl2r_datum`` on a given L and
``max_sl2`` on a square root of K.  Each slot argument is the slot's
leading coefficient, and a slot whose h0 depends on the bundle, not only
on its degree, gets the one-dimensional override.  The rank-n witnesses
are built from them.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Sequence, Set, Tuple, Union

from ._record import Record
from .f2 import F2Vector
from .higgs import (
    CurveCtx, DiagonalShape, DirectSum, HiggsDatum, LineBundleClass,
    NotPolystable, OutOfClassifiedRange, SectionSlot, SL2RDatum, TorsionSplitShape,
    _check_label, _determined_h0, _require_maximal_polystable,
)
from .numfield import ONE, ZERO, fe

__all__ = [
    "ScanBudgetExceeded",
    "Subgroup",
    "Hitchin",
    "ZeroSW",
    "SW",
    "ComponentLabel",
    "ReductionVerdict",
    "ComponentCount",
    "FiberGeometry",
    "classify",
    "reduction_verdict",
    "count_components",
    "count_components_sp2n",
    "fiber_geometry",
    "quotient_roundtrip",
    "f2_sw_map",
    "f2_image_scan",
    "sp2n_reduction_witness",
    "diagonal_shape",
    "torsion_split",
    "sl2r_datum",
    "max_sl2",
]


class ScanBudgetExceeded(ValueError):
    """Exhaustive enumeration was requested beyond the supported genus."""


# the largest genus whose `f2-scan` run as a subprocess stays under one
# second, acceptance criterion 6's cap: on an Intel Xeon core under
# CPython 3.11, genus 7 takes about 0.55 s and genus 8 about 1.3 s
MAX_SCAN_GENUS = 7


class Subgroup(enum.Enum):
    G_I = "G_i"
    G_P = "G_p"
    G_DELTA = "G_Delta"


# -- component labels ----------------------------------------------------------

_PRODUCT_AND_DIAGONAL = frozenset({Subgroup.G_DELTA, Subgroup.G_P})


class Hitchin(Record):
    """One of the 2^(2g) distinguished components, labeled by the spin
    structure (square root of K) relative to the base root.  Admits
    only the irreducible subgroup."""

    spin: F2Vector

    def admits(self) -> FrozenSet[Subgroup]:
        return frozenset({Subgroup.G_I})


class ZeroSW(Record):
    """Component with w1 = 0 and integer lift c, 0 <= c < 2g-2.  The
    c = 0 component admits the product and diagonal subgroups; the
    intermediate ones admit nothing."""

    c: int

    def admits(self) -> FrozenSet[Subgroup]:
        return _PRODUCT_AND_DIAGONAL if self.c == 0 else frozenset()


class SW(Record):
    """Component labeled by (w1, w2) with w1 != 0.  Admits the product
    and diagonal subgroups."""

    w1: F2Vector
    w2: int

    def __post_init__(self):
        if self.w1.is_zero:
            raise ValueError("SW labels need nonzero w1")

    def admits(self) -> FrozenSet[Subgroup]:
        return _PRODUCT_AND_DIAGONAL


ComponentLabel = Union[Hitchin, ZeroSW, SW]


def classify(ctx: CurveCtx, datum: HiggsDatum) -> ComponentLabel:
    """Connected component of a maximal polystable datum."""
    datum = _require_maximal_polystable(ctx, datum)
    inv = datum.sw(ctx)
    if not inv.w1.is_zero:
        return SW(inv.w1, inv.w2)
    if inv.c is None:
        raise NotPolystable("cannot classify: no integer lift for w1 = 0")
    if inv.c == ctx.deg_k:
        return Hitchin(datum.hitchin_spin(ctx))
    return ZeroSW(inv.c)


class ReductionVerdict(Record):
    """Subgroups the component's data can be deformed into; the
    component is Zariski-dense exactly when the set is empty."""

    admits: FrozenSet[Subgroup]
    zariski_dense_component: bool

    def __post_init__(self):
        if self.zariski_dense_component != (not self.admits):
            raise ValueError("zariski_dense_component must mirror emptiness")


def reduction_verdict(label: ComponentLabel) -> ReductionVerdict:
    """The deformation verdict of the main classification:
    Hitchin components admit only the irreducible subgroup; the w1 != 0
    components and the c = 0 component admit both the product and
    diagonal subgroups; the intermediate 0 < c < 2g-2 components admit
    nothing."""
    admits = label.admits()
    return ReductionVerdict(admits, not admits)


# -- counting --------------------------------------------------------------------


class ComponentCount(Record):
    """The three-way census of maximal components and its cross-checks.

    sw + zero_sw + hitchin = total = 3*4^g + 2g - 4, and the alternative
    grouping (hitchin / components admitting the product and diagonal
    subgroups / Zariski-dense components) gives the same total.  The
    full representation variety has rep_variety_total components.
    """

    genus: int
    sw: int
    zero_sw: int
    hitchin: int
    total: int
    rep_variety_total: int
    grouped_hitchin: int
    grouped_gdelta_gp: int
    grouped_zariski_dense: int


def count_components(ctx: CurveCtx) -> ComponentCount:
    g = ctx.genus
    two_pow = 2 ** (2 * g)
    sw = 2 * (two_pow - 1)
    zero_sw = 2 * g - 2
    hitchin = two_pow
    total = 3 * two_pow + 2 * g - 4
    assert sw + zero_sw + hitchin == total
    grouped = (two_pow, 2 * two_pow - 1, 2 * g - 3)
    assert sum(grouped) == total
    rep_total = 3 * 2 ** (2 * g + 1) + 8 * g - 13
    return ComponentCount(
        genus=g, sw=sw, zero_sw=zero_sw, hitchin=hitchin, total=total,
        rep_variety_total=rep_total,
        grouped_hitchin=grouped[0],
        grouped_gdelta_gp=grouped[1],
        grouped_zariski_dense=grouped[2])


def count_components_sp2n(ctx: CurveCtx, n: int) -> int:
    """Number of maximal components for the rank-n symplectic group with
    n >= 3: always 3 * 2^(2g), independent of n."""
    _check_rank(n)
    return 3 * 2 ** (2 * ctx.genus)


def _check_rank(n: int):
    """The rank n of a higher-rank symplectic group is an exact int >= 3."""
    if type(n) is not int:
        raise TypeError("n %r is not an int" % (n,))
    if n < 3:
        raise ValueError("n must be at least 3")


# -- fiber geometry of the intermediate components --------------------------------


class FiberGeometry(Record):
    """Fiber data of the component with invariant c over the Jacobian:
    a rank-r twisted bundle over P^s times an affine factor."""

    c: int
    r: int
    s: int
    base_dim: int
    extra: int

    def __post_init__(self):
        if self.total_dim != 10 * (self.base_dim - 1):
            raise ValueError("dimension identity failed")

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.r + self.s + self.extra


def fiber_geometry(ctx: CurveCtx, c: int) -> FiberGeometry:
    """r = 2c + 3g - 3 and s = 3g - 4 - 2c for 0 < c < g-1; the total
    dimension is always 10g - 10.  Outside that range the fiber
    dimension is not constant and no formula applies."""
    g = ctx.genus
    if not 0 < c < g - 1:
        raise OutOfClassifiedRange(
            "fiber formulas hold for 0 < c < g-1, got c = %d" % c)
    return FiberGeometry(c=c, r=2 * c + 3 * g - 3, s=3 * g - 4 - 2 * c,
                         base_dim=g, extra=3 * g - 3)


def quotient_roundtrip(z: Sequence, w: Sequence) -> bool:
    """Round-trip of the scaling quotient through its section variety.

    The class of (z, w) under t.(z, w) = (t^2 z, t^-2 w) maps to
    ([w], (z_1 w, ..., z_r w)); the inverse takes the line's normalized
    representative w' = w / w_p (w_p its first nonzero coordinate) and
    reads each z'_i off as the coefficient of z_i w on w'.  Returns True
    iff the recovered pair (z', w') lies in the orbit of (z, w).
    """
    z = [fe(x) for x in z]
    w = [fe(x) for x in w]
    if all(x.is_zero for x in w):
        raise ValueError("w must be nonzero")
    images = [tuple(zi * wj for wj in w) for zi in z]
    pivot = next(k for k, x in enumerate(w) if not x.is_zero)
    w_prime = [x / w[pivot] for x in w]
    z_prime = [vec[pivot] for vec in images]  # w'[pivot] = 1
    return _same_orbit(z, w, z_prime, w_prime)


def _same_orbit(z, w, z_prime, w_prime) -> bool:
    """Whether one scalar s has w' = s w and z' = s^-1 z; w is nonzero
    and each primed vector has the length of its unprimed one."""
    pivot = next(k for k, x in enumerate(w) if not x.is_zero)
    s = w_prime[pivot] / w[pivot]
    if s.is_zero:
        return False
    s_inv = s.inv()
    return (all((a - s * b).is_zero for a, b in zip(w_prime, w))
            and all((a - s_inv * b).is_zero for a, b in zip(z_prime, z)))


# -- mod-2 invariant arithmetic -----------------------------------------------------


def f2_sw_map(x: F2Vector, y: F2Vector) -> Tuple[F2Vector, int]:
    """Total invariant of a sum of two torsion pieces: (x + y, <x, y>)."""
    return (x + y, x.pairing(y))


def f2_image_scan(genus: int,
                  exhaustive: bool = True) -> Set[Tuple[F2Vector, int]]:
    """Image of the pair-sum map over all (x, y) in F2^(2g) x F2^(2g).

    Certified rather than enumerated, in O(g 4^g): w1 = x + y = 0 forces
    y = x, so checking <x, x> = 0 for every x shows that (0, 1) is not
    in the image, and every other (w1, w2) is shown to be in it by the
    witness pair of _pair_realizing, whose image is checked to be the
    2^(2g+1) - 1 distinct classes.  Supported for genus <= MAX_SCAN_GENUS;
    larger genera raise ScanBudgetExceeded.  ``exhaustive`` is kept for
    compatibility and must stay True; False raises ValueError.
    """
    if not exhaustive:
        raise ValueError("only the exhaustive scan exists")
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if genus > MAX_SCAN_GENUS:
        raise ScanBudgetExceeded(
            "exhaustive scan supported for genus <= %d" % MAX_SCAN_GENUS)
    vectors = list(F2Vector.all_vectors(2 * genus))
    if any(x.pairing(x) for x in vectors):
        raise ArithmeticError("the mod-2 pairing is not alternating")
    image = {f2_sw_map(*_pair_realizing(w1, w2))
             for w1 in vectors for w2 in (0, 1)
             if not (w1.is_zero and w2)}
    if len(image) != 2 ** (2 * genus + 1) - 1:
        raise ArithmeticError("a witness pair misses its class")
    return image


# -- datum builders -----------------------------------------------------------------
#
# One builder per shape's slot rule, beside which only the shape's own
# validate states the slot bundles.  ctx is a CurveCtx, spin and the
# t's are F2^(2g) labels (spin None is the base root), and each slot
# argument (an int, Fraction or FieldElem) is the slot's leading
# coefficient: zero gives the zero section.


def _slot(ctx: CurveCtx, bundle: LineBundleClass, value) -> SectionSlot:
    """The section of ``bundle`` with ``value`` in the first coordinate
    and zeros after it.  Where h0 depends on the bundle, not only on its
    degree, the section space is taken one-dimensional through the
    override 1 (a generic bundle of that degree with one section)."""
    dim = _determined_h0(ctx, bundle)
    if dim is None:
        return SectionSlot(bundle, (value,), 1)
    return SectionSlot(bundle, (value,) + (ZERO,) * (dim - 1) if dim else ())


def _root(ctx: CurveCtx, spin) -> LineBundleClass:
    """The square root of K labeled ``spin`` (the base root when None),
    the label checked before any bundle algebra."""
    _check_label(ctx, "spin", ctx.zero_torsion() if spin is None else spin)
    return LineBundleClass.half_canonical(ctx, spin)


def diagonal_shape(ctx, c, spin=None, b1=ZERO, b2=ONE, b3=ZERO) -> DiagonalShape:
    """The diagonal shape with invariant c (deg N = c + g - 1): N is
    K^(1/2) O(c) times the label ``spin``, and at c = 2g-2 the cube of
    the square root of K labeled ``spin``, the form forced there."""
    r = _root(ctx, spin)
    n = r.power(3) if c == ctx.deg_k else LineBundleClass(r.k_power, c, r.torsion)
    k = LineBundleClass.canonical(ctx)
    return DiagonalShape(n, _slot(ctx, n.power(2) * k, b1),
                         _slot(ctx, n.power(-2) * k.power(3), b2),
                         _slot(ctx, k.power(2), b3))


def torsion_split(ctx, t1, t2, b1=ZERO, b2=ZERO) -> TorsionSplitShape:
    """The torsion split with labels t1 and t2, both betas in H0(K^2)."""
    k2 = LineBundleClass.canonical(ctx, 2)
    return TorsionSplitShape(t1, t2, _slot(ctx, k2, b1), _slot(ctx, k2, b2))


def sl2r_datum(ctx, L, beta=ZERO, gamma=ZERO) -> SL2RDatum:
    """The rank-1 datum on L, beta in H0(L^2 K) and gamma in H0(L^-2 K)."""
    _check_label(ctx, "L torsion", L.torsion)
    k = LineBundleClass.canonical(ctx)
    return SL2RDatum(L, _slot(ctx, L.power(2) * k, beta),
                     _slot(ctx, L.power(-2) * k, gamma))


def max_sl2(ctx, spin=None, beta=ZERO, gamma=ONE) -> SL2RDatum:
    """The maximal rank-1 datum on the square root of K labeled ``spin``
    (the base root when None); gamma's bundle is then trivial."""
    return sl2r_datum(ctx, _root(ctx, spin), beta, gamma)


# -- higher-rank witnesses -----------------------------------------------------------


def _pair_realizing(w1: F2Vector, w2: int) -> Tuple[F2Vector, F2Vector]:
    """Torsion labels (x, y) with x + y = w1 and <x, y> = w2; exists for
    every (w1, w2) except (0, 1).

    For w2 = 1, x = w1 + y with <w1 + y, y> = <w1, y> since the form is
    alternating, so y is the first unit vector in the order b_1, a_1,
    b_2, a_2, ... that pairs to 1 with w1."""
    two_g = len(w1)
    if w2 == 0:
        return (w1, F2Vector.zero(two_g))
    if w1.is_zero:
        raise ValueError("(0, 1) is not realized by any pair")
    g = w1.genus
    units = (F2Vector.unit(two_g, k) for j in range(g) for k in (g + j, j))
    y = next(y for y in units if w1.pairing(y))
    return (w1 + y, y)


def sp2n_reduction_witness(ctx: CurveCtx, n: int, w1: F2Vector,
                           w2: int) -> HiggsDatum:
    """A maximal strictly polystable rank-n witness with invariants
    (w1, w2), reducible to a product of smaller groups.

    For (w1, w2) != (0, 1): an n-fold sum of maximal rank-1 data.  For
    (0, 1): a rank-2 datum with invariants (0, 1), the diagonal shape
    with c = 1 and a nonzero beta2, summed with n-2 rank-1 pieces.
    Strict polystability keeps the witness out of the Hitchin components.
    """
    _check_rank(n)
    if type(w2) is not int:
        raise TypeError("w2 %r is not an int" % (w2,))
    if w2 not in (0, 1):
        raise ValueError("w2 must be 0 or 1")
    _check_label(ctx, "w1", w1)
    head = ((diagonal_shape(ctx, 1),) if w1.is_zero and w2 == 1
            else tuple(max_sl2(ctx, t) for t in _pair_realizing(w1, w2)))
    return DirectSum(head + (max_sl2(ctx),) * (n - 2))
