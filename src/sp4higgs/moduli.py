"""Component-level classification of the maximal moduli space.

Maps a maximal polystable datum to its connected component, decides
which proper reductive subgroups the component's points can be deformed
into, evaluates the component-counting formulas, describes the fiber
geometry of the intermediate components, and runs the brute-force scan
showing that every invariant pair except (0, 1) arises from sums of two
rank-1 pieces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Sequence, Set, Tuple, Union

from .f2 import F2Vector
from .higgs import (
    CurveCtx, DiagonalShape, DirectSum, HiggsDatum, LineBundleClass,
    NotPolystable, OutOfClassifiedRange, SectionSlot, SL2RDatum,
    _require_maximal_polystable,
)
from .numfield import fe

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
    "f2_pairing",
    "f2_sw_map",
    "f2_image_scan",
    "sp2n_reduction_witness",
]


class ScanBudgetExceeded(ValueError):
    """Exhaustive enumeration was requested beyond the supported genus."""


class Subgroup(enum.Enum):
    G_I = "G_i"
    G_P = "G_p"
    G_DELTA = "G_Delta"


# -- component labels ----------------------------------------------------------

_PRODUCT_AND_DIAGONAL = frozenset({Subgroup.G_DELTA, Subgroup.G_P})


@dataclass(frozen=True)
class Hitchin:
    """One of the 2^(2g) distinguished components, labeled by the spin
    structure (square root of K) relative to the base root.  Admits
    only the irreducible subgroup."""

    spin: F2Vector

    def to_json(self) -> dict:
        return {"component": "Hitchin", "spin": self.spin.to_string()}

    def admits(self) -> FrozenSet[Subgroup]:
        return frozenset({Subgroup.G_I})


@dataclass(frozen=True)
class ZeroSW:
    """Component with w1 = 0 and integer lift c, 0 <= c < 2g-2.  The
    c = 0 component admits the product and diagonal subgroups; the
    intermediate ones admit nothing."""

    c: int

    def to_json(self) -> dict:
        return {"component": "ZeroSW", "c": self.c}

    def admits(self) -> FrozenSet[Subgroup]:
        return _PRODUCT_AND_DIAGONAL if self.c == 0 else frozenset()


@dataclass(frozen=True)
class SW:
    """Component labeled by (w1, w2) with w1 != 0.  Admits the product
    and diagonal subgroups."""

    w1: F2Vector
    w2: int

    def __post_init__(self):
        if self.w1.is_zero:
            raise ValueError("SW labels need nonzero w1")

    def to_json(self) -> dict:
        return {"component": "SW", "w1": self.w1.to_string(), "w2": self.w2}

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


@dataclass(frozen=True)
class ReductionVerdict:
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


@dataclass(frozen=True)
class ComponentCount:
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
    if n < 3:
        raise ValueError("n must be at least 3")
    return 3 * 2 ** (2 * ctx.genus)


# -- fiber geometry of the intermediate components --------------------------------


@dataclass(frozen=True)
class FiberGeometry:
    """Fiber data of the component with invariant c over the Jacobian:
    a rank-r twisted bundle over P^s times an affine factor."""

    c: int
    r: int
    s: int
    base_dim: int
    extra: int

    def __post_init__(self):
        total = self.base_dim + self.r + self.s + self.extra
        if total != 10 * (self.base_dim - 1):
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
    ([w], (z_1 w, ..., z_r w)); the inverse reads the coefficients off
    any representative of the line.  Returns True iff the recovered pair
    (z', w') lies in the same orbit, i.e. w' = t^2 w and z' = t^-2 z for
    one common scalar.
    """
    z = [fe(x) for x in z]
    w = [fe(x) for x in w]
    if all(x.is_zero for x in w):
        raise ValueError("w must be nonzero")

    # forward map
    line_rep = tuple(w)
    images = [tuple(zi * wj for wj in w) for zi in z]

    # every image vector must lie on the line spanned by line_rep
    for vec in images:
        for p in range(len(w)):
            for q in range(len(w)):
                if not (vec[p] * line_rep[q] - vec[q] * line_rep[p]).is_zero:
                    return False

    # inverse against the chosen representative
    pivot = next(k for k, x in enumerate(line_rep) if not x.is_zero)
    w_prime = line_rep
    z_prime = [vec[pivot] / w_prime[pivot] for vec in images]

    # orbit comparison: w' = t^2 w, z' = t^-2 z for a single t^2
    scale = w_prime[pivot] / w[pivot]
    if scale.is_zero:
        return False
    for wp, wo in zip(w_prime, w):
        if not (wp - scale * wo).is_zero:
            return False
    scale_inv = scale.inv()
    for zp, zo in zip(z_prime, z):
        if not (zp - scale_inv * zo).is_zero:
            return False
    return True


# -- mod-2 invariant arithmetic -----------------------------------------------------


def f2_pairing(a, b, ap, bp) -> int:
    """sum a_i b'_i + a'_i b_i over F2, on four genus-length halves."""
    if not (len(a) == len(b) == len(ap) == len(bp)):
        raise ValueError("halves must share one length")
    x = F2Vector(tuple(a) + tuple(b))
    y = F2Vector(tuple(ap) + tuple(bp))
    return x.pairing(y)


def f2_sw_map(x: F2Vector, y: F2Vector) -> Tuple[F2Vector, int]:
    """Total invariant of a sum of two torsion pieces: (x + y, <x, y>)."""
    return (x + y, x.pairing(y))


def f2_image_scan(genus: int,
                  exhaustive: bool = True) -> Set[Tuple[F2Vector, int]]:
    """Image of the pair-sum map over all (x, y) in F2^(2g) x F2^(2g).

    Always exhaustive: the 2^(4g) pairs are enumerated on vectors packed
    as ints, for genus <= 5; genus >= 6 raises ScanBudgetExceeded.  The
    expected image is everything except (0, 1).  ``exhaustive`` is kept
    for compatibility and must stay True; False raises ValueError.
    """
    if not exhaustive:
        raise ValueError("only the exhaustive scan exists")
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if genus > 5:
        raise ScanBudgetExceeded("exhaustive scan supported for genus <= 5")
    # Bit 2g-1-k of a packed vector is F2Vector coordinate k, so the
    # a-half is the high g bits.  With x's halves swapped, x_s & y holds
    # xa & yb and xb & ya, whose popcount parity is the pairing <x, y>.
    # An image entry (w1, w2) is packed as w1 << 1 | w2.
    two_g = 2 * genus
    mask = (1 << genus) - 1
    found: Set[int] = set()
    for x in range(1 << two_g):
        x_s = (x & mask) << genus | x >> genus
        found.update((x ^ y) << 1 | (x_s & y).bit_count() & 1
                     for y in range(1 << two_g))
    return {(F2Vector.from_string(format(code >> 1, "0%db" % two_g)), code & 1)
            for code in found}


# -- higher-rank witnesses -----------------------------------------------------------


def _pair_realizing(ctx: CurveCtx, w1: F2Vector, w2: int) -> Tuple[F2Vector, F2Vector]:
    """Torsion labels (x, y) with x + y = w1 and <x, y> = w2; exists for
    every (w1, w2) except (0, 1)."""
    if w2 == 0:
        return (w1, ctx.zero_torsion())
    if w1.is_zero:
        raise ValueError("(0, 1) is not realized by any pair")
    g = ctx.genus
    a, b = w1.halves()
    j = next(k for k in range(g) if a[k] or b[k])
    # local solution on coordinate pair j with unit pairing
    table = {(1, 0): ((1, 1), (0, 1)),
             (0, 1): ((1, 1), (1, 0)),
             (1, 1): ((1, 0), (0, 1))}
    (xa, xb), (ya, yb) = table[(a[j], b[j])]
    x_bits = list(a) + list(b)
    x_bits[j], x_bits[g + j] = xa, xb
    y_bits = [0] * (2 * g)
    y_bits[j], y_bits[g + j] = ya, yb
    return (F2Vector(x_bits), F2Vector(y_bits))


def _max_sl2_datum(ctx: CurveCtx, torsion: F2Vector) -> SL2RDatum:
    """Maximal rank-1 datum on the square root of K labeled by
    ``torsion``: beta = 0 and gamma the unit section of the trivial
    bundle."""
    l = LineBundleClass.half_canonical(ctx, torsion)
    k = LineBundleClass.canonical(ctx)
    beta = SectionSlot.zero(ctx, l.power(2) * k)
    gamma = SectionSlot.constant(ctx, l.power(-2) * k)
    return SL2RDatum(l, beta, gamma)


def _sp4_zero_one_witness(ctx: CurveCtx) -> DiagonalShape:
    """A maximal stable rank-2 datum with invariants (w1, w2) = (0, 1):
    the diagonal shape with c = 1 and a nonzero beta2.  The beta2
    section space is bundle-dependent for g = 2, so its dimension is
    pinned with an explicit override (a generic degree-g bundle N with
    one effective twist)."""
    g = ctx.genus
    n = LineBundleClass(Fraction(1, 2), 1, ctx.zero_torsion())  # deg g
    k = LineBundleClass.canonical(ctx)
    b1 = SectionSlot.zero(ctx, n.power(2) * k)
    b3 = SectionSlot.zero(ctx, k.power(2))
    b2_bundle = n.power(-2) * k.power(3)  # degree 4g-6
    if b2_bundle.degree(ctx) > ctx.deg_k:
        b2 = SectionSlot.zero(ctx, b2_bundle)
    else:
        b2 = SectionSlot.zero(ctx, b2_bundle, h0_override=1)
    coeffs = list(b2.coeffs)
    coeffs[0] = fe(1)
    b2 = SectionSlot(b2.bundle, tuple(coeffs), b2.h0_override)
    return DiagonalShape(N=n, beta1=b1, beta2=b2, beta3=b3)


def sp2n_reduction_witness(ctx: CurveCtx, n: int, w1: F2Vector,
                           w2: int) -> HiggsDatum:
    """A maximal strictly polystable rank-n witness with invariants
    (w1, w2), reducible to a product of smaller groups.

    For (w1, w2) != (0, 1): an n-fold sum of maximal rank-1 data.  For
    (0, 1): a rank-2 datum with invariants (0, 1) summed with n-2
    rank-1 pieces.  Strict polystability keeps the witness out of the
    Hitchin components.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if w2 not in (0, 1):
        raise ValueError("w2 must be 0 or 1")
    zero = ctx.zero_torsion()
    if (w1.is_zero, w2) == (True, 1):
        head: HiggsDatum = _sp4_zero_one_witness(ctx)
        tail_count = n - 2
    else:
        x, y = _pair_realizing(ctx, w1, w2)
        head = DirectSum((_max_sl2_datum(ctx, x), _max_sl2_datum(ctx, y)))
        tail_count = n - 2
    out: HiggsDatum = head
    for _ in range(tail_count):
        out = DirectSum((out, _max_sl2_datum(ctx, zero)))
    return out
