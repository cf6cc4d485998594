"""Bundle-level data model for rank-2 real-symplectic Higgs pairs.

Line bundles on a genus-g curve are modeled as formal classes: an
integer degree shift, a (half-)integer power of the canonical bundle K,
and a 2-torsion label in F2^(2g).  Sections are abstract coefficient
vectors whose only structure is linearity and scaling -- exactly what
the stability and isomorphism arguments use; nothing is ever evaluated
pointwise.

The explicit maximal shapes, the stability and polystability verdicts,
Cayley partners, Stiefel-Whitney invariants, the subgroup-reduction
checkers and the irreducible embedding of rank-1 data all live here.
A Cayley partner W is one of three records, each holding only what its
form needs: SplitPartner (W = L + L^-1), CoverPartner (from a connected
double cover) and TorsionPartner (W = M1 + M2, M_i 2-torsion); each
reads its own Stiefel-Whitney invariants.
Each shape class carries its own rules; the module-level functions
check their preconditions once and call the shape's rule.  The records
carry no JSON: the datum file format, both directions, is in jsonio.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional, Tuple, Union

from ._record import Record, _setattr
from .f2 import F2Vector
from .numfield import FieldElem, fe

__all__ = [
    "RequiresExplicitH0",
    "OutOfClassifiedRange",
    "NotMaximal",
    "NotPolystable",
    "WrongShape",
    "CurveCtx",
    "LineBundleClass",
    "SectionSlot",
    "DiagonalShape",
    "CoverOrthShape",
    "TorsionSplitShape",
    "SL2RDatum",
    "IrreducibleImage",
    "DirectSum",
    "HiggsDatum",
    "Stability",
    "StabilityReport",
    "SWInvariants",
    "SplitPartner",
    "CoverPartner",
    "TorsionPartner",
    "h0",
    "milnor_wood",
    "toledo",
    "is_maximal",
    "stability_sp4",
    "stability_report",
    "stability_sl2",
    "cayley_partner",
    "sw_invariants",
    "gdelta_reduction_check",
    "gp_reduction_check",
    "sl2xsl2_reduction_check",
    "irr_embed",
    "direct_sum",
    "minimum",
    "is_hitchin_minimum",
    "iso_normal_form",
]


class RequiresExplicitH0(ValueError):
    """Section-space dimension is bundle-dependent in this range; the
    caller must supply it explicitly (SectionSlot.h0_override)."""

    def __init__(self, bundle, degree):
        self.bundle = bundle
        self.degree = degree
        super().__init__(
            "h0 of %r (degree %d) is not determined by the degree alone; "
            "pass an explicit h0_override" % (bundle, degree))


class OutOfClassifiedRange(ValueError):
    """Datum falls outside the classified parameter ranges."""


class NotMaximal(ValueError):
    """Operation requires Toledo invariant 2g-2."""


class NotPolystable(ValueError):
    """Operation requires a polystable datum."""


class WrongShape(ValueError):
    """A rule was given a datum of a shape it does not take."""


class CurveCtx(Record):
    """A genus-g curve, g an int >= 2.  2-torsion labels and spin-structure
    labels are F2 vectors of length 2g, relative to a distinguished base
    square root of K which is encoded as the zero label.

    The zero label and K are built once, with the context, and shared by
    every bundle that asks for them; they are not fields, so equality,
    hash and repr read the genus alone."""

    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        zero = F2Vector(0, 2 * self.genus)
        _setattr(self, "_zero_torsion", zero)
        _setattr(self, "_canonical", _bundle(Fraction(1), 0, zero))

    @property
    def two_g(self) -> int:
        return 2 * self.genus

    @property
    def deg_k(self) -> int:
        return 2 * self.genus - 2

    def zero_torsion(self) -> F2Vector:
        return self._zero_torsion


class LineBundleClass(Record):
    """Formal line bundle class: K^k_power * O(extra_degree) * torsion.

    k_power is a Fraction and may be a half-integer (a power of the base
    square root of K); extra_degree is an int; torsion is an F2^(2g)
    label.  Duals negate every field (torsion is its own negative).  The
    degree, h0 and the root-of-K tests read k_power on ints, from its
    numerator and denominator, and make no Fraction.

    ``dual``, ``*`` and ``power`` build their results with ``_bundle``,
    past the constructor's checks: half-integer powers of K, int degrees
    and torsion labels stay valid under all three.  ``*`` takes only a
    LineBundleClass and ``power`` only an exact int.
    """

    k_power: Fraction
    extra_degree: int
    torsion: F2Vector

    def __post_init__(self):
        if self.k_power.denominator not in (1, 2):
            raise ValueError("k_power must be a half-integer")

    # degree = extra + k_power*(2g-2), on ints: the denominator of
    # k_power is 1 or 2 and divides the even number 2g-2.
    def degree(self, ctx: CurveCtx) -> int:
        k = self.k_power
        return self.extra_degree + k.numerator * ctx.deg_k // k.denominator

    def dual(self) -> "LineBundleClass":
        return _bundle(-self.k_power, -self.extra_degree, self.torsion)

    def __mul__(self, other: "LineBundleClass") -> "LineBundleClass":
        if type(other) is not LineBundleClass:
            return NotImplemented
        return _bundle(self.k_power + other.k_power,
                       self.extra_degree + other.extra_degree,
                       self.torsion + other.torsion)

    def power(self, n: int) -> "LineBundleClass":
        if type(n) is not int:
            raise TypeError("n %r is not an int" % (n,))
        torsion = self.torsion
        if not (n % 2 or torsion.is_zero):
            torsion = F2Vector(0, torsion.length)
        return _bundle(self.k_power * n, self.extra_degree * n, torsion)

    @classmethod
    def canonical(cls, ctx: CurveCtx, power: int = 1) -> "LineBundleClass":
        """K^power; K itself is the context's own."""
        if type(power) is not int:
            raise TypeError("power %r is not an int" % (power,))
        return ctx._canonical if power == 1 else ctx._canonical.power(power)

    @classmethod
    def half_canonical(cls, ctx: CurveCtx, torsion: Optional[F2Vector] = None) -> "LineBundleClass":
        """A square root of K; the torsion label says which one."""
        return cls(Fraction(1, 2), 0,
                   torsion if torsion is not None else ctx.zero_torsion())


_new_bundle = object.__new__


def _bundle(k_power: Fraction, extra_degree: int, torsion: F2Vector) -> LineBundleClass:
    """The class with these fields, already valid, built without the
    constructor's checks."""
    b = _new_bundle(LineBundleClass)
    _setattr(b, "k_power", k_power)
    _setattr(b, "extra_degree", extra_degree)
    _setattr(b, "torsion", torsion)
    return b


def h0(ctx: CurveCtx, bundle: LineBundleClass) -> int:
    """Dimension of the space of sections, where the degree determines it.

    Negative degree gives 0; degree above 2g-2 gives deg - g + 1 (no
    higher cohomology).  In the special range [0, 2g-2] only the trivial
    class (1), nontrivial 2-torsion (0) and K itself (g) are covered;
    anything else is genuinely bundle-dependent and raises
    RequiresExplicitH0 rather than guessing.
    """
    dim = _determined_h0(ctx, bundle)
    if dim is None:
        raise RequiresExplicitH0(bundle, bundle.degree(ctx))
    return dim


def _determined_h0(ctx: CurveCtx, bundle: LineBundleClass) -> Optional[int]:
    """h0 where the degree determines it, else None."""
    d = bundle.degree(ctx)
    if d < 0:
        return 0
    if d > ctx.deg_k:
        return d - ctx.genus + 1
    k = bundle.k_power
    power = (k.numerator, k.denominator, bundle.extra_degree)
    if power == (0, 1, 0):
        return 1 if bundle.torsion.is_zero else 0
    if power == (1, 1, 0) and bundle.torsion.is_zero:
        return ctx.genus
    return None


def milnor_wood(ctx: CurveCtx, d: int) -> bool:
    """Whether the Toledo invariant d satisfies |d| <= 2g-2."""
    return abs(d) <= ctx.deg_k


class SectionSlot(Record):
    """A section of ``bundle`` as a coefficient vector of length h0.

    ``h0_override``, an int, supplies the dimension when h0 cannot be
    derived from the degree (see RequiresExplicitH0); where it can, an
    override must equal it.  The zero section is the all-zero vector; an
    empty vector is the only section of a bundle with no sections.
    """

    bundle: LineBundleClass
    coeffs: Tuple[FieldElem, ...]
    h0_override: Optional[int] = None

    def __post_init__(self):
        dim = self.h0_override
        if dim is not None and dim < 0:
            raise ValueError("h0_override must be non-negative, not %d" % dim)
        object.__setattr__(self, "coeffs", tuple(map(fe, self.coeffs)))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def dimension(self, ctx: CurveCtx) -> int:
        """h0 where the degree determines it, else the override; an
        override that contradicts a determined h0 is an error."""
        if self.h0_override is None:
            return h0(ctx, self.bundle)
        dim = _determined_h0(ctx, self.bundle)
        if dim is not None and dim != self.h0_override:
            raise ValueError("h0_override %d of %r contradicts its h0 = %d"
                             % (self.h0_override, self.bundle, dim))
        return self.h0_override

    def validate(self, ctx: CurveCtx):
        dim = self.dimension(ctx)
        if len(self.coeffs) != dim:
            raise ValueError("section slot for %r has %d coefficients, "
                             "expected %d" % (self.bundle, len(self.coeffs), dim))

    def scale(self, t) -> "SectionSlot":
        t = fe(t)
        return SectionSlot(self.bundle, tuple(t * c for c in self.coeffs),
                           self.h0_override)


# -- verdict records ----------------------------------------------------------


class Stability(enum.Enum):
    STABLE = "Stable"
    STRICTLY_POLYSTABLE = "StrictlyPolystable"
    SEMISTABLE_NOT_POLY = "SemistableNotPoly"
    UNSTABLE = "Unstable"

    @property
    def is_polystable(self) -> bool:
        return self in (Stability.STABLE, Stability.STRICTLY_POLYSTABLE)


class StabilityReport(Record):
    verdict: Stability
    clause: str
    non_simple: bool = False


class SWInvariants(Record):
    """Topological invariants: Toledo d, first class w1, and either the
    integer lift c (only defined when w1 = 0 on rank-2 maximal data) or
    just the second class w2."""

    toledo: int
    w1: F2Vector
    w2: int
    c: Optional[int] = None

    def __post_init__(self):
        if self.c is not None:
            if not self.w1.is_zero:
                raise ValueError("integer lift c only exists when w1 = 0")
            if self.w2 != self.c % 2:
                raise ValueError("w2 must be the parity of c")


# -- Cayley partners (W, theta): the bundle W, and whether theta is nonzero ---


class SplitPartner(Record):
    """W = L + L^-1: w1 = 0, and the integer lift c is deg L."""

    L: LineBundleClass
    theta_present: bool

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        c = self.L.degree(ctx)
        return SWInvariants(ctx.deg_k, ctx.zero_torsion(), c % 2, c=c)


class CoverPartner(Record):
    """W from a connected double cover: w1 != 0 is the cover's class."""

    w1: F2Vector
    w2: int
    theta_present: bool

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        return SWInvariants(ctx.deg_k, self.w1, self.w2)


class TorsionPartner(Record):
    """W = M1 + M2 with M_i 2-torsion: w1 = m1 + m2, w2 = <m1, m2>."""

    m1: F2Vector
    m2: F2Vector
    theta_present: bool

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        w1 = self.m1 + self.m2
        # equal labels give w1 = 0; the datum is then the c = 0 shape
        return SWInvariants(ctx.deg_k, w1, self.m1.pairing(self.m2),
                            c=0 if w1.is_zero else None)


def _split_partner(ctx: CurveCtx, n: LineBundleClass, spin: F2Vector,
                   slots: Tuple[SectionSlot, ...]) -> SplitPartner:
    """Partner of a datum on V = N + N^-1 K: W = L + L^-1 with
    L = N K^(-1/2) for the square root labeled ``spin``, and theta
    present when some section of the Higgs field is nonzero."""
    l = n * LineBundleClass.half_canonical(ctx, spin).dual()
    return SplitPartner(l, not all(s.is_zero for s in slots))


def _check_label(ctx: CurveCtx, name: str, label: F2Vector):
    """A mod-2 label, a shape's or a spin choice, must be an F2Vector
    lying in F2^(2g): checked before the bundle algebra, which would only
    say "length mismatch" (or fail on a list or a bitstring)."""
    if type(label) is not F2Vector:
        raise TypeError("%s %r is not of type F2Vector" % (name, label))
    if len(label) != ctx.two_g:
        raise ValueError("%s has length %d, expected %d"
                         % (name, len(label), ctx.two_g))


def _check_slot(ctx: CurveCtx, name: str, slot: SectionSlot,
                bundle: LineBundleClass, space: str):
    """A shape's slot must live in the bundle its form gives it, here
    H0(``space``), and hold h0 coefficients."""
    if slot.bundle != bundle:
        raise ValueError("%s slot must live in H0(%s)" % (name, space))
    slot.validate(ctx)


def _root_of_k_label(bundle: LineBundleClass) -> F2Vector:
    """Torsion label of the line bundle of a maximal rank-1 datum, which
    must be encoded as a square root of K."""
    k = bundle.k_power
    if (k.numerator, k.denominator, bundle.extra_degree) != (1, 2, 0):
        raise OutOfClassifiedRange(
            "maximal rank-1 data must be encoded with L a square root of K "
            "(k_power 1/2)")
    return bundle.torsion


# -- the shapes and their rules -----------------------------------------------


class _Shape:
    """The rules every shape answers.

    ``rank``, ``toledo`` and ``stability`` hold for any datum; a rank-2
    shape has degree 2g-2 unless it says otherwise.  ``sw`` and
    ``hitchin_spin`` assume a maximal polystable datum in canonical form
    (see _require_maximal_polystable), and a rank-2 shape reads ``sw`` off
    its Cayley partner at the base root: ``cayley`` builds a SplitPartner,
    CoverPartner or TorsionPartner, and that record's ``sw`` holds the
    rule.  ``cayley``, the reduction rules
    ``gdelta``/``sl2xsl2``/``gp`` and ``minimum``, the limit of the C*
    action (the rule per shape is in the module-level ``minimum``), are
    the rank-2 shapes' own, reached through _rank2, which rejects any
    other rank.  Only the shapes that reach c = 2g-2 define
    ``hitchin_spin``.
    """

    rank = 2

    def toledo(self, ctx: CurveCtx) -> int:
        return ctx.deg_k

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        return self.cayley(ctx, ctx.zero_torsion()).sw(ctx)

    def gp(self, ctx: CurveCtx) -> bool:
        return self.sl2xsl2(ctx)


class DiagonalShape(_Shape, Record):
    """V = N + N^-1 K with gamma the off-diagonal unit form and
    beta = [[beta1, beta3], [beta3, beta2]]; always has degree 2g-2.

    Slots: beta1 in H0(N^2 K), beta2 in H0(N^-2 K^3), beta3 in H0(K^2).
    """

    N: LineBundleClass
    beta1: SectionSlot
    beta2: SectionSlot
    beta3: SectionSlot

    def c_invariant(self, ctx: CurveCtx) -> int:
        return self.N.degree(ctx) - (ctx.genus - 1)

    def validate(self, ctx: CurveCtx):
        _check_label(ctx, "N torsion", self.N.torsion)
        k = LineBundleClass.canonical(ctx)
        _check_slot(ctx, "beta1", self.beta1, self.N.power(2) * k, "N^2 K")
        _check_slot(ctx, "beta2", self.beta2, self.N.power(-2) * k.power(3),
                    "N^-2 K^3")
        _check_slot(ctx, "beta3", self.beta3, k.power(2), "K^2")

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        g = ctx.genus
        deg_n = self.N.degree(ctx)
        if not (g - 1 <= deg_n <= 3 * g - 3):
            raise OutOfClassifiedRange(
                "deg N = %d outside [g-1, 3g-3] = [%d, %d]"
                % (deg_n, g - 1, 3 * g - 3))
        if deg_n > g - 1:
            if not self.beta2.is_zero:
                return StabilityReport(Stability.STABLE,
                                       "diagonal, deg N > g-1, beta2 != 0")
            return StabilityReport(Stability.UNSTABLE,
                                   "diagonal, deg N > g-1, beta2 = 0: not semistable")
        b1z, b2z = self.beta1.is_zero, self.beta2.is_zero
        if not b1z and not b2z:
            return StabilityReport(Stability.STABLE,
                                   "diagonal, deg N = g-1, beta1 != 0 and beta2 != 0")
        if b1z and b2z:
            return StabilityReport(Stability.STRICTLY_POLYSTABLE,
                                   "diagonal, deg N = g-1, beta1 = beta2 = 0")
        return StabilityReport(Stability.SEMISTABLE_NOT_POLY,
                               "diagonal, deg N = g-1, exactly one of beta1, beta2 nonzero")

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> SplitPartner:
        return _split_partner(ctx, self.N, spin,
                              (self.beta1, self.beta2, self.beta3))

    def gdelta(self, ctx: CurveCtx) -> bool:
        # beta2 = 0 in a maximal polystable datum forces c = 0
        return self.beta1.is_zero and self.beta2.is_zero

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return self.c_invariant(ctx) == 0

    def minimum(self, ctx: CurveCtx) -> "DiagonalShape":
        beta2 = self.beta2 if self.c_invariant(ctx) > 0 else self.beta2.scale(0)
        return DiagonalShape(self.N, self.beta1.scale(0), beta2,
                             self.beta3.scale(0))

    def hitchin_spin(self, ctx: CurveCtx) -> F2Vector:
        # At c = 2g-2 the bundle N is forced to be the cube of a square
        # root of K; N = (K^(1/2) * s)^3 has torsion label 3s = s.
        k = self.N.k_power
        if (k.numerator, k.denominator, self.N.extra_degree) != (3, 2, 0):
            raise NotPolystable(
                "c = 2g-2 requires N to be encoded as the cube of a square "
                "root of K (k_power 3/2); got %r" % (self.N,))
        return self.N.torsion


class CoverOrthShape(_Shape, Record):
    """V = W (x) K^(1/2) with W an orthogonal bundle from a connected
    double cover: w1 is the nonzero class of the cover, w2 is stored
    relative to the base square root of K (never computed here).  The
    quadratic part of the Higgs field is the orthogonal form; beta is
    recorded only as present or absent."""

    w1: F2Vector
    w2: int
    beta_present: bool = False

    def __post_init__(self):
        if self.w1.is_zero:
            raise ValueError("connected-cover shape needs nonzero w1")
        if self.w2 not in (0, 1):
            raise ValueError("w2 must be 0 or 1")

    def validate(self, ctx: CurveCtx):
        _check_label(ctx, "w1", self.w1)

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        return StabilityReport(Stability.STABLE,
                               "connected-cover orthogonal bundle is stable")

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> CoverPartner:
        # W (x) M_s for the root moved by s: w2 gains <w1, s>
        w2 = (self.w2 + self.w1.pairing(spin)) % 2
        return CoverPartner(self.w1, w2, self.beta_present)

    def gdelta(self, ctx: CurveCtx) -> bool:
        return not self.beta_present

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return False

    def gp(self, ctx: CurveCtx) -> bool:
        return True

    def minimum(self, ctx: CurveCtx) -> "CoverOrthShape":
        return CoverOrthShape(self.w1, self.w2, beta_present=False)


class TorsionSplitShape(_Shape, Record):
    """V = L1 K^(1/2) + L2 K^(1/2) with L_i 2-torsion (labels t1, t2),
    gamma diagonal from the torsion isomorphisms, beta diagonal with
    entries in H0(K^2)."""

    t1: F2Vector
    t2: F2Vector
    beta1: SectionSlot
    beta2: SectionSlot

    def validate(self, ctx: CurveCtx):
        _check_label(ctx, "t1", self.t1)
        _check_label(ctx, "t2", self.t2)
        k2 = LineBundleClass.canonical(ctx, 2)
        _check_slot(ctx, "beta1", self.beta1, k2, "K^2")
        _check_slot(ctx, "beta2", self.beta2, k2, "K^2")

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        if self.t1 == self.t2:
            return StabilityReport(Stability.STRICTLY_POLYSTABLE,
                                   "torsion-split, L1 = L2", non_simple=True)
        return StabilityReport(Stability.STABLE,
                               "torsion-split, L1 != L2 (stable but not simple)",
                               non_simple=True)

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> TorsionPartner:
        theta = not (self.beta1.is_zero and self.beta2.is_zero)
        return TorsionPartner(self.t1 + spin, self.t2 + spin, theta)

    def gdelta(self, ctx: CurveCtx) -> bool:
        return self.beta1.coeffs == self.beta2.coeffs

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return True

    def minimum(self, ctx: CurveCtx) -> "TorsionSplitShape":
        return TorsionSplitShape(self.t1, self.t2, self.beta1.scale(0),
                                 self.beta2.scale(0))


class _RankOneBase(_Shape):
    """The fields and rules of the shapes built on a rank-1 datum
    (L, beta, gamma) with beta in H0(L^2 K) and gamma in H0(L^-2 K): the
    datum itself and its irreducible image.  A mixin, not a record: each
    record subclass takes the three fields from its annotations."""

    L: LineBundleClass
    beta: SectionSlot
    gamma: SectionSlot

    def validate(self, ctx: CurveCtx):
        _check_label(ctx, "L torsion", self.L.torsion)
        k = LineBundleClass.canonical(ctx)
        _check_slot(ctx, "beta", self.beta, self.L.power(2) * k, "L^2 K")
        _check_slot(ctx, "gamma", self.gamma, self.L.power(-2) * k, "L^-2 K")

    def toledo(self, ctx: CurveCtx) -> int:
        return self.rank * self.L.degree(ctx)


class SL2RDatum(_RankOneBase, Record):
    """Rank-1 datum (L, beta, gamma) with beta in H0(L^2 K) and
    gamma in H0(L^-2 K)."""

    rank = 1

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        return StabilityReport(stability_sl2(ctx, self),
                               "rank-1 criterion, deg L = %d" % self.L.degree(ctx))

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        # graded by the torsion label of L relative to the base root
        return SWInvariants(self.toledo(ctx), _root_of_k_label(self.L), 0)


class IrreducibleImage(_RankOneBase, Record):
    """Image of a rank-1 datum under the irreducible embedding:
    V = L^3 + L^-1 with beta = [[0, 3b], [3b, g]] and
    gamma = [[0, g], [g, 4b]] in terms of the rank-1 fields (b, g).

    Kept as its own record because for deg L < g-1 the bundle V is not
    of the form N + N^-1 K, and because the corner entry of a normalized
    representative is quadratic in the sections, which coefficient
    vectors do not model.
    """

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        if not stability_sl2(ctx, self).is_polystable:
            raise NotPolystable("rank-1 input of the irreducible image is "
                                "not polystable")
        if self.L.degree(ctx) != 0:
            return StabilityReport(Stability.STABLE,
                                   "irreducible image of a polystable rank-1 "
                                   "datum with deg L != 0")
        if self.beta.is_zero and self.gamma.is_zero:
            return StabilityReport(Stability.STRICTLY_POLYSTABLE,
                                   "irreducible image, deg L = 0, zero fields")
        return StabilityReport(Stability.STABLE,
                               "irreducible image, deg L = 0, both fields nonzero")

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> SplitPartner:
        return _split_partner(ctx, self.L.power(3), spin, (self.beta, self.gamma))

    def gdelta(self, ctx: CurveCtx) -> bool:
        return False

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return False

    def minimum(self, ctx: CurveCtx) -> "IrreducibleImage":
        return IrreducibleImage(self.L, self.beta.scale(0), self.gamma)

    def hitchin_spin(self, ctx: CurveCtx) -> F2Vector:
        return _root_of_k_label(self.L)


class DirectSum(_Shape, Record):
    """Direct sum of symplectic data; flattens nested sums."""

    summands: Tuple["HiggsDatum", ...]

    def __post_init__(self):
        flat = []
        for s in self.summands:
            if isinstance(s, DirectSum):
                flat.extend(s.summands)
            else:
                flat.append(s)
        object.__setattr__(self, "summands", tuple(flat))

    def validate(self, ctx: CurveCtx):
        for s in self.summands:
            s.validate(ctx)

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.summands)

    def toledo(self, ctx: CurveCtx) -> int:
        return sum(s.toledo(ctx) for s in self.summands)

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        if not self.summands:
            return StabilityReport(Stability.STRICTLY_POLYSTABLE, "empty sum")
        if len(self.summands) == 1:
            return self.summands[0].stability(ctx)
        verdicts = [s.stability(ctx).verdict for s in self.summands]
        if all(v.is_polystable for v in verdicts):
            return StabilityReport(Stability.STRICTLY_POLYSTABLE,
                                   "direct sum of polystable summands")
        if all(v != Stability.UNSTABLE for v in verdicts):
            return StabilityReport(Stability.SEMISTABLE_NOT_POLY,
                                   "direct sum with a non-polystable summand")
        return StabilityReport(Stability.UNSTABLE,
                               "direct sum with an unstable summand")

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        w1, w2 = ctx.zero_torsion(), 0
        for s in self.summands:
            part = s.sw(ctx)
            w2 = (w2 + part.w2 + w1.pairing(part.w1)) % 2  # Whitney sum rule
            w1 = w1 + part.w1
        return SWInvariants(self.toledo(ctx), w1, w2)


HiggsDatum = Union[DiagonalShape, CoverOrthShape, TorsionSplitShape,
                   SL2RDatum, IrreducibleImage, DirectSum]


# -- basic invariants ---------------------------------------------------------


def toledo(ctx: CurveCtx, datum: HiggsDatum) -> int:
    """Degree of the underlying bundle V."""
    return datum.toledo(ctx)


def is_maximal(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Toledo invariant attains rank(V) * (g-1)."""
    return datum.toledo(ctx) == datum.rank * (ctx.genus - 1)


# -- stability ----------------------------------------------------------------


def stability_sl2(ctx: CurveCtx, datum: SL2RDatum) -> Stability:
    """Verdict for a rank-1 datum.

    deg L > 0: stable iff gamma != 0 (and gamma can only be nonzero for
    deg L <= g-1); deg L < 0: stable iff beta != 0; deg L = 0: strictly
    polystable iff both sections vanish or both are nonzero.
    """
    d = datum.L.degree(ctx)
    if d > 0:
        return Stability.STABLE if not datum.gamma.is_zero else Stability.UNSTABLE
    if d < 0:
        return Stability.STABLE if not datum.beta.is_zero else Stability.UNSTABLE
    bz, gz = datum.beta.is_zero, datum.gamma.is_zero
    if bz == gz:
        return Stability.STRICTLY_POLYSTABLE
    return Stability.UNSTABLE


def stability_report(ctx: CurveCtx, datum: HiggsDatum) -> StabilityReport:
    """Stability verdict plus the clause that produced it."""
    datum.validate(ctx)
    return datum.stability(ctx)


def stability_sp4(ctx: CurveCtx, datum: HiggsDatum) -> Stability:
    return stability_report(ctx, datum).verdict


def _require_maximal_polystable(ctx: CurveCtx, datum: HiggsDatum) -> HiggsDatum:
    """The datum in canonical form, after checking that it is maximal
    and polystable: a one-summand sum becomes its summand and a sum of
    two maximal rank-1 data the torsion-split shape.  Every rule that
    needs a maximal polystable datum is reached through here."""
    if not is_maximal(ctx, datum):
        raise NotMaximal("Toledo invariant %d is not maximal"
                         % toledo(ctx, datum))
    if not stability_sp4(ctx, datum).is_polystable:
        raise NotPolystable("datum is not polystable")
    return _resolved(ctx, datum)


def _rank2(ctx: CurveCtx, datum: HiggsDatum) -> HiggsDatum:
    """The canonical form of a maximal polystable datum, checked to be of
    rank 2: the Cayley partner, the reduction checkers and the minimum
    are rules of the rank-2 shapes alone."""
    datum = _require_maximal_polystable(ctx, datum)
    if datum.rank != 2:
        raise OutOfClassifiedRange("the rule needs a rank-2 datum, not a rank-%d %s"
                                   % (datum.rank, type(datum).__name__))
    return datum


def _resolved(ctx: CurveCtx, datum: HiggsDatum) -> HiggsDatum:
    """A one-summand sum is its summand, and a sum of two maximal rank-1
    data with nonzero gamma is the torsion-split shape; any other datum,
    the empty sum included, is returned unchanged."""
    parts = datum.summands if isinstance(datum, DirectSum) else ()
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2 and all(isinstance(s, SL2RDatum) and is_maximal(ctx, s)
                               and not s.gamma.is_zero for s in parts):
        k2 = LineBundleClass.canonical(ctx, 2)
        # beta_i in H0(L_i^2 K) = H0(K^2) once L_i^2 = K is used
        a, b = parts
        return TorsionSplitShape(_root_of_k_label(a.L), _root_of_k_label(b.L),
                                 SectionSlot(k2, a.beta.coeffs),
                                 SectionSlot(k2, b.beta.coeffs))
    return datum


# -- Cayley partner and topological invariants --------------------------------


def cayley_partner(ctx: CurveCtx, datum: HiggsDatum,
                   spin_choice: Optional[F2Vector] = None
                   ) -> SplitPartner | CoverPartner | TorsionPartner:
    """Orthogonal partner W = V* (x) L0 of a maximal polystable datum,
    for the square root L0 of K labeled by ``spin_choice`` (default: the
    base root, label zero): a SplitPartner for the diagonal shape and the
    irreducible image, a CoverPartner for the connected-cover shape and a
    TorsionPartner for the torsion split."""
    datum = _rank2(ctx, datum)
    spin = spin_choice if spin_choice is not None else ctx.zero_torsion()
    _check_label(ctx, "spin_choice", spin)
    return datum.cayley(ctx, spin)


def sw_invariants(ctx: CurveCtx, datum: HiggsDatum) -> SWInvariants:
    """Stiefel-Whitney data of the Cayley partner of a maximal
    polystable datum.  Rank-1 summands are graded by the torsion label
    of L relative to the base square root of K."""
    return _require_maximal_polystable(ctx, datum).sw(ctx)


# -- reductions of structure group ---------------------------------------------


def gdelta_reduction_check(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Whether the datum visibly has the form V = U (x) L with U
    orthogonal, L^2 = K, and beta a multiple of the orthogonal form.

    For the diagonal shape this means deg N = g-1 with beta1 = beta2 = 0;
    for the torsion-split shape, equal diagonal beta entries; for the
    connected-cover shape, beta absent (a present beta is not modeled
    finely enough to attest the scalar form).
    """
    return _rank2(ctx, datum).gdelta(ctx)


def sl2xsl2_reduction_check(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Whether the datum is (isomorphic to) a sum of two maximal rank-1
    data.  For the diagonal shape this forces N^2 = K, i.e. c = 0."""
    return _rank2(ctx, datum).sl2xsl2(ctx)


def gp_reduction_check(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Split-or-cover criterion: a sum of two maximal rank-1 data, or
    the connected-cover shape, which splits after pulling back to the
    double cover of genus 2g-1 (degrees double, so the pulled-back
    halves are square roots of the canonical bundle upstairs)."""
    return _rank2(ctx, datum).gp(ctx)


# -- the irreducible embedding on bundle data -----------------------------------


def irr_embed(ctx: CurveCtx, datum: SL2RDatum) -> IrreducibleImage:
    """Image of a polystable rank-1 datum, 0 <= deg L <= g-1, under the
    irreducible embedding: V = L^3 + L^-1 with the fixed field pattern.

    The output has degree 2*deg L and is stable (polystable when deg L
    is 0 and both sections vanish).  Any other shape raises WrongShape.
    """
    if type(datum) is not SL2RDatum:
        raise WrongShape("the irreducible embedding expects a rank-1 (sl2r) datum")
    datum.validate(ctx)
    d = datum.L.degree(ctx)
    if not 0 <= d <= ctx.genus - 1:
        raise OutOfClassifiedRange("deg L = %d outside [0, g-1]" % d)
    if not stability_sl2(ctx, datum).is_polystable:
        raise NotPolystable("rank-1 datum is not polystable")
    return IrreducibleImage(datum.L, datum.beta, datum.gamma)


# -- direct sums -----------------------------------------------------------------


def direct_sum(ctx: CurveCtx, a: HiggsDatum, b: HiggsDatum) -> HiggsDatum:
    """Direct sum of two data.  Toledo adds, w1 adds, w2 follows the
    Whitney product rule.  Nested sums are flattened, so an empty sum
    drops out; a lone summand is returned as itself and a sum of two
    maximal rank-1 data in torsion-split form."""
    return _resolved(ctx, DirectSum((a, b)))


# -- minima and normal forms -----------------------------------------------------


def minimum(ctx: CurveCtx, datum: HiggsDatum) -> HiggsDatum:
    """The limit as t -> 0 of a maximal polystable datum under the C*
    action phi -> t phi, in canonical form: the minimum of the energy
    function that the datum flows to, in the same component.

    The rule per shape: the diagonal shape loses beta1 and beta3, and
    beta2 too when c = 0 (it keeps beta2 when c > 0); the cover and
    torsion-split shapes lose every beta; the irreducible image loses
    beta and keeps gamma."""
    return _rank2(ctx, datum).minimum(ctx)


def is_hitchin_minimum(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Whether the datum is a minimum of the energy function in its
    component: a fixed point of the t -> 0 limit of phi -> t phi, whose
    rule per shape is in minimum's docstring."""
    datum = _rank2(ctx, datum)
    return datum.minimum(ctx) == datum


def iso_normal_form(ctx: CurveCtx, datum: DiagonalShape) -> DiagonalShape:
    """Canonical representative of the scaling orbit
    (beta1, beta2, beta3) ~ (t^2 beta1, t^-2 beta2, beta3), t != 0.

    For 0 < c < 2g-2 the first nonzero coefficient of beta2 is scaled to
    exactly 1 (beta2 must be nonzero, else the datum is unstable); for
    c = 2g-2 the action is trivial and the datum is returned unchanged.
    Idempotent and constant on orbits.  Any other shape raises WrongShape.
    """
    if type(datum) is not DiagonalShape:
        raise WrongShape("normal-form expects a diagonal-shape datum")
    datum.validate(ctx)
    c = datum.c_invariant(ctx)
    if not 0 < c <= ctx.deg_k:
        raise OutOfClassifiedRange("normal form defined for 0 < c <= 2g-2, "
                                   "got c = %d" % c)
    if c == ctx.deg_k:
        return datum
    if datum.beta2.is_zero:
        raise OutOfClassifiedRange("beta2 = 0 in the open range is unstable; "
                                   "no normal form")
    pivot = next(co for co in datum.beta2.coeffs if not co.is_zero)
    # t^-2 * pivot = 1, so t^2 = pivot
    return DiagonalShape(
        N=datum.N,
        beta1=datum.beta1.scale(pivot),
        beta2=datum.beta2.scale(pivot.inv()),
        beta3=datum.beta3)
