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
Each shape class carries its own rules; the module-level functions
check their preconditions once and call the shape's rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .f2 import F2Vector
from .numfield import FieldElem, ZERO, fe

__all__ = [
    "RequiresExplicitH0",
    "OutOfClassifiedRange",
    "NotMaximal",
    "NotPolystable",
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
    "CayleyCase",
    "CayleyPartner",
    "SWInvariants",
    "h0",
    "milnor_wood",
    "rank",
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


@dataclass(frozen=True)
class CurveCtx:
    """A genus-g curve, g >= 2.  2-torsion labels and spin-structure
    labels are F2 vectors of length 2g, relative to a distinguished base
    square root of K which is encoded as the zero label."""

    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")

    @property
    def two_g(self) -> int:
        return 2 * self.genus

    @property
    def deg_k(self) -> int:
        return 2 * self.genus - 2

    def zero_torsion(self) -> F2Vector:
        return F2Vector.zero(self.two_g)


@dataclass(frozen=True)
class LineBundleClass:
    """Formal line bundle class: K^k_power * O(extra_degree) * torsion.

    k_power may be a half-integer (a power of the base square root of
    K); torsion is an F2^(2g) label.  Duals negate every field (torsion
    is its own negative).
    """

    k_power: Fraction
    extra_degree: int
    torsion: F2Vector

    def __post_init__(self):
        kp = Fraction(self.k_power)
        if kp.denominator not in (1, 2):
            raise ValueError("k_power must be a half-integer")
        object.__setattr__(self, "k_power", kp)

    # degree = extra + k_power*(2g-2); always an integer because
    # half-integer k_power multiplies the even number 2g-2.
    def degree(self, ctx: CurveCtx) -> int:
        d = self.extra_degree + self.k_power * ctx.deg_k
        assert d.denominator == 1
        return int(d)

    def dual(self) -> "LineBundleClass":
        return LineBundleClass(-self.k_power, -self.extra_degree, self.torsion)

    def __mul__(self, other: "LineBundleClass") -> "LineBundleClass":
        return LineBundleClass(self.k_power + other.k_power,
                               self.extra_degree + other.extra_degree,
                               self.torsion + other.torsion)

    def power(self, n: int) -> "LineBundleClass":
        torsion = self.torsion if n % 2 else F2Vector.zero(len(self.torsion))
        return LineBundleClass(self.k_power * n, self.extra_degree * n, torsion)

    def is_trivial(self) -> bool:
        return self.k_power == 0 and self.extra_degree == 0 and self.torsion.is_zero

    @classmethod
    def trivial(cls, ctx: CurveCtx) -> "LineBundleClass":
        return cls(Fraction(0), 0, ctx.zero_torsion())

    @classmethod
    def canonical(cls, ctx: CurveCtx, power=1) -> "LineBundleClass":
        return cls(Fraction(power), 0, ctx.zero_torsion())

    @classmethod
    def half_canonical(cls, ctx: CurveCtx, torsion: Optional[F2Vector] = None) -> "LineBundleClass":
        """A square root of K; the torsion label says which one."""
        return cls(Fraction(1, 2), 0, torsion or ctx.zero_torsion())

    @classmethod
    def two_torsion(cls, torsion: F2Vector) -> "LineBundleClass":
        return cls(Fraction(0), 0, torsion)

    def to_json(self) -> dict:
        return {"k_power": "%d/%d" % (self.k_power.numerator, self.k_power.denominator),
                "extra_degree": self.extra_degree,
                "torsion": self.torsion.to_string()}


def h0(ctx: CurveCtx, bundle: LineBundleClass) -> int:
    """Dimension of the space of sections, where the degree determines it.

    Negative degree gives 0; degree above 2g-2 gives deg - g + 1 (no
    higher cohomology).  In the special range [0, 2g-2] only the trivial
    class (1), nontrivial 2-torsion (0) and K itself (g) are covered;
    anything else is genuinely bundle-dependent and raises
    RequiresExplicitH0 rather than guessing.
    """
    d = bundle.degree(ctx)
    if d < 0:
        return 0
    if d > ctx.deg_k:
        return d - ctx.genus + 1
    if d == 0 and bundle.k_power == 0 and bundle.extra_degree == 0:
        return 1 if bundle.torsion.is_zero else 0
    if bundle.k_power == 1 and bundle.extra_degree == 0 and bundle.torsion.is_zero:
        return ctx.genus
    raise RequiresExplicitH0(bundle, d)


def milnor_wood(ctx: CurveCtx, d: int) -> bool:
    """Whether the Toledo invariant d satisfies |d| <= 2g-2."""
    return abs(d) <= ctx.deg_k


@dataclass(frozen=True)
class SectionSlot:
    """A section of ``bundle`` as a coefficient vector of length h0.

    ``h0_override`` supplies the dimension when h0 cannot be derived
    from the degree (see RequiresExplicitH0).  The zero section is the
    all-zero vector; an empty vector is the only section of a bundle
    with no sections.
    """

    bundle: LineBundleClass
    coeffs: Tuple[FieldElem, ...]
    h0_override: Optional[int] = None

    def __post_init__(self):
        if self.h0_override is not None and self.h0_override < 0:
            raise ValueError("h0_override must be non-negative, not %d"
                             % self.h0_override)
        object.__setattr__(self, "coeffs", tuple(fe(c) for c in self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def dimension(self, ctx: CurveCtx) -> int:
        if self.h0_override is not None:
            return self.h0_override
        return h0(ctx, self.bundle)

    def validate(self, ctx: CurveCtx):
        dim = self.dimension(ctx)
        if len(self.coeffs) != dim:
            raise ValueError("section slot for %r has %d coefficients, "
                             "expected %d" % (self.bundle, len(self.coeffs), dim))

    def scale(self, t) -> "SectionSlot":
        t = fe(t)
        return SectionSlot(self.bundle, tuple(t * c for c in self.coeffs),
                           self.h0_override)

    @classmethod
    def zero(cls, ctx: CurveCtx, bundle: LineBundleClass,
             h0_override: Optional[int] = None) -> "SectionSlot":
        dim = h0_override if h0_override is not None else h0(ctx, bundle)
        return cls(bundle, (ZERO,) * dim, h0_override)

    @classmethod
    def constant(cls, ctx: CurveCtx, bundle: LineBundleClass, value=1) -> "SectionSlot":
        """A section of a one-dimensional section space (e.g. the unit
        section of the trivial bundle)."""
        if h0(ctx, bundle) != 1:
            raise ValueError("constant slots need a 1-dimensional section space")
        return cls(bundle, (fe(value),))

    def to_json(self) -> dict:
        out = {"bundle": self.bundle.to_json(),
               "coeffs": [c.to_json() for c in self.coeffs]}
        if self.h0_override is not None:
            out["h0_override"] = self.h0_override
        return out


# -- verdict records ----------------------------------------------------------


class Stability(enum.Enum):
    STABLE = "Stable"
    STRICTLY_POLYSTABLE = "StrictlyPolystable"
    SEMISTABLE_NOT_POLY = "SemistableNotPoly"
    UNSTABLE = "Unstable"

    @property
    def is_polystable(self) -> bool:
        return self in (Stability.STABLE, Stability.STRICTLY_POLYSTABLE)


@dataclass(frozen=True)
class StabilityReport:
    verdict: Stability
    clause: str
    non_simple: bool = False


@dataclass(frozen=True)
class CayleyCase:
    """One of the three orthogonal rank-2 possibilities:
    kind "split" (W = L + L^-1, w1 = 0), kind "cover" (connected double
    cover, w1 != 0), kind "torsion" (W = M1 + M2 with 2-torsion M_i).
    """

    kind: str
    L: Optional[LineBundleClass] = None
    w1: Optional[F2Vector] = None
    w2: Optional[int] = None
    m1: Optional[F2Vector] = None
    m2: Optional[F2Vector] = None


@dataclass(frozen=True)
class CayleyPartner:
    case: CayleyCase
    theta_present: bool


@dataclass(frozen=True)
class SWInvariants:
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


def _root_of_k_label(bundle: LineBundleClass) -> F2Vector:
    """Torsion label of the line bundle of a maximal rank-1 datum, which
    must be encoded as a square root of K."""
    if bundle.k_power != Fraction(1, 2) or bundle.extra_degree != 0:
        raise OutOfClassifiedRange(
            "maximal rank-1 data must be encoded with L a square root of K "
            "(k_power 1/2)")
    return bundle.torsion


# -- the shapes and their rules -----------------------------------------------


class _Shape:
    """The rules every shape answers.

    ``rank``, ``toledo`` and ``stability`` hold for any datum.
    ``cayley``, ``sw``, the reduction rules ``gdelta``/``sl2xsl2``/``gp``,
    ``energy_minimum`` and ``hitchin_spin`` assume a maximal polystable
    datum in canonical form (see _require_maximal_polystable).  A shape
    without a rule raises: TypeError for an unsupported datum,
    NotPolystable for a missing spin label.
    """

    rank = 2

    def _unsupported(self, message: str):
        raise TypeError(message % (self,))

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> CayleyPartner:
        self._unsupported("no Cayley partner for %r")

    def gdelta(self, ctx: CurveCtx) -> bool:
        self._unsupported("unsupported datum for the reduction check: %r")

    sl2xsl2 = gdelta

    def gp(self, ctx: CurveCtx) -> bool:
        return self.sl2xsl2(ctx)

    def energy_minimum(self, ctx: CurveCtx) -> bool:
        self._unsupported("unsupported datum for the minimum test: %r")

    def hitchin_spin(self, ctx: CurveCtx) -> F2Vector:
        raise NotPolystable("no spin label for %r" % (self,))


@dataclass(frozen=True)
class DiagonalShape(_Shape):
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
        k = LineBundleClass.canonical(ctx)
        expect = {
            "beta1": self.N.power(2) * k,
            "beta2": self.N.power(-2) * k.power(3),
            "beta3": k.power(2),
        }
        for name, bundle in expect.items():
            slot = getattr(self, name)
            if slot.bundle != bundle:
                raise ValueError("%s slot carries bundle %r, expected %r"
                                 % (name, slot.bundle, bundle))
            slot.validate(ctx)

    def toledo(self, ctx: CurveCtx) -> int:
        return ctx.deg_k  # deg N + deg N^-1 K

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

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> CayleyPartner:
        l = self.N * LineBundleClass.half_canonical(ctx, spin).dual()
        theta = not (self.beta1.is_zero and self.beta2.is_zero
                     and self.beta3.is_zero)
        return CayleyPartner(CayleyCase(kind="split", L=l), theta)

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        c = self.c_invariant(ctx)
        if not 0 <= c <= ctx.deg_k:
            raise OutOfClassifiedRange("c = %d outside [0, 2g-2]" % c)
        return SWInvariants(ctx.deg_k, ctx.zero_torsion(), c % 2, c=c)

    def gdelta(self, ctx: CurveCtx) -> bool:
        return (self.N.degree(ctx) == ctx.genus - 1
                and self.beta1.is_zero and self.beta2.is_zero)

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return self.c_invariant(ctx) == 0

    def energy_minimum(self, ctx: CurveCtx) -> bool:
        if self.c_invariant(ctx) > 0:
            return self.beta1.is_zero and self.beta3.is_zero
        return self.beta1.is_zero and self.beta2.is_zero and self.beta3.is_zero

    def hitchin_spin(self, ctx: CurveCtx) -> F2Vector:
        # At c = 2g-2 the bundle N is forced to be the cube of a square
        # root of K; N = (K^(1/2) * s)^3 has torsion label 3s = s.
        if self.N.k_power != Fraction(3, 2) or self.N.extra_degree != 0:
            raise NotPolystable(
                "c = 2g-2 requires N to be encoded as the cube of a square "
                "root of K (k_power 3/2); got %r" % (self.N,))
        return self.N.torsion


@dataclass(frozen=True)
class CoverOrthShape(_Shape):
    """V = W (x) K^(1/2) with W an orthogonal bundle from a connected
    double cover: w1 is the nonzero class of the cover, w2 is stored
    (never computed here).  The quadratic part of the Higgs field is the
    orthogonal form; beta is recorded only as present or absent."""

    w1: F2Vector
    w2: int
    beta_present: bool = False

    def __post_init__(self):
        if self.w1.is_zero:
            raise ValueError("connected-cover shape needs nonzero w1")
        if self.w2 not in (0, 1):
            raise ValueError("w2 must be 0 or 1")

    def validate(self, ctx: CurveCtx):
        if len(self.w1) != ctx.two_g:
            raise ValueError("w1 has length %d, expected %d"
                             % (len(self.w1), ctx.two_g))

    def toledo(self, ctx: CurveCtx) -> int:
        return ctx.deg_k  # twist by K^(1/2) of a degree-0 orthogonal bundle

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        return StabilityReport(Stability.STABLE,
                               "connected-cover orthogonal bundle is stable")

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> CayleyPartner:
        return CayleyPartner(CayleyCase(kind="cover", w1=self.w1, w2=self.w2),
                             self.beta_present)

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        return SWInvariants(ctx.deg_k, self.w1, self.w2)

    def gdelta(self, ctx: CurveCtx) -> bool:
        return not self.beta_present

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return False

    def gp(self, ctx: CurveCtx) -> bool:
        return True

    def energy_minimum(self, ctx: CurveCtx) -> bool:
        return not self.beta_present


@dataclass(frozen=True)
class TorsionSplitShape(_Shape):
    """V = L1 K^(1/2) + L2 K^(1/2) with L_i 2-torsion (labels t1, t2),
    gamma diagonal from the torsion isomorphisms, beta diagonal with
    entries in H0(K^2)."""

    t1: F2Vector
    t2: F2Vector
    beta1: SectionSlot
    beta2: SectionSlot

    def validate(self, ctx: CurveCtx):
        if len(self.t1) != ctx.two_g or len(self.t2) != ctx.two_g:
            raise ValueError("torsion labels must have length 2g")
        k2 = LineBundleClass.canonical(ctx, 2)
        for name in ("beta1", "beta2"):
            slot = getattr(self, name)
            if slot.bundle != k2:
                raise ValueError("%s slot must live in H0(K^2)" % name)
            slot.validate(ctx)

    def toledo(self, ctx: CurveCtx) -> int:
        return ctx.deg_k  # twist by K^(1/2) of a degree-0 orthogonal bundle

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        if self.t1 == self.t2:
            return StabilityReport(Stability.STRICTLY_POLYSTABLE,
                                   "torsion-split, L1 = L2", non_simple=True)
        return StabilityReport(Stability.STABLE,
                               "torsion-split, L1 != L2 (stable but not simple)",
                               non_simple=True)

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> CayleyPartner:
        theta = not (self.beta1.is_zero and self.beta2.is_zero)
        return CayleyPartner(
            CayleyCase(kind="torsion", m1=self.t1 + spin, m2=self.t2 + spin),
            theta)

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        w1 = self.t1 + self.t2
        w2 = self.t1.pairing(self.t2)
        # equal labels give w1 = 0; the datum is then the c = 0 shape
        return SWInvariants(ctx.deg_k, w1, w2, c=0 if w1.is_zero else None)

    def gdelta(self, ctx: CurveCtx) -> bool:
        return self.beta1.coeffs == self.beta2.coeffs

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return True

    def energy_minimum(self, ctx: CurveCtx) -> bool:
        return self.beta1.is_zero and self.beta2.is_zero


@dataclass(frozen=True)
class SL2RDatum(_Shape):
    """Rank-1 datum (L, beta, gamma) with beta in H0(L^2 K) and
    gamma in H0(L^-2 K)."""

    L: LineBundleClass
    beta: SectionSlot
    gamma: SectionSlot

    rank = 1

    def validate(self, ctx: CurveCtx):
        k = LineBundleClass.canonical(ctx)
        if self.beta.bundle != self.L.power(2) * k:
            raise ValueError("beta slot must live in H0(L^2 K)")
        if self.gamma.bundle != self.L.power(-2) * k:
            raise ValueError("gamma slot must live in H0(L^-2 K)")
        self.beta.validate(ctx)
        self.gamma.validate(ctx)

    def toledo(self, ctx: CurveCtx) -> int:
        return self.L.degree(ctx)

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        return StabilityReport(stability_sl2(ctx, self),
                               "rank-1 criterion, deg L = %d" % self.L.degree(ctx))

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        # graded by the torsion label of L relative to the base root
        return SWInvariants(self.toledo(ctx), _root_of_k_label(self.L), 0)


@dataclass(frozen=True)
class IrreducibleImage(_Shape):
    """Image of a rank-1 datum under the irreducible embedding:
    V = L^3 + L^-1 with beta = [[0, 3b], [3b, g]] and
    gamma = [[0, g], [g, 4b]] in terms of the rank-1 fields (b, g).

    Kept as its own record because for deg L < g-1 the bundle V is not
    of the form N + N^-1 K, and because the corner entry of a normalized
    representative is quadratic in the sections, which coefficient
    vectors do not model.
    """

    L: LineBundleClass
    beta: SectionSlot
    gamma: SectionSlot

    def validate(self, ctx: CurveCtx):
        SL2RDatum(self.L, self.beta, self.gamma).validate(ctx)

    def toledo(self, ctx: CurveCtx) -> int:
        return 2 * self.L.degree(ctx)

    def stability(self, ctx: CurveCtx) -> StabilityReport:
        if not stability_sl2(ctx, SL2RDatum(self.L, self.beta, self.gamma)).is_polystable:
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

    def cayley(self, ctx: CurveCtx, spin: F2Vector) -> CayleyPartner:
        l = self.L.power(3) * LineBundleClass.half_canonical(ctx, spin).dual()
        return CayleyPartner(CayleyCase(kind="split", L=l),
                             theta_present=not self.beta.is_zero
                             or not self.gamma.is_zero)

    def sw(self, ctx: CurveCtx) -> SWInvariants:
        return SWInvariants(self.toledo(ctx), ctx.zero_torsion(), 0, c=ctx.deg_k)

    def gdelta(self, ctx: CurveCtx) -> bool:
        return False

    def sl2xsl2(self, ctx: CurveCtx) -> bool:
        return False

    def energy_minimum(self, ctx: CurveCtx) -> bool:
        return self.beta.is_zero

    def hitchin_spin(self, ctx: CurveCtx) -> F2Vector:
        return _root_of_k_label(self.L)


@dataclass(frozen=True)
class DirectSum(_Shape):
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


def rank(datum: HiggsDatum) -> int:
    return datum.rank


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
    and polystable: a sum of two maximal rank-1 data becomes the
    torsion-split shape.  Every rule that needs a maximal polystable
    datum is reached through here."""
    if not is_maximal(ctx, datum):
        raise NotMaximal("Toledo invariant %d is not maximal"
                         % toledo(ctx, datum))
    if not stability_sp4(ctx, datum).is_polystable:
        raise NotPolystable("datum is not polystable")
    if isinstance(datum, DirectSum) and len(datum.summands) == 2:
        return direct_sum(ctx, *datum.summands)
    return datum


# -- Cayley partner and topological invariants --------------------------------


def cayley_partner(ctx: CurveCtx, datum: HiggsDatum,
                   spin_choice: Optional[F2Vector] = None) -> CayleyPartner:
    """Orthogonal partner W = V* (x) L0 of a maximal polystable datum,
    for the square root L0 of K labeled by ``spin_choice`` (default: the
    base root, label zero)."""
    datum = _require_maximal_polystable(ctx, datum)
    spin = spin_choice if spin_choice is not None else ctx.zero_torsion()
    if len(spin) != ctx.two_g:
        raise ValueError("spin label must have length 2g")
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
    return _require_maximal_polystable(ctx, datum).gdelta(ctx)


def sl2xsl2_reduction_check(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Whether the datum is (isomorphic to) a sum of two maximal rank-1
    data.  For the diagonal shape this forces N^2 = K, i.e. c = 0."""
    return _require_maximal_polystable(ctx, datum).sl2xsl2(ctx)


def gp_reduction_check(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Split-or-cover criterion: a sum of two maximal rank-1 data, or
    the connected-cover shape, which splits after pulling back to the
    double cover of genus 2g-1 (degrees double, so the pulled-back
    halves are square roots of the canonical bundle upstairs)."""
    return _require_maximal_polystable(ctx, datum).gp(ctx)


# -- the irreducible embedding on bundle data -----------------------------------


def irr_embed(ctx: CurveCtx, datum: SL2RDatum) -> IrreducibleImage:
    """Image of a polystable rank-1 datum, 0 <= deg L <= g-1, under the
    irreducible embedding: V = L^3 + L^-1 with the fixed field pattern.

    The output has degree 2*deg L and is stable (polystable when deg L
    is 0 and both sections vanish).
    """
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
    Whitney product rule; a sum of two maximal rank-1 data is returned
    in torsion-split form."""
    if isinstance(a, DirectSum) and not a.summands:
        return b
    if isinstance(b, DirectSum) and not b.summands:
        return a
    if (isinstance(a, SL2RDatum) and isinstance(b, SL2RDatum)
            and is_maximal(ctx, a) and is_maximal(ctx, b)
            and not a.gamma.is_zero and not b.gamma.is_zero):
        k2 = LineBundleClass.canonical(ctx, 2)
        # beta_i in H0(L_i^2 K) = H0(K^2) once L_i^2 = K is used
        return TorsionSplitShape(_root_of_k_label(a.L), _root_of_k_label(b.L),
                                 SectionSlot(k2, a.beta.coeffs),
                                 SectionSlot(k2, b.beta.coeffs))
    return DirectSum((a, b))


# -- minima and normal forms -----------------------------------------------------


def is_hitchin_minimum(ctx: CurveCtx, datum: HiggsDatum) -> bool:
    """Whether the datum is the minimum of the energy function in its
    component: beta1 = beta3 = 0 in the c > 0 diagonal shapes, beta = 0
    entirely in the c = 0 and torsion/cover shapes."""
    return _require_maximal_polystable(ctx, datum).energy_minimum(ctx)


def iso_normal_form(ctx: CurveCtx, datum: DiagonalShape) -> DiagonalShape:
    """Canonical representative of the scaling orbit
    (beta1, beta2, beta3) ~ (t^2 beta1, t^-2 beta2, beta3), t != 0.

    For 0 < c < 2g-2 the first nonzero coefficient of beta2 is scaled to
    exactly 1 (beta2 must be nonzero, else the datum is unstable); for
    c = 2g-2 the action is trivial and the datum is returned unchanged.
    Idempotent and constant on orbits.
    """
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
