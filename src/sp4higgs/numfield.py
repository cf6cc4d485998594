"""Exact arithmetic in the degree-8 number field Q(i, sqrt2, sqrt3).

Elements are stored as 8 rational coordinates over the fixed basis

    {1, sqrt2, sqrt3, sqrt6}  (real part)
    {i, i*sqrt2, i*sqrt3, i*sqrt6}  (imaginary part)

in that order.  All arithmetic is exact; rationals are
``fractions.Fraction`` (always reduced, positive denominator).
Multiplication runs off a precomputed structure-constant table, so no
generic polynomial quotient-ring machinery is involved.

The module also provides the two nested radicals

    u = -4*sqrt(6 + 3*sqrt3)   and   v = 2/sqrt(2 + sqrt3)

in denested form (u = -2*sqrt6 - 6*sqrt2, v = sqrt6 - sqrt2).  The
high-precision numeric oracle that cross-checks them lives with the
tests; this module has no dependencies outside the standard library.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = [
    "DivisionByZero",
    "FieldElem",
    "Rational",
    "ZERO",
    "ONE",
    "I_UNIT",
    "SQRT2",
    "SQRT3",
    "SQRT6",
    "fe",
    "embed_u_v",
]

Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)

Scalar = Union[int, Fraction, "FieldElem"]


class DivisionByZero(ZeroDivisionError):
    """Raised when inverting the zero element of the field."""


# Products of the real basis elements {1, sqrt2, sqrt3, sqrt6},
# as (result index, integer coefficient):
#   sqrt2*sqrt2 = 2, sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3,
#   sqrt3*sqrt3 = 3, sqrt3*sqrt6 = 3*sqrt2, sqrt6*sqrt6 = 6.
_REAL_MUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 2), (3, 1), (2, 2)),
    ((2, 1), (3, 1), (0, 3), (1, 3)),
    ((3, 1), (2, 2), (1, 3), (0, 6)),
)

_BASIS_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6",
                "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")

# a JSON coordinate: the datum schema's rational pattern ^-?[0-9]+/[0-9]+$
_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


class FieldElem:
    """An element of Q(i, sqrt2, sqrt3); immutable and hashable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != 8:
            raise ValueError("FieldElem needs exactly 8 coordinates")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "FieldElem":
        return cls((Fraction(q), _F0, _F0, _F0, _F0, _F0, _F0, _F0))

    @classmethod
    def from_parts(cls, one=0, sqrt2=0, sqrt3=0, sqrt6=0,
                   i=0, i_sqrt2=0, i_sqrt3=0, i_sqrt6=0) -> "FieldElem":
        return cls((one, sqrt2, sqrt3, sqrt6, i, i_sqrt2, i_sqrt3, i_sqrt6))

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_real(self) -> bool:
        return not any(self.coeffs[4:])

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational: %r" % (self,))
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "FieldElem":
        other = fe(other)
        return FieldElem(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElem":
        other = fe(other)
        return FieldElem(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "FieldElem":
        return fe(other) - self

    def __neg__(self) -> "FieldElem":
        return FieldElem(tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "FieldElem":
        other = fe(other)
        out = [_F0] * 8
        for idx1, x in enumerate(self.coeffs):
            if not x:
                continue
            s1, p1 = idx1 >> 2, idx1 & 3
            for idx2, y in enumerate(other.coeffs):
                if not y:
                    continue
                s2, p2 = idx2 >> 2, idx2 & 3
                k, c = _REAL_MUL[p1][p2]
                v = x * y * c
                if s1 & s2:  # i * i = -1
                    v = -v
                out[((s1 ^ s2) << 2) | k] += v
        return FieldElem(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElem":
        return self * fe(other).inv()

    def __rtruediv__(self, other) -> "FieldElem":
        return fe(other) * self.inv()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inv() ** (-n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "FieldElem":
        """Complex conjugation: negates the four i-coordinates."""
        re, im = self.coeffs[:4], self.coeffs[4:]
        return FieldElem(re + tuple(-a for a in im))

    def _flip(self, k1: int, k2: int) -> "FieldElem":
        # Galois flip negating real/imag coordinates k1 and k2 in each half.
        out = list(self.coeffs)
        for k in (k1, k2, k1 + 4, k2 + 4):
            out[k] = -out[k]
        return FieldElem(tuple(out))

    def inv(self) -> "FieldElem":
        """Exact multiplicative inverse; raises DivisionByZero on 0.

        Reduces to the real subfield via z * conj(z), then divides by the
        rational norm obtained from the two Galois flips sqrt2 -> -sqrt2
        and sqrt3 -> -sqrt3.
        """
        if self.is_zero:
            raise DivisionByZero("0 has no multiplicative inverse")
        zbar = self.conj()
        w = self * zbar  # real, nonzero
        cofactor = w._flip(1, 3) * w._flip(2, 3) * w._flip(1, 2)
        norm = w * cofactor
        if not norm.is_rational:
            raise AssertionError("field norm failed to collapse to Q")
        return zbar * cofactor * FieldElem.from_rational(1 / norm.coeffs[0])

    # -- comparisons, hashing, display ---------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FieldElem.from_rational(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # rational elements compare equal to ints/Fractions, so they
        # must hash like them
        if self.is_rational:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for c, name in zip(self.coeffs, _BASIS_NAMES):
            if not c:
                continue
            if name == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(name)
            elif c == -1:
                terms.append("-" + name)
            else:
                terms.append("%s*%s" % (c, name))
        return "FieldElem(%s)" % (" + ".join(terms) or "0")

    # -- serialization --------------------------------------------------

    def to_json(self) -> list:
        """The element as 8 "num/den" strings, basis order as documented."""
        return ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "FieldElem":
        """Read 8 "num/den" strings; anything else raises ValueError."""
        if len(data) != 8 or any(type(s) is not str for s in data):
            raise ValueError("field element needs 8 coordinate strings")
        matches = [_RATIONAL.fullmatch(s) for s in data]
        if None in matches:
            raise ValueError("coordinate %r is not a num/den string"
                             % data[matches.index(None)])
        return cls(tuple(Fraction(int(m[1]), int(m[2])) for m in matches))


def fe(x: Scalar) -> FieldElem:
    """Coerce an int, Fraction or FieldElem to a FieldElem."""
    if isinstance(x, FieldElem):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElem.from_rational(x)
    raise TypeError("cannot coerce %r to FieldElem" % (x,))


ZERO = FieldElem.from_rational(0)
ONE = FieldElem.from_rational(1)
SQRT2 = FieldElem.from_parts(sqrt2=1)
SQRT3 = FieldElem.from_parts(sqrt3=1)
SQRT6 = FieldElem.from_parts(sqrt6=1)
I_UNIT = FieldElem.from_parts(i=1)


def embed_u_v() -> tuple:
    """Exact denested forms of the two nested radicals u and v.

    u = -4*sqrt(6 + 3*sqrt3) = -2*sqrt6 - 6*sqrt2
    v =  2/sqrt(2 + sqrt3)   =  sqrt6 - sqrt2

    The denesting uses sqrt(2 + sqrt3) = (1 + sqrt3)/sqrt2 and
    sqrt(6 + 3*sqrt3) = sqrt3 * sqrt(2 + sqrt3); it is unit-tested
    against the high-precision numeric oracle in the tests.
    """
    u = FieldElem.from_parts(sqrt2=-6, sqrt6=-2)
    v = FieldElem.from_parts(sqrt2=-1, sqrt6=1)
    return u, v
