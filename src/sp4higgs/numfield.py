"""Exact arithmetic in the degree-8 number field Q(i, sqrt2, sqrt3).

Elements have 8 rational coordinates over the fixed basis

    {1, sqrt2, sqrt3, sqrt6}  (real part)
    {i, i*sqrt2, i*sqrt3, i*sqrt6}  (imaginary part)

in that order, stored as 8 integer numerators over one positive integer
denominator.  The form is canonical: the gcd of the 8 numerators and
the denominator is 1 (so zero is 8 zeros over 1), and two elements are
equal exactly when their numerators and denominators are.  All
arithmetic is exact.  ``FieldElem.coeffs`` gives the coordinates as
``fractions.Fraction``s.  Multiplication runs off a precomputed
structure-constant table, so no generic polynomial quotient-ring
machinery is involved.

The module also provides the two nested radicals

    u = -4*sqrt(6 + 3*sqrt3)   and   v = 2/sqrt(2 + sqrt3)

in denested form (u = -2*sqrt6 - 6*sqrt2, v = sqrt6 - sqrt2).  The
high-precision numeric oracle that cross-checks them lives with the
tests; this module has no dependencies outside the standard library.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub
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

# The same products over the full basis, flattened: entry 8*j + k is
# (result index, signed coefficient) of basis element j times basis
# element k, the sign carrying i * i = -1.
_MUL = tuple(
    (((j ^ k) & 4) | _REAL_MUL[j & 3][k & 3][0],
     -_REAL_MUL[j & 3][k & 3][1] if j & k & 4 else _REAL_MUL[j & 3][k & 3][1])
    for j in range(8) for k in range(8))

_ZERO_N = (0,) * 8

_BASIS_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6",
                "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")

# a JSON coordinate: the datum schema's rational pattern ^-?[0-9]+/[0-9]+$
_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


class FieldElem:
    """An element of Q(i, sqrt2, sqrt3); immutable and hashable.

    ``_n`` holds the 8 numerators and ``_d`` the common denominator, in
    the canonical form of the module docstring.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs):
        qs = [Fraction(c) for c in coeffs]
        if len(qs) != 8:
            raise ValueError("FieldElem needs exactly 8 coordinates")
        # reduced fractions over the lcm of their denominators are
        # already canonical
        d = lcm(*(q.denominator for q in qs))
        object.__setattr__(self, "_n", tuple(q.numerator * (d // q.denominator)
                                             for q in qs))
        object.__setattr__(self, "_d", d)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    @property
    def coeffs(self) -> tuple:
        """The 8 coordinates as Fractions, in basis order."""
        d = self._d
        return tuple(Fraction(x, d) for x in self._n)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "FieldElem":
        if type(q) is not int:
            q = Fraction(q)
            return _raw((q.numerator, 0, 0, 0, 0, 0, 0, 0), q.denominator)
        return _raw((q, 0, 0, 0, 0, 0, 0, 0), 1)

    @classmethod
    def from_parts(cls, one=0, sqrt2=0, sqrt3=0, sqrt6=0,
                   i=0, i_sqrt2=0, i_sqrt3=0, i_sqrt6=0) -> "FieldElem":
        return cls((one, sqrt2, sqrt3, sqrt6, i, i_sqrt2, i_sqrt3, i_sqrt6))

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._n == _ZERO_N

    @property
    def is_real(self) -> bool:
        return not any(self._n[4:])

    @property
    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational: %r" % (self,))
        return Fraction(self._n[0], self._d)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "FieldElem":
        if other.__class__ is not FieldElem:
            other = fe(other)
        return _add_or_sub(self, other, add)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElem":
        if other.__class__ is not FieldElem:
            other = fe(other)
        return _add_or_sub(self, other, sub)

    def __rsub__(self, other) -> "FieldElem":
        return _add_or_sub(fe(other), self, sub)

    def __neg__(self) -> "FieldElem":
        return _raw(tuple(map(neg, self._n)), self._d)

    def __mul__(self, other) -> "FieldElem":
        if other.__class__ is not FieldElem:
            other = fe(other)
        out = [0] * 8
        ys = [(k, y) for k, y in enumerate(other._n) if y]
        base = 0
        for x in self._n:
            if x:
                for k, y in ys:
                    t, c = _MUL[base + k]
                    out[t] += c * x * y
            base += 8
        return _canonical(out, self._d * other._d)

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
        n = self._n
        return _raw(n[:4] + tuple(map(neg, n[4:])), self._d)

    def _flip(self, k1: int, k2: int) -> "FieldElem":
        # Galois flip negating real/imag coordinates k1 and k2 in each half.
        out = list(self._n)
        for k in (k1, k2, k1 + 4, k2 + 4):
            out[k] = -out[k]
        return _raw(tuple(out), self._d)

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
        # zbar * cofactor / (m / e)
        p = zbar * cofactor
        m, e = norm._n[0], norm._d
        if m < 0:
            m, e = -m, -e
        return _canonical([x * e for x in p._n], p._d * m)

    # -- comparisons, hashing, display ---------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FieldElem.from_rational(other)
        elif not isinstance(other, FieldElem):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # rational elements compare equal to ints/Fractions, so they
        # must hash like them
        if self.is_rational:
            return hash(Fraction(self._n[0], self._d))
        return hash((self._n, self._d))

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
        d = self._d
        out = []
        for x in self._n:
            g = gcd(x, d)
            out.append("%d/%d" % (x // g, d // g))
        return out

    @classmethod
    def from_json(cls, data) -> "FieldElem":
        """Read 8 "num/den" strings; anything else raises ValueError."""
        if len(data) != 8 or any(type(s) is not str for s in data):
            raise ValueError("field element needs 8 coordinate strings")
        matches = [_RATIONAL.fullmatch(s) for s in data]
        if None in matches:
            raise ValueError("coordinate %r is not a num/den string"
                             % data[matches.index(None)])
        dens = [int(m[2]) for m in matches]
        if 0 in dens:
            raise ValueError("coordinate %r has a zero denominator"
                             % data[dens.index(0)])
        d = lcm(*dens)
        return _canonical([int(m[1]) * (d // e)
                           for m, e in zip(matches, dens)], d)


_new_elem = object.__new__
_set_n = FieldElem._n.__set__
_set_d = FieldElem._d.__set__


def _raw(n: tuple, d: int) -> FieldElem:
    """The element n/d, with (n, d) already canonical."""
    z = _new_elem(FieldElem)
    _set_n(z, n)
    _set_d(z, d)
    return z


def _canonical(n, d: int) -> FieldElem:
    """The element n/d, for 8 ints n and a positive int d."""
    g = gcd(*n, d)
    if g == 1:
        return _raw(tuple(n), d)
    return _raw(tuple(map(g.__rfloordiv__, n)), d // g)


def _add_or_sub(a: FieldElem, b: FieldElem, op) -> FieldElem:
    d, e = a._d, b._d
    if d == e:
        n = tuple(map(op, a._n, b._n))
        return _raw(n, 1) if d == 1 else _canonical(n, d)
    return _canonical([op(x * e, y * d) for x, y in zip(a._n, b._n)], d * e)


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
