"""Exact arithmetic in the degree-8 number field Q(i, sqrt2, sqrt3).

Elements have 8 rational coordinates over the fixed basis

    {1, sqrt2, sqrt3, sqrt6}  (real part)
    {i, i*sqrt2, i*sqrt3, i*sqrt6}  (imaginary part)

in that order, stored as 8 integer numerators over one positive integer
denominator.  The form is canonical: the gcd of the 8 numerators and
the denominator is 1 (so zero is 8 zeros over 1), and two elements are
equal exactly when their numerators and denominators are.  All
arithmetic is exact.  ``FieldElem.coeffs`` gives the coordinates as
``fractions.Fraction``s.

The field is a tower of quadratic extensions

    Q < Q(sqrt2) < Q(sqrt2, sqrt3) < Q(sqrt2, sqrt3)(i),

and the product and inverse run through it on the ints.  A product
whose right factor has more than 2 nonzero coordinates is one
straight-line formula (Karatsuba over i: three products in
Q(sqrt2, sqrt3), 48 int multiplies); a sparser one loops over a
precomputed structure-constant table.  An inverse takes the norm down
the tower, one quadratic step at a time.  No generic polynomial
quotient-ring machinery is involved.

Polynomials in field elements (matrix grids, determinants) can also be
evaluated on numerators alone, with no gcd, in the three rings that
``matalg._ring`` chooses from: plain ints for rational values,
``_QuadElem`` (3 ints, a + b g with g one basis element and g^2 an int)
for values in one quadratic subfield, and ``_IntElem`` (8 ints) for any
value.

The module also provides the two nested radicals

    u = -4*sqrt(6 + 3*sqrt3)   and   v = 2/sqrt(2 + sqrt3)

in denested form (u = -2*sqrt6 - 6*sqrt2, v = sqrt6 - sqrt2).  The
high-precision numeric oracle that cross-checks them lives with the
tests; this module has no dependencies outside the standard library.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from math import gcd, lcm, prod
from operator import add, neg, sub
from typing import Union

from ._record import Immutable

__all__ = [
    "DivisionByZero",
    "FieldElem",
    "ZERO",
    "ONE",
    "I_UNIT",
    "SQRT2",
    "SQRT3",
    "SQRT6",
    "fe",
    "embed_u_v",
]

Scalar = Union[int, Fraction, "FieldElem"]


class DivisionByZero(ZeroDivisionError):
    """Raised when inverting the zero element of the field."""


# Basis element j is the product of sqrt2, sqrt3 and i over the set
# bits 1, 2 and 4 of j, so b_j b_k = c b_(j xor k), with c the product
# of the squares 2, 3 and -1 over the bits that j and k share.  Entry
# 8*j + k is (j xor k, c).
_MUL = tuple((j ^ k, prod(s for bit, s in ((1, 2), (2, 3), (4, -1)) if j & k & bit))
             for j in range(8) for k in range(8))

_ZERO_N = (0,) * 8

_BASIS_NAMES = ("1", "sqrt2", "sqrt3", "sqrt6",
                "i", "i*sqrt2", "i*sqrt3", "i*sqrt6")

# a JSON coordinate num/den; the datum schema's rational pattern also
# excludes a zero denominator, which from_json rejects after the match
_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")
# 8 coordinates joined by commas; _RATIONAL matches no comma, so the
# joined string matches exactly when each coordinate matches on its own
_EIGHT = re.compile(",".join([_RATIONAL.pattern] * 8))


def _coerced(method):
    """The binary operator ``method`` with its operand passed through
    ``_operand`` (a FieldElem as it is), or NotImplemented for an operand
    the field does not take, so that the other operand's method can run."""

    @wraps(method)
    def coerced(self, other):
        if other.__class__ is not FieldElem:
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        return method(self, other)

    return coerced


class FieldElem(Immutable):
    """An element of Q(i, sqrt2, sqrt3); immutable and hashable.

    ``_n`` holds the 8 numerators and ``_d`` the common denominator, in
    the canonical form of the module docstring.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs):
        qs = list(coeffs)
        if len(qs) != 8:
            raise ValueError("FieldElem needs exactly 8 coordinates")
        for q in qs:
            if not isinstance(q, (int, Fraction)):
                raise TypeError("coordinate %r is not an int or Fraction" % (q,))
        # ints and reduced fractions over the lcm of their denominators
        # are already canonical
        d = lcm(*(q.denominator for q in qs))
        object.__setattr__(self, "_n", tuple(q.numerator * (d // q.denominator)
                                             for q in qs))
        object.__setattr__(self, "_d", d)

    def __reduce__(self):
        # copy and pickle rebuild through _raw, not setattr
        return _raw, (self._n, self._d)

    @property
    def coeffs(self) -> tuple:
        """The 8 coordinates as Fractions, in basis order."""
        d = self._d
        return tuple(Fraction(x, d) for x in self._n)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_parts(cls, one=0, sqrt2=0, sqrt3=0, sqrt6=0,
                   i=0, i_sqrt2=0, i_sqrt3=0, i_sqrt6=0) -> "FieldElem":
        return cls((one, sqrt2, sqrt3, sqrt6, i, i_sqrt2, i_sqrt3, i_sqrt6))

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._n == _ZERO_N

    @property
    def is_rational(self) -> bool:
        return not any(self._n[1:])

    # -- ring operations ----------------------------------------------

    @_coerced
    def __add__(self, other) -> "FieldElem":
        return _canonical(*_combined(self, other, add))

    __radd__ = __add__

    @_coerced
    def __sub__(self, other) -> "FieldElem":
        return _canonical(*_combined(self, other, sub))

    @_coerced
    def __rsub__(self, other) -> "FieldElem":
        return _canonical(*_combined(other, self, sub))

    def __neg__(self) -> "FieldElem":
        return _raw(tuple(map(neg, self._n)), self._d)

    @_coerced
    def __mul__(self, other) -> "FieldElem":
        out = [0] * 8
        _mul_into(out, 0, self._n, _factor(other._n))
        return _canonical(out, self._d * other._d)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other) -> "FieldElem":
        return self * other.inv()

    @_coerced
    def __rtruediv__(self, other) -> "FieldElem":
        return other * self.inv()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inv() ** (-n)
        # square-and-multiply from the low bit, squaring only while
        # bits remain
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ONE if result is None else result

    def inv(self) -> "FieldElem":
        """Exact multiplicative inverse; raises DivisionByZero on 0.

        Takes the norm down the tower on the numerators n: with
        n = A + iB over Q(sqrt2, sqrt3), w = n conj(n) = A^2 + B^2 lies
        in Q(sqrt2, sqrt3), v = w w' in Q(sqrt2) (' negates sqrt3) and
        u = v v'' in Q (" negates sqrt2), so

            1 / n = conj(n) w' v'' / u,

        two products in Q(sqrt2, sqrt3) and one gcd.
        """
        if self.is_zero:
            raise DivisionByZero("0 has no multiplicative inverse")
        a0, a1, a2, a3, b0, b1, b2, b3 = self._n
        w0 = (a0 * a0 + b0 * b0 + 2 * (a1 * a1 + b1 * b1)
              + 3 * (a2 * a2 + b2 * b2 + 2 * (a3 * a3 + b3 * b3)))
        w1 = 2 * (a0 * a1 + b0 * b1 + 3 * (a2 * a3 + b2 * b3))
        w2 = 2 * (a0 * a2 + b0 * b2 + 2 * (a1 * a3 + b1 * b3))
        w3 = 2 * (a0 * a3 + b0 * b3 + a1 * a2 + b1 * b2)
        # v = (w0 + w1 sqrt2)^2 - 3 (w2 + w3 sqrt2)^2
        v0 = w0 * w0 + 2 * w1 * w1 - 3 * (w2 * w2 + 2 * w3 * w3)
        v1 = 2 * (w0 * w1 - 3 * w2 * w3)
        u = v0 * v0 - 2 * v1 * v1
        if not u:
            raise AssertionError("field norm failed to collapse to Q")
        # c = d w' v'' (d the denominator, so 1 / self = conj(n) c / u)
        d = self._d if u > 0 else -self._d
        c0, c1 = d * (v0 * w0 - 2 * v1 * w1), d * (v0 * w1 - v1 * w0)
        c2, c3 = d * (2 * v1 * w3 - v0 * w2), d * (v1 * w2 - v0 * w3)
        out = [a0 * c0 + 2 * (a1 * c1) + 3 * (a2 * c2 + 2 * (a3 * c3)),
               a0 * c1 + a1 * c0 + 3 * (a2 * c3 + a3 * c2),
               a0 * c2 + a2 * c0 + 2 * (a1 * c3 + a3 * c1),
               a0 * c3 + a3 * c0 + a1 * c2 + a2 * c1,
               -(b0 * c0 + 2 * (b1 * c1) + 3 * (b2 * c2 + 2 * (b3 * c3))),
               -(b0 * c1 + b1 * c0 + 3 * (b2 * c3 + b3 * c2)),
               -(b0 * c2 + b2 * c0 + 2 * (b1 * c3 + b3 * c1)),
               -(b0 * c3 + b3 * c0 + b1 * c2 + b2 * c1)]
        return _canonical(out, abs(u))

    # -- comparisons, hashing, display ---------------------------------

    @_coerced
    def __eq__(self, other) -> bool:
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
        """The element as 8 "num/den" strings in lowest terms, basis order
        as documented; zero is eight "0/1"."""
        d = self._d
        out = []
        for x in self._n:
            g = gcd(x, d)
            out.append("%d/%d" % (x // g, d // g))
        return out

    @classmethod
    def from_json(cls, data) -> "FieldElem":
        """Read a list or tuple of 8 "num/den" strings; anything else
        raises ValueError.

        The 8 strings are joined by commas and read in one match of
        ``_EIGHT``, which gives the 8 numerators and 8 denominators as its
        groups.  Only when that match fails is each string matched on its
        own, to name the first one that is not num/den.  The groups are
        read into locals and the numerators brought over one lcm of the
        denominators, which is 0 exactly when a denominator is.  Every
        element, zero too, comes back new and in canonical form.
        """
        if type(data) not in (list, tuple) or len(data) != 8:
            raise ValueError("field element needs 8 coordinate strings")
        try:
            joined = ",".join(data)
        except TypeError:  # an item that is not a string
            raise ValueError("field element needs 8 coordinate strings") from None
        m = _EIGHT.fullmatch(joined)
        if m is None:
            bad = next(s for s in data if _RATIONAL.fullmatch(s) is None)
            raise ValueError("coordinate %r is not a num/den string" % bad)
        (a0, b0, a1, b1, a2, b2, a3, b3,
         a4, b4, a5, b5, a6, b6, a7, b7) = map(int, m.groups())
        d = lcm(b0, b1, b2, b3, b4, b5, b6, b7)
        if d == 0:
            raise ValueError("coordinate %r has a zero denominator"
                             % data[(b0, b1, b2, b3, b4, b5, b6, b7).index(0)])
        return _canonical((a0 * (d // b0), a1 * (d // b1), a2 * (d // b2),
                           a3 * (d // b3), a4 * (d // b4), a5 * (d // b5),
                           a6 * (d // b6), a7 * (d // b7)), d)


_new_elem = object.__new__
_set_n = FieldElem._n.__set__
_set_d = FieldElem._d.__set__


def _raw(n: tuple, d: int) -> FieldElem:
    """The element n/d, with (n, d) already canonical."""
    z = _new_elem(FieldElem)
    _set_n(z, n)
    _set_d(z, d)
    return z


def _lowest(ints, d: int) -> tuple:
    """The ints and the positive int d divided by their gcd, as
    (tuple, int): the lowest terms of ints / d."""
    g = gcd(d, *ints)
    if g == 1:
        return tuple(ints), d
    return tuple(map(g.__rfloordiv__, ints)), d // g


def _canonical(n, d: int) -> FieldElem:
    """The element n/d, for 8 ints n and a positive int d."""
    return _raw(*_lowest(n, d))


def _combined(a, b, op) -> tuple:
    """The unreduced (ints, d) of ``op(a, b)``, ``op`` add or sub, for two
    values a and b each stored as ints ``_n`` over a positive ``_d``
    (FieldElems, or SqMatrix of one dimension)."""
    d, e = a._d, b._d
    if d == e:
        return list(map(op, a._n, b._n)), d
    return [op(x * e, y * d) for x, y in zip(a._n, b._n)], d * e


def _common(elems) -> tuple:
    """(ints, d) for the FieldElems ``elems`` over the lcm d of their
    denominators: the numerators of each, in order, in one flat list.
    Canonical elements over that lcm are canonical together."""
    d = lcm(*[a._d for a in elems])
    ints = []
    for a in elems:
        if a._d == d:
            ints += a._n
        else:
            m = d // a._d
            ints += [x * m for x in a._n]
    return ints, d


def _nonzero(n) -> list:
    """The nonzero coordinates of the 8 ints n, as (index, int) pairs."""
    return [(k, y) for k, y in enumerate(n) if y]


def _factor(n):
    """The 8 ints n as the right factor ``ys`` of ``_mul_into``: n itself
    when more than 2 of them are nonzero, else their ``_nonzero`` pairs."""
    return n if n.count(0) < 6 else _nonzero(n)


def _mul_into(out: list, off: int, xs, ys):
    """Add the numerators of x * y to out[off:off + 8], for x given as
    its 8 ints ``xs`` and y as the ``_factor`` ``ys``; no gcd.  A dense y
    goes through the tower, a sparse one through the table."""
    if len(ys) == 8:
        _tower_mul_into(out, off, xs, ys)
        return
    base = 0
    for x in xs:
        if x:
            for k, y in ys:
                t, c = _MUL[base + k]
                out[off + t] += c * x * y
        base += 8


def _tower_mul_into(out: list, off: int, x, y):
    """Add the numerators of x * y to out[off:off + 8], for x and y given
    as 8 ints each, in one straight line.  With x = A + iB and
    y = C + iD over Q(sqrt2, sqrt3), the product is
    (AC - BD) + i((A + B)(C + D) - AC - BD): three products in
    Q(sqrt2, sqrt3), each 16 int multiplies."""
    a0, a1, a2, a3, b0, b1, b2, b3 = x
    c0, c1, c2, c3, d0, d1, d2, d3 = y
    # (p0 + p1 sqrt2 + p2 sqrt3 + p3 sqrt6) = AC, q = BD
    p0 = a0 * c0 + 2 * (a1 * c1) + 3 * (a2 * c2 + 2 * (a3 * c3))
    p1 = a0 * c1 + a1 * c0 + 3 * (a2 * c3 + a3 * c2)
    p2 = a0 * c2 + a2 * c0 + 2 * (a1 * c3 + a3 * c1)
    p3 = a0 * c3 + a3 * c0 + a1 * c2 + a2 * c1
    q0 = b0 * d0 + 2 * (b1 * d1) + 3 * (b2 * d2 + 2 * (b3 * d3))
    q1 = b0 * d1 + b1 * d0 + 3 * (b2 * d3 + b3 * d2)
    q2 = b0 * d2 + b2 * d0 + 2 * (b1 * d3 + b3 * d1)
    q3 = b0 * d3 + b3 * d0 + b1 * d2 + b2 * d1
    out[off] += p0 - q0
    out[off + 1] += p1 - q1
    out[off + 2] += p2 - q2
    out[off + 3] += p3 - q3
    # A + B and C + D, for the third product
    a0 += b0
    a1 += b1
    a2 += b2
    a3 += b3
    c0 += d0
    c1 += d1
    c2 += d2
    c3 += d3
    out[off + 4] += (a0 * c0 + 2 * (a1 * c1) + 3 * (a2 * c2 + 2 * (a3 * c3))
                     - p0 - q0)
    out[off + 5] += a0 * c1 + a1 * c0 + 3 * (a2 * c3 + a3 * c2) - p1 - q1
    out[off + 6] += a0 * c2 + a2 * c0 + 2 * (a1 * c3 + a3 * c1) - p2 - q2
    out[off + 7] += a0 * c3 + a3 * c0 + a1 * c2 + a2 * c1 - p3 - q3


class _IntElem(tuple):
    """8 int numerators in basis order, over a denominator kept by the
    caller: a ring element type for evaluating a polynomial on ints, with
    no gcd.  ``+`` adds and ``*`` multiplies the numerators (so
    denominators multiply too); an int operand scales."""

    __slots__ = ()

    def __bool__(self):
        return any(self)

    def __add__(self, other):
        return _IntElem(map(add, self, other))

    def __sub__(self, other):
        return _IntElem(map(sub, self, other))

    def __mul__(self, other):
        if other.__class__ is int:
            return _IntElem([other * x for x in self])
        out = [0] * 8
        _mul_into(out, 0, self, _factor(other))
        return _IntElem(out)

    __rmul__ = __mul__

    def reciprocal(self) -> tuple:
        """(r, u) with 1 / self = r / u, r an _IntElem and u a positive
        int: one field inverse, through the tower; self is nonzero."""
        z = _canonical(self, 1).inv()
        return _IntElem(z._n), z._d


class _QuadElem(tuple):
    """a + b g for the 3 ints (a, b, s), where g is one basis element b_k
    (k > 0) with g^2 = s, over a denominator kept by the caller: the
    ring element type for values in the quadratic subfield Q(b_k), with
    no gcd.  ``+`` and ``-`` add and subtract, ``*`` multiplies (so
    denominators multiply too); an int operand scales."""

    __slots__ = ()

    def __bool__(self):
        return bool(self[0] or self[1])

    def __add__(self, other):
        a, b, s = self
        return _QuadElem((a + other[0], b + other[1], s))

    def __sub__(self, other):
        a, b, s = self
        return _QuadElem((a - other[0], b - other[1], s))

    def __mul__(self, other):
        a, b, s = self
        if other.__class__ is int:
            return _QuadElem((other * a, other * b, s))
        c, e, _ = other
        return _QuadElem((a * c + s * (b * e), a * e + b * c, s))

    __rmul__ = __mul__

    def reciprocal(self) -> tuple:
        """(r, u) with 1 / self = r / u, r a _QuadElem and u a positive
        int: the conjugate a - b g over the norm a^2 - s b^2, which is
        nonzero for nonzero self since s is not a rational square."""
        a, b, s = self
        u = a * a - s * (b * b)
        if u > 0:
            return _QuadElem((a, -b, s)), u
        return _QuadElem((-a, b, s)), -u


def _operand(x):
    """x, not a FieldElem, as a FieldElem if it is an int or Fraction,
    else NotImplemented, so that the other operand's method can run."""
    if isinstance(x, (int, Fraction)):
        # an int is its own numerator over 1, and a Fraction is in lowest terms
        return _raw((x.numerator, 0, 0, 0, 0, 0, 0, 0), x.denominator)
    return NotImplemented


def fe(x: Scalar) -> FieldElem:
    """Coerce an int, Fraction or FieldElem to a FieldElem."""
    if x.__class__ is FieldElem:
        return x
    y = _operand(x)
    if y is NotImplemented:
        raise TypeError("cannot coerce %r to FieldElem" % (x,))
    return y


ZERO = fe(0)
ONE = fe(1)
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
