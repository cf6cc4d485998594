"""Exact arithmetic in Q(i, sqrt2, sqrt3).

Every scalar in this project is an element of one fixed degree-8 number
field, stored as 8 exact rational coordinates.  There is no floating
point anywhere in the production path: even the nested radicals below
are checked by exact squaring.
"""

from fractions import Fraction

from sp4higgs import (
    FieldElem, I_UNIT, ONE, SQRT2, SQRT3, SQRT6, embed_u_v, fe,
)

print("== basis products ==")
print("sqrt2 * sqrt3      =", SQRT2 * SQRT3)
print("(1 + i)(1 - i)     =", (ONE + I_UNIT) * (ONE - I_UNIT))
print("inv(sqrt2)         =", SQRT2.inv())
print("sqrt6 ** 2         =", SQRT6 ** 2)

print()
print("== a messier element and its exact inverse ==")
x = fe(Fraction(3, 7)) + 2 * SQRT2 - SQRT6 * Fraction(1, 5) + I_UNIT * SQRT3
print("x                  =", x)
print("x * x.inv()        =", x * x.inv())

print()
print("== the two nested radicals, denested ==")
# u = -4 sqrt(6 + 3 sqrt3) and v = 2 / sqrt(2 + sqrt3) live in the real
# subfield once denested; they feed the change-of-basis matrix that
# diagonalizes the compact torus of the irreducible embedding.
u, v = embed_u_v()
print("u                  =", u)
print("v                  =", v)
# squaring recovers the nested radicands exactly, no floating point:
# u^2 = 16 (6 + 3 sqrt3) and v^2 = 4 / (2 + sqrt3) = 4 (2 - sqrt3)
print("u * u              =", u * u)
print("v * v              =", v * v)
assert u * u == 96 + 48 * SQRT3 and v * v == 8 - 4 * SQRT3

print()
print("== serialization: 8 'num/den' strings ==")
print(x.to_json())
print("roundtrip ok       =", FieldElem.from_json(x.to_json()) == x)
