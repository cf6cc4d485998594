"""Exact symbolic oracle for the field: sympy shares no code with numfield.

A FieldElem maps onto its basis (1, sqrt2, sqrt3, sqrt6, i, i*sqrt2,
i*sqrt3, i*sqrt6) as a sympy expression; products, inverses and the
denested radicals u, v are then confirmed by sympy's own expansion and
denesting.
"""

import random
from fractions import Fraction

import pytest

from sp4higgs.numfield import FieldElem, embed_u_v

sympy = pytest.importorskip("sympy")

_REAL = [sympy.Integer(1), sympy.sqrt(2), sympy.sqrt(3), sympy.sqrt(6)]
BASIS = _REAL + [sympy.I * b for b in _REAL]


def symbolic(a: FieldElem):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * b
                       for c, b in zip(a.coeffs, BASIS)))


def dense_elem(rng, bound=12):
    return FieldElem(Fraction(rng.choice([-1, 1]) * rng.randint(1, bound),
                              rng.randint(1, bound)) for _ in range(8))


def is_same(x, y) -> bool:
    return sympy.expand(x - y) == 0


def test_products_and_inverses_expand_exactly():
    rng = random.Random(20260418)
    for _ in range(30):
        a, b = dense_elem(rng), dense_elem(rng)
        assert is_same(symbolic(a) * symbolic(b), symbolic(a * b))
        assert is_same(symbolic(a) * symbolic(a.inv()), 1)


def test_denested_radicals_match_sympy():
    u, v = embed_u_v()
    su = sympy.sqrtdenest(-4 * sympy.sqrt(6 + 3 * sympy.sqrt(3)))
    sv = sympy.radsimp(2 / sympy.sqrtdenest(sympy.sqrt(2 + sympy.sqrt(3))))
    # expand does not denest, so equality needs sympy's denesting to work
    assert is_same(su, symbolic(u))
    assert is_same(sv, symbolic(v))
