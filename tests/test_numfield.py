"""Field axioms, conjugation, inversion and the numeric oracle."""

import random
from fractions import Fraction

import mpmath
import pytest

from sp4higgs.numfield import (
    DivisionByZero, FieldElem, I_UNIT, ONE, SQRT2, SQRT3, SQRT6, ZERO,
    embed_u_v, fe,
)

from numeric_oracle import numeric


def rand_elem(rng, bound=12, complex_part=True):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
              for _ in range(8)]
    if not complex_part:
        coeffs[4:] = [Fraction(0)] * 4
    return FieldElem(coeffs)


def test_basis_products():
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT2 == fe(2)
    assert SQRT3 * SQRT3 == fe(3)
    assert SQRT6 * SQRT6 == fe(6)
    assert SQRT2 * SQRT6 == 2 * SQRT3
    assert SQRT3 * SQRT6 == 3 * SQRT2
    assert I_UNIT * I_UNIT == fe(-1)


def test_norm_identity():
    assert (ONE + I_UNIT) * (ONE - I_UNIT) == fe(2)


def test_inverse_of_sqrt2():
    inv = SQRT2.inv()
    assert inv == SQRT2 * Fraction(1, 2)
    assert SQRT2 * inv == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ZERO.inv()


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_elem(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inv() == ONE


def test_conjugation_properties():
    rng = random.Random(8)
    for _ in range(25):
        a, b = rand_elem(rng), rand_elem(rng)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()


def test_real_subfield_closed():
    rng = random.Random(9)
    for _ in range(25):
        a = rand_elem(rng, complex_part=False)
        b = rand_elem(rng, complex_part=False)
        assert (a * b).is_real and (a + b).is_real
        if not a.is_zero:
            assert a.inv().is_real


def test_powers():
    assert SQRT2 ** 4 == fe(4)
    assert (ONE + SQRT3) ** 0 == ONE
    assert SQRT2 ** -2 == fe(Fraction(1, 2))


def test_numeric_basics():
    with mpmath.workdps(40):
        assert abs(numeric(SQRT2) - mpmath.sqrt(2)) < 1e-30
        assert numeric(ZERO) == 0
        val = numeric(fe(Fraction(1, 3)) + SQRT6)
        assert abs(val - (mpmath.mpf(1) / 3 + mpmath.sqrt(6))) < 1e-30


def test_numeric_multiplicative():
    rng = random.Random(10)
    for _ in range(20):
        a, b = rand_elem(rng), rand_elem(rng)
        lhs = numeric(a * b)
        rhs = numeric(a) * numeric(b)
        denom = max(1.0, abs(mpmath.mpc(rhs)))
        assert abs(mpmath.mpc(lhs) - mpmath.mpc(rhs)) / denom < 1e-9


def test_numeric_precision_with_large_coefficients():
    big = fe(999_983) * SQRT2 + fe(Fraction(999_979, 7)) * SQRT6
    with mpmath.workdps(60):
        expected = (mpmath.mpf(999_983) * mpmath.sqrt(2)
                    + mpmath.mpf(999_979) / 7 * mpmath.sqrt(6))
        assert abs(numeric(big) - expected) < 1e-12


def test_u_v_denesting_against_nested_radicals():
    u, v = embed_u_v()
    assert u == FieldElem.from_parts(sqrt2=-6, sqrt6=-2)
    assert v == SQRT6 - SQRT2
    with mpmath.workdps(40):
        u_nested = -4 * mpmath.sqrt(6 + 3 * mpmath.sqrt(3))
        v_nested = 2 / mpmath.sqrt(2 + mpmath.sqrt(3))
        assert abs(numeric(u) - u_nested) < 1e-12
        assert abs(numeric(v) - v_nested) < 1e-12
        # cross-check the exact product against the float product
        assert abs(numeric(u * v) - u_nested * v_nested) < 1e-12


def test_json_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_elem(rng)
        assert FieldElem.from_json(a.to_json()) == a
    assert SQRT2.to_json()[1] == "1/1"


def test_coercion_and_equality():
    assert fe(3) == 3
    assert fe(Fraction(1, 2)) + Fraction(1, 2) == ONE
    with pytest.raises(TypeError):
        fe(1.5)


def test_hash_consistent_with_cross_type_equality():
    assert hash(fe(3)) == hash(3)
    assert hash(fe(Fraction(2, 7))) == hash(Fraction(2, 7))
    assert len({fe(5), 5, Fraction(5)}) == 1
    assert hash(SQRT2) == hash(SQRT2 + ZERO)
