"""Field axioms, conjugation, inversion and the numeric oracle; FieldElem
against an independent Fraction reference, and its canonical form."""

import math
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


# -- FieldElem against a per-coordinate Fraction reference ---------------
#
# The reference shares no code with ``sp4higgs.numfield``: an element is
# a tuple of 8 Fractions in the documented basis order, and products and
# inverses are computed up the tower Q < Q(sqrt2) < Q(sqrt2, sqrt3) <
# Q(i, sqrt2, sqrt3), each step a quadratic extension, instead of from a
# structure-constant table.

def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def ref_scale(q, x):
    return tuple(q * a for a in x)


def _mul2(x, y):
    # Q(sqrt2): x = x0 + x1*sqrt2
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mul23(x, y):
    # Q(sqrt2, sqrt3): (x0 + x1*sqrt2) + (x2 + x3*sqrt2)*sqrt3
    p, q, r, s = x[:2], y[:2], x[2:], y[2:]
    return (ref_add(_mul2(p, q), ref_scale(3, _mul2(r, s)))
            + ref_add(_mul2(p, s), _mul2(r, q)))


def ref_mul(x, y):
    # Q(i, sqrt2, sqrt3): re + i*im with re, im in Q(sqrt2, sqrt3)
    a, b, c, d = x[:4], x[4:], y[:4], y[4:]
    return (ref_add(_mul23(a, c), ref_neg(_mul23(b, d)))
            + ref_add(_mul23(a, d), _mul23(b, c)))


def _inv2(x):
    n = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _inv23(x):
    p, r = x[:2], x[2:]
    n = _inv2(ref_add(_mul2(p, p), ref_scale(-3, _mul2(r, r))))
    return _mul2(p, n) + _mul2(ref_neg(r), n)


def ref_inv(x):
    a, b = x[:4], x[4:]
    n = _inv23(ref_add(_mul23(a, a), _mul23(b, b)))
    return _mul23(a, n) + _mul23(ref_neg(b), n)


def ref_conj(x):
    return x[:4] + ref_neg(x[4:])


REF_STYLES = {
    "small": (12, 12, 0.0),
    "sparse": (12, 12, 0.6),
    "large": (10 ** 6, 10 ** 6, 0.2),
}


def ref_elem(rng, style):
    num_bound, den_bound, p_zero = REF_STYLES[style]
    return tuple(Fraction(0) if rng.random() < p_zero
                 else Fraction(rng.randint(-num_bound, num_bound),
                               rng.randint(1, den_bound))
                 for _ in range(8))


def ref_pairs(style, seed, n=60):
    rng = random.Random(seed)
    return [(ref_elem(rng, style), ref_elem(rng, style)) for _ in range(n)]


@pytest.mark.parametrize("style", list(REF_STYLES))
def test_ring_operations_match_reference(style):
    for x, y in ref_pairs(style, 20261018):
        a, b = FieldElem(x), FieldElem(y)
        assert a.coeffs == x
        assert (a + b).coeffs == ref_add(x, y)
        assert (a - b).coeffs == ref_add(x, ref_neg(y))
        assert (-a).coeffs == ref_neg(x)
        assert (a * b).coeffs == ref_mul(x, y)
        assert a.conj().coeffs == ref_conj(x)


@pytest.mark.parametrize("style", list(REF_STYLES))
def test_rational_scalars_match_reference(style):
    rng = random.Random(20261019)
    for x, _ in ref_pairs(style, 20261020, n=30):
        a = FieldElem(x)
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        k = rng.randint(-50, 50)
        q8 = (q,) + (Fraction(0),) * 7
        assert (a + q).coeffs == (q + a).coeffs == ref_add(x, q8)
        assert (a - k).coeffs == ref_add(x, (Fraction(-k),) + (Fraction(0),) * 7)
        assert (k - a).coeffs == ref_add(ref_neg(x), (Fraction(k),) + (Fraction(0),) * 7)
        assert (a * q).coeffs == (q * a).coeffs == ref_scale(q, x)
        assert (a * k).coeffs == (k * a).coeffs == ref_scale(k, x)
        if q:
            assert (a / q).coeffs == ref_scale(1 / q, x)


@pytest.mark.parametrize("style", list(REF_STYLES))
def test_inverse_matches_reference(style):
    for x, y in ref_pairs(style, 20261021, n=30):
        if not any(x):
            continue
        a, b = FieldElem(x), FieldElem(y)
        assert a.inv().coeffs == ref_inv(x)
        assert (b / a).coeffs == ref_mul(y, ref_inv(x))


def test_equality_and_hash_match_reference():
    rng = random.Random(20261022)
    elems = [ref_elem(rng, style) for style in REF_STYLES for _ in range(20)]
    elems += [(Fraction(0),) * 8,
              (Fraction(3),) + (Fraction(0),) * 7,
              (Fraction(-5, 7),) + (Fraction(0),) * 7]
    for x in elems:
        a = FieldElem(x)
        for y in elems[:12] + [x]:
            assert (a == FieldElem(y)) == (x == y)
        # the same value reached by other routes is equal and hashes alike
        again = (a + FieldElem(elems[0])) - FieldElem(elems[0])
        assert again == a and hash(again) == hash(a)
        if not any(x[1:]):
            assert a == x[0] and hash(a) == hash(x[0])
            if x[0].denominator == 1:
                assert a == int(x[0]) and hash(a) == hash(int(x[0]))


@pytest.mark.parametrize("style", list(REF_STYLES))
def test_json_matches_reference(style):
    rng = random.Random(20261023)
    for x, _ in ref_pairs(style, 20261024, n=40):
        a = FieldElem(x)
        strings = ["%d/%d" % (c.numerator, c.denominator) for c in x]
        assert a.to_json() == strings
        assert FieldElem.from_json(strings) == a
        # unreduced input with a common factor, and a signed zero
        scaled = ["%d/%d" % (c.numerator * m, c.denominator * m)
                  for c, m in zip(x, (rng.randint(1, 1000) for _ in x))]
        assert FieldElem.from_json(scaled).coeffs == x
    assert FieldElem.from_json(["-0/5"] + ["0/3"] * 7).to_json() == ["0/1"] * 8


def assert_canonical(a):
    n, d = a._n, a._d
    assert len(n) == 8 and all(type(x) is int for x in n)
    assert type(d) is int and d > 0
    assert math.gcd(*n, d) == 1
    if not any(n):
        assert d == 1


@pytest.mark.parametrize("style", list(REF_STYLES))
def test_results_are_in_canonical_form(style):
    for x, y in ref_pairs(style, 20261025, n=30):
        a, b = FieldElem(x), FieldElem(y)
        results = [a, b, a + b, a - b, -a, a * b, a.conj(), a * 6, a + 1,
                   a - a, a * ZERO, FieldElem.from_json(a.to_json())]
        if not a.is_zero:
            results += [a.inv(), b / a]
        for r in results:
            assert_canonical(r)
    for r in (ZERO, ONE, SQRT2, fe(Fraction(-4, 6)), FieldElem.from_json(["0/9"] * 8),
              FieldElem([Fraction(2, 4)] * 8), FieldElem([0] * 8)):
        assert_canonical(r)
    assert ZERO._n == (0,) * 8 and ZERO._d == 1
