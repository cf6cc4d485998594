"""Field axioms, conjugation, inversion and the numeric oracle; FieldElem
against an independent Fraction reference, and its canonical form."""

import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from sp4higgs import CurveCtx, jsonio
from sp4higgs.jsonio import datum_to_json
from sp4higgs.matalg import SqMatrix
from sp4higgs.numfield import (
    DivisionByZero, FieldElem, I_UNIT, ONE, SQRT2, SQRT3, SQRT6, ZERO,
    embed_u_v, fe,
)

from builders import sl2_of_degree
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


def test_inverse_checks_that_the_norm_reaches_q(monkeypatch):
    # with the zero test defeated, 0 reaches the norm, which is 0
    monkeypatch.setattr(FieldElem, "is_zero", property(lambda self: False))
    with pytest.raises(AssertionError) as info:
        ZERO.inv()
    assert str(info.value) == "field norm failed to collapse to Q"


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_elem(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inv() == ONE


def test_real_subfield_closed():
    def is_real(x):
        return not any(x.coeffs[4:])

    rng = random.Random(9)
    for _ in range(25):
        a = rand_elem(rng, complex_part=False)
        b = rand_elem(rng, complex_part=False)
        assert is_real(a * b) and is_real(a + b)
        if not a.is_zero:
            assert is_real(a.inv())


def test_powers():
    assert SQRT2 ** 4 == fe(4)
    assert (ONE + SQRT3) ** 0 == ONE
    assert SQRT2 ** -2 == fe(Fraction(1, 2))


def dense_coeffs(rng, bound=12):
    """8 nonzero Fraction coordinates."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                     rng.randint(1, bound)) for _ in range(8)]


def test_pow_matches_repeated_products():
    rng = random.Random(20261027)
    for _ in range(3):
        x = FieldElem(dense_coeffs(rng))
        for n in range(-7, 10):
            want = ONE
            for _ in range(abs(n)):
                want = want * (x if n > 0 else x.inv())
            assert x ** n == want


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # square-and-multiply needs bit_length - 1 squarings and popcount - 1
    # further products; x ** 3 is two multiplies
    calls = []
    mul = FieldElem.__mul__

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    x = FieldElem(dense_coeffs(random.Random(20261028)))
    monkeypatch.setattr(FieldElem, "__mul__", counting)
    for n in range(-9, 10):
        calls.clear()
        x ** n
        m = abs(n)
        assert len(calls) == (max(m.bit_length() - 1, 0)
                              + max(bin(m).count("1") - 1, 0)), n


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


def test_constructor_takes_only_what_fe_takes():
    # a float or a string coordinate was passed through Fraction(c):
    # 0.1 became 3602879701896397/36028797018963968 and "1/3" a third
    from decimal import Decimal
    for bad in (0.1, 1.0, "1/3", "2", Decimal("0.5"), None, 1j, SQRT2, True, False):
        with pytest.raises(TypeError):
            FieldElem([bad] + [0] * 7)
        with pytest.raises(TypeError):
            FieldElem([0] * 7 + [bad])
        if not isinstance(bad, FieldElem):
            with pytest.raises(TypeError):
                fe(bad)
    x = FieldElem([1, Fraction(-2, 6), 0, 1, 0, Fraction(5), -7, 0])
    assert x.coeffs == (1, Fraction(-1, 3), 0, 1, 0, 5, -7, 0)
    assert ONE != True and ZERO != False  # noqa: E712
    assert FieldElem(Fraction(k, 4) for k in range(8)) == FieldElem(
        [Fraction(k, 4) for k in range(8)])
    with pytest.raises(ValueError):
        FieldElem([1] * 7)


# a bool is not 1: every entry point of the field and the matrices takes
# exactly an int or a Fraction, as record fields and F2Vector do
@pytest.mark.parametrize("build, message", [
    (lambda: fe(True), "cannot coerce True to FieldElem"),
    (lambda: FieldElem([True] + [0] * 7), "coordinate True is not an int or Fraction"),
    (lambda: FieldElem([0] * 7 + [False]), "coordinate False is not an int or Fraction"),
    (lambda: ONE * True, "unsupported operand type(s) for *: 'FieldElem' and 'bool'"),
    (lambda: True + SQRT3, "unsupported operand type(s) for +: 'bool' and 'FieldElem'"),
    (lambda: SqMatrix([[True, 0], [0, 1]]), "cannot coerce True to FieldElem"),
    (lambda: SqMatrix.identity(2).scale(True), "cannot coerce True to FieldElem"),
], ids=["fe", "FieldElem-first", "FieldElem-last", "mul", "radd", "SqMatrix", "scale"])
def test_a_bool_is_not_a_scalar(build, message):
    with pytest.raises(TypeError, match="^%s$" % re.escape(message)):
        build()


def test_foreign_operands_defer_then_raise():
    # an operand the field does not take gets NotImplemented, so Python
    # tries the other operand's method and raises TypeError only then
    for other in ("x", 1.5, None):
        for method in ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__eq__"):
            assert getattr(SQRT3, method)(other) is NotImplemented
        assert SQRT3 != other
        with pytest.raises(TypeError):
            SQRT3 + other
        with pytest.raises(TypeError):
            other - SQRT3
        with pytest.raises(TypeError):
            SQRT3 * other
        with pytest.raises(TypeError):
            other / SQRT3


def test_elements_are_immutable():
    with pytest.raises(AttributeError) as info:
        ONE._d = 2
    assert str(info.value) == "FieldElem is immutable"


def test_repr_writes_unit_coordinates_without_a_factor():
    x = FieldElem.from_parts(one=Fraction(1, 2), sqrt2=1, sqrt3=-1, i_sqrt6=-2)
    assert repr(x) == "FieldElem(1/2 + sqrt2 + -sqrt3 + -2*i*sqrt6)"


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
        assert (3 / a).coeffs == ref_scale(3, ref_inv(x))


# basis indices spanning each proper subfield: Q, Q(sqrt2), Q(sqrt3),
# Q(sqrt6), Q(i), Q(i sqrt2), Q(i sqrt3), Q(i sqrt6), Q(sqrt2, sqrt3)
SUBFIELDS = ((0,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
             (0, 1, 2, 3))


@pytest.mark.parametrize("support", SUBFIELDS)
def test_inverse_on_proper_subfields(support):
    rng = random.Random(20261029 + sum(support))
    for bound in (12, 10 ** 9):
        for _ in range(20):
            x = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                      if k in support else Fraction(0) for k in range(8))
            if not any(x):
                continue
            a = FieldElem(x)
            assert a.inv().coeffs == ref_inv(x)
            assert not any(c for k, c in enumerate(a.inv().coeffs)
                           if k not in support)
            assert a * a.inv() == ONE


def test_inverse_when_the_first_norm_is_rational():
    # z = p b_j + i q b_k for real basis elements b_j, b_k has
    # w = z conj(z) = p^2 b_j^2 + q^2 b_k^2 rational (w1 = w2 = w3 = 0),
    # so the two lower steps of the tower see a rational norm
    rng = random.Random(20261030)
    for j in range(4):
        for k in range(4):
            for _ in range(5):
                x = [Fraction(0)] * 8
                x[j] = Fraction(rng.randint(1, 40), rng.randint(1, 40))
                x[4 + k] = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
                x = tuple(x)
                assert not any(ref_mul(x, ref_conj(x))[1:])
                assert FieldElem(x).inv().coeffs == ref_inv(x)
    for x in ((1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0, 0),
              (0, 0, 0, 0, 1, 1, 0, 0), (2, 0, 0, 0, 0, 0, 0, 3)):
        x = tuple(map(Fraction, x))
        assert FieldElem(x).inv().coeffs == ref_inv(x)


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
    # zeros not in canonical form decode to ZERO and encode canonically,
    # alone or among "0/1", whose joined string is then near the zero's
    for zero in ("-0/5", "-0/1", "00/1", "0/01", "0/7"):
        for data in ([zero] + ["0/3"] * 7, [zero] * 8, ["0/1"] * 7 + [zero]):
            a = FieldElem.from_json(data)
            assert a == ZERO and a.to_json() == ["0/1"] * 8
            assert_canonical(a)


_ONE_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def reference_from_json(data):
    """Decode coordinate by coordinate into Fractions, raising the same
    ValueError clauses as ``FieldElem.from_json``."""
    if (type(data) not in (list, tuple) or len(data) != 8
            or any(type(s) is not str for s in data)):
        raise ValueError("field element needs 8 coordinate strings")
    for s in data:
        if _ONE_RATIONAL.fullmatch(s) is None:
            raise ValueError("coordinate %r is not a num/den string" % s)
    for s in data:
        if int(s.split("/")[1]) == 0:
            raise ValueError("coordinate %r has a zero denominator" % s)
    return tuple(Fraction(*map(int, s.split("/"))) for s in data)


def decode_outcome(decode, data):
    try:
        return decode(data)
    except ValueError as exc:
        return str(exc)


_VALID = ["1/2"] * 8
DECODE_ERRORS = {
    "comma inside a coordinate": (["1/2,3/4"] + _VALID[1:],
                                  "coordinate '1/2,3/4' is not a num/den string"),
    "comma making 8 from 7": (["1/2,3/4"] + _VALID[2:],
                              "field element needs 8 coordinate strings"),
    "two bad, the first named": (_VALID[:2] + ["x/1"] + _VALID[3:6] + ["1.5"] + _VALID[7:],
                                 "coordinate 'x/1' is not a num/den string"),
    "non-ASCII digits": (_VALID[:4] + ["١/٢"] + _VALID[5:],
                         "coordinate '١/٢' is not a num/den string"),
    "bad after a zero denominator": (["1/0"] + _VALID[1:7] + ["a"],
                                     "coordinate 'a' is not a num/den string"),
    "zero denominator after valid ones": (_VALID[:5] + ["3/00"] + _VALID[6:],
                                          "coordinate '3/00' has a zero denominator"),
    "two zero denominators": (_VALID[:3] + ["0/0", "7/0"] + _VALID[5:],
                              "coordinate '0/0' has a zero denominator"),
    "empty coordinate": (_VALID[:7] + [""],
                         "coordinate '' is not a num/den string"),
    "trailing comma": (_VALID[:7] + ["1/2,"],
                       "coordinate '1/2,' is not a num/den string"),
    "seven strings": (_VALID[:7], "field element needs 8 coordinate strings"),
    "nine strings": (_VALID + ["1/2"], "field element needs 8 coordinate strings"),
    "a non-string": (_VALID[:7] + [1], "field element needs 8 coordinate strings"),
    "a nested list": ([_VALID[:1]] + _VALID[1:],
                      "field element needs 8 coordinate strings"),
    "a dict of 8 string keys": (dict.fromkeys(["1/2"] + ["0/%d" % k for k in range(1, 8)], 0),
                                "field element needs 8 coordinate strings"),
    "a string of 8 characters": ("0/1,0/1,", "field element needs 8 coordinate strings"),
    "eight zeros with a comma moved": (["0/1,0/1"] + ["0/1"] * 6 + [""],
                                       "coordinate '0/1,0/1' is not a num/den string"),
    "seven zeros and an int zero": (["0/1"] * 7 + [0],
                                    "field element needs 8 coordinate strings"),
}


@pytest.mark.parametrize("name", list(DECODE_ERRORS))
def test_json_decode_errors_name_the_clause(name):
    data, message = DECODE_ERRORS[name]
    with pytest.raises(ValueError) as exc:
        FieldElem.from_json(data)
    assert str(exc.value) == message
    assert decode_outcome(reference_from_json, data) == message


def test_json_decode_matches_per_coordinate_reference():
    rng = random.Random(20261018)

    def coordinate():
        num = "%s%s%d" % (rng.choice(("", "-")), "0" * rng.randint(0, 3),
                          rng.randint(0, 10 ** rng.randint(1, 30)))
        den = "%s%d" % ("0" * rng.randint(0, 3),
                        rng.randint(1, 10 ** rng.randint(1, 30)))
        return "%s/%s" % (num, den)

    for k in range(200):
        data = [rng.choice((coordinate, lambda: "-0/5", lambda: "0/1"))()
                for _ in range(8)]
        if k % 4 == 0:  # the canonical zero, or it with one coordinate drawn
            data = ["0/1"] * 8
            if k % 8:
                data[rng.randrange(8)] = coordinate()
        assert FieldElem.from_json(data).coeffs == reference_from_json(data)


def test_zero_encodes_to_a_fresh_list():
    out = ZERO.to_json()
    out[0] = "1/1"
    assert ZERO.to_json() == ["0/1"] * 8
    # eight "0/1" read back as a new element, in canonical form
    back = FieldElem.from_json(tuple(ZERO.to_json()))
    assert back == ZERO and back._n == (0,) * 8 and back._d == 1
    # datum_to_json writes each zero coefficient as a list of its own
    ctx = CurveCtx(3)
    datum = sl2_of_degree(ctx, 3)
    doc = datum_to_json(ctx, datum)
    doc["beta"]["coeffs"][0][0] = "1/1"
    assert doc["beta"]["coeffs"][1:] == [["0/1"] * 8] * 7
    assert jsonio._ZERO_COEFF == ["0/1"] * 8
    assert datum_to_json(ctx, datum)["beta"]["coeffs"] == [["0/1"] * 8] * 8


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
        results = [a, b, a + b, a - b, -a, a * b, a * 6, a + 1,
                   a - a, a * ZERO, FieldElem.from_json(a.to_json())]
        if not a.is_zero:
            results += [a.inv(), b / a]
        for r in results:
            assert_canonical(r)
    for r in (ZERO, ONE, SQRT2, fe(Fraction(-4, 6)), FieldElem.from_json(["0/9"] * 8),
              FieldElem([Fraction(2, 4)] * 8), FieldElem([0] * 8)):
        assert_canonical(r)
    assert ZERO._n == (0,) * 8 and ZERO._d == 1
