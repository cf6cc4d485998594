"""F2Vector against a reference that works on bitstring characters.

The reference shares no code with ``sp4higgs.f2``: a vector is a string
of "0" and "1" characters, addition is per-character xor and the
pairing of (a, b) with (a', b') is sum(a_i b'_i + a'_i b_i) mod 2, read
off the characters of the two halves.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from sp4higgs import F2Vector


def ref_add(s, t):
    return "".join("0" if c == d else "1" for c, d in zip(s, t))


def ref_pairing(s, t):
    g = len(s) // 2
    return sum((s[i] == "1" and t[g + i] == "1")
               + (t[i] == "1" and s[g + i] == "1") for i in range(g)) % 2


def strings(n):
    return ["".join(p) for p in itertools.product("01", repeat=n)]


def packed(s):
    """The int whose bit n-1-k is character k of the bitstring s."""
    return sum(1 << (len(s) - 1 - k) for k, c in enumerate(s) if c == "1")


def check_pair(s, t):
    x, y = F2Vector.from_string(s), F2Vector.from_string(t)
    assert (x + y).to_string() == ref_add(s, t)
    assert x.pairing(y) == ref_pairing(s, t) == y.pairing(x)


@pytest.mark.parametrize("n", [2, 4])
def test_add_and_pairing_match_reference_on_every_pair(n):
    for s, t in itertools.product(strings(n), repeat=2):
        check_pair(s, t)


def test_add_and_pairing_match_reference_on_random_length_10():
    rng = random.Random(20260418)
    for _ in range(500):
        s, t = ("".join(rng.choice("01") for _ in range(10)) for _ in range(2))
        check_pair(s, t)


def test_constructor_from_bits_matches_from_string():
    for s in strings(4) + ["1011001110"]:
        v = F2Vector(packed(s), len(s))
        assert v == F2Vector.from_string(s)
        assert v.to_string() == s
        assert len(v) == len(s) and v.genus == len(s) // 2
        assert v.is_zero == ("1" not in s)


@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_all_vectors_follows_product_order(n):
    assert [v.to_string() for v in F2Vector.all_vectors(n)] == strings(n)


@pytest.mark.parametrize("n", [0, 2, 4, 10])
def test_zero_and_unit(n):
    zero = F2Vector.zero(n)
    assert zero.to_string() == "0" * n and zero.is_zero and len(zero) == n
    for k in range(n):
        unit = F2Vector.unit(n, k)
        assert unit.to_string() == "0" * k + "1" + "0" * (n - 1 - k)
        assert not unit.is_zero
    with pytest.raises(IndexError):
        F2Vector.unit(n, n)


def test_string_round_trip():
    for s in [""] + strings(2) + strings(4) + ["0110100111"]:
        v = F2Vector.from_string(s)
        assert v.to_string() == s
        assert F2Vector.from_string(v.to_string()) == v


@pytest.mark.parametrize("s", ["1", "101", "11111"])
def test_odd_length_is_rejected(s):
    with pytest.raises(ValueError):
        F2Vector.from_string(s)
    with pytest.raises(ValueError, match="^length must be even"):
        F2Vector(packed(s), len(s))


# int(s, 2) reads "0_1", " 01", "01\n", "+01" and the Arabic-Indic digits
# "١٠"; from_string takes only the characters 0 and 1
@pytest.mark.parametrize("s", ["2", "0a", " 1", "1 ", "+1", "-1", "_1",
                               "0b", "１０", "10x1", "012", "0_1", "+01", " 01",
                               "01\n", "١٠", "0_10"])
def test_non_binary_string_is_rejected(s):
    with pytest.raises(ValueError) as info:
        F2Vector.from_string(s)
    assert str(info.value) == "bitstring must contain only 0 and 1"


# the coordinate sequences a bit-list constructor once read: the packed
# constructor takes no sequence, of binary coordinates or not
@pytest.mark.parametrize("bits", ["21", [3, -1], [1, 2], (0, 1, 0, -1), "0a",
                                  ["01", "1"], [0.5, 1], [None, 0], [[1], 0],
                                  [1.0, 0.0], [True, False], [Fraction(1), 0]])
def test_non_binary_coordinates_are_rejected(bits):
    with pytest.raises(TypeError, match="^value .* is not an int$"):
        F2Vector(bits, len(bits))


@pytest.mark.parametrize("value, length", [(True, 2), (False, 2), (1.0, 2), (Fraction(1), 2),
                                           ("1", 2), (1, 2.0), (1, True), (1, Fraction(2)),
                                           (1, "2"), (1, None)])
def test_value_and_length_must_be_exact_ints(value, length):
    name = "value" if type(value) is not int else "length"
    with pytest.raises(TypeError, match="^%s .* is not an int$" % name):
        F2Vector(value, length)


def test_binary_ints_and_strings_are_accepted():
    assert F2Vector(0b0101, 4) == F2Vector.from_string("0101")
    assert F2Vector(0b1010, 4).to_string() == "1010"
    assert F2Vector(0, 0) == F2Vector.from_string("")


def test_length_mismatch_raises():
    x, y = F2Vector.from_string("10"), F2Vector.from_string("1000")
    for op in (lambda: x + y, lambda: y + x, lambda: x.pairing(y),
               lambda: y.pairing(x)):
        with pytest.raises(ValueError):
            op()


def test_equality_and_hash_are_consistent():
    vectors = [F2Vector.from_string(s) for n in (0, 2, 4) for s in strings(n)]
    copies = [F2Vector(packed(v.to_string()), len(v)) for v in vectors]
    for v, w in zip(vectors, copies):
        assert v == w and hash(v) == hash(w)
    assert len(set(vectors) | set(copies)) == len(vectors)
    # the same bits with different lengths are different vectors
    assert F2Vector.from_string("01") != F2Vector.from_string("0001")
    assert F2Vector.from_string("00") != F2Vector.from_string("0000")
    assert F2Vector.from_string("") != F2Vector.from_string("00")
    assert F2Vector.from_string("01") != "01"
    assert F2Vector.from_string("01") != (0, 1)


def test_repr_is_unchanged():
    assert repr(F2Vector(0b0101, 4)) == "F2Vector(0101)"
    assert repr(F2Vector.from_string("")) == "F2Vector()"
    assert repr(F2Vector.unit(6, 5)) == "F2Vector(000001)"


@pytest.mark.parametrize("value", [16, -1])
def test_constructor_width_guard(value):
    with pytest.raises(ValueError) as info:
        F2Vector(value, 4)
    assert str(info.value) == "%d does not fit in 4 bits" % value


def test_a_long_zero_vector_allocates_no_wide_int():
    # the zero torsion label of genus 10**7 is one small int, and its
    # width check builds no (2g+1)-bit bound
    tracemalloc.start()
    try:
        zero = F2Vector.zero(2 * 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zero.is_zero and len(zero) == 2 * 10**7
    assert peak < 64 * 1024


def test_vectors_are_immutable():
    v = F2Vector.zero(4)
    with pytest.raises(AttributeError):
        v.extra = 1
