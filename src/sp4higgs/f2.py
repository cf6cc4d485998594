"""Vectors over F2 with the standard symplectic pairing.

A vector of length 2g is written ((a_1..a_g), (b_1..b_g)); the pairing
of (a, b) with (a', b') is sum(a_i b'_i + a'_i b_i) mod 2, i.e. the mod-2
intersection form of a closed orientable surface in standard coordinates.

Packed layout: a vector is one int plus its length n, with coordinate k
in bit n-1-k, so the a-half is the high g bits and the int read in
binary, padded to n digits, is the bitstring.  Addition is xor, and
swapping the halves of x turns the pairing into a dot product:
<x, y> = popcount(swap(x) & y) mod 2.  This module is the only one that
knows the layout.

``F2Vector(value, length)``, the packed int and its length, is the one
constructor: ``zero``, ``unit``, ``from_string``, ``all_vectors`` and
``+`` each build through it.
"""

from __future__ import annotations

from typing import Iterator

from ._record import Immutable

__all__ = ["F2Vector"]


class F2Vector(Immutable):
    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        """The vector of ``length`` coordinates packed as ``value``; both
        are exact ints (a bool or a float raises TypeError)."""
        if type(value) is not int:
            raise TypeError("value %r is not an int" % (value,))
        if type(length) is not int:
            raise TypeError("length %r is not an int" % (length,))
        # bit_length, not 1 << length: a long vector of few set bits,
        # such as the zero torsion label of a large genus, stays small
        if value < 0 or value.bit_length() > length:
            raise ValueError("%d does not fit in %d bits" % (value, length))
        if length % 2 != 0:
            raise ValueError("length must be even (2g coordinates)")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return F2Vector, (self.value, self.length)

    @classmethod
    def zero(cls, two_g: int) -> "F2Vector":
        return cls(0, two_g)

    @classmethod
    def unit(cls, two_g: int, k: int) -> "F2Vector":
        if not 0 <= k < two_g:
            raise IndexError("coordinate %d out of range" % k)
        return cls(1 << (two_g - 1 - k), two_g)

    @classmethod
    def from_string(cls, s: str) -> "F2Vector":
        if s.strip("01"):  # some character is neither 0 nor 1
            raise ValueError("bitstring must contain only 0 and 1")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def all_vectors(cls, two_g: int) -> Iterator["F2Vector"]:
        """Every vector of length ``two_g``, in itertools.product order."""
        for value in range(1 << two_g):
            yield cls(value, two_g)

    def __len__(self) -> int:
        return self.length

    @property
    def genus(self) -> int:
        return self.length // 2

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def _check_length(self, other: "F2Vector") -> None:
        if self.length != other.length:
            raise ValueError("length mismatch")

    def __add__(self, other: "F2Vector") -> "F2Vector":
        self._check_length(other)
        return F2Vector(self.value ^ other.value, self.length)

    def pairing(self, other: "F2Vector") -> int:
        """sum a_i b'_i + a'_i b_i over F2."""
        self._check_length(other)
        g = self.length // 2
        swapped = (self.value & ((1 << g) - 1)) << g | self.value >> g
        return (swapped & other.value).bit_count() & 1

    def to_string(self) -> str:
        return format(self.value, "0%db" % self.length) if self.length else ""

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Vector):
            return NotImplemented
        return (self.value, self.length) == (other.value, other.length)

    def __hash__(self):
        return hash((self.value, self.length))

    def __repr__(self) -> str:
        return "F2Vector(%s)" % self.to_string()
