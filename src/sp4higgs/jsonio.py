"""JSON encoding of Higgs data.

Data files are objects tagged by "shape" and carrying "genus"; field
elements are arrays of 8 "num/den" strings, mod-2 vectors are bitstrings
of length 2g, line bundle classes are {k_power, extra_degree, torsion}
objects and section slots are {bundle, coeffs, h0_override} objects,
without h0_override when it is None.  Every other key of a shape object
is the name of a field of the shape's record, so one codec per field
type encodes and decodes every shape.  This module alone writes and
reads the bundle and slot objects; the records of higgs carry no JSON.
The canonical zero coefficient, eight "0/1", is the one coefficient the
slot codec writes and reads itself; every other goes through
FieldElem.to_json and FieldElem.from_json.
Encoding then decoding is the identity, and output is deterministic
(sorted keys, no run metadata).

Decoding is strict: a missing field, a value of the wrong JSON type, a
rational that does not match the schema's pattern or a value out of the
schema's range (genus >= 2, w2 in {0, 1}, h0_override >= 0) raises
ParseError, and nothing is coerced.  The checks run inline, each value
tested where it is read, in one reading order that is not the key order
of the file: genus, shape, then a shape's fields in field order; a
bundle's k_power, extra_degree, torsion; a slot's coeffs, h0_override,
each coefficient, then its bundle.  The first value that fails is the one
the ParseError names, and its message is built only then.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Tuple, get_type_hints

from .f2 import F2Vector
from .higgs import (
    CoverOrthShape, CurveCtx, DiagonalShape, DirectSum, HiggsDatum,
    IrreducibleImage, LineBundleClass, SectionSlot, SL2RDatum,
    TorsionSplitShape,
)
from .numfield import ZERO, FieldElem

__all__ = ["ParseError", "datum_to_json", "datum_from_json", "load_datum"]


class ParseError(ValueError):
    """A datum document that does not follow the datum schema."""


_JSON_TYPE = {dict: "an object", list: "an array", str: "a string",
              int: "an integer", bool: "a boolean"}

# what a decoder reads for a field that the document leaves out
_MISSING = object()


def _fail(name: str, value, kind: type, why=None):
    """Raise the ParseError for the value ``value`` of ``name`` that a
    decoder rejected: a missing field when it is _MISSING, else a value
    not of JSON type ``kind``, else one of that type that cannot be read,
    for the reason ``why``.  The decoders test each value inline and call
    this only on the branch that fails."""
    raise ParseError(
        "missing field %r" % name if value is _MISSING
        # exact type: bool is an int subclass and must not pass for one
        else "%s must be %s, not %s" % (name, _JSON_TYPE[kind], type(value).__name__)
        if type(value) is not kind
        else "%s: cannot read %r (%s)" % (name, value, why)) from None


def _at_least(low: int, value, name: str) -> int:
    if type(value) is not int:
        _fail(name, value, int)
    if value < low:
        raise ParseError("%s must be at least %d, not %d" % (name, low, value))
    return value


def _bit(value, name: str) -> int:
    if type(value) is not int:
        _fail(name, value, int)
    if value not in (0, 1):
        raise ParseError("%s must be 0 or 1, not %d" % (name, value))
    return value


def _f2(value, name: str) -> F2Vector:
    if type(value) is not str:
        _fail(name, value, str)
    try:
        return F2Vector.from_string(value)
    except ValueError as exc:
        _fail(name, value, str, exc)


# the datum schema's k_power pattern, ^-?[0-9]+/[12]$
_K_POWER = re.compile(r"(-?[0-9]+)/([12])")


def _bundle_json(bundle: LineBundleClass) -> dict:
    return {"k_power": "%d/%d" % bundle.k_power.as_integer_ratio(),
            "extra_degree": bundle.extra_degree,
            "torsion": bundle.torsion.to_string()}


def _bundle(value, name: str) -> LineBundleClass:
    k = (value.get("k_power", _MISSING) if type(value) is dict
         else _fail(name, value, dict))
    m = _K_POWER.fullmatch(k) if type(k) is str else None
    try:  # no match is a TypeError, a numerator past int's digit limit a ValueError
        power = Fraction(int(m[1]), int(m[2]))
    except (TypeError, ValueError) as exc:
        _fail("k_power", k, str, exc if m else "a k_power is num/1 or num/2")
    extra = value.get("extra_degree", _MISSING)
    if type(extra) is not int:
        _fail("extra_degree", extra, int)
    return LineBundleClass(power, extra, _f2(value.get("torsion", _MISSING), "torsion"))


# the canonical zero coefficient, most of the coefficients of data at the
# minima of the Hitchin function; the slot codec writes each as a fresh
# list, so editing one encoded document changes no other
_ZERO_COEFF = ZERO.to_json()


def _slot_json(slot: SectionSlot) -> dict:
    out = {"bundle": _bundle_json(slot.bundle),
           "coeffs": [_ZERO_COEFF[:] if c.is_zero else c.to_json()
                      for c in slot.coeffs]}
    if slot.h0_override is not None:
        out["h0_override"] = slot.h0_override
    return out


def _slot(value, name: str) -> SectionSlot:
    coeffs = (value.get("coeffs", _MISSING) if type(value) is dict
              else _fail(name, value, dict))
    if type(coeffs) is not list:
        _fail("coeffs", coeffs, list)
    override = (_at_least(0, value["h0_override"], "h0_override")
                if "h0_override" in value else None)
    elems = []
    for c in coeffs:
        # the exact type test keeps a list subclass from passing for an array
        if type(c) is not list:
            _fail("coefficient", c, list)
        try:
            elems.append(ZERO if c == _ZERO_COEFF else FieldElem.from_json(c))
        except ValueError as exc:
            _fail("coefficient", c, list, exc)
    return SectionSlot(_bundle(value.get("bundle", _MISSING), "bundle"), tuple(elems), override)


# field type -> (encode, decode); encoders of int and bool are identities
_CODECS = {
    LineBundleClass: (_bundle_json, _bundle),
    SectionSlot: (_slot_json, _slot),
    F2Vector: (F2Vector.to_string, _f2),
    int: (int, _bit),  # w2, the one int field of a shape, is a mod-2 class
    bool: (bool, lambda value, name: value if type(value) is bool
           else _fail(name, value, bool)),
    Tuple[HiggsDatum, ...]: (
        lambda summands: [_encode(s) for s in summands],
        lambda value, name: tuple(map(_decode, value)) if type(value) is list
        else _fail(name, value, list)),
}

_SHAPES = {"diagonal": DiagonalShape, "cover_orth": CoverOrthShape,
           "torsion_split": TorsionSplitShape, "sl2r": SL2RDatum,
           "irreducible_image": IrreducibleImage, "direct_sum": DirectSum}
_TAGS = {cls: tag for tag, cls in _SHAPES.items()}
# shape class -> [(field name, (encode, decode))] in field order
_FIELDS = {cls: [(name, _CODECS[get_type_hints(cls)[name]]) for name in cls._fields]
           for cls in _SHAPES.values()}


def datum_to_json(ctx: CurveCtx, datum: HiggsDatum) -> dict:
    return {"genus": ctx.genus, **_encode(datum)}


def _encode(datum: HiggsDatum) -> dict:
    return {"shape": _TAGS[type(datum)],
            **{name: encode(getattr(datum, name))
               for name, (encode, _) in _FIELDS[type(datum)]}}


def datum_from_json(data: dict) -> Tuple[CurveCtx, HiggsDatum]:
    genus = (data.get("genus", _MISSING) if type(data) is dict
             else _fail("datum", data, dict))
    return CurveCtx(_at_least(2, genus, "genus")), _decode(data)


def _decode(data: dict) -> HiggsDatum:
    tag = (data.get("shape", _MISSING) if type(data) is dict
           else _fail("datum", data, dict))
    cls = _SHAPES.get(tag) if type(tag) is str else _fail("shape", tag, str)
    if cls is None:
        raise ParseError("unknown shape tag %r" % (tag,))
    # a loop, not a comprehension: each level of summands costs two
    # stack frames, which bounds how deeply sums can nest
    values = {}
    for name, (_, decode) in _FIELDS[cls]:
        values[name] = decode(data.get(name, _MISSING), name)
    return cls(**values)


def load_datum(path: str) -> Tuple[CurveCtx, HiggsDatum]:
    """Read a datum file; a file that cannot be opened, is not UTF-8
    JSON that Python reads (an integer literal past the interpreter's
    digit limit is not) or nests too deeply to read raises ParseError.
    The ValueErrors of the datum's own constructors pass through."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # also UnicodeDecodeError, int digit limit
                raise ParseError(str(exc)) from None
        return datum_from_json(data)
    except (OSError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
