"""JSON encoding of Higgs data.

Data files are objects tagged by "shape" and carrying "genus"; field
elements are arrays of 8 "num/den" strings, mod-2 vectors are bitstrings
of length 2g, and line bundle classes are {k_power, extra_degree,
torsion} objects.  Every other key of a shape object is the name of a
field of the shape's dataclass, so one codec per field type encodes and
decodes every shape.  Encoding then decoding is the identity, and output
is deterministic (sorted keys, no run metadata).

Decoding is strict: a missing field, a value of the wrong JSON type, a
rational that does not match the schema's pattern or a value out of the
schema's range (genus >= 2, w2 in {0, 1}, h0_override >= 0) raises
ParseError, and nothing is coerced.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from functools import partial
from fractions import Fraction
from typing import Tuple, get_type_hints

from .f2 import F2Vector
from .higgs import (
    CoverOrthShape, CurveCtx, DiagonalShape, DirectSum, HiggsDatum,
    IrreducibleImage, LineBundleClass, SectionSlot, SL2RDatum,
    TorsionSplitShape,
)
from .numfield import FieldElem

__all__ = ["ParseError", "datum_to_json", "datum_from_json", "load_datum"]


class ParseError(ValueError):
    """A datum document that does not follow the datum schema."""


_JSON_TYPE = {dict: "an object", list: "an array", str: "a string",
              int: "an integer", bool: "a boolean"}


def _typed(kind: type, value, name: str):
    """``value``, checked to be of JSON type ``kind``."""
    # exact type: bool is an int subclass and must not pass for one
    if type(value) is not kind:
        raise ParseError("%s must be %s, not %s"
                         % (name, _JSON_TYPE[kind], type(value).__name__))
    return value


def _parsed(parse, kind: type, value, name: str):
    """parse(value) for a value of JSON type ``kind``; a value that
    ``parse`` rejects is a ParseError."""
    _typed(kind, value, name)
    try:
        return parse(value)
    except ValueError as exc:
        raise ParseError("%s: cannot read %r (%s)" % (name, value, exc)) from None


def _field(data: dict, name: str):
    if name not in data:
        raise ParseError("missing field %r" % name)
    return data[name]


_int = partial(_typed, int)
_list = partial(_typed, list)
_f2 = partial(_parsed, F2Vector.from_string, str)
_elem = partial(_parsed, FieldElem.from_json, list)


def _at_least(low: int, value, name: str) -> int:
    if _int(value, name) < low:
        raise ParseError("%s must be at least %d, not %d" % (name, low, value))
    return value


def _bit(value, name: str) -> int:
    if _int(value, name) not in (0, 1):
        raise ParseError("%s must be 0 or 1, not %d" % (name, value))
    return value


# the datum schema's k_power pattern, ^-?[0-9]+/[12]$
_K_POWER = re.compile(r"(-?[0-9]+)/([12])")


def _k_power(s: str) -> Fraction:
    m = _K_POWER.fullmatch(s)
    if m is None:
        raise ValueError("a k_power is num/1 or num/2")
    return Fraction(int(m[1]), int(m[2]))


def _bundle(value, name: str) -> LineBundleClass:
    _typed(dict, value, name)
    return LineBundleClass(_parsed(_k_power, str, _field(value, "k_power"), "k_power"),
                           _int(_field(value, "extra_degree"), "extra_degree"),
                           _f2(_field(value, "torsion"), "torsion"))


def _slot(value, name: str) -> SectionSlot:
    _typed(dict, value, name)
    coeffs = _list(_field(value, "coeffs"), "coeffs")
    override = value.get("h0_override")
    return SectionSlot(_bundle(_field(value, "bundle"), "bundle"),
                       tuple(_elem(c, "coefficient") for c in coeffs),
                       None if override is None else _at_least(0, override, "h0_override"))


# field type -> (encode, decode); encoders of int and bool are identities
_CODECS = {
    LineBundleClass: (LineBundleClass.to_json, _bundle),
    SectionSlot: (SectionSlot.to_json, _slot),
    F2Vector: (F2Vector.to_string, _f2),
    int: (int, _bit),  # w2, the one int field of a shape, is a mod-2 class
    bool: (bool, partial(_typed, bool)),
    Tuple[HiggsDatum, ...]: (
        lambda summands: [_encode(s) for s in summands],
        lambda value, name: tuple(map(_decode, _list(value, name)))),
}

_SHAPES = {"diagonal": DiagonalShape, "cover_orth": CoverOrthShape,
           "torsion_split": TorsionSplitShape, "sl2r": SL2RDatum,
           "irreducible_image": IrreducibleImage, "direct_sum": DirectSum}
_TAGS = {cls: tag for tag, cls in _SHAPES.items()}
# shape class -> [(field name, (encode, decode))] in field order
_FIELDS = {cls: [(f.name, _CODECS[get_type_hints(cls)[f.name]])
                 for f in fields(cls)]
           for cls in _SHAPES.values()}


def datum_to_json(ctx: CurveCtx, datum: HiggsDatum) -> dict:
    return {"genus": ctx.genus, **_encode(datum)}


def _encode(datum: HiggsDatum) -> dict:
    return {"shape": _TAGS[type(datum)],
            **{name: encode(getattr(datum, name))
               for name, (encode, _) in _FIELDS[type(datum)]}}


def datum_from_json(data: dict) -> Tuple[CurveCtx, HiggsDatum]:
    ctx = CurveCtx(_at_least(2, _field(_typed(dict, data, "datum"), "genus"), "genus"))
    return ctx, _decode(data)


def _decode(data: dict) -> HiggsDatum:
    _typed(dict, data, "datum")
    cls = _SHAPES.get(_typed(str, _field(data, "shape"), "shape"))
    if cls is None:
        raise ParseError("unknown shape tag %r" % (data["shape"],))
    # a loop, not a comprehension: each level of summands costs two
    # stack frames, which bounds how deeply sums can nest
    values = {}
    for name, (_, decode) in _FIELDS[cls]:
        values[name] = decode(_field(data, name), name)
    return cls(**values)


def load_datum(path: str) -> Tuple[CurveCtx, HiggsDatum]:
    """Read a datum file; a file that cannot be opened, is not UTF-8
    JSON or nests too deeply to read raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return datum_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
