"""The library's value records: construction, equality, hashing, repr,
immutability, and the checks each record makes when it is built.

Reprs reach CLI error clauses (and, hashed, the golden corpus), and
hashes decide set and dict iteration order, so both are pinned exactly.
"""

import copy
import enum
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Union

import pytest

import sp4higgs as sh
from sp4higgs import _record, f2, higgs, jsonio, liegroup, matalg, moduli, numfield, verify
from sp4higgs._record import Immutable, Record

F = sh.F2Vector.from_string
BUNDLE = sh.LineBundleClass(Fraction(1, 2), 1, F("0110"))
SLOT = sh.SectionSlot(BUNDLE, (sh.I_UNIT,), 1)
COVER = sh.CoverOrthShape(F("1000"), 1, True)
CHECK = verify.Check("id", "ref", True, "detail")

B = "LineBundleClass(k_power=Fraction(1, 2), extra_degree=1, torsion=F2Vector(0110))"
S = "SectionSlot(bundle=%s, coeffs=(FieldElem(i),), h0_override=1)" % B
C = "CoverOrthShape(w1=F2Vector(1000), w2=1, beta_present=True)"

# (class, field values by name in field order, repr of the record)
RECORDS = [
    (sh.CurveCtx, {"genus": 3}, "CurveCtx(genus=3)"),
    (sh.LineBundleClass,
     {"k_power": Fraction(1, 2), "extra_degree": 1, "torsion": F("0110")}, B),
    (sh.SectionSlot,
     {"bundle": BUNDLE, "coeffs": (sh.I_UNIT,), "h0_override": 1}, S),
    (sh.StabilityReport,
     {"verdict": sh.Stability.STABLE, "clause": "a clause", "non_simple": True},
     "StabilityReport(verdict=<Stability.STABLE: 'Stable'>, clause='a clause', "
     "non_simple=True)"),
    (sh.SplitPartner, {"L": BUNDLE, "theta_present": True},
     "SplitPartner(L=%s, theta_present=True)" % B),
    (sh.CoverPartner, {"w1": F("1000"), "w2": 1, "theta_present": False},
     "CoverPartner(w1=F2Vector(1000), w2=1, theta_present=False)"),
    (sh.TorsionPartner, {"m1": F("0110"), "m2": F("1000"), "theta_present": True},
     "TorsionPartner(m1=F2Vector(0110), m2=F2Vector(1000), theta_present=True)"),
    (sh.SWInvariants, {"toledo": 2, "w1": F("0000"), "w2": 1, "c": 3},
     "SWInvariants(toledo=2, w1=F2Vector(0000), w2=1, c=3)"),
    (sh.DiagonalShape, {"N": BUNDLE, "beta1": SLOT, "beta2": SLOT, "beta3": SLOT},
     "DiagonalShape(N=%s, beta1=%s, beta2=%s, beta3=%s)" % (B, S, S, S)),
    (sh.CoverOrthShape, {"w1": F("1000"), "w2": 1, "beta_present": True}, C),
    (sh.TorsionSplitShape,
     {"t1": F("0110"), "t2": F("1000"), "beta1": SLOT, "beta2": SLOT},
     "TorsionSplitShape(t1=F2Vector(0110), t2=F2Vector(1000), beta1=%s, beta2=%s)"
     % (S, S)),
    (sh.SL2RDatum, {"L": BUNDLE, "beta": SLOT, "gamma": SLOT},
     "SL2RDatum(L=%s, beta=%s, gamma=%s)" % (B, S, S)),
    (sh.IrreducibleImage, {"L": BUNDLE, "beta": SLOT, "gamma": SLOT},
     "IrreducibleImage(L=%s, beta=%s, gamma=%s)" % (B, S, S)),
    (sh.DirectSum, {"summands": (COVER, COVER)},
     "DirectSum(summands=(%s, %s))" % (C, C)),
    (moduli.Hitchin, {"spin": F("0101")}, "Hitchin(spin=F2Vector(0101))"),
    (moduli.ZeroSW, {"c": 3}, "ZeroSW(c=3)"),
    (moduli.SW, {"w1": F("0100"), "w2": 1}, "SW(w1=F2Vector(0100), w2=1)"),
    (moduli.ReductionVerdict,
     {"admits": frozenset({moduli.Subgroup.G_I}), "zariski_dense_component": False},
     "ReductionVerdict(admits=frozenset({<Subgroup.G_I: 'G_i'>}), "
     "zariski_dense_component=False)"),
    (moduli.ComponentCount,
     {"genus": 2, "sw": 30, "zero_sw": 2, "hitchin": 16, "total": 48,
      "rep_variety_total": 99, "grouped_hitchin": 16, "grouped_gdelta_gp": 31,
      "grouped_zariski_dense": 1},
     "ComponentCount(genus=2, sw=30, zero_sw=2, hitchin=16, total=48, "
     "rep_variety_total=99, grouped_hitchin=16, grouped_gdelta_gp=31, "
     "grouped_zariski_dense=1)"),
    (moduli.FiberGeometry, {"c": 1, "r": 11, "s": 6, "base_dim": 4, "extra": 9},
     "FiberGeometry(c=1, r=11, s=6, base_dim=4, extra=9)"),
    (liegroup.NormalizerReport,
     {"det_value": sh.ONE, "det_ok": True, "normalizes_ok": True,
      "symplectic_for_j0": False, "passed": True},
     "NormalizerReport(det_value=FieldElem(1), det_ok=True, normalizes_ok=True, "
     "symplectic_for_j0=False, passed=True)"),
    (verify.Check, {"id": "id", "ref": "ref", "passed": True, "detail": "detail"},
     "Check(id='id', ref='ref', passed=True, detail='detail')"),
    (verify.Report, {"suite": "lie", "checks": (CHECK,)},
     "Report(suite='lie', checks=(Check(id='id', ref='ref', passed=True, "
     "detail='detail'),))"),
]

# class -> (the positional arguments it is built from, the defaults it fills in)
DEFAULTS = {
    sh.SectionSlot: ((BUNDLE, (sh.I_UNIT,)), {"h0_override": None}),
    sh.StabilityReport: ((sh.Stability.STABLE, "a clause"), {"non_simple": False}),
    sh.SWInvariants: ((2, F("1000"), 1), {"c": None}),
    sh.CoverOrthShape: ((F("1000"), 1), {"beta_present": False}),
    verify.Check: (("id", "ref", True), {"detail": ""}),
}


def _ids(records):
    return [cls.__name__ for cls, _, _ in records]


def test_every_record_is_listed():
    assert len(RECORDS) == 23
    assert len({cls for cls, _, _ in RECORDS}) == 23


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=_ids(RECORDS))
def test_construction_repr_and_hash(cls, values, text):
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword) == text
    fields = tuple(getattr(by_keyword, name) for name in values)
    assert fields == tuple(values.values())
    # the record hashes as the tuple of its fields
    assert hash(by_keyword) == hash(fields)
    assert by_keyword != fields


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=_ids(RECORDS))
def test_records_are_immutable(cls, values, text):
    x = cls(**values)
    name = next(iter(values))
    changes = (partial(setattr, x, name, values[name]), partial(setattr, x, "not_a_field", 1),
               partial(delattr, x, name))
    for change in changes:
        with pytest.raises(AttributeError, match="^%s is immutable$" % cls.__name__):
            change()
    assert getattr(x, name) == values[name]
    assert repr(x) == text


def test_slot_values_refuse_assignment_and_deletion():
    # the slot classes have no __dict__, and a delete used to go through to the slot
    for value in (sh.ZERO, F("0110"), matalg.I2):
        message = "^%s is immutable$" % type(value).__name__
        for name in value.__slots__:
            for change in (partial(setattr, value, name, 0), partial(delattr, value, name)):
                with pytest.raises(AttributeError, match=message):
                    change()
    # jsonio hands the one ZERO to every zero coefficient it reads
    datum = moduli.diagonal_shape(sh.CurveCtx(3), 1)
    assert jsonio.datum_from_json(jsonio.datum_to_json(sh.CurveCtx(3), datum))[1] == datum


def test_a_record_inherits_the_fields_its_bases_annotate():
    def record(name, bases, annotations, **defaults):
        return type(name, bases, dict(defaults, __annotations__=annotations,
                                      __module__=__name__))

    base = record("Base", (Record,), {"x": "int", "y": "Optional[str]"}, y=None)
    same, empty = record("Same", (base,), {}), record("Empty", (Record,), {})
    more = record("More", (same,), {"z": "bool"}, z=False)
    assert (same._fields, more._fields, empty._fields) == (("x", "y"), ("x", "y", "z"), ())
    assert same(1) == same(1, None) != base(1) and empty() == empty()
    with pytest.raises(TypeError, match="^x '1' is not of type int$"):
        more("1", z=True)
    # the rank-1 shapes take their three fields from the mixin they share
    for cls in (sh.SL2RDatum, sh.IrreducibleImage):
        assert "__annotations__" not in vars(cls) and cls._fields == ("L", "beta", "gamma")


def test_every_value_type_derives_from_the_one_immutable_base():
    """A class of the package with instance state (non-empty ``__slots__``,
    or a record) derives from ``Immutable``, and no class but ``Immutable``
    defines ``__setattr__`` or ``__delattr__``.  Exceptions, enums and
    tuple subclasses are exempt."""
    src = Path(__file__).resolve().parents[1] / "src" / "sp4higgs"
    modules = [importlib.import_module("sp4higgs." + p.stem) for p in src.glob("[!_]*.py")]
    classes = [c for m in modules + [_record] for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    stateful = [c for c in classes if not issubclass(c, (BaseException, enum.Enum, tuple))
                and (vars(c).get("__slots__") or issubclass(c, Record))]
    # the records, Record, FieldElem, SqMatrix and F2Vector
    assert len(stateful) == len(RECORDS) + 4
    assert all(issubclass(c, Immutable) for c in stateful)
    assert [c for c in classes if {"__setattr__", "__delattr__"} & set(vars(c))] == [Immutable]


_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda x: pickle.loads(pickle.dumps(x)),
           "pickle protocol 0": lambda x: pickle.loads(pickle.dumps(x, 0))}


@pytest.mark.parametrize("how", list(_COPIES))
def test_values_survive_copy_and_pickle(how):
    # the slot classes refuse setattr, so each rebuilds through its
    # constructor or raw builder; records holding them then copy too
    from test_golden import corpus
    golden = [d for _, _, d, _ in corpus() if type(d) is sh.DiagonalShape]
    matrix = matalg.SqMatrix([[sh.I_UNIT, Fraction(1, 3)], [sh.SQRT2, -2]])
    samples = ([F("0110"), F(""), sh.I_UNIT + Fraction(1, 2), sh.ZERO, matrix] + golden
               + [cls(**values) for cls, values, _ in RECORDS])
    assert any(not d.beta1.is_zero for d in golden)
    for x in samples:
        y = _COPIES[how](x)
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        assert hash(y) == hash(x)
    # a context's zero label and K are built once, and a copy keeps its own
    ctx = sh.CurveCtx(3)
    assert ctx.zero_torsion() is ctx.zero_torsion()
    assert sh.LineBundleClass.canonical(ctx) is sh.LineBundleClass.canonical(ctx)
    y = _COPIES[how](ctx)
    assert type(y) is sh.CurveCtx and y == ctx and repr(y) == repr(ctx)
    assert hash(y) == hash(ctx)
    assert y.zero_torsion() is y.zero_torsion() == ctx.zero_torsion()
    k = sh.LineBundleClass.canonical(y)
    assert k is sh.LineBundleClass.canonical(y) and k == sh.LineBundleClass.canonical(ctx)
    assert k.torsion is y.zero_torsion()


def test_equality_is_only_within_a_class():
    xs = [cls(**values) for cls, values, _ in RECORDS]
    for a in xs:
        for b in xs:
            assert (a == b) == (a is b)
    # equal field tuples, and so equal hashes, across classes
    pairs = [(sh.SL2RDatum(BUNDLE, SLOT, SLOT), sh.IrreducibleImage(BUNDLE, SLOT, SLOT)),
             (moduli.ZeroSW(3), sh.CurveCtx(3))]
    for a, b in pairs:
        assert hash(a) == hash(b)
        assert a != b and b != a
        assert not a == b
    assert {pairs[0][0]: 1, pairs[0][1]: 2}[pairs[0][1]] == 2


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=[c.__name__ for c in DEFAULTS])
def test_default_construction(cls):
    args, defaults = DEFAULTS[cls]
    x = cls(*args)
    for name, value in defaults.items():
        assert getattr(x, name) == value
    assert x == cls(*args, *defaults.values())
    assert x == cls(*args, **defaults)


def test_constructors_normalize_their_fields():
    # coefficients become field elements and nested sums flatten, as the
    # reprs show; an int k_power or a list of coefficients is rejected, not
    # converted (test_k_power_must_be_an_int_or_fraction, REJECTED)
    slot = sh.SectionSlot(BUNDLE, (1, Fraction(1, 2)))
    assert slot.coeffs == (sh.ONE, sh.fe(Fraction(1, 2)))
    nested = sh.DirectSum((COVER, sh.DirectSum((COVER,))))
    assert nested == sh.DirectSum((COVER, COVER))
    assert repr(nested) == "DirectSum(summands=(%s, %s))" % (C, C)


# -- the checks records make when they are built ------------------------------------


def test_line_bundle_needs_a_half_integer_power():
    with pytest.raises(ValueError, match="^k_power must be a half-integer$"):
        sh.LineBundleClass(Fraction(1, 3), 0, F("0000"))
    with pytest.raises(ValueError, match="^k_power must be a half-integer$"):
        sh.LineBundleClass(Fraction(-5, 4), 2, F("0000"))


def test_sw_invariants_lift_needs_w1_zero_and_matching_parity():
    with pytest.raises(ValueError, match="^integer lift c only exists when w1 = 0$"):
        sh.SWInvariants(2, F("1000"), 0, c=0)
    with pytest.raises(ValueError, match="^w2 must be the parity of c$"):
        sh.SWInvariants(2, F("0000"), 0, c=1)
    with pytest.raises(ValueError, match="^w2 must be the parity of c$"):
        sh.SWInvariants(2, F("0000"), 1, c=2)
    assert sh.SWInvariants(2, F("1000"), 1).c is None


def test_sw_label_needs_nonzero_w1():
    with pytest.raises(ValueError, match="^SW labels need nonzero w1$"):
        moduli.SW(F("0000"), 1)
    with pytest.raises(ValueError, match="^SW labels need nonzero w1$"):
        moduli.SW(w1=F("000000"), w2=0)


def test_fiber_geometry_checks_its_dimension_identity(monkeypatch):
    real = moduli.FiberGeometry
    assert moduli.fiber_geometry(sh.CurveCtx(4), 1) == real(1, 11, 6, 4, 9)
    # an affine factor one larger than 3g - 3 breaks the identity the
    # fiber formulas rest on
    monkeypatch.setattr(moduli, "FiberGeometry",
                        lambda **kw: real(**dict(kw, extra=kw["extra"] + 1)))
    with pytest.raises(ValueError, match="^dimension identity failed$"):
        moduli.fiber_geometry(sh.CurveCtx(4), 1)
    with pytest.raises(ValueError, match="^dimension identity failed$"):
        real(c=1, r=11, s=6, base_dim=4, extra=10)


def test_reduction_verdict_mirrors_emptiness():
    message = "^zariski_dense_component must mirror emptiness$"
    with pytest.raises(ValueError, match=message):
        moduli.ReductionVerdict(frozenset(), False)
    with pytest.raises(ValueError, match=message):
        moduli.ReductionVerdict(frozenset({moduli.Subgroup.G_P}), True)
    assert moduli.ReductionVerdict(frozenset(), True).zariski_dense_component


# -- what constructors accept -------------------------------------------------------

# a field takes exactly the class its annotation names: a bool is an int,
# but datum_to_json would write it as true/false, which datum_from_json
# refuses


@pytest.mark.parametrize("genus", [2.5, 3.0, Fraction(3), "3", None, True, False])
def test_genus_must_be_an_int(genus):
    with pytest.raises(TypeError, match="^genus .* is not of type int$"):
        sh.CurveCtx(genus)


# the k_power field takes a Fraction only: an int is rejected too, not
# converted (the test keeps its name, and so its ids)
@pytest.mark.parametrize("k_power", [0.5, 1.0, "1/2", Decimal("0.5"), None, True, False,
                                     0, 1, -3])
def test_k_power_must_be_an_int_or_fraction(k_power):
    with pytest.raises(TypeError, match="^k_power .* is not of type Fraction$"):
        sh.LineBundleClass(k_power, 0, F("0000"))


@pytest.mark.parametrize("extra_degree", [3.0, 0.5, Fraction(3), "3", None, True, False])
def test_extra_degree_must_be_an_int(extra_degree):
    with pytest.raises(TypeError, match="^extra_degree .* is not of type int$"):
        sh.LineBundleClass(Fraction(0), extra_degree, F("0000"))


# a label is an F2Vector: a bitstring would add by concatenation, so
# LineBundleClass(1/2, 0, "0100") squared had the length-8 torsion "01000100"
LABELS = {
    "torsion": lambda label: sh.LineBundleClass(Fraction(1, 2), 0, label),
    "w1": lambda label: sh.CoverOrthShape(label, 0),
    "t1": lambda label: sh.TorsionSplitShape(label, F("1000"), SLOT, SLOT),
    "t2": lambda label: sh.TorsionSplitShape(F("1000"), label, SLOT, SLOT),
}


@pytest.mark.parametrize("label", ["0100", "1000", 4, (0, 1, 0, 0), None])
@pytest.mark.parametrize("field", list(LABELS))
def test_labels_must_be_f2_vectors(field, label):
    with pytest.raises(TypeError, match="^%s .* is not of type F2Vector$" % field):
        LABELS[field](label)


@pytest.mark.parametrize("h0_override", [2.0, Fraction(2), "2", Decimal(2), True, False])
def test_h0_override_must_be_an_int_or_none(h0_override):
    with pytest.raises(TypeError, match="^h0_override .* is not of type int$"):
        sh.SectionSlot(BUNDLE, (), h0_override=h0_override)


def test_suite_reports_hash_and_hold_tuples():
    reports = verify.run_suite("all")
    assert [r.suite for r in reports] == list(verify.SUITES)
    for report in reports:
        assert type(report.checks) is tuple
        assert hash(report) == hash((report.suite, report.checks))


def test_exact_genus_and_k_power_are_kept():
    assert type(sh.CurveCtx(3).genus) is int
    assert sh.CurveCtx(3).deg_k == 4
    with pytest.raises(ValueError, match="^genus must be at least 2$"):
        sh.CurveCtx(1)
    for k_power in (Fraction(3), Fraction(3, 2), Fraction(-4, 2)):
        bundle = sh.LineBundleClass(k_power, 0, F("0000"))
        assert type(bundle.k_power) is Fraction
        assert bundle.k_power == k_power
    with pytest.raises(TypeError, match="^k_power 3 is not of type Fraction$"):
        sh.LineBundleClass(3, 0, F("0000"))


W1 = F("0100")
VALUES = {cls: values for cls, values, _ in RECORDS}

# (record, positional arguments, keyword arguments, the field holding a value
# of another type, the class its annotation names): every record has a row,
# the four container fields (a Tuple or a FrozenSet) included
REJECTED = [
    (sh.CurveCtx, (True,), {}, "genus", "int"),
    (sh.LineBundleClass, (Fraction(1, 2), 0, "0100"), {}, "torsion", "F2Vector"),
    (sh.SectionSlot, ("K", ()), {}, "bundle", "LineBundleClass"),
    (sh.SectionSlot, (BUNDLE, [sh.I_UNIT]), {}, "coeffs", "tuple"),
    (sh.StabilityReport, ("Stable", "c"), {}, "verdict", "Stability"),
    (sh.StabilityReport, (sh.Stability.STABLE, "c", 0), {}, "non_simple", "bool"),
    (sh.SplitPartner, (None, False), {}, "L", "LineBundleClass"),
    (sh.SplitPartner, (BUNDLE, 1), {}, "theta_present", "bool"),
    (sh.CoverPartner, (W1, True, False), {}, "w2", "int"),
    (sh.TorsionPartner, ("01", F("10"), False), {}, "m1", "F2Vector"),
    (sh.SWInvariants, (2, "0000", 1), {}, "w1", "F2Vector"),
    (sh.DiagonalShape, ("N", SLOT, SLOT, SLOT), {}, "N", "LineBundleClass"),
    (sh.CoverOrthShape, (W1, True), {}, "w2", "int"),
    (sh.CoverOrthShape, (W1, 1.0), {}, "w2", "int"),
    (sh.TorsionSplitShape, (W1, F("1000"), SLOT, None), {}, "beta2", "SectionSlot"),
    (sh.SL2RDatum, (BUNDLE, SLOT, (sh.I_UNIT,)), {}, "gamma", "SectionSlot"),
    (sh.IrreducibleImage, ("L", SLOT, SLOT), {}, "L", "LineBundleClass"),
    (sh.DirectSum, ([COVER, COVER],), {}, "summands", "tuple"),
    (moduli.Hitchin, ("0101",), {}, "spin", "F2Vector"),
    (moduli.ZeroSW, (1.0,), {}, "c", "int"),
    (moduli.SW, ("0100", 1), {}, "w1", "F2Vector"),
    (moduli.SW, (W1, 1.0), {}, "w2", "int"),
    (moduli.ReductionVerdict, (frozenset(), 1), {}, "zariski_dense_component", "bool"),
    (moduli.ReductionVerdict, ([], True), {}, "admits", "frozenset"),
    (moduli.ComponentCount, (), dict(VALUES[moduli.ComponentCount], total=48.0), "total", "int"),
    (moduli.FiberGeometry, (), {"c": 1, "r": 11, "s": 6, "base_dim": 4, "extra": 9.0},
     "extra", "int"),
    (liegroup.NormalizerReport, (), dict(VALUES[liegroup.NormalizerReport], det_value=1),
     "det_value", "FieldElem"),
    (verify.Check, ("id", "ref", 1), {}, "passed", "bool"),
    (verify.Report, (b"lie", ()), {}, "suite", "str"),
    (verify.Report, ("lie", [CHECK]), {}, "checks", "tuple"),
]


def test_every_record_with_a_checked_field_has_a_rejected_row():
    assert {row[0] for row in REJECTED} == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, args, kwargs, field, kind", REJECTED,
                         ids=["%s.%s" % (row[0].__name__, row[3]) for row in REJECTED])
def test_a_field_rejects_a_value_of_another_type(cls, args, kwargs, field, kind):
    """The type test runs before ``__post_init__``, so a value whose
    check would have failed on a missing attribute is a TypeError too."""
    bad = dict(zip(cls._fields, args), **kwargs)[field]
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    assert str(info.value) == "%s %r is not of type %s" % (field, bad, kind)


Alias = Union[int, str]


@pytest.mark.parametrize("annotation", ["Nowhere", "Alias", "Optional[Alias]",
                                        "List[int]", "Dict[str, int]"])
def test_an_annotation_that_names_no_class_raises_when_the_class_is_made(annotation):
    message = "^field x: annotation %s names no class$" % re.escape(repr(annotation))
    with pytest.raises(NameError, match=message):
        type("Broken", (Record,), {"__annotations__": {"x": annotation},
                                   "__module__": __name__})


# -- import cost --------------------------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]
# the modules that no datum request needs: the Lie layer and the identity suites
LIE_LAYER = ("sp4higgs.matalg", "sp4higgs.liegroup", "sp4higgs.verify")


def _run(code):
    """The stdout of ``code`` run in a new interpreter with ``src/`` on its path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          check=True).stdout


def _loaded(code, modules):
    """What ``code`` prints, split, then the names among ``modules`` loaded
    after it runs in a new interpreter, in the order given."""
    return _run(code + "\nprint(' '.join(m for m in %r if m in sys.modules))"
                % (modules,)).split()


def test_import_leaves_out_dataclasses_and_the_io_modules():
    """``import sp4higgs`` builds its records without ``dataclasses``
    (whose ``inspect`` import took most of the import's time) and does
    not load the CLI, the JSON codec, the Lie layer or ``verify``."""
    modules = ("dataclasses", "inspect", "sp4higgs.cli", "sp4higgs.jsonio",
               *LIE_LAYER, "sp4higgs.higgs")
    assert _loaded("import sys, sp4higgs", modules) == ["sp4higgs.higgs"]


def test_a_datum_request_builds_no_parser_and_leaves_out_the_lie_layer():
    """``main`` on ``classify --in PATH`` prints the frozen verdict, and
    neither the import of the CLI nor the request builds an argparse
    parser or loads the Lie layer or ``verify``."""
    example = ROOT / "docs" / "examples" / "diagonal-g2"
    code = ("import argparse, contextlib, io, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from sp4higgs.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = main(['classify', '--in', %r])\n"
            "frozen = open(%r, encoding='utf-8').read()\n"
            "print(code, out.getvalue() == frozen, len(built))"
            % (str(example) + ".json", str(example) + ".classify.json"))
    loaded = _loaded(code, (*LIE_LAYER, "sp4higgs.jsonio"))
    assert loaded == ["0", "True", "0", "sp4higgs.jsonio"]


@pytest.mark.parametrize("argv, exit_code", [
    (["count", "--genus", "3"], 0), (["f2-scan", "--genus", "3"], 0),
    (["fiber", "--genus", "5", "--c", "1"], 0), (["--help"], 0),
    (["verify", "--help"], 0), (["verify", "--scope", "everything"], 2),
    (["classify"], 2), (["nosuch"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_command_off_the_datum_path_leaves_out_the_lie_layer(argv, exit_code):
    """The argparse tree names the ``--scope`` choices itself, so the
    commands that build it and use no identity suite, help and usage
    errors too, load neither ``verify`` nor the Lie layer."""
    code = ("import contextlib, io, sys\n"
            "from sp4higgs.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(%r)\n"
            "print(code)" % (argv,))
    assert _loaded(code, LIE_LAYER) == [str(exit_code)]


# the preamble of the code run in a fresh interpreter: it imports every module
# of the package, and CLASSES is every record class the package defines
_FRESH = ("import json, sp4higgs.cli, sp4higgs.jsonio, sp4higgs.verify\n"
          "from sp4higgs._record import Record, _Uncompiled\n"
          "def subclasses(cls):\n"
          "    return [d for c in cls.__subclasses__() for d in (c, *subclasses(c))]\n"
          "CLASSES = [c for c in subclasses(Record) if c.__module__.startswith('sp4higgs.')]\n"
          "STAND_INS = {c: (vars(c)['__init__'], vars(c)['_values']) for c in CLASSES}\n"
          "def fresh():\n"
          "    for c, (init, values) in STAND_INS.items():\n"
          "        c.__init__, c._values = init, values\n")


def _in_fresh_interpreter(code):
    """The JSON that ``code`` prints, run after ``_FRESH`` in a new interpreter
    with ``src/`` and ``tests/`` on its path.  ``STAND_INS`` holds each class's
    stand-ins as the import left them, and ``fresh()`` puts them back, so the
    next lookup is a first use again."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    out = subprocess.run([sys.executable, "-c", _FRESH + code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(out.stdout)


def test_import_compiles_no_record():
    """A record class compiles its ``__init__`` and ``_values`` at the first
    lookup of either, so importing the package, the CLI included, leaves
    every record class holding both stand-ins."""
    found = _in_fresh_interpreter(
        "print(json.dumps([sorted(c.__name__ for c in CLASSES), [c.__name__ for c in CLASSES\n"
        "    if not all(isinstance(s, _Uncompiled) for s in STAND_INS[c])]]))")
    assert found == [sorted(cls.__name__ for cls, _, _ in RECORDS), []]


# -- the first use of a record class ---------------------------------------------------

# In process the tables above have built most records before any test runs,
# so each first use is checked in a new interpreter, and what it does is
# compared with what the same call does here, long after the class was built.


def _raw(cls, values):
    """A record made as ``copy`` and ``pickle`` make one, without ``__init__``."""
    x = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(x, name, value)
    return x


def _compared_first(cls, values):
    a, b = _raw(cls, values), _raw(cls, values)
    return a == b, hash(a) == hash(tuple(values.values())), repr(a)


def _hashed_first(cls, values):
    a, b = _raw(cls, values), _raw(cls, values)
    return hash(a) == hash(tuple(values.values())), a == b, repr(a)


def _first_uses():
    """(key, class, call) for each first use checked: construction by position
    and by keyword, with the defaults, of a rejected field, and ``==``,
    ``hash`` and ``repr`` of records that no ``__init__`` built."""
    for cls, values, _ in RECORDS:
        name = cls.__name__
        yield name + " by position", cls, partial(cls, *values.values())
        yield name + " by keyword", cls, partial(cls, **values)
        yield name + " compared", cls, partial(_compared_first, cls, values)
        yield name + " hashed", cls, partial(_hashed_first, cls, values)
    for cls, (args, _) in DEFAULTS.items():
        yield cls.__name__ + " defaults by position", cls, partial(cls, *args)
        yield (cls.__name__ + " defaults by keyword", cls,
               partial(cls, **dict(zip(cls._fields, args))))
    for row, (cls, args, kwargs, field, _) in enumerate(REJECTED):
        yield ("REJECTED[%d] %s.%s" % (row, cls.__name__, field), cls,
               partial(cls, *args, **kwargs))


def _outcome(call):
    try:
        return repr(call())
    except TypeError as error:
        return "TypeError: %s" % error


def test_first_use_behaves_as_after_the_class_is_built():
    seen = _in_fresh_interpreter(
        "import test_records\n"
        "seen = {}\n"
        "for key, cls, call in test_records._first_uses():\n"
        "    fresh()\n"
        "    first = test_records._outcome(call)\n"
        "    built = not isinstance(vars(cls)['__init__'], _Uncompiled)\n"
        "    seen[key] = [first, built, test_records._outcome(call)]\n"
        "print(json.dumps(seen))")
    expected = {key: _outcome(call) for key, _, call in _first_uses()}
    assert len(expected) == 4 * len(RECORDS) + 2 * len(DEFAULTS) + len(REJECTED)
    assert seen == {key: [outcome, True, outcome] for key, outcome in expected.items()}


def test_signature_and_help_before_first_use():
    """``inspect.signature`` and ``help()`` of a record class that has built
    no instance list its fields, with the class-attribute defaults."""
    seen = _in_fresh_interpreter(
        "import inspect, pydoc\n"
        "signatures = {c.__name__: str(inspect.signature(c)) for c in CLASSES}\n"
        "fresh()\n"
        "helps = {c.__name__: pydoc.plain(pydoc.render_doc(c)) for c in CLASSES}\n"
        "print(json.dumps([signatures, helps]))")
    signatures, helps = seen
    for cls, _, _ in RECORDS:
        own = vars(cls)
        expected = inspect.Signature([
            inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              default=own.get(name, inspect.Parameter.empty))
            for name in cls._fields])
        assert signatures[cls.__name__] == str(expected) == str(inspect.signature(cls))
        assert "\n |  %s%s\n" % (cls.__name__, expected) in helps[cls.__name__]


# -- the package's names -------------------------------------------------------------


def test_package_exports_exactly_the_modules_all():
    """The package's public names are the union of the ``__all__`` of
    the modules it re-exports, each bound to the module's own object."""
    modules = (numfield, matalg, liegroup, f2, higgs, moduli)
    owner = {name: module for module in modules for name in module.__all__}
    assert len(owner) == sum(len(module.__all__) for module in modules)
    public = {name for name in dir(sh)
              if not name.startswith("_")
              and not isinstance(getattr(sh, name), types.ModuleType)}
    assert public == set(owner)
    for name, module in owner.items():
        assert getattr(sh, name) is getattr(module, name), name


# the three ways to look up a name of the package, each read into ``got``
_LOOKUPS = {
    "attribute": "got = {name: getattr(sp4higgs, name) for name in NAMES}",
    "from-import": ("got = {}\n"
                    "for name in NAMES:\n"
                    "    exec('from sp4higgs import ' + name, got)\n"
                    "del got['__builtins__']"),
    "star-import": "got = {}\nexec('from sp4higgs import *', got)\ndel got['__builtins__']",
}


@pytest.mark.parametrize("lookup", _LOOKUPS)
def test_the_lie_layer_names_resolve_to_the_modules_own_objects(lookup):
    """In a new interpreter, where ``import sp4higgs`` has not loaded
    ``matalg`` or ``liegroup``, each lookup gives every name of their
    ``__all__`` as the module's own object; ``*`` gives the union of the
    ``__all__`` of every re-exported module."""
    names = [*matalg.__all__, *liegroup.__all__]
    code = ("import json, sys, sp4higgs\n"
            "NAMES = %r\n"
            "cold = not {'sp4higgs.matalg', 'sp4higgs.liegroup'} & set(sys.modules)\n"
            "%s\n"
            "from sp4higgs import liegroup, matalg\n"
            "own = {n: getattr(m, n) for m in (matalg, liegroup) for n in m.__all__}\n"
            "print(json.dumps([cold, sorted(got), [n for n in own if got[n] is not own[n]]]))"
            % (names, _LOOKUPS[lookup]))
    cold, got, not_own = json.loads(_run(code))
    modules = (numfield, matalg, liegroup, f2, higgs, moduli)
    expected = {n for m in modules for n in m.__all__} if lookup == "star-import" else names
    assert cold
    assert got == sorted(expected)
    assert not_own == []


def test_an_unknown_name_raises_the_standard_attribute_error():
    """A name the package does not export raises the error of a module with
    no ``__getattr__``, so ``hasattr`` is False, and loads no module."""
    with pytest.raises(AttributeError) as standard:
        types.ModuleType("sp4higgs").no_such_name
    with pytest.raises(AttributeError) as got:
        sh.no_such_name
    assert type(got.value) is AttributeError
    assert got.value.args == standard.value.args
    assert not hasattr(sh, "no_such_name")
    code = "import sys, sp4higgs\nprint(hasattr(sp4higgs, 'no_such_name'))"
    assert _loaded(code, LIE_LAYER) == ["False"]
