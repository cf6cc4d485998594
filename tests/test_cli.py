"""Command-line behavior: JSON I/O, determinism, exit codes."""

import argparse
import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sp4higgs as sh
from sp4higgs import cli, diagonal_shape, higgs, max_sl2, torsion_split
from sp4higgs.cli import _PARSER, _json, main
from sp4higgs.jsonio import ParseError, _bundle_json, datum_from_json, datum_to_json
from sp4higgs.moduli import _slot

from builders import cover_shape, sl2_of_degree
from test_golden import corpus

CTX3 = sh.CurveCtx(3)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_datum(tmp_path, ctx, datum, name="datum.json"):
    path = tmp_path / name
    path.write_text(json.dumps(datum_to_json(ctx, datum)))
    return str(path)


def test_datum_json_roundtrip():
    data = [
        diagonal_shape(CTX3, 1, b1=2, b3=Fraction(1, 3)),
        torsion_split(CTX3, sh.F2Vector.unit(6, 0), sh.F2Vector.unit(6, 1)),
        sh.CoverOrthShape(sh.F2Vector.unit(6, 2), 1, True),
        max_sl2(CTX3),
        sh.DirectSum((max_sl2(CTX3), max_sl2(CTX3, sh.F2Vector.unit(6, 0)))),
    ]
    data = [(CTX3, datum) for datum in data] + [
        (ctx, datum) for _, ctx, datum, _ in corpus()]
    for ctx, datum in data:
        doc = datum_to_json(ctx, datum)
        back = datum_from_json(doc)
        assert back == (ctx, datum)
        assert datum_to_json(*back) == doc


def test_no_higgs_record_carries_json():
    # the datum format, both directions, is jsonio's alone
    classes = [v for v in vars(higgs).values()
               if isinstance(v, type) and v.__module__ == higgs.__name__]
    assert sh.SectionSlot in classes and sh.LineBundleClass in classes
    assert [c.__name__ for c in classes if hasattr(c, "to_json")] == []


def test_classify_command(tmp_path, capsys):
    path = write_datum(tmp_path, CTX3, diagonal_shape(CTX3, 0, b1=0, b2=0))
    code, out = run_cli(capsys, "classify", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["component"] == "ZeroSW"
    assert payload["c"] == 0
    assert payload["admits"] == ["G_Delta", "G_p"]
    assert payload["zariski_dense"] is False


def test_classify_zariski_dense_component(tmp_path, capsys):
    path = write_datum(tmp_path, CTX3, diagonal_shape(CTX3, 1))
    code, out = run_cli(capsys, "classify", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["component"] == "ZeroSW" and payload["c"] == 1
    assert payload["admits"] == [] and payload["zariski_dense"] is True


def test_stability_command(tmp_path, capsys):
    path = write_datum(tmp_path, CTX3, diagonal_shape(CTX3, 2, b2=0))
    code, out = run_cli(capsys, "stability", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Unstable"
    assert "beta2 = 0" in payload["clause"]


def test_stability_domain_error_exit_code(tmp_path, capsys):
    bad = diagonal_shape(CTX3, 1)
    bad = sh.DiagonalShape(
        N=sh.LineBundleClass(Fraction(1, 2), -1, CTX3.zero_torsion()),
        beta1=bad.beta1, beta2=bad.beta2, beta3=bad.beta3)
    doc = datum_to_json(CTX3, bad)
    # fix the slot bundles so only the range precondition fails
    doc["beta1"]["bundle"] = _bundle_json(sh.LineBundleClass(
        Fraction(0), -2, CTX3.zero_torsion()))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "stability", "--in", str(path))
    assert code == 1
    payload = json.loads(out)
    assert "error" in payload and "clause" in payload


def test_count_command(tmp_path, capsys):
    code, out = run_cli(capsys, "count", "--genus", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 48
    assert payload["rep_variety"] == 99
    assert payload["grouped"] == {"hitchin": 16, "g_delta_g_p": 31,
                                  "zariski_dense": 1}


def test_count_sp2n(capsys):
    code, out = run_cli(capsys, "count", "--genus", "2", "--sp2n", "3")
    assert code == 0
    assert json.loads(out)["total"] == 48


def test_count_largest_printable_genus(capsys):
    code, out = run_cli(capsys, "count", "--genus", "7140")
    assert code == 0
    assert json.loads(out)["total"] == 3 * 4 ** 7140 + 2 * 7140 - 4


@pytest.mark.parametrize("argv", [["--genus", "7141"],
                                  ["--sp2n", "3", "--genus", "1000000000"]])
def test_count_genus_past_the_bound_exit_1(capsys, argv):
    code, out = run_cli(capsys, "count", *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "OutOfClassifiedRange"
    assert "7140" in payload["clause"]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7])
def test_f2_scan_command(capsys, g):
    code, out = run_cli(capsys, "f2-scan", "--genus", str(g))
    assert code == 0
    assert out == json.dumps({"genus": g, "image_size": 2 ** (2 * g + 1) - 1,
                              "missing": [["0" * (2 * g), 1]],
                              "mode": "exhaustive"},
                             sort_keys=True, indent=2) + "\n"


def test_f2_scan_over_budget_is_domain_error(capsys):
    code, out = run_cli(capsys, "f2-scan", "--genus", "8")
    assert code == 1
    assert json.loads(out)["error"] == "ScanBudgetExceeded"


@pytest.mark.parametrize("flags", [["--samples", "5"], ["--exhaustive"]])
def test_f2_scan_removed_flags_are_usage_errors(capsys, flags):
    code, _ = run_cli(capsys, "f2-scan", "--genus", "2", *flags)
    assert code == 2


def test_fiber_command(capsys):
    code, out = run_cli(capsys, "fiber", "--genus", "4", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["r"], payload["s"], payload["total_dim"]) == (11, 6, 30)


def test_fiber_out_of_range(capsys):
    code, out = run_cli(capsys, "fiber", "--genus", "3", "--c", "2")
    assert code == 1
    assert json.loads(out)["error"] == "OutOfClassifiedRange"


def test_normal_form_command(tmp_path, capsys):
    datum = diagonal_shape(CTX3, 1, b1=1, b2=3)
    path = write_datum(tmp_path, CTX3, datum)
    code, out = run_cli(capsys, "normal-form", "--in", path)
    assert code == 0
    _, back = datum_from_json(json.loads(out))
    assert back.beta2.coeffs[0] == sh.fe(1)
    assert back.beta1.coeffs[0] == sh.fe(3)


def test_verify_all(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "all")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2
    assert all(rep["ok"] for rep in payload)
    assert all(c["pass"] for rep in payload for c in rep["checks"])
    assert all(c["ref"] for rep in payload for c in rep["checks"])


def test_verify_all_matches_golden(capsys):
    # the frozen stdout of `verify --scope all`: every check id, ref,
    # detail and count, byte for byte
    golden = (Path(__file__).with_name("verify_golden.json")
              .read_text(encoding="utf-8"))
    assert run_cli(capsys, "verify", "--scope", "all") == (0, golden)


EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


@pytest.mark.parametrize("cmd", ["classify", "stability", "normal-form"])
def test_example_datum_matches_its_frozen_output(capsys, cmd):
    # the files the installed console script is diffed against in CI
    path = EXAMPLES / "diagonal-g2.json"
    frozen = (EXAMPLES / ("diagonal-g2.%s.json" % cmd)).read_text(encoding="utf-8")
    assert run_cli(capsys, cmd, "--in", str(path)) == (0, frozen)


# the other frozen outputs CI diffs the module entry point against:
# (argv, {E} the examples directory; exit code; frozen stdout)
FROZEN = [
    (["count", "--genus", "3"], 0, "count-g3.json"),
    (["f2-scan", "--genus", "3"], 0, "f2-scan-g3.json"),
    (["fiber", "--genus", "5", "--c", "1"], 0, "fiber-g5-c1.json"),
    (["normal-form", "--in", "{E}/cover-g2.json"], 1, "cover-g2.normal-form.json"),
    (["classify", "--in", "{E}/bad-coefficient-g2.json"], 2,
     "bad-coefficient-g2.classify.json"),
]


@pytest.mark.parametrize("argv, code, name", FROZEN, ids=[f[2] for f in FROZEN])
def test_commands_match_their_frozen_outputs(capsys, argv, code, name):
    frozen = (EXAMPLES / name).read_text(encoding="utf-8")
    assert run_cli(capsys, *[s.format(E=EXAMPLES) for s in argv]) == (code, frozen)


# argv templates, {F} the example datum; they run in a directory that
# holds copies of it named "-", "-1", "-x" and "a b.json"
PARSES = [
    # a command and arguments it takes or rejects
    ["classify", "--in", "{F}"], ["classify", "--in={F}"], ["classify", "--i", "{F}"],
    ["classify", "--in", "missing.json", "--in", "{F}"],  # the last --in wins
    ["classify", "-h"], ["classify"], ["classify", "--in"],
    ["classify", "--", "--in", "{F}"],
    # the edge of the unparsed CMD --in PATH: paths empty, with a space,
    # or starting with "-"
    ["classify", "--in", ""], ["classify", "--in", "a b.json"],
    ["stability", "--in", "-"], ["normal-form", "--in", "-1"],
    ["classify", "--in", "-x.json"], ["classify", "--in=-x"],
    ["count", "--genus", "2"], ["verify", "--scope", "lie"],
    ["f2-scan", "--genus", "2"], ["fiber", "--genus", "4", "--c", "1"],
    # top-level help, arguments left over after the command's own, no
    # command or an unknown one
    ["--help"], ["classify", "--in", "{F}", "extra"],
    ["classify", "--in", "{F}", "--bogus"], ["--", "classify", "--in", "{F}"],
    ["nosuch"], ["clas", "--in", "{F}"], [],
]


def _whole_tree(argv) -> int:
    """The reference for main on the argvs of PARSES, whose commands raise
    no ValueError but ParseError: the whole tree parses argv, the command
    runs, and json.dumps prints its payload or error object."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.func(args)
    except ParseError as exc:
        code, payload = 2, {"error": "ParseError", "clause": str(exc)}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return code


@pytest.mark.parametrize("template", PARSES, ids=" ".join)
def test_parse_matches_the_whole_tree(tmp_path, monkeypatch, capsys, template):
    example = EXAMPLES / "diagonal-g2.json"
    for name in ("-", "-1", "-x", "a b.json"):
        (tmp_path / name).write_bytes(example.read_bytes())
    monkeypatch.chdir(tmp_path)
    argv = [s.format(F=example) for s in template]
    results = []
    for run in (main, _whole_tree):
        code = run(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]


def test_only_cmd_in_path_skips_the_parse(monkeypatch, capsys):
    # CMD --in PATH is not parsed; any other datum argv makes the parses
    # of the whole tree
    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    path = EXAMPLES / "diagonal-g2.json"
    frozen = (EXAMPLES / "diagonal-g2.classify.json").read_text(encoding="utf-8")
    assert run_cli(capsys, "classify", "--in", str(path)) == (0, frozen)
    assert parsers == []
    _PARSER.parse_args(["classify", "--in=%s" % path])
    whole_tree = parsers[:]
    del parsers[:]
    assert run_cli(capsys, "classify", "--in=%s" % path) == (0, frozen)
    assert parsers == whole_tree and whole_tree


def test_the_writer_matches_json_dumps_on_every_printed_object(tmp_path, monkeypatch,
                                                                capsys):
    # every object main prints: the datum commands' payloads and error
    # objects over the golden corpus, and the other commands' payloads
    printed_objects = []

    def recording(obj, *indent):
        if not indent:  # main's call, not the writer's own recursion
            printed_objects.append(obj)
        return _json(obj, *indent)

    monkeypatch.setattr(cli, "_json", recording)
    path = tmp_path / "datum.json"
    requests = [["verify", "--scope", "all"], ["count", "--genus", "3"],
                ["count", "--genus", "2", "--sp2n", "3"], ["f2-scan", "--genus", "3"],
                ["fiber", "--genus", "4", "--c", "1"]]
    for _, _, _, doc in corpus():
        path.write_text(json.dumps(doc))
        requests += [[cmd, "--in", str(path)] for cmd in cli._DATUM_COMMANDS]
    for argv in requests:
        main(argv)
    out = capsys.readouterr().out
    assert len(printed_objects) == len(requests) == 5 + 3 * 297
    assert any("error" in obj for obj in printed_objects)
    assert all(_json(obj) + "\n" == printed(obj) for obj in printed_objects)
    assert out == "".join(map(printed, printed_objects))


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ud800\U0001f600')), max_size=8)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10 ** 60, 10 ** 60),
              _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=_JSON)
@example(obj={})
@example(obj={"": [], "a": (), "b": {}, "c": [None, True, False, -1, 0, "x"]})
def test_the_writer_matches_json_dumps(obj):
    assert _json(obj) + "\n" == printed(obj)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
def test_the_writer_raises_value_error_past_the_int_digit_limit():
    obj = {"a": [1, {"b": 10 ** 700}]}
    errors = []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for write in (_json, printed):
            with pytest.raises(ValueError) as exc:
                write(obj)
            errors.append(str(exc.value))
    finally:
        sys.set_int_max_str_digits(limit)
    assert errors[0] == errors[1]
    assert errors[0].startswith("Exceeds the limit (640 digits)")


# Hypothesis draws its examples partly from constants in the package's
# source, so which shapes the property above meets moves with any edit;
# each branch of the writer that a top-level value takes on its own (a
# string, the empty dict, None) is pinned here
@pytest.mark.parametrize("obj", ["", 'a "quoted" \\ line\n', "\u00e9\ud800\U0001f600",
                                 {}, None])
def test_the_writer_prints_a_top_level_string_empty_dict_or_none(obj):
    assert _json(obj) + "\n" == printed(obj)


@pytest.mark.parametrize("obj, kind", [
    (1.5, "float"), ([0, {"a": 0.0}], "float"), ({"a": {1, 2}}, "set")])
def test_the_writer_rejects_other_types(obj, kind):
    with pytest.raises(TypeError) as exc:
        _json(obj)
    assert str(exc.value) == "Object of type %s is not JSON serializable" % kind


def test_main_reads_sys_argv(monkeypatch, capsys):
    path = str(EXAMPLES / "diagonal-g2.json")
    frozen = (EXAMPLES / "diagonal-g2.classify.json").read_text(encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["sp4higgs", "classify", "--in", path])
    assert main() == 0
    assert capsys.readouterr().out == frozen
    monkeypatch.setattr(sys, "argv", ["sp4higgs", "classify", "--in", path, "extra"])
    assert main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("sp4higgs: error: unrecognized arguments: extra\n")


def test_verify_lie_alias(capsys):
    code, out = run_cli(capsys, "verify-lie")
    assert code == 0
    assert json.loads(out)["suite"] == "lie"


def test_verify_negative_control(monkeypatch, capsys):
    # corrupt one entry of the radical-entry constant: the suite must go red
    from sp4higgs import liegroup, matalg
    bump = matalg.SqMatrix([[0, 0, Fraction(1, 7), 0], [0, 0, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0]])
    bad_ht = (matalg.HTILDE + bump) * matalg.T4
    monkeypatch.setattr(liegroup, "HT", bad_ht)
    monkeypatch.setattr(liegroup, "HT_INV", bad_ht.inv())
    code, out = run_cli(capsys, "verify", "--scope", "lie")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert any(not c["pass"] for c in payload["checks"])


def _failed_checks(capsys, scope):
    code, out = run_cli(capsys, "verify", "--scope", scope)
    return code, [c["id"] for c in json.loads(out)["checks"] if not c["pass"]]


def test_matalg_suite_negative_control(monkeypatch, capsys):
    # H_PERM = I swaps no tensor factors and maps J12 to itself
    from sp4higgs import matalg
    monkeypatch.setattr(matalg, "H_PERM", matalg.I4)
    assert _failed_checks(capsys, "matalg") == (
        1, ["kron-swap-conjugation", "h-intertwines-forms"])


def test_kron_identities_negative_control(monkeypatch, capsys):
    # a doubled kron breaks the mixed product; verify imports kron by
    # name, so only kron_identities_check sees the patched one
    from sp4higgs import matalg
    true_kron = matalg.kron
    monkeypatch.setattr(matalg, "kron", lambda a, b: true_kron(a, b).scale(2))
    assert _failed_checks(capsys, "matalg") == (1, ["kron-identities"])


def test_rho13_star_negative_control(monkeypatch, capsys):
    # the bump vanishes at p = 0 and p = 1, so it agrees with the closed
    # form on e, f and h0: only the seeded traceless directions catch it
    from sp4higgs import liegroup, matalg
    closed = liegroup.rho13_star

    def bumped(x):
        p = x.rows[0][0]
        return closed(x) + matalg.SqMatrix.diag(3 * p * p - 3 * p, 0, 0, 0)

    monkeypatch.setattr(liegroup, "rho13_star", bumped)
    assert _failed_checks(capsys, "lie") == (1, ["rho13-star-derivative"])


def test_cayley_frame_negative_control(monkeypatch, capsys):
    # swapping the weights of F[1][3] and F[2][2] leaves phi diagonal on
    # the torus and on e - f: only the frame identity and the two
    # non-diagonal golden matrices catch it
    from sp4higgs import liegroup
    monkeypatch.setattr(liegroup, "_F_FRAME", liegroup._monomial_frame(
        liegroup.SqMatrix([[1, 0, 0, 0], [0, 0, 0, Fraction(1, 6)],
                           [0, 0, Fraction(1, 2), 0], [0, 1, 0, 0]])))
    assert _failed_checks(capsys, "lie") == (
        1, ["ht-frame", "golden-e-plus-f", "golden-h0"])


def test_j13_frame_negative_control(monkeypatch, capsys):
    # sqrt3 on rows 0 and 2 makes the frame sqrt3 times a permutation:
    # rho13 stays a homomorphism but leaves the J13 group, and rho13_star
    # leaves the derivative, which takes the frame by generic products
    from sp4higgs import liegroup, matalg
    s3 = matalg.SQRT3
    monkeypatch.setattr(liegroup, "_J13_FRAME", matalg._monomial_frame(
        matalg.SqMatrix([[s3, 0, 0, 0], [0, 0, 0, s3],
                         [0, 0, s3, 0], [0, s3, 0, 0]])))
    assert _failed_checks(capsys, "lie") == (
        1, ["rho13-symplectic", "rho13-via-h", "rho13-star-derivative"])


def test_override_contradicting_h0_exit_1(tmp_path, capsys):
    # gamma lives in a bundle of degree -2, so h0 = 0 and gamma = 0;
    # claiming one section would make the deg L = g datum stable
    doc = datum_to_json(CTX3, sl2_of_degree(CTX3, 3))
    assert doc["gamma"]["coeffs"] == []
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "stability", "--in", str(path))
    assert (code, json.loads(out)["verdict"]) == (0, "Unstable")
    doc["gamma"]["coeffs"] = [["1/1"] + ["0/1"] * 7]
    doc["gamma"]["h0_override"] = 1
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "stability", "--in", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ValueError"
    assert "h0_override 1" in payload["clause"] and "h0 = 0" in payload["clause"]


def printed(payload) -> str:
    """What the CLI writes for ``payload``: one indented, key-sorted object."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _with_slot(doc, slot, **fields):
    return dict(doc, **{slot: dict(doc[slot], **fields)})


_SPLIT = datum_to_json(CTX3, torsion_split(CTX3, sh.F2Vector.unit(6, 0),
                                           sh.F2Vector.unit(6, 1)))
_SL2 = datum_to_json(CTX3, max_sl2(CTX3))
_K = _bundle_json(sh.LineBundleClass.canonical(CTX3))
_K2 = _bundle_json(sh.LineBundleClass.canonical(CTX3, 2))
_DEGREE_0 = sl2_of_degree(CTX3, 0, beta=1, gamma=2)
_IMAGE = datum_to_json(CTX3, sh.IrreducibleImage(
    _DEGREE_0.L, _DEGREE_0.beta, _DEGREE_0.gamma))
_DIAG3 = datum_to_json(CTX3, diagonal_shape(CTX3, 1))
_COVER = datum_to_json(CTX3, cover_shape(CTX3))
# deg L = 1 > 0 with gamma = 0: an unstable rank-1 datum
_UNSTABLE_1 = sl2_of_degree(CTX3, 1)
# a stable diagonal datum at c = 2g-2 with N written as O(3g-3), not as
# the cube of a square root of K, so it carries no spin label
_N6 = sh.LineBundleClass(Fraction(0), 6, CTX3.zero_torsion())
_K1 = sh.LineBundleClass.canonical(CTX3)
_N_AS_DEGREE = sh.DiagonalShape(
    N=_N6, beta1=_slot(CTX3, _N6.power(2) * _K1, 0),
    beta2=_slot(CTX3, _N6.power(-2) * _K1.power(3), 1),
    beta3=_slot(CTX3, _K1.power(2), 0))

# a g = 2 diagonal datum whose N carries a label of length 6
_DIAG2 = datum_to_json(sh.CurveCtx(2), diagonal_shape(sh.CurveCtx(2), 1))
_N_LABEL_6 = dict(_DIAG2, N=dict(_DIAG2["N"], torsion="000000"))

_ZERO_COEFF = ["0/1"] * 8
_BAD_COEFF = ["0/1"] * 7 + ["1/0"]

# (command, datum document, exit code, payload): each reaches a clause
# that only the datum's own checks, its stability rules or the decoding
# of its coefficients give
DATUM_PATHS = {
    "torsion-label-length": (
        "classify", dict(_SPLIT, t1="0000"), 1,
        {"error": "ValueError", "clause": "t1 has length 4, expected 6"}),
    "cover-w1-length": (
        "classify", dict(_COVER, w1="1000"), 1,
        {"error": "ValueError", "clause": "w1 has length 4, expected 6"}),
    # a shape's own bundle: the clause names it, not a "length mismatch"
    "diagonal-n-label-length": (
        "normal-form", _N_LABEL_6, 1,
        {"error": "ValueError", "clause": "N torsion has length 6, expected 4"}),
    "diagonal-n-label-length-classify": (
        "classify", _N_LABEL_6, 1,
        {"error": "ValueError", "clause": "N torsion has length 6, expected 4"}),
    "sl2r-l-label-length": (
        "stability", dict(_SL2, L=dict(_SL2["L"], torsion="0000")), 1,
        {"error": "ValueError", "clause": "L torsion has length 4, expected 6"}),
    "irreducible-image-l-label-length": (
        "stability", dict(_IMAGE, L=dict(_IMAGE["L"], torsion="0000")), 1,
        {"error": "ValueError", "clause": "L torsion has length 4, expected 6"}),
    "diagonal-beta2-bundle": (
        "classify", _with_slot(_DIAG3, "beta2", bundle=_K), 1,
        {"error": "ValueError", "clause": "beta2 slot must live in H0(N^-2 K^3)"}),
    "torsion-split-slot-bundle": (
        "classify", _with_slot(_SPLIT, "beta1", bundle=_K), 1,
        {"error": "ValueError", "clause": "beta1 slot must live in H0(K^2)"}),
    "sl2r-beta-bundle": (
        "stability", _with_slot(_SL2, "beta", bundle=_SL2["gamma"]["bundle"]), 1,
        {"error": "ValueError", "clause": "beta slot must live in H0(L^2 K)"}),
    "sl2r-gamma-bundle": (
        "stability", _with_slot(_SL2, "gamma", bundle=_SL2["beta"]["bundle"]), 1,
        {"error": "ValueError", "clause": "gamma slot must live in H0(L^-2 K)"}),
    # at deg L = 0 both slots live in H0(K); K^2 is neither
    "irreducible-image-gamma-bundle": (
        "stability", _with_slot(_IMAGE, "gamma", bundle=_K2), 1,
        {"error": "ValueError", "clause": "gamma slot must live in H0(L^-2 K)"}),
    "irreducible-image-degree-0": (
        "stability", _IMAGE, 0,
        {"verdict": "Stable", "non_simple": False,
         "clause": "irreducible image, deg L = 0, both fields nonzero"}),
    "direct-sum-not-polystable": (
        "stability", datum_to_json(CTX3, sh.DirectSum((
            diagonal_shape(CTX3, 0, b1=1, b2=0), max_sl2(CTX3)))), 0,
        {"verdict": "SemistableNotPoly", "non_simple": False,
         "clause": "direct sum with a non-polystable summand"}),
    "hitchin-n-not-a-cube": (
        "classify", datum_to_json(CTX3, _N_AS_DEGREE), 1,
        {"error": "NotPolystable",
         "clause": "c = 2g-2 requires N to be encoded as the cube of a square "
                   "root of K (k_power 3/2); got %r" % (_N_AS_DEGREE.N,)}),
    "irreducible-image-unstable-input": (
        "stability", datum_to_json(CTX3, sh.IrreducibleImage(
            _UNSTABLE_1.L, _UNSTABLE_1.beta, _UNSTABLE_1.gamma)), 1,
        {"error": "NotPolystable",
         "clause": "rank-1 input of the irreducible image is not polystable"}),
    "normal-form-wrong-shape": (
        "normal-form", _SL2, 1,
        {"error": "WrongShape", "clause": "normal-form expects a diagonal-shape datum"}),
    # the coefficient decoder: beta is six zeros and gamma one, and
    # deg L > 0 with gamma = 0 is unstable (with gamma = 1, stable)
    "sl2r-slots-of-zeros": (
        "stability", _with_slot(_SL2, "gamma", coeffs=[_ZERO_COEFF]), 0,
        {"verdict": "Unstable", "non_simple": False,
         "clause": "rank-1 criterion, deg L = 2"}),
    # gamma lives in a bundle with no sections: its coeffs are []
    "sl2r-empty-slot": (
        "stability", datum_to_json(CTX3, sl2_of_degree(CTX3, 3)), 0,
        {"verdict": "Unstable", "non_simple": False,
         "clause": "rank-1 criterion, deg L = 3"}),
    "malformed-coefficient-among-zeros": (
        "classify", _with_slot(_SL2, "beta", coeffs=[_ZERO_COEFF] * 2 + [_BAD_COEFF]
                                      + [_ZERO_COEFF] * 3), 2,
        {"error": "ParseError",
         "clause": "coefficient: cannot read %r (coordinate '1/0' has a zero "
                   "denominator)" % (_BAD_COEFF,)}),
}


@pytest.mark.parametrize("name", list(DATUM_PATHS))
def test_datum_command_paths(tmp_path, capsys, name):
    cmd, doc, want_code, want = DATUM_PATHS[name]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, cmd, "--in", str(path))
    assert (code, out) == (want_code, printed(want))


def test_a_slot_of_zeros_reads_no_coefficient(monkeypatch):
    # beta is eight zeros and gamma has none: neither reaches from_json
    calls = []
    from_json = sh.FieldElem.from_json
    monkeypatch.setattr(sh.FieldElem, "from_json",
                        lambda c: calls.append(c) or from_json(c))
    doc = datum_to_json(CTX3, sl2_of_degree(CTX3, 3))
    assert doc["beta"]["coeffs"] == [_ZERO_COEFF] * 8
    _, datum = datum_from_json(doc)
    assert calls == []
    assert datum.beta.coeffs == (sh.ZERO,) * 8
    assert all(c is sh.ZERO for c in datum.beta.coeffs)
    assert datum.gamma.coeffs == ()

    # a list subclass is no JSON array, zero or not
    class Coefficient(list):
        pass

    doc["beta"]["coeffs"][3] = Coefficient(_ZERO_COEFF)
    with pytest.raises(ParseError) as exc:
        datum_from_json(doc)
    assert str(exc.value) == "coefficient must be an array, not Coefficient"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
def test_count_past_the_int_digit_limit_is_a_value_error(capsys):
    # the payload is encoded inside main's error mapping, so an int too
    # long to print is the ValueError object, not a traceback
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(capsys, "count", "--genus", "2000")
        # the first int the encoder meets in key order is grouped.g_delta_g_p
        with pytest.raises(ValueError) as exc:
            str(sh.count_components(sh.CurveCtx(2000)).grouped_gdelta_gp)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, printed({"error": "ValueError", "clause": str(exc.value)}))
    assert str(exc.value).startswith("Exceeds the limit (640 digits)")


def test_output_is_deterministic(tmp_path, capsys):
    path = write_datum(tmp_path, CTX3, diagonal_shape(CTX3, 1))
    _, first = run_cli(capsys, "classify", "--in", path)
    _, second = run_cli(capsys, "classify", "--in", path)
    assert first == second
    _, scan1 = run_cli(capsys, "f2-scan", "--genus", "2")
    _, scan2 = run_cli(capsys, "f2-scan", "--genus", "2")
    assert scan1 == scan2


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "classify", "--in", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def _with(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` replaced."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_DIAGONAL = datum_to_json(CTX3, diagonal_shape(CTX3, 1))
_COVER = datum_to_json(CTX3, sh.CoverOrthShape(sh.F2Vector.unit(6, 0), 1))
_DEEP = 3000
MALFORMED = {
    "not utf-8": b"\xff\xfe{}",
    "nested too deeply": ('{"genus": 3, "shape": "direct_sum", "summands": ['
                          + '{"shape": "direct_sum", "summands": [' * _DEEP
                          + "]}" * _DEEP + "]}").encode(),
    "zero denominator": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), "1/0"),
    "coeffs not an array": _with(_DIAGONAL, ("beta2", "coeffs"), 5),
    "top-level array": [_DIAGONAL],
    "summands not an array": {"genus": 3, "shape": "direct_sum", "summands": 7},
    "not a rational": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), "abc"),
    "genus float": _with(_DIAGONAL, ("genus",), 3.9),
    "genus string": _with(_DIAGONAL, ("genus",), "3"),
    "w2 string": _with(_COVER, ("w2",), "1"),
    "beta_present string": _with(_COVER, ("beta_present",), "no"),
    "exponent notation": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), "1e3"),
    "decimal": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), "1.5"),
    "leading space": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), " 1/2"),
    "trailing newline": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), "1/2\n"),
    "integer without denominator": _with(_DIAGONAL, ("beta2", "coeffs", 0, 0), "1"),
    "w2 out of range": _with(_COVER, ("w2",), 2),
    "genus 1": _with(_DIAGONAL, ("genus",), 1),
    "k_power not a half-integer": _with(_DIAGONAL, ("N", "k_power"), "1/3"),
    "k_power not num/den": _with(_DIAGONAL, ("N", "k_power"), "0.5"),
    "negative h0_override": _with(_DIAGONAL, ("beta2", "h0_override"), -1),
    "null h0_override": _with(_DIAGONAL, ("beta2", "h0_override"), None),
    # a k_power string matches the pattern whatever its length, and int()
    # refuses a numerator past the interpreter's 4,300-digit limit
    "over-long k_power": _with(_DIAGONAL, ("N", "k_power"), "9" * 5000 + "/1"),
    # json reads no integer literal past the interpreter's 4,300-digit limit
    "over-long integer": (b'{"genus": ' + b"9" * 5000
                          + b', "shape": "cover_orth", "w1": "01", "w2": 0}'),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_datum_is_a_parse_error(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    content = MALFORMED[name]
    path.write_bytes(content if isinstance(content, bytes)
                     else json.dumps(content).encode())
    code = main(["classify", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["error"] == "ParseError" and payload["clause"]


# documents with two defects, and the clause of the ParseError each gives
# (captured before the decoder tested values inline): the first value the
# decoder reads is the one named, a shape's fields in their field order
# whatever the order of the document's keys
_N = _DIAGONAL["N"]
TWO_DEFECTS = {
    "k_power type, torsion missing": (
        dict(_DIAGONAL, N={"k_power": 3, "extra_degree": _N["extra_degree"]}),
        "k_power must be a string, not int"),
    "k_power not num/1 or num/2, extra_degree a string": (
        dict(_DIAGONAL, N=dict(_N, k_power="1/3", extra_degree="1")),
        "k_power: cannot read '1/3' (a k_power is num/1 or num/2)"),
    "over-long k_power, extra_degree missing": (
        dict(_DIAGONAL, N={"k_power": "9" * 5000 + "/1", "torsion": _N["torsion"]}),
        "k_power: cannot read %r (Exceeds the limit (4300 digits) for integer "
        "string conversion: value has 5000 digits; use "
        "sys.set_int_max_str_digits() to increase the limit)" % ("9" * 5000 + "/1")),
    "extra_degree missing, torsion not a bitstring": (
        dict(_DIAGONAL, N={"k_power": _N["k_power"], "torsion": "0a0000"}),
        "missing field 'extra_degree'"),
    "bad coefficient, then a non-array one": (
        _with(_DIAGONAL, ("beta2", "coeffs"), [_BAD_COEFF, 5]),
        "coefficient: cannot read %r (coordinate '1/0' has a zero denominator)"
        % (_BAD_COEFF,)),
    "non-array coefficient, then a bad one": (
        _with(_DIAGONAL, ("beta2", "coeffs"), [5, _BAD_COEFF]),
        "coefficient must be an array, not int"),
    "h0_override -1, bad coefficient": (
        _with(_with(_DIAGONAL, ("beta2", "h0_override"), -1), ("beta2", "coeffs"),
              [_BAD_COEFF]),
        "h0_override must be at least 0, not -1"),
    "bad coefficient, bad slot bundle": (
        dict(_DIAGONAL, beta2={"bundle": 7, "coeffs": [_BAD_COEFF]}),
        "coefficient: cannot read %r (coordinate '1/0' has a zero denominator)"
        % (_BAD_COEFF,)),
    "a summand not an object, then an unknown shape": (
        {"genus": 3, "shape": "direct_sum", "summands": [7, {"shape": "x"}]},
        "datum must be an object, not int"),
    "two bad diagonal fields, keys reversed": (
        dict(reversed(dict(_DIAGONAL, N=5, beta3="x").items())),
        "N must be an object, not int"),
    "two bad cover fields, keys reversed": (
        dict(reversed(dict(_COVER, w1=5, w2="1").items())),
        "w1 must be a string, not int"),
}


@pytest.mark.parametrize("name", list(TWO_DEFECTS))
def test_the_first_defect_read_is_the_one_named(tmp_path, capsys, name):
    doc, clause = TWO_DEFECTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "classify", "--in", str(path)) == (
        2, printed({"error": "ParseError", "clause": clause}))


def test_datum_path_that_is_a_directory_exit_2(tmp_path, capsys):
    code, out = run_cli(capsys, "classify", "--in", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_unknown_scope_exit_2(capsys):
    assert main(["verify", "--scope", "everything"]) == 2


def test_datum_files_validate_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).resolve().parents[1] / "docs" / "datum-schema.json"
    schema = json.loads(schema_path.read_text())
    samples = [
        diagonal_shape(CTX3, 1),
        torsion_split(CTX3, sh.F2Vector.unit(6, 0), sh.F2Vector.unit(6, 1)),
        sh.CoverOrthShape(sh.F2Vector.unit(6, 2), 1, True),
        max_sl2(CTX3),
        sh.DirectSum((max_sl2(CTX3), max_sl2(CTX3, sh.F2Vector.unit(6, 0)))),
    ]
    for datum in samples:
        jsonschema.validate(datum_to_json(CTX3, datum), schema)


def test_subprocess_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "sp4higgs.cli", "count", "--genus", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["total"] == 194


def test_repeated_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # argparse reads the width for --help when it prints; pin it so the
    # in-process and the subprocess help text wrap alike
    monkeypatch.setenv("COLUMNS", "80")
    valid = write_datum(tmp_path, CTX3, diagonal_shape(CTX3, 1))
    not_polystable = write_datum(tmp_path, CTX3, diagonal_shape(CTX3, 0),
                                 "not_polystable.json")
    calls = [["classify"], ["--help"], ["verify-lie"],
             ["verify", "--scope", "matalg"],
             ["classify", "--in", not_polystable],
             ["classify", "--in", valid], ["classify", "--in", valid],
             ["classify", "--in", valid, "extra"], ["classify", "-h"],
             ["classify", f"--in={valid}"]]
    fresh = []
    for argv in calls:
        result = subprocess.run([sys.executable, "-m", "sp4higgs.cli", *argv],
                                capture_output=True, text=True)
        fresh.append((result.returncode, result.stdout, result.stderr))
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 1, 0, 0, 2, 0, 0]

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert built == []
    for argv, got, want in zip(calls, in_process, fresh):
        assert got == want, argv


def test_import_pulls_no_runtime_dependencies():
    code = ("import sp4higgs, sys; print(sorted("
            "{'mpmath', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
