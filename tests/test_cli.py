"""Command-line behavior: JSON I/O, determinism, exit codes."""

import copy
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import sp4higgs as sh
from sp4higgs.cli import main
from sp4higgs.jsonio import datum_from_json, datum_to_json

from builders import diagonal_shape, max_sl2, torsion_split

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
    for datum in data:
        ctx, back = datum_from_json(datum_to_json(CTX3, datum))
        assert ctx == CTX3
        assert back == datum


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
    doc["beta1"]["bundle"] = sh.LineBundleClass(
        Fraction(0), -2, CTX3.zero_torsion()).to_json()
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


def test_f2_scan_command(capsys):
    code, out = run_cli(capsys, "f2-scan", "--genus", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["image_size"] == 31
    assert payload["missing"] == [["0000", 1]]
    assert payload["mode"] == "exhaustive"


def test_f2_scan_genus4_is_exhaustive(capsys):
    code, out = run_cli(capsys, "f2-scan", "--genus", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["image_size"] == 511
    assert payload["missing"] == [["00000000", 1]]
    assert payload["mode"] == "exhaustive"


def test_f2_scan_over_budget_is_domain_error(capsys):
    code, out = run_cli(capsys, "f2-scan", "--genus", "6")
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


def test_datum_path_that_is_a_directory_exit_2(tmp_path, capsys):
    code, out = run_cli(capsys, "classify", "--in", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_unknown_scope_exit_2(capsys):
    assert main(["verify", "--scope", "everything"]) == 2


def test_datum_files_validate_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path
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


def test_import_pulls_no_runtime_dependencies():
    code = ("import sp4higgs, sys; print(sorted("
            "{'mpmath', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
