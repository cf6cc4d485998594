"""Tests for the benchmark itself: seeded inputs, the self-time
arithmetic and the failure accounting.  Run with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sp4higgs = run.import_library()
import workloads  # noqa: E402


GENERATORS = {
    "exact_lie": lambda seed: gen.exact_lie_inputs(seed, 6),
    "classify_cli": lambda seed: gen.classify_cli_inputs(seed, 40),
    "census": lambda seed: gen.census_inputs(seed, 1),
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    make = GENERATORS[workload]
    first = gen.inputs_bytes(make(7))
    assert first == gen.inputs_bytes(make(7))
    assert first != gen.inputs_bytes(make(8))


def test_corpus_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        workloads.classify_cli(5, str(d), {}, size=30)
    names = sorted(p.name for p in a.iterdir())
    assert len(names) == 30
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def test_oracle_field_product():
    def basis(k, c=1):
        return tuple(gen.Fraction(c) if j == k else gen.F0 for j in range(8))

    sqrt2, sqrt3, sqrt6, i = basis(1), basis(2), basis(3), basis(4)
    assert gen.elem_mul(sqrt2, sqrt3) == sqrt6
    assert gen.elem_mul(sqrt6, sqrt6) == basis(0, 6)
    assert gen.elem_mul(sqrt3, sqrt6) == basis(1, 3)
    assert gen.elem_mul(i, i) == basis(0, -1)


def test_self_time_on_hand_built_tree():
    t = Tracer()
    a = t.record("x.a", 0.0, 10.0)
    t.record("x.b", 1.0, 4.0, parent=a)
    c = t.record("y.c", 5.0, 9.0, parent=a)
    t.record("x.b", 6.0, 8.0, parent=c)
    t.record("y.e", 12.0, 13.0)
    assert t.self_times() == [3.0, 3.0, 2.0, 2.0, 1.0]
    s = t.summary()
    assert s["by_name"] == {"x.a": (1, 3.0), "x.b": (2, 5.0), "y.c": (1, 2.0),
                            "y.e": (1, 1.0)}
    assert s["covered"] == 11.0
    assert t.count_children("x.b", "y.c") == 1
    assert t.count_children("x.b", "x.a") == 1


def test_wrapped_calls_nest_and_roundtrip(tmp_path):
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("m.inner", lambda: None)
    outer = t.wrap("m.outer", lambda: (inner(), inner()))
    t.op = 4
    outer()
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert list(t.parent) == [-1, 0, 0]
    assert t.self_times() == [3.0, 1.0, 1.0]
    t.dump(str(tmp_path / "spans"))
    back = Tracer.load(str(tmp_path / "spans"))
    assert back.names == t.names and list(back.span_op) == [4, 4, 4]
    assert back.summary() == t.summary()


def test_install_wraps_every_binding_and_restores():
    from sp4higgs import cli, moduli, numfield

    mul, classify = numfield.FieldElem.__mul__, moduli.classify
    t = Tracer()
    with t.installed(sp4higgs):
        assert numfield.FieldElem.__rmul__ is numfield.FieldElem.__mul__
        assert numfield.FieldElem.__mul__ is not mul
        assert cli.classify is moduli.classify is not classify
        two = 2 * numfield.SQRT2 * numfield.SQRT2
    assert two == 4
    assert t.summary()["by_name"]["numfield.mul"][0] == 2
    assert numfield.FieldElem.__mul__ is mul and numfield.FieldElem.__rmul__ is mul
    assert cli.classify is classify


def test_planted_wrong_expectation_fails(monkeypatch, capsys, tmp_path):
    items = gen.classify_cli_inputs(3, 5)
    planted = next(k for k, it in enumerate(items) if it["cmd"] == "classify")
    items[planted] = dict(items[planted], stdout=items[planted]["stdout"] + " ")
    monkeypatch.setattr(gen, "classify_cli_inputs", lambda seed, n: items)

    failures = []
    steps = workloads.classify_cli(3, str(tmp_path), {})
    run.run_pass(steps, failures)
    assert len(failures) == 1

    code = run.main(["--workload", "classify_cli", "--seed", "3",
                     "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
