"""Golden corpus: every public per-datum result, frozen.

Each datum of the corpus is run through rank, toledo, stability_report,
sw_invariants, cayley_partner (base root and one non-zero spin), the
three reduction checkers, is_hitchin_minimum, classify with its
reduction verdict, and the classify / stability / normal-form CLI
commands.  A call that raises is recorded as its exception class and
message.  One JSON line per datum in ``golden_expected.jsonl``; strings
longer than 200 characters are recorded as a digest.

The corpus: the criterion-9 data and the criterion-7 stability table for
g = 2, 3, 4; direct sums decoded from raw JSON (maximal pairs, a pair
with a zero-gamma summand, empty, one- and three-summand sums, and a
maximal pair whose L is encoded as O(g-1)); and the higher-rank
reduction witnesses for n = 3, 4.

Regenerate the expected file (only when a result is meant to change)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import sp4higgs as sh
from sp4higgs import CurveCtx, F2Vector
from sp4higgs.cli import main
from sp4higgs.jsonio import datum_from_json, datum_to_json

from builders import (
    cover_shape, diagonal_shape, max_sl2, sl2_of_degree, torsion_split,
)
from test_acceptance import _generate_maximal_polystable

EXPECTED = Path(__file__).with_name("golden_expected.jsonl")
LONG = 200


def _stability_table(ctx):
    """The criterion-7 cases, at any genus."""
    t0, t1 = F2Vector.unit(ctx.two_g, 0), F2Vector.unit(ctx.two_g, 1)
    c_top = ctx.deg_k
    return [
        diagonal_shape(ctx, c_top, b2=1), diagonal_shape(ctx, c_top, b2=0),
        diagonal_shape(ctx, 0, b1=1, b2=1), diagonal_shape(ctx, 0, b1=0, b2=1),
        diagonal_shape(ctx, 0, b1=1, b2=0), diagonal_shape(ctx, 0, b1=0, b2=0),
        cover_shape(ctx, w1=t0, w2=1),
        torsion_split(ctx, t0, t0), torsion_split(ctx, t0, t1),
        max_sl2(ctx, gamma=1), max_sl2(ctx, gamma=0),
        sl2_of_degree(ctx, -(ctx.genus - 1), beta=1),
        sl2_of_degree(ctx, 0), sl2_of_degree(ctx, 0, beta=1, gamma=1),
        sl2_of_degree(ctx, ctx.genus),
    ]


def _summand_doc(ctx, datum):
    doc = datum_to_json(ctx, datum)
    del doc["genus"]
    return doc


def _raw_sums(ctx):
    """Direct-sum documents written as JSON, never built by direct_sum."""
    e = lambda k: F2Vector.unit(ctx.two_g, k)
    zero = ctx.zero_torsion()
    g = ctx.genus
    groups = [
        [max_sl2(ctx, zero), max_sl2(ctx, zero)],
        [max_sl2(ctx, e(0)), max_sl2(ctx, e(1), beta=1)],
        [max_sl2(ctx, e(0)), max_sl2(ctx, e(0))],
        [max_sl2(ctx, e(0), gamma=0), max_sl2(ctx, e(1))],
        [],
        [diagonal_shape(ctx, 0, b1=0, b2=0)],
        [max_sl2(ctx, e(1))],
        [max_sl2(ctx, zero), max_sl2(ctx, e(0)), max_sl2(ctx, e(g))],
        # L encoded as O(g-1) instead of a square root of K
        [sl2_of_degree(ctx, g - 1, gamma=1),
         sl2_of_degree(ctx, g - 1, gamma=1, torsion=e(0))],
    ]
    return [{"genus": g, "shape": "direct_sum",
             "summands": [_summand_doc(ctx, s) for s in group]}
            for group in groups]


def _witnesses(ctx):
    e = lambda k: F2Vector.unit(ctx.two_g, k)
    zero = ctx.zero_torsion()
    invariants = [(zero, 0), (zero, 1), (e(0), 1), (e(0) + e(ctx.genus), 0)]
    return [sh.sp2n_reduction_witness(ctx, n, w1, w2)
            for n in (3, 4) for w1, w2 in invariants]


def corpus():
    """(id, ctx, datum, document written for the CLI)."""
    out = []
    for g in (2, 3, 4):
        ctx = CurveCtx(g)
        groups = [("crit9", _generate_maximal_polystable(ctx)),
                  ("crit7", _stability_table(ctx)),
                  ("sp2n", _witnesses(ctx))]
        for name, data in groups:
            for k, datum in enumerate(data):
                out.append(("g%d/%s/%03d" % (g, name, k), ctx, datum,
                            datum_to_json(ctx, datum)))
        for k, doc in enumerate(_raw_sums(ctx)):
            _, datum = datum_from_json(doc)
            out.append(("g%d/raw_sum/%03d" % (g, k), ctx, datum, doc))
    return out


def _digest(text):
    if len(text) <= LONG:
        return text
    return "sha256:%s:%d" % (hashlib.sha256(text.encode()).hexdigest()[:16],
                             len(text))


def _plain(x):
    """A JSON-ready, hash-seed independent form of a result."""
    if x is None or isinstance(x, (bool, int)):
        return x
    if isinstance(x, str):
        return _digest(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, F2Vector):
        return x.to_string()
    if isinstance(x, (set, frozenset)):
        return sorted(_plain(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if dataclasses.is_dataclass(x):
        out = {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
        out["type"] = type(x).__name__
        return out
    raise TypeError("no plain form for %r" % (x,))


def _call(fn, *args):
    try:
        return _plain(fn(*args))
    except Exception as exc:  # the exception is the recorded result
        return {"raises": type(exc).__name__, "message": _digest(str(exc))}


def _cli(cmd, path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([cmd, "--in", path])
    return [code, _digest(buf.getvalue())]


def record(ident, ctx, datum, doc, workdir):
    path = os.path.join(workdir, "datum.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    spin = F2Vector.unit(ctx.two_g, 0)
    canonical = json.dumps(datum_to_json(ctx, datum), sort_keys=True)
    return {
        "id": ident,
        "datum": _digest(canonical),
        "rank": _call(sh.rank, datum),
        "toledo": _call(sh.toledo, ctx, datum),
        "stability_report": _call(sh.stability_report, ctx, datum),
        "sw_invariants": _call(sh.sw_invariants, ctx, datum),
        "cayley_partner": _call(sh.cayley_partner, ctx, datum),
        "cayley_partner_spin": _call(sh.cayley_partner, ctx, datum, spin),
        "gdelta": _call(sh.gdelta_reduction_check, ctx, datum),
        "gp": _call(sh.gp_reduction_check, ctx, datum),
        "sl2xsl2": _call(sh.sl2xsl2_reduction_check, ctx, datum),
        "is_hitchin_minimum": _call(sh.is_hitchin_minimum, ctx, datum),
        "classify": _call(sh.classify, ctx, datum),
        "reduction_verdict": _call(
            lambda: sh.reduction_verdict(sh.classify(ctx, datum))),
        "cli_classify": _cli("classify", path),
        "cli_stability": _cli("stability", path),
        "cli_normal_form": _cli("normal-form", path),
    }


def golden_lines(workdir):
    return [json.dumps(record(*item, workdir), sort_keys=True)
            for item in corpus()]


def test_golden_corpus(tmp_path):
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    actual = golden_lines(str(tmp_path))
    assert len(actual) == len(expected)
    changed = [json.loads(a)["id"] for a, b in zip(actual, expected) if a != b]
    assert not changed, "golden entries changed: %s" % changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        EXPECTED.write_text("\n".join(golden_lines(work)) + "\n",
                            encoding="utf-8")
