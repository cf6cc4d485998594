"""The three workloads: each turns seeded inputs into one pass of steps.

A step is ``(is_op, label, check)``: ``check()`` runs the work and
returns True when every output matches its expectation.  Ops make up
the per-op latency stream; the other steps (the verify suite, the mod-2
scans, the counts) are fixed per pass and count only in the pass time.
The library is called through module attributes so that the traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from sp4higgs import cli, higgs, jsonio, liegroup, matalg, moduli, verify
from sp4higgs.f2 import F2Vector
from sp4higgs.higgs import CurveCtx
from sp4higgs.matalg import SqMatrix
from sp4higgs.numfield import FieldElem

import gen


# -- exact_lie ----------------------------------------------------------------


def _matrix(entries) -> SqMatrix:
    a, b, c, d = entries
    return SqMatrix([[a, b], [c, d]])


def _traceless(p, q, r) -> SqMatrix:
    return SqMatrix([[p, q], [r, -p]])


def identity_bundle(s: dict) -> bool:
    """The embedding identities on one sample."""
    A, B, X, Y = s["A"], s["B"], s["X"], s["Y"]
    a, b, beta, gamma, lam = s["a"], s["b"], s["beta"], s["gamma"], s["lam"]
    rho = liegroup.rho13(A)
    r = beta / gamma
    closed = SqMatrix([[0, 0, 16 * r * r, 5 * r], [0, 0, 5 * r, 1],
                       [0, 1, 0, 0], [1, 0, 0, 0]]).scale(gamma)
    checks = (
        matalg.is_symplectic(rho, matalg.J13),
        liegroup.rho13(A * B) == rho * liegroup.rho13(B),
        liegroup.phi(A).inv() == liegroup.phi(A.inv()),
        liegroup.phi_star(X.scale(a) + Y.scale(b))
        == liegroup.phi_star(X).scale(a) + liegroup.phi_star(Y).scale(b),
        liegroup.s_conjugate(beta, gamma) == closed,
        liegroup.phi(liegroup.gl1_torus(lam))
        == SqMatrix.diag(lam ** 3, lam ** -1, lam ** -3, lam),
    )
    return all(checks)


def verify_all() -> bool:
    reports = verify.run_suite("all")
    return ([r.suite for r in reports] == ["lie", "matalg"]
            and all(r.ok and r.checks for r in reports))


def exact_lie(seed: int, workdir: str, stats: dict, size: int = 150) -> list:
    steps = [(False, "verify.run_suite(all)", verify_all)]
    for k, raw in enumerate(gen.exact_lie_inputs(seed, size)):
        s = {"A": _matrix(raw["A"]), "B": _matrix(raw["B"]),
             "X": _traceless(*raw["X"]), "Y": _traceless(*raw["Y"]),
             "a": raw["a"], "b": raw["b"],
             "beta": FieldElem(raw["beta"]), "gamma": FieldElem(raw["gamma"]),
             "lam": FieldElem(raw["lam"])}
        steps.append((True, "bundle %d (%s)" % (k, raw["regime"]),
                      lambda s=s: identity_bundle(s)))
    return steps


# -- classify_cli ---------------------------------------------------------------


def cli_request(cmd: str, path: str, exit_code: int, stdout: str) -> bool:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([cmd, "--in", path])
    return code == exit_code and buf.getvalue() == stdout


def classify_cli(seed: int, workdir: str, stats: dict, size=None) -> list:
    steps = []
    for k, item in enumerate(gen.classify_cli_inputs(seed, size)):
        path = os.path.join(workdir, "datum-%04d.json" % k)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item["datum"], fh, sort_keys=True)
        label = "%s g=%d %s" % (item["cmd"], item["genus"], item["datum"]["shape"])
        steps.append((True, label, lambda a=(item["cmd"], path, item["exit"],
                                             item["stdout"]): cli_request(*a)))
    return steps


# -- census ---------------------------------------------------------------------


def label_json(label) -> dict:
    kind = type(label).__name__
    if kind == "Hitchin":
        return {"component": kind, "spin": label.spin.to_string()}
    if kind == "ZeroSW":
        return {"component": kind, "c": label.c}
    return {"component": kind, "w1": label.w1.to_string(), "w2": label.w2}


def scan_step(g: int, stats: dict) -> bool:
    image = moduli.f2_image_scan(g, exhaustive=True)
    stats["scan_image"] = stats.get("scan_image", 0) + len(image)
    got = {(v.to_string(), w) for v, w in image}
    want = {(v, w) for v in gen.all_bits(2 * g) for w in (0, 1)} - {("0" * 2 * g, 1)}
    return len(image) == len(got) and got == want


def count_step(g: int) -> bool:
    c = moduli.count_components(CurveCtx(g))
    known = {2: (48, 99), 3: (194, None)}.get(g, (None, None))
    return (c.total == 3 * 4 ** g + 2 * g - 4 == c.sw + c.zero_sw + c.hitchin
            and known[0] in (None, c.total)
            and known[1] in (None, c.rep_variety_total))


def fiber_step(g: int) -> bool:
    ctx = CurveCtx(g)
    for c in range(1, g - 1):
        f = moduli.fiber_geometry(ctx, c)
        if (f.r, f.s, f.total_dim) != (2 * c + 3 * g - 3, 3 * g - 4 - 2 * c, 10 * g - 10):
            return False
    return True


def witness_op(ctx, n: int, w1: F2Vector, w2: int) -> bool:
    inv = higgs.sw_invariants(ctx, moduli.sp2n_reduction_witness(ctx, n, w1, w2))
    return inv.w1 == w1 and inv.w2 == w2 and inv.toledo == n * (ctx.genus - 1)


def consistency_op(ctx, datum, want: dict) -> bool:
    """Criterion 9: no reduction checker contradicts the verdict, and the
    label matches the oracle's."""
    gd = higgs.gdelta_reduction_check(ctx, datum)
    gp = higgs.gp_reduction_check(ctx, datum)
    sl = higgs.sl2xsl2_reduction_check(ctx, datum)
    higgs.cayley_partner(ctx, datum)
    label = moduli.classify(ctx, datum)
    v = moduli.reduction_verdict(label)
    admits = sorted(s.value for s in v.admits)
    return (label_json(label) == want["label"] and admits == want["admits"]
            and v.zariski_dense_component == want["zariski_dense"]
            and (not gd or "G_Delta" in admits)
            and (not (gp or sl) or "G_p" in admits))


def census(seed: int, workdir: str, stats: dict, repeats: int = 7) -> list:
    steps = []
    for g in (2, 3, 4):
        steps += [(False, "f2_image_scan g=%d" % g, lambda g=g: scan_step(g, stats)),
                  (False, "count_components g=%d" % g, lambda g=g: count_step(g)),
                  (False, "fiber_geometry g=%d" % g, lambda g=g: fiber_step(g))]
    ctxs = {g: CurveCtx(g) for g in (2, 3, 4)}
    for item in gen.census_inputs(seed, repeats):
        ctx = ctxs[item["genus"]]
        if item["kind"] == "witness":
            w1 = F2Vector.from_string(item["w1"])
            label = "witness g=%d n=%d" % (ctx.genus, item["n"])
            steps.append((True, label, lambda a=(ctx, item["n"], w1, item["w2"]):
                          witness_op(*a)))
        else:
            _, datum = jsonio.datum_from_json(item["datum"])
            label = "consistency g=%d %s" % (ctx.genus, item["datum"]["shape"])
            steps.append((True, label, lambda a=(ctx, datum, item): consistency_op(*a)))
    return steps


WORKLOADS = {"exact_lie": exact_lie, "classify_cli": classify_cli, "census": census}
