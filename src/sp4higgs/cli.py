"""Command-line entry point.

Subcommands: verify / verify-lie (identity suites), classify, stability,
normal-form (JSON datum in, JSON verdict out), count, f2-scan, fiber.
Output is JSON on stdout with sorted keys and no run metadata, so runs
on identical inputs are byte-stable.  Exit codes: 0 success, 1 domain
failure, 2 usage or parse failure.  Errors are {"error", "clause"}
objects naming the violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import moduli, verify
from .f2 import F2Vector
from .higgs import (
    CurveCtx, DiagonalShape, NotMaximal, NotPolystable, OutOfClassifiedRange,
    RequiresExplicitH0, iso_normal_form, stability_report,
)
from .jsonio import ParseError, datum_to_json, load_datum
from .moduli import (
    ScanBudgetExceeded, classify, count_components, count_components_sp2n,
    f2_image_scan, fiber_geometry, reduction_verdict,
)

__all__ = ["main"]

_DOMAIN_ERRORS = (NotMaximal, NotPolystable, OutOfClassifiedRange,
                  RequiresExplicitH0, ScanBudgetExceeded)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _fail(error: str, clause: str) -> int:
    _emit({"error": error, "clause": clause})
    return 1


def _cmd_verify(args) -> int:
    reports = verify.run_suite(args.scope)
    payload = [r.to_json() for r in reports]
    _emit(payload if len(payload) > 1 else payload[0])
    return 0 if all(r.ok for r in reports) else 1


def _cmd_classify(args) -> int:
    ctx, datum = load_datum(args.infile)
    label = classify(ctx, datum)
    verdict = reduction_verdict(label)
    _emit(dict(label.to_json(), admits=sorted(s.value for s in verdict.admits),
               zariski_dense=verdict.zariski_dense_component))
    return 0


def _cmd_stability(args) -> int:
    ctx, datum = load_datum(args.infile)
    report = stability_report(ctx, datum)
    _emit({"verdict": report.verdict.value,
           "clause": report.clause,
           "non_simple": report.non_simple})
    return 0


def _cmd_normal_form(args) -> int:
    ctx, datum = load_datum(args.infile)
    if not isinstance(datum, DiagonalShape):
        return _fail("WrongShape", "normal-form expects a diagonal-shape datum")
    normal = iso_normal_form(ctx, datum)
    _emit(datum_to_json(ctx, normal))
    return 0


def _cmd_count(args) -> int:
    ctx = CurveCtx(args.genus)
    if args.sp2n is not None:
        _emit({"genus": ctx.genus, "n": args.sp2n,
               "total": count_components_sp2n(ctx, args.sp2n)})
        return 0
    c = count_components(ctx)
    _emit({"genus": c.genus,
           "sw": c.sw, "zero_sw": c.zero_sw, "hitchin": c.hitchin,
           "total": c.total,
           "rep_variety": c.rep_variety_total,
           "grouped": {"hitchin": c.grouped_hitchin,
                       "g_delta_g_p": c.grouped_gdelta_gp,
                       "zariski_dense": c.grouped_zariski_dense}})
    return 0


def _cmd_f2scan(args) -> int:
    image = f2_image_scan(args.genus)
    universe = {(v, w) for v in F2Vector.all_vectors(2 * args.genus)
                for w in (0, 1)}
    missing = sorted((v.to_string(), w) for v, w in universe - image)
    _emit({"genus": args.genus,
           "mode": "exhaustive",
           "image_size": len(image),
           "missing": [[v, w] for v, w in missing]})
    return 0


def _cmd_fiber(args) -> int:
    ctx = CurveCtx(args.genus)
    geom = fiber_geometry(ctx, args.c)
    _emit({"c": geom.c, "r": geom.r, "s": geom.s,
           "base_dim": geom.base_dim, "extra": geom.extra,
           "total_dim": geom.total_dim})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sp4higgs",
        description="Exact classification tools for maximal rank-2 "
                    "real-symplectic Higgs data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact identity suites")
    p.add_argument("--scope", choices=["lie", "matalg", "all"], default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-lie", help="shortcut for verify --scope lie")
    p.set_defaults(func=_cmd_verify, scope="lie")

    p = sub.add_parser("classify", help="component and deformation verdict "
                                        "of a datum file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("stability", help="stability verdict of a datum file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("normal-form", help="canonical scaling-orbit "
                                           "representative of a diagonal datum")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("count", help="component counts")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--sp2n", type=int, default=None,
                   help="count for the rank-n group instead (n >= 3)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("f2-scan", help="image of the mod-2 invariant map")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=_cmd_f2scan)

    p = sub.add_parser("fiber", help="fiber geometry of an intermediate "
                                     "component")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=_cmd_fiber)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        return _fail(type(exc).__name__, str(exc))
    except ParseError as exc:
        _emit({"error": "ParseError", "clause": str(exc)})
        return 2
    except ValueError as exc:
        return _fail("ValueError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
