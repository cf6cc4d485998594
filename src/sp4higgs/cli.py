"""Command-line entry point.

Subcommands: verify / verify-lie (identity suites), classify, stability,
normal-form (JSON datum in, JSON verdict out), count, f2-scan, fiber.
Each builds its stdout object in this module and returns (exit code,
payload) without printing; ``main`` alone turns errors into {"error",
"clause"} objects naming the violated precondition and prints the one
JSON object, with sorted keys and no run metadata, so runs on identical
inputs are byte-stable.  Exit codes: 0 success, 1 domain failure (a
library domain error, such as WrongShape for normal-form on a
non-diagonal datum), 2 usage or parse failure.

A datum request written ``CMD --in PATH``, with PATH not starting with
"-", skips argparse: ``_parse`` builds the namespace the command's
subparser would return.  Every other argv is parsed by argparse.  The
printed object is written by ``_json``, which gives the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` for the types a payload
holds, without json's pure-Python indented encoder.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import verify
from .f2 import F2Vector
from .higgs import (
    CurveCtx, NotMaximal, NotPolystable, OutOfClassifiedRange,
    RequiresExplicitH0, WrongShape, iso_normal_form, stability_report,
)
from .jsonio import ParseError, datum_to_json, load_datum
from .moduli import (
    ScanBudgetExceeded, classify, count_components, count_components_sp2n,
    f2_image_scan, fiber_geometry, reduction_verdict,
)

__all__ = ["main"]


_DOMAIN_ERRORS = (NotMaximal, NotPolystable, OutOfClassifiedRange,
                  RequiresExplicitH0, ScanBudgetExceeded, WrongShape)

# the largest genus whose counts (about 2^(2g+1) * 3) stay within
# CPython's default limit of 4300 digits for printing an int
MAX_COUNT_GENUS = 7140


def _cmd_verify(args):
    reports = verify.run_suite(args.scope)
    payload = [{"suite": r.suite, "passed": r.passed, "failed": r.failed, "ok": r.ok,
                "checks": [{"id": c.id, "ref": c.ref, "pass": c.passed, "detail": c.detail}
                           for c in r.checks]} for r in reports]
    return (0 if all(r.ok for r in reports) else 1,
            payload if len(payload) > 1 else payload[0])


def _classify(ctx, datum) -> dict:
    """component and deformation verdict of a datum file"""
    label = classify(ctx, datum)
    verdict = reduction_verdict(label)
    # the label's class name and fields, a mod-2 vector as its bitstring
    out = {"component": type(label).__name__}
    for name in label._fields:
        value = getattr(label, name)
        out[name] = value.to_string() if isinstance(value, F2Vector) else value
    return dict(out, admits=sorted(s.value for s in verdict.admits),
                zariski_dense=verdict.zariski_dense_component)


def _stability(ctx, datum) -> dict:
    """stability verdict of a datum file"""
    report = stability_report(ctx, datum)
    return {"verdict": report.verdict.value,
            "clause": report.clause,
            "non_simple": report.non_simple}


def _normal_form(ctx, datum) -> dict:
    """canonical scaling-orbit representative of a diagonal datum"""
    return datum_to_json(ctx, iso_normal_form(ctx, datum))


# the commands on one datum file; a payload's docstring is its help line
_DATUM_COMMANDS = {"classify": _classify, "stability": _stability,
                   "normal-form": _normal_form}


def _cmd_datum(args):
    return 0, args.payload(*load_datum(args.infile))


def _cmd_count(args):
    if args.genus > MAX_COUNT_GENUS:
        raise OutOfClassifiedRange(
            "count supports genus <= %d: larger counts exceed the default "
            "int-to-str digit limit" % MAX_COUNT_GENUS)
    ctx = CurveCtx(args.genus)
    if args.sp2n is not None:
        return 0, {"genus": ctx.genus, "n": args.sp2n,
                   "total": count_components_sp2n(ctx, args.sp2n)}
    c = count_components(ctx)
    return 0, {"genus": c.genus,
               "sw": c.sw, "zero_sw": c.zero_sw, "hitchin": c.hitchin,
               "total": c.total,
               "rep_variety": c.rep_variety_total,
               "grouped": {"hitchin": c.grouped_hitchin,
                           "g_delta_g_p": c.grouped_gdelta_gp,
                           "zariski_dense": c.grouped_zariski_dense}}


def _cmd_f2scan(args):
    image = f2_image_scan(args.genus)
    # all_vectors runs in bitstring order, so `missing` comes out sorted
    missing = [[v.to_string(), w] for v in F2Vector.all_vectors(2 * args.genus)
               for w in (0, 1) if (v, w) not in image]
    return 0, {"genus": args.genus,
               "mode": "exhaustive",
               "image_size": len(image),
               "missing": missing}


def _cmd_fiber(args):
    ctx = CurveCtx(args.genus)
    geom = fiber_geometry(ctx, args.c)
    return 0, {"c": geom.c, "r": geom.r, "s": geom.s,
               "base_dim": geom.base_dim, "extra": geom.extra,
               "total_dim": geom.total_dim}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sp4higgs",
        description="Exact classification tools for maximal rank-2 "
                    "real-symplectic Higgs data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact identity suites")
    p.add_argument("--scope", choices=[*verify.SUITES, "all"], default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-lie", help="shortcut for verify --scope lie")
    p.set_defaults(func=_cmd_verify, scope="lie")

    for name, payload in _DATUM_COMMANDS.items():
        p = sub.add_parser(name, help=payload.__doc__)
        p.add_argument("--in", dest="infile", required=True)
        p.set_defaults(func=_cmd_datum, payload=payload)

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


# built once per process: argparse reads stdout, stderr and the terminal
# width only when it prints, and a parse makes a fresh namespace on each
# call, so one tree serves every call of main.
_PARSER = _build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """``CMD --in PATH``, for a datum command and a path not starting with
    "-", is not parsed at all: its namespace is built here, the one the
    command's subparser returns for that argv.  Every other argv is parsed
    by the whole tree, so every usage error and help text is the tree's
    own."""
    if len(argv) == 3 and argv[1] == "--in" and argv[0] in _DATUM_COMMANDS:
        path = argv[2]
        if type(path) is str and not path.startswith("-"):
            return argparse.Namespace(func=_cmd_datum, infile=path,
                                      payload=_DATUM_COMMANDS[argv[0]])
    return _PARSER.parse_args(argv)


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for
    the types a payload holds: str-keyed dicts, lists, tuples, str, int,
    bool and None; any other type raises TypeError.  json's own encoder
    runs in pure Python whenever ``indent`` is set; this one is faster,
    not least as it quotes a str member in place, with no recursive call."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = [_quote(key) + ": " + (_quote(value) if type(value) is str
                                      else _json(value, inner))
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = [_quote(value) if type(value) is str else _json(value, inner)
                 for value in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is int:
        return int.__repr__(obj)  # a ValueError past the int digit limit
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.func(args)
        # encoded inside the try: an int too long to print is a ValueError
        text = _json(payload)
    except ValueError as exc:
        # domain errors and ParseError by name, any other as "ValueError"
        named = isinstance(exc, (*_DOMAIN_ERRORS, ParseError))
        code = 2 if isinstance(exc, ParseError) else 1
        text = _json({"error": type(exc).__name__ if named else "ValueError",
                      "clause": str(exc)})
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
