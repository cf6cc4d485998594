"""Check the op counts of traced benchmark passes against their ceilings.

Each argument pair is a workload and a file whose last line is the JSON
that ``python bench/run.py --workload <workload> --seed 1 --seconds 0
--trace 1`` prints.  The counts of one traced pass (seed 1) are exact,
so a count above its ceiling is a regression; the script exits 1 and
names each such metric, else 0:

    python tests/trace_ceilings.py exact_lie exact_lie.out classify_cli classify_cli.out \
        census census.out
"""

import json
import sys

CEILINGS = {
    # a change that puts FieldElem arithmetic back into the rho1 grid,
    # rho1_star, the m-part and S matrices or the adjugate's determinant
    # inverse raises the field counts, and one that brings back the 4x4
    # products of s_conjugate, or runs the nilpotent-exp identity more
    # than once, raises matalg.matmul.calls (the pass's 986, no slack)
    "exact_lie": {"numfield.mul.calls": 2158, "numfield.inv.calls": 802,
                  "matalg.matmul.calls": 986},
    # jsonio reads and writes the canonical zero coefficient itself, so a
    # change that sends zeros back through FieldElem's codec raises the
    # first two; the decoder builds one F2Vector per bitstring it reads
    # (1,441 of the pass's 3,347) and each CurveCtx its zero label once,
    # so one that builds more raises f2.new.calls (the ceiling is the
    # pass's count, with no slack for a vector built per call again)
    "classify_cli": {"numfield.from_json.calls": 2801, "numfield.to_json.calls": 473,
                     "f2.new.calls": 3347},
    # a CurveCtx builds its zero label and K once, and the bundle algebra
    # keeps a zero label through even powers, so a change that rebuilds
    # either per call raises f2.new.calls; one that classifies a datum
    # more than once raises higgs.stability_report.calls
    "census": {"f2.new.calls": 38974, "higgs.stability_report.calls": 2394},
}


def over_ceilings(workload: str, path: str) -> dict:
    """{metric: value} of each count of ``path`` above its ceiling."""
    with open(path, encoding="utf-8") as fh:
        metrics = json.loads(fh.read().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k, ceiling in CEILINGS[workload].items()
            if metrics[k]["value"] > ceiling}


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args or len(args) % 2 or not set(args[::2]) <= set(CEILINGS):
        sys.exit(__doc__)
    failed = False
    for workload, path in zip(args[::2], args[1::2]):
        over = over_ceilings(workload, path)
        if over:
            failed = True
            print("%s above the ceilings %r: %r" % (workload, CEILINGS[workload], over))
    sys.exit(1 if failed else 0)
