"""Layered benchmark for sp4higgs.

    python3 bench/run.py --workload {exact_lie,classify_cli,census}
                         --seed N --seconds S --trace {0,1}

Runs from any directory; it benchmarks the library in ``src/`` next to
this directory, single process, no threads.  With ``--trace 0`` it runs
the workload's fixed pass in a closed loop (one client, next step only
after the previous one returned) for at least ``--seconds`` and reports
the end-to-end metrics, scaled to a reference host speed.  With
``--trace 1`` it times untraced passes for ``--seconds``, then makes one
traced pass over the same input and reports per-layer call counts and
self times.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed output check makes the exit code 1.  See
README.md beside this file for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Tail percentile per workload and the op count every run reaches, so
# that at least ten samples always lie beyond the percentile.
TAIL = {"exact_lie": (90, 100), "classify_cli": (99, 1000), "census": (99, 1000)}
SETUP_RUNS = 9
MAX_RUN_S = 150.0
# Duration of speed_loop() at the reference speed; scaled times are
# measured times multiplied by REF_LOOP_S / (current loop duration).
REF_LOOP_S = 0.003

clock = time.perf_counter


def import_library():
    """Import sp4higgs from this checkout's src/, nowhere else."""
    if not (SRC / "sp4higgs" / "__init__.py").is_file():
        sys.exit("bench: no library source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import sp4higgs
    if Path(sp4higgs.__file__).resolve().parent != (SRC / "sp4higgs").resolve():
        sys.exit("bench: imported sp4higgs from %s, not %s" % (sp4higgs.__file__, SRC))
    return sp4higgs


def speed_loop(n: int = 11000) -> int:
    """Fixed interpreter work of the kind the library does -- small
    tuples, dict stores, int-to-str -- whose duration tracks the host's
    current speed.  It keeps at most 256 objects alive."""
    d = {}
    acc = 0
    for i in range(n):
        pair = (i, i + 1)
        d[i & 255] = pair
        acc += len(str(i)) + pair[1]
    return acc


class Speed:
    """Scale factor from measured time to time at reference speed: the
    loop is re-timed at most every ``interval`` seconds and the median of
    the last ``keep`` timings is compared with REF_LOOP_S."""

    def __init__(self, interval: float = 0.05, keep: int = 3):
        self.interval = interval
        self.samples = deque(maxlen=keep)
        self.due = 0.0
        self.value = 1.0
        self.history = []

    def factor(self) -> float:
        if clock() >= self.due:
            # a collection owed to the program's allocations waits for
            # the program's next step instead of landing in the loop
            gc.disable()
            try:
                t = clock()
                speed_loop()
                self.samples.append(clock() - t)
            finally:
                gc.enable()
            self.value = REF_LOOP_S / statistics.median(self.samples)
            self.history.append(self.value)
            self.due = clock() + self.interval
        return self.value


def measure_setup(runs: int = SETUP_RUNS) -> list:
    """(seconds, scale factor) of ``import sp4higgs`` in fresh
    interpreters; each child times the speed loop just before importing.
    The bytecode cache is pinned warm: a private PYTHONPYCACHEPREFIX
    under bench/ that one untimed import fills first."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(BENCH / ".pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # the child imports nothing before sp4higgs that sp4higgs would import
    code = ("import sys, time\n" + inspect.getsource(speed_loop)
            + "loops = []\n"
            "for _ in range(3):\n"
            "    t = time.perf_counter(); speed_loop(); loops.append(time.perf_counter() - t)\n"
            "sys.path.insert(0, %r)\n"
            "t = time.perf_counter(); import sp4higgs; t = time.perf_counter() - t\n"
            "print(t, sorted(loops)[1])\n" % str(SRC))
    out = []
    for k in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, loop = map(float, proc.stdout.split())
        if k:
            out.append((seconds, REF_LOOP_S / loop))
    return out


def run_pass(steps, failures: list, speed=None, tracer=None) -> tuple:
    """One pass over the steps.  Returns (measured seconds, scaled
    seconds, scaled per-op latencies); scaled times are step times at
    reference speed, or measured times when ``speed`` is None."""
    lat = []
    scaled = 0.0
    t0 = clock()
    for k, (is_op, label, check) in enumerate(steps):
        f = speed.factor() if speed is not None else 1.0
        if tracer is not None:
            tracer.op = k
        s = clock()
        try:
            ok = check()
        except Exception as exc:  # an unexpected exception is a failed check
            ok = False
            label = "%s raised %s: %s" % (label, type(exc).__name__, exc)
        step = (clock() - s) * f
        scaled += step
        if is_op:
            lat.append(step)
        if not ok:
            failures.append(label)
    return clock() - t0, scaled, lat


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def untraced(name, steps, seconds, report) -> dict:
    setup = measure_setup()
    failures, raw, walls, lats = [], [], [], []
    speed = Speed()
    p, min_ops = TAIL[name]
    start = clock()
    while True:
        measured, wall, lat = run_pass(steps, failures, speed)
        raw.append(measured)
        walls.append(wall)
        lats += lat
        elapsed = clock() - start
        if (elapsed >= seconds and len(lats) >= min_ops) or elapsed > MAX_RUN_S:
            break
    attempted = len(walls) * len(steps)
    tail = percentile(lats, p)
    beyond = sum(1 for x in lats if x > tail)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(lats) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report("workload %s: %d passes of %d steps (%d ops) in %.2f s"
           % (name, len(walls), len(steps), len(lats) // len(walls), clock() - start))
    report("measured pass times %s s; scale factor median %.3f, range %.3f-%.3f "
           "over %d loop timings" % (", ".join("%.3f" % w for w in raw),
                                     statistics.median(speed.history),
                                     min(speed.history), max(speed.history),
                                     len(speed.history)))
    report("setup_s: %d fresh-interpreter imports, measured %s s"
           % (len(setup), ", ".join("%.4f" % t for t, _ in setup)))
    report("op_tail_ms is p%g over n=%d ops (%d beyond it)" % (p, len(lats), beyond))
    report("error_rate = %d / %d = %g" % (len(failures), attempted,
                                          len(failures) / attempted))
    return {"attempted": attempted, "failures": failures, "metrics": metrics}


def traced(name, steps, seconds, stats, sp4higgs, seed, report) -> dict:
    from tracer import LAYERS, TARGETS, Tracer

    failures, walls = [], []
    start = clock()
    while not walls or clock() - start < seconds:
        walls.append(run_pass(steps, failures)[0])
    wall_u = statistics.median(walls)
    stats.clear()
    tracer = Tracer()
    with tracer.installed(sp4higgs):
        wall_t, _, lat = run_pass(steps, failures, tracer=tracer)
    n_ops = len(lat)
    summary = tracer.summary()
    by_name = summary["by_name"]
    uncovered = wall_t - summary["covered"]
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for target, _, _ in TARGETS:
        calls, self_s = by_name.get(target, (0, 0.0))
        metrics[target + ".calls"] = (calls, "count")
        metrics[target + ".self_s"] = (self_s, "s")
        layer_self[target.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[layer + ".self_s"] = (self_s, "s")
    pairs = tracer.count_children("f2.pairing", "moduli.f2_image_scan")
    image = stats.get("scan_image", 0)
    sr_calls = by_name.get("higgs.stability_report", (0, 0.0))[0]
    new_calls = by_name.get("numfield.new", (0, 0.0))[0]
    metrics["moduli.f2_image_scan.image_per_pair"] = (image / pairs if pairs else 0.0,
                                                       "ratio")
    metrics["higgs.stability_report.per_op"] = (sr_calls / n_ops, "calls/op")
    metrics["numfield.new.per_op"] = (new_calls / n_ops, "calls/op")
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.uncovered_s"] = (uncovered, "s")
    metrics["trace.spans"] = (len(tracer.start), "count")

    out = WORK / "traces" / ("%s-seed%d" % (name, seed))
    tracer.dump(str(out))
    total_self = sum(layer_self.values())
    report("workload %s: untraced pass %.3f s (median of %d), traced pass %.3f s, "
           "overhead %.3f s" % (name, wall_u, len(walls), wall_t, wall_t - wall_u))
    report("layer self times %.4f s + uncovered benchmark loop %.4f s = %.4f s "
           "(traced wall_s %.4f s)" % (total_self, uncovered, total_self + uncovered,
                                      wall_t))
    for layer, self_s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        report("  %-9s self %.4f s (%.1f%%)" % (layer, self_s, 100 * self_s / wall_t))
    report("ratios: image_per_pair = %d / %d; stability_report.per_op = %d / %d; "
           "numfield.new.per_op = %d / %d" % (image, pairs, sr_calls, n_ops,
                                               new_calls, n_ops))
    report("%d spans written to %s" % (len(tracer.start), out.relative_to(ROOT)))
    return {"attempted": (len(walls) + 1) * len(steps), "failures": failures,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sp4higgs = import_library()
    # the default serial scan is the path measured
    os.environ.pop("HIGGS_SP4_THREADS", None)
    import workloads

    def report(line):
        print("# " + line)

    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stats: dict = {}
        t0 = clock()
        steps = workloads.WORKLOADS[args.workload](args.seed, str(workdir), stats)
        report("generated %d steps from seed %d in %.2f s"
               % (len(steps), args.seed, clock() - t0))
        if args.trace:
            result = traced(args.workload, steps, args.seconds, stats, sp4higgs,
                            args.seed, report)
        else:
            result = untraced(args.workload, steps, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"]
    for label in failures[:10]:
        print("bench: check failed: %s" % label, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
