"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --seeds 1-10 --seconds 30 [--workloads a,b]
                             [--trace 0|1] [--out bench/baseline.json]

For every workload and metric it prints the median, the quartiles and
the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``).  With ``--out`` it writes the
summary together with the machine, the Python version and the git sha.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", trace],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("%s seed %d failed (exit %d): %s"
                 % (workload, seed, proc.returncode, proc.stderr.strip()))
    return result["metrics"]


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(config["run_seconds"])
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in config["workloads"]])
    summary = {}
    for name in names:
        per_metric: dict = {}
        units = {}
        for seed in seed_list(args.seeds):
            for metric, v in run_once(name, seed, seconds, args.trace).items():
                per_metric.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
        summary[name] = {}
        for metric, values in per_metric.items():
            s = summarize(values)
            summary[name][metric] = dict(s, unit=units[metric])
            print("%-13s %-22s median %-12.6g spread %.4f"
                  % (name, metric, s["median"], s["spread"]), flush=True)
    if args.out:
        doc = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                        "processor": platform.processor() or platform.machine()},
            "seeds": args.seeds, "seconds": float(seconds), "trace": int(args.trace),
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
