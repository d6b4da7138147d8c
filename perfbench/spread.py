"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload closed --seeds 1-10 [--trace 0] \
        [--seconds S] [--out perfbench/out/spread-closed.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and reports for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median.  For end-to-end metrics the spread is shown
against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        env = report["env"]
        runs.append(dict(result, seed=seed, fail_ratio=report["fail_ratio"],
                         latency=report.get("latency")))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = dict(summarise(values), unit=runs[0]["metrics"][name]["unit"])
        bound = bounds.get(name)
        flag = "" if bound is None else (
            f"  bound {bound:.2f}  {'ok' if summary[name]['spread'] < bound / 3 else 'WIDE'}")
        print(f"{name:45s} median {summary[name]['median']:.6g} "
              f"spread {summary[name]['spread']:.3f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "env": env, "summary": summary,
                                        "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
