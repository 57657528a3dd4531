#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...] [--out FILE]

Run from the root of a checkout. For every workload and end-to-end metric it
prints the median, the quartiles and the interquartile range as a share of
the median (`statistics.quantiles(values, n=4)`), and flags a spread above a
third of the metric's bound in BENCHMARK.json. --out writes the same as JSON,
with the environment fingerprint of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    print("\n".join(line for line in lines if "commands wall_s" in line), flush=True)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    fingerprint = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("fingerprint ")),
        {},
    )
    return json.loads(lines[-1]), fingerprint


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        samples: dict = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, fingerprint = run_once(name, seed, seconds)
            report.setdefault("fingerprint", fingerprint)
            for metric, entry in result["metrics"].items():
                samples.setdefault(metric, {"unit": entry["unit"], "values": []})
                samples[metric]["values"].append(entry["value"])
        report["workloads"][name] = {}
        for metric, entry in samples.items():
            stats = {"unit": entry["unit"], **summarize(entry["values"])}
            report["workloads"][name][metric] = stats
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and stats["iqr_share"] > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.3f})"
                steady = False
            print(f"{name:12s} {metric:30s} median {stats['median']:12.6g} {entry['unit']:8s} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"iqr/median {stats['iqr_share']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
