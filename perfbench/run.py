#!/usr/bin/env python3
"""Layered benchmark of the dtcmorph CLI.

Run from the root of a checkout; dtcmorph is imported from ./src.

    python3 perfbench/run.py --workload levels-n8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats one workload's CLI command, at least three times and each time
in a fresh child process started from this one. It stops at the command
whose end is nearest to the --seconds mark, and reports medians over the
commands. The child's environment has the BLAS thread variables,
DTCMORPH_WORKERS and DTCMORPH_BACKEND removed, so the program's own defaults
are measured. Every command's outputs are checked by value; once per run one
sampled lambda is also recomputed by an independent route (see
workloads.py). With --trace 1 the commands alternate between plain and
traced, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every check passed,
1 when one failed, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from fingerprint import fingerprint, src_lines  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from layers import span_metrics  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import WORKLOADS, Workload, check_command, oracle_check  # noqa: E402

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "DTCMORPH_WORKERS", "DTCMORPH_BACKEND")
BLAS_ENV = THREAD_ENV[:3]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_fraction": "fraction",
}

MIN_COMMANDS = 3  # so that every median, set-up time included, has several samples
RUN_LIMIT_S = 170.0  # a run ends well inside 180 s whatever --seconds says


def child_env(blas_threads: int | None) -> tuple[dict, list]:
    env = dict(os.environ)
    removed = [key for key in THREAD_ENV if env.pop(key, None) is not None]
    if blas_threads is not None:
        env.update({key: str(blas_threads) for key in BLAS_ENV})
    return env, removed


class Runner:
    """Starts child processes one at a time and collects their reports."""

    def __init__(self, root: Path, work: Path, env: dict, deadline: float):
        self.root = root
        self.work = work
        self.env = env
        self.deadline = deadline
        self._count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str, workload: Workload, seed: int):
        """Run one child; returns (report or None, its output directory)."""
        self._count += 1
        rep_dir = self.work / f"{self._count:03d}-{mode}"
        out_dir = rep_dir / "out"
        rep_dir.mkdir(parents=True)
        report_path = rep_dir / "report.json"
        cmd = [sys.executable, str(HERE / "child.py"), "", str(report_path),
               str(self.root / "src"), mode, "--", *workload.argv(seed, out_dir)]
        with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
            cmd[2] = repr(time.monotonic())
            try:
                proc = subprocess.run(cmd, cwd=rep_dir, env=self.env, stdout=out, stderr=err,
                                      timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                return None, out_dir
        if proc.returncode != 0 or not report_path.exists():
            return None, out_dir
        return json.loads(report_path.read_text(encoding="utf-8")), out_dir


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _workers(out_dir: Path) -> int:
    try:
        return int(json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["workers"])
    except (OSError, ValueError, KeyError, TypeError):
        return os.cpu_count() or 1


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 blas_threads: int | None, root: Path) -> dict:
    start = time.monotonic()
    env, removed = child_env(blas_threads)
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(root, work, env, start + RUN_LIMIT_S)
    problems: list[str] = []
    setups, imports = [], []
    plain, traced = [], []  # (report, successful cells, sweep workers)
    attempted = failed = 0
    oracle_dir = None
    try:
        runner.spawn("setup", workload, seed)  # warm-up: bytecode and file cache

        durations = []
        while True:
            mode = "trace" if trace and len(plain) > len(traced) else "plain"
            t0 = time.monotonic()
            report, out_dir = runner.spawn(mode, workload, seed)
            durations.append(time.monotonic() - t0)
            found = check_command(workload, seed, out_dir,
                                  None if report is None else report.get("exit_code"))
            bad = workload.cells if report is None else found.failed_cells(workload)
            attempted += workload.cells
            failed += bad
            problems += [f"{mode} command: {msg}" for _, msg in found.items]
            if report is None:
                problems.append(f"{mode} command: child process failed")
            else:
                setups.append(report["setup_s"])
                imports.append(report["import_s"])
                entry = (report, workload.cells - bad, _workers(out_dir))
                (traced if mode == "trace" else plain).append(entry)
            if oracle_dir is None and bad == 0:
                oracle_dir = out_dir
            else:
                shutil.rmtree(out_dir, ignore_errors=True)
            spent = sum(durations)
            # stop at the command whose end is nearest to the --seconds mark
            typical = statistics.median(durations)
            if len(durations) >= MIN_COMMANDS and spent + typical / 2 > seconds:
                break
            if runner.remaining() < 2 * max(durations):
                break

        if oracle_dir is not None:
            sys.path.insert(0, str(root / "src"))
            found = oracle_check(workload, seed, oracle_dir, random.Random(seed))
            failed = min(attempted, failed + found.failed_cells(workload))
            problems += [f"oracle: {msg}" for _, msg in found.items]
        elif failed == 0:
            failed = attempted
            problems.append("no command produced output for the oracle check")

        walls = [r["wall_s"] for r, _, _ in plain]
        result = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "commands": {"plain": len(plain), "traced": len(traced)},
            "walls": {"plain": walls, "traced": [r["wall_s"] for r, _, _ in traced]},
            "fingerprint": fingerprint(root, removed),
        }
        if trace:
            per_rep = [
                span_metrics([Span(*s) for s in r["spans"]], workers)
                for r, _, workers in traced
            ]
            names = per_rep[0] if per_rep else {}
            layer = {name: _median([m[name] for m in per_rep]) for name in names}
            layer["process.import_s"] = _median(imports)
            layer["trace.overhead_s"] = (
                _median([r["wall_s"] for r, _, _ in traced]) - _median(walls)
            )
            layer["trace.absent_targets"] = len(traced[0][0]["absent"]) if traced else 0
            layer["code.src_lines"] = src_lines(root)
            result["metrics"] = {
                name: {"value": layer.get(name, 0.0), "unit": unit}
                for name, unit in LAYER_METRICS.items()
            }
        else:
            values = {
                "setup_s": _median(setups),
                "wall_s": _median(walls),
                "cpu_s": _median([r["cpu_s"] for r, _, _ in plain]),
                "cells_per_s": _median([ok / r["wall_s"] for r, ok, _ in plain]),
                "peak_rss_mb": _median([r["peak_rss_mb"] for r, _, _ in plain]),
                "ok_fraction": 1.0 - failed / attempted,
            }
            result["metrics"] = {
                name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
            }
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds once no other run uses it


def print_table(name: str, seed: int, result: dict) -> None:
    commands = result["commands"]
    print(f"workload {name}  seed {seed}  commands {commands['plain']} plain, "
          f"{commands['traced']} traced  cells attempted {result['attempted']}, "
          f"failed {result['failed']} "
          f"(failed_fraction {result['failed'] / result['attempted']:.4f})")
    for mode, walls in result["walls"].items():
        if walls:
            print(f"  {mode} commands wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for problem in result["problems"]:
        print(f"  check failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="diagnostic: set the BLAS thread variables in the child "
                        "instead of removing them")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dtcmorph" / "cli.py").is_file():
        print(f"no dtcmorph source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              args.blas_threads, root)
        print_table(name, args.seed, result)
        results[name] = {key: result[key] for key in ("attempted", "failed", "metrics")}
    correct = all(r["failed"] == 0 for r in results.values())
    if args.workload == "all":
        print(json.dumps({"correct": correct, "workloads": results}))
    else:
        print(json.dumps({"correct": correct, **results[args.workload]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
