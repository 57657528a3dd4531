#!/usr/bin/env python3
"""Check that two dtcmorph source trees write the same outputs.

    python3 tools/compare_outputs.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are `src/` directories, e.g. of a clone of the
parent commit and of this checkout. Every argv of `ARGVS` runs once under
each tree (`python -m dtcmorph.cli` with PYTHONPATH set to the tree), in its
own empty working directory: the seven commands at `--n-sites 4` and their
defaults, with `--workers 1`, `2` and `3` where the command takes `--workers`,
and the benchmark workloads of `perfbench/workloads.py` at `--seed 1`.

Per run it checks that both trees exit 0, and compares the set of CSV names, the sha256 of
each CSV and each manifest.json with its `created_utc` removed. Standard
output is one JSON line listing every difference; the exit status is 0 when
there is none and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402

ARGVS = [
    *([command, "--n-sites", "4", "--workers", workers]
      for command in ("spectrum", "levels", "fractal", "dynamics", "sweep")
      for workers in ("1", "2", "3")),
    ["walk", "--n-sites", "4"],
    ["heff", "--n-sites", "4"],
    *(workload.argv(1, "out") for workload in WORKLOADS.values()),
]


def _run(src: Path, argv: list, run_dir: Path) -> tuple[int, dict, dict]:
    """(exit code, {CSV name: sha256}, {manifest name: manifest without created_utc})."""
    run_dir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    code = subprocess.run([sys.executable, "-m", "dtcmorph.cli", *argv], cwd=run_dir, env=env,
                          capture_output=True).returncode
    digests, manifests = {}, {}
    for path in sorted(run_dir.rglob("*")):
        name = str(path.relative_to(run_dir))
        if path.suffix == ".csv":
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.name == "manifest.json":
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest.pop("created_utc", None)
            manifests[name] = manifest
    return code, digests, manifests


def compare(base: Path, change: Path, argvs: list) -> dict:
    """Run every argv under both `src/` trees; the report lists each difference found."""
    differences = []
    csvs = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        for i, argv in enumerate(argvs):
            label = " ".join(argv)
            code_a, csv_a, manifest_a = _run(Path(base), argv, Path(scratch, "base", str(i)))
            code_b, csv_b, manifest_b = _run(Path(change), argv, Path(scratch, "change", str(i)))
            csvs += len(csv_a)
            if code_a or code_b:  # a failed run compares nothing
                differences.append({"argv": label, "what": f"exit code {code_a} -> {code_b}"})
            for name in sorted(csv_a.keys() ^ csv_b.keys()):
                differences.append({"argv": label, "file": name, "what": "written by one tree only"})
            for name in sorted(csv_a.keys() & csv_b.keys()):
                if csv_a[name] != csv_b[name]:
                    differences.append({"argv": label, "file": name, "what": "sha256"})
            for name in sorted(manifest_a.keys() | manifest_b.keys()):
                if manifest_a.get(name) != manifest_b.get(name):
                    differences.append({"argv": label, "file": name, "what": "manifest"})
    return {"base": str(base), "change": str(change), "runs": len(argvs), "csvs": csvs,
            "identical": not differences, "differences": differences}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, metavar="BASE_SRC", help="src/ of the reference tree")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC", help="src/ of the tree checked")
    args = parser.parse_args(argv)
    for src in (args.base, args.change):
        if not (src / "dtcmorph" / "cli.py").is_file():
            parser.error(f"{src} holds no dtcmorph package")
    report = compare(args.base, args.change, ARGVS)
    print(json.dumps(report))
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
