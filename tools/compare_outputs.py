#!/usr/bin/env python3
"""Check that two dtcmorph source trees write the same outputs.

    python3 tools/compare_outputs.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are `src/` directories, e.g. of a clone of the
parent commit and of this checkout. Every argv of `ARGVS` runs once under
each tree (`python -m dtcmorph.cli` with PYTHONPATH set to the tree), in its
own empty working directory: the seven commands at `--n-sites 4` and their
defaults, with `--workers 1`, `2` and `3` where the command takes `--workers`,
and the benchmark workloads of `perfbench/workloads.py` at `--seed 1`.

Per run it checks that both trees exit 0, and compares the set of CSV names,
each CSV and each manifest.json with its `created_utc` removed. A CSV whose
sha256 differs is compared by value where `TOLERANCES` names its file: the
largest difference of each column, relative to that column's largest entry,
must be at most the column's tolerance, and every other column must hold the
same values. Any other CSV must be byte-identical. A manifest is compared
without the sha256 it records for a CSV compared by value; it keeps the row
count. Standard output is one JSON line listing every difference and, in
`tolerated`, the per-column maxima of each CSV within its tolerances; the
exit status is 0 when there is no difference and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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

# CSV file name -> {column: largest difference allowed, relative to the
# column's largest entry}. The `dynamics` tables come from the real-arithmetic
# evolution, whose rounding may move in the last bits; a column not named
# here, and a file not named here, must not move at all
TOLERANCES = {
    "dynamics_series.csv": {"magnetization": 1e-12},
    "dynamics_power.csv": {"power": 1e-12},
    "fidelity_4t.csv": {"fidelity": 1e-12},
    "fidelity_2t.csv": {"fidelity": 1e-12},
}


def _run(src: Path, argv: list, run_dir: Path) -> tuple[int, dict, dict]:
    """(exit code, {CSV name: path}, {manifest name: manifest without created_utc})."""
    run_dir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    code = subprocess.run([sys.executable, "-m", "dtcmorph.cli", *argv], cwd=run_dir, env=env,
                          capture_output=True).returncode
    csvs, manifests = {}, {}
    for path in sorted(run_dir.rglob("*")):
        name = str(path.relative_to(run_dir))
        if path.suffix == ".csv":
            csvs[name] = path
        elif path.name == "manifest.json":
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest.pop("created_utc", None)
            manifests[name] = manifest
    return code, csvs, manifests


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _table(path: Path) -> tuple[list, np.ndarray | None]:
    """(header, rows x columns array of strings) of a CSV; None where a row's length differs."""
    with path.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    if any(len(row) != len(header) for row in rows):
        return header, None
    return header, np.array(rows, dtype=str).reshape(len(rows), len(header))


def compare_csv(base: Path, change: Path, tolerances: dict) -> tuple[str | None, dict]:
    """(what differs beyond `tolerances`, or None; {column: relative difference}).

    Both CSVs must have the same header and row count. A column named in
    `tolerances` is read as floats and its largest |difference|, divided by
    its largest |entry| in either CSV, must be at most its tolerance; every
    other column must match string for string.
    """
    (header, a), (header_b, b) = _table(base), _table(change)
    if header != header_b or a is None or b is None or a.shape != b.shape:
        return "header or row count", {}
    moved, beyond = {}, []
    for j, name in enumerate(header):
        if name not in tolerances:
            if not np.array_equal(a[:, j], b[:, j]):
                beyond.append(name)
            continue
        x, y = a[:, j].astype(float), b[:, j].astype(float)
        scale = max(np.max(np.abs(x), initial=0.0), np.max(np.abs(y), initial=0.0))
        diff = np.max(np.abs(x - y), initial=0.0)
        moved[name] = float(diff / scale) if scale else float(diff)
        if not moved[name] <= tolerances[name]:  # a NaN is beyond any tolerance
            beyond.append(name)
    return (f"values of {', '.join(beyond)}" if beyond else None), moved


def compare(base: Path, change: Path, argvs: list) -> dict:
    """Run every argv under both `src/` trees; the report lists each difference found."""
    differences, tolerated = [], []
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
            by_value = set()
            for name in sorted(csv_a.keys() & csv_b.keys()):
                if _sha256(csv_a[name]) == _sha256(csv_b[name]):
                    continue
                tolerances = TOLERANCES.get(Path(name).name)
                if tolerances is None:
                    differences.append({"argv": label, "file": name, "what": "sha256"})
                    continue
                what, moved = compare_csv(csv_a[name], csv_b[name], tolerances)
                entry = {"argv": label, "file": name, "columns": moved}
                if what:
                    differences.append({**entry, "what": what})
                else:
                    tolerated.append(entry)
                    by_value.add(name)
            for name in sorted(manifest_a.keys() | manifest_b.keys()):
                folder = str(Path(name).parent)
                ignored = {Path(csv_name).name for csv_name in by_value
                           if str(Path(csv_name).parent) == folder}
                if _without_sha256(manifest_a.get(name), ignored) != _without_sha256(
                        manifest_b.get(name), ignored):
                    differences.append({"argv": label, "file": name, "what": "manifest"})
    return {"base": str(base), "change": str(change), "runs": len(argvs), "csvs": csvs,
            "identical": not differences, "differences": differences, "tolerated": tolerated}


def _without_sha256(manifest: dict | None, names: set) -> dict | None:
    """`manifest` with the sha256 of the files in `names` removed from its file list."""
    if not manifest or not names:
        return manifest
    files = [{k: v for k, v in entry.items() if not (k == "sha256" and entry.get("name") in names)}
             for entry in manifest.get("files", [])]
    return {**manifest, "files": files}


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
