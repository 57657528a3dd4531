"""Checks of the scripts under tools/."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dtcmorph import lapack

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_sites", ["7", "0", "14", "-2"])
def test_time_build_rejects_a_chain_length_it_cannot_build(capsys, n_sites):
    with pytest.raises(SystemExit) as exc:
        load_tool("time_build").main(["--n-sites", "4", n_sites])
    assert exc.value.code == 2
    assert "--n-sites takes even chain lengths from 2 to 12" in capsys.readouterr().err


def test_time_build_reports_time_and_peak_of_every_stage(capsys):
    assert load_tool("time_build").main(["--n-sites", "4", "--repeats", "2", "--periods", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the fingerprint is the environment block of a run manifest
    fingerprint = report["fingerprint"]
    assert fingerprint == lapack.environment(fingerprint["blas_threads_at_start"])
    [chain] = report["chains"]
    assert chain["n_sites"] == 4
    for stage in ("build", "period", "cell", "states_cell", "fidelity"):
        summary = chain[stage]
        assert set(summary) == {"median_ms", "min_ms", "max_ms", "peak_buffers"}
        assert 0 < summary["min_ms"] <= summary["median_ms"] <= summary["max_ms"]
        assert summary["peak_buffers"] > 0
    # F alone is one buffer; a cell holds the F it builds, and a states cell
    # its states in F's buffer. At N = 4 (D = 16) the fidelity column is one
    # block of every column: its two complex evolution buffers and the real
    # populations, at least 2.5 buffers
    assert set(chain) == {"n_sites", "build", "period", "cell", "states_cell", "fidelity"}
    assert chain["build"]["peak_buffers"] >= 1
    assert chain["cell"]["peak_buffers"] >= 1
    assert chain["states_cell"]["peak_buffers"] >= 1
    assert chain["fidelity"]["peak_buffers"] >= 2.5


def test_time_build_starts_openblas_with_one_thread_as_a_command_does():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_build.py"), "--n-sites", "2",
         "--repeats", "1", "--periods", "1"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert json.loads(proc.stdout)["fingerprint"]["blas_threads_at_start"] == 1


# N = 2 keeps the four runs per comparison to about a second
SMALL_ARGVS = [["walk", "--n-sites", "2"], ["dynamics", "--n-sites", "2", "--workers", "2"]]


def test_compare_outputs_finds_the_same_tree_identical():
    report = load_tool("compare_outputs").compare(ROOT / "src", ROOT / "src", SMALL_ARGVS)
    assert report["identical"]
    assert report["differences"] == []
    assert report["csvs"] == 4 + 4  # walk_000..002 and walk_support; dynamics' four tables


def test_compare_outputs_names_the_csv_a_change_moves(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "dtcmorph" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert "WALK_SUPPORT_THRESHOLD = 1e-3\n" in text
    cli.write_text(text.replace("WALK_SUPPORT_THRESHOLD = 1e-3\n", "WALK_SUPPORT_THRESHOLD = 0.5\n"),
                   encoding="utf-8")
    tool = load_tool("compare_outputs")
    report = tool.compare(ROOT / "src", changed, SMALL_ARGVS)
    assert not report["identical"]
    moved = {(d["argv"], d.get("file"), d["what"]) for d in report["differences"]}
    assert moved == {
        ("walk --n-sites 2", "dtcmorph_walk/walk_support.csv", "sha256"),
        ("walk --n-sites 2", "dtcmorph_walk/manifest.json", "manifest"),
    }


def test_compare_outputs_counts_a_failed_run_as_a_difference():
    argvs = [["walk", "--n-sites", "3"]]  # odd chain: exit 2 in both trees
    report = load_tool("compare_outputs").compare(ROOT / "src", ROOT / "src", argvs)
    assert report["differences"] == [{"argv": "walk --n-sites 3", "what": "exit code 2 -> 2"}]
