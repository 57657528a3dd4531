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
    # block of every column: its two real evolution buffers, each of the
    # size of a complex D x D one, and the real lo operator, at least 2.5
    # buffers
    assert set(chain) == {"n_sites", "build", "period", "cell", "states_cell", "fidelity"}
    assert chain["build"]["peak_buffers"] >= 1
    assert chain["cell"]["peak_buffers"] >= 1
    assert chain["states_cell"]["peak_buffers"] >= 1
    assert chain["fidelity"]["peak_buffers"] >= 2.5


def test_time_build_runs_each_stage_once_more_than_it_times(capsys, monkeypatch):
    # the traced peak comes from the untimed first call, so a stage runs
    # --repeats + 1 times ("period": --periods + 1)
    tool = load_tool("time_build")
    calls = {}
    for name in ("fast_floquet_operator", "apply_floquet", "floquet_spectrum",
                 "_all_config_power_spectra"):
        def counting(*args, _real=getattr(tool, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(tool, name, counting)
    assert tool.main(["--n-sites", "4", "--repeats", "2", "--periods", "3"]) == 0
    capsys.readouterr()
    # floquet_spectrum serves two stages, "cell" and "states_cell"
    assert calls == {"fast_floquet_operator": 3, "apply_floquet": 4, "floquet_spectrum": 6,
                     "_all_config_power_spectra": 3}


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


def test_compare_csv_lets_a_tabled_column_move_within_its_tolerance_only(tmp_path):
    compare_csv = load_tool("compare_outputs").compare_csv
    base, change = tmp_path / "base.csv", tmp_path / "change.csv"
    base.write_text("lambda,m,magnetization\n0.0,1,0.5\n0.0,2,-2.0\n", encoding="utf-8")
    tolerances = {"magnetization": 1e-12}

    def moved(rows):
        change.write_text("lambda,m,magnetization\n" + rows, encoding="utf-8")
        return compare_csv(base, change, tolerances)

    # 1e-15 of the column's largest entry, 2.0
    what, columns = moved("0.0,1,0.5\n0.0,2,-2.000000000000002\n")
    assert what is None
    assert columns["magnetization"] == pytest.approx(1e-15, rel=0.2)
    what, columns = moved("0.0,1,0.5000000001\n0.0,2,-2.0\n")
    assert what == "values of magnetization"
    assert columns["magnetization"] == pytest.approx(5e-11, rel=1e-3)
    # a column outside the table compares string for string: 1 and 1.0 differ
    what, _ = moved("0.0,1.0,0.5\n0.0,2,-2.0\n")
    assert what == "values of m"
    assert moved("0.0,1,0.5\n")[0] == "header or row count"
    assert moved("0.0,1,0.5\n0.0,2\n")[0] == "header or row count"


def perturbed_tree(tmp_path, dynamics_scale, walk_scale):
    """A copy of src/ whose magnetization series and walk populations are scaled by 1 + scale."""
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    module = changed / "dtcmorph" / "dynamics.py"
    text = module.read_text(encoding="utf-8")
    spectra = "    return np.abs(dft(magnetizations)) ** 2, magnetizations[:, initial_config].copy()\n"
    populations = "        row *= row\n"
    assert text.count(spectra) == 1 and text.count(populations) == 1
    text = text.replace(spectra, f"    magnetizations *= 1.0 + {dynamics_scale!r}\n{spectra}")
    text = text.replace(populations, f"{populations}        row *= 1.0 + {walk_scale!r}\n")
    module.write_text(text, encoding="utf-8")
    return changed


def test_compare_outputs_tolerates_the_tabled_dynamics_columns_only(tmp_path):
    tool = load_tool("compare_outputs")
    report = tool.compare(ROOT / "src", perturbed_tree(tmp_path, 1e-14, 0.0), SMALL_ARGVS)
    assert report["identical"], report["differences"]
    tolerated = {entry["file"]: entry["columns"] for entry in report["tolerated"]}
    assert 0 < tolerated["dtcmorph_dynamics/dynamics_power.csv"]["power"] <= 1e-12
    assert 0 < tolerated["dtcmorph_dynamics/dynamics_series.csv"]["magnetization"] <= 1e-12
    # the same relative move of the walk populations, a CSV outside the table,
    # is a difference; so is a dynamics move beyond its tolerance
    report = tool.compare(ROOT / "src", perturbed_tree(tmp_path / "far", 1e-9, 1e-14), SMALL_ARGVS)
    moved = {(d.get("file"), d["what"]) for d in report["differences"]}
    assert ("dtcmorph_walk/walk_000.csv", "sha256") in moved
    assert ("dtcmorph_walk/manifest.json", "manifest") in moved
    assert ("dtcmorph_dynamics/dynamics_power.csv", "values of power") in moved
    assert ("dtcmorph_dynamics/dynamics_series.csv", "values of magnetization") in moved
    assert ("dtcmorph_dynamics/manifest.json", "manifest") in moved
