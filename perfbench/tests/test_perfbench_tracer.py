"""Tests of the benchmark's own tracer and per-layer arithmetic."""

import concurrent.futures
import importlib
import sys
import textwrap
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import ANNOTATE, TARGETS, span_metrics  # noqa: E402
from run import THREAD_ENV, child_env  # noqa: E402
from tracer import Span, Tracer, covered_length, self_times  # noqa: E402

PKG = "perfbench_fakepkg"

WORK = '''
from concurrent.futures import ThreadPoolExecutor

def leaf(x):
    return 2 * x

def sweep(n):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda i: leaf(i), range(n)))
'''

USER = '''
from .work import leaf, sweep

TABLE = {"sweep": sweep}

def run(n):
    return TABLE["sweep"](n) + [leaf(100)]
'''


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / PKG
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "work.py").write_text(textwrap.dedent(WORK))
    (pkg / "user.py").write_text(textwrap.dedent(USER))
    monkeypatch.syspath_prepend(str(tmp_path))
    work = importlib.import_module(f"{PKG}.work")
    user = importlib.import_module(f"{PKG}.user")
    yield work, user
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]


def _span(id, start, end, parent=None, thread=0, name="x"):
    return Span(id, name, start, end, parent, thread)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0, thread=1),
        _span(2, 2.0, 5.0, parent=0, thread=2),  # overlaps span 1 on another thread
        _span(3, 7.0, 8.0, parent=0),
        _span(4, 1.5, 2.5, parent=1),  # grandchild: not subtracted from span 0
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_parent_links_cross_pool_threads(fakepkg):
    work, user = fakepkg
    targets = {"run": "user.run", "sweep": "work.sweep", "leaf": "work.leaf"}
    with Tracer(PKG, targets) as tracer:
        assert user.run(6) == [0, 2, 4, 6, 8, 10, 200]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (run,) = by_name["run"]
    (sweep,) = by_name["sweep"]
    leaves = by_name["leaf"]
    assert run.parent is None
    assert sweep.parent == run.id
    assert len(leaves) == 7
    pooled = [s for s in leaves if s.parent == sweep.id]
    assert len(pooled) == 6
    assert all(s.thread != threading.get_ident() for s in pooled)
    assert [s.parent for s in leaves if s not in pooled] == [run.id]


def test_every_rebound_name_is_restored(fakepkg):
    work, user = fakepkg
    leaf, sweep, run = work.leaf, work.sweep, user.run
    with Tracer(PKG, {"run": "user.run", "sweep": "work.sweep", "leaf": "work.leaf"}):
        assert user.leaf is not leaf and work.leaf is not leaf
        assert user.TABLE["sweep"] is not sweep
        assert work.ThreadPoolExecutor is not concurrent.futures.ThreadPoolExecutor
    assert work.leaf is leaf and user.leaf is leaf
    assert work.sweep is sweep and user.sweep is sweep and user.TABLE["sweep"] is sweep
    assert user.run is run
    assert work.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor


def test_restored_after_an_exception(fakepkg):
    work, user = fakepkg
    leaf = work.leaf
    with pytest.raises(TypeError):
        with Tracer(PKG, {"leaf": "work.leaf"}) as tracer:
            work.leaf(None, None)
    assert work.leaf is leaf
    assert tracer.spans[0].attrs == {"error": "TypeError"}


def test_absent_targets_are_reported_not_fatal(fakepkg):
    work, user = fakepkg
    targets = {"gone": "nosuchmodule.func", "missing": "work.missing", "leaf": "work.leaf"}
    with Tracer(PKG, targets) as tracer:
        assert user.run(2) == [0, 2, 200]
    assert sorted(tracer.absent) == ["gone", "missing"]
    assert sum(s.name == "leaf" for s in tracer.spans) == 3


def test_dtcmorph_levels_layer_metrics(tmp_path):
    from dtcmorph import cli

    argv = ["levels", "--n-sites", "4", "--lambdas", "0.3,0.7", "--realizations", "3",
            "--workers", "2", "--out", str(tmp_path)]
    with Tracer("dtcmorph", TARGETS, ANNOTATE) as tracer:
        assert cli.main(argv) == 0
    assert tracer.absent == []
    assert cli.run_levels is cli._HANDLERS["levels"]
    metrics = span_metrics(tracer.spans, workers=2)
    assert metrics["floquet.eigensolve_calls"] == 6
    assert metrics["floquet.build_calls"] == 6
    assert metrics["backend.gate_calls"] == 6 * (4 + 2)
    assert metrics["ensemble.cells"] == 6
    assert metrics["ensemble.failed_cells"] == 0
    assert metrics["fileio.csv_calls"] == 2
    assert metrics["fileio.csv_bytes"] == sum(
        (tmp_path / name).stat().st_size for name in ("levels_histogram.csv", "levels_summary.csv")
    )
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    sweep = next(s for s in tracer.spans if s.name == "ensemble.run_sweep")
    cells = [s for s in tracer.spans if s.name == "ensemble.run_cell"]
    assert all(s.parent == sweep.id for s in cells)


def test_child_env_removes_thread_variables(monkeypatch):
    for key in THREAD_ENV:
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("DTCMORPH_WORKERS", "5")
    env, removed = child_env(None)
    assert removed == ["OPENBLAS_NUM_THREADS", "DTCMORPH_WORKERS"]
    assert "OPENBLAS_NUM_THREADS" not in env and "DTCMORPH_WORKERS" not in env
    env, _ = child_env(1)
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
