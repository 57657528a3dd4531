import hashlib
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import dtcmorph.ensemble as ensemble
import dtcmorph.floquet as floquet_module
from dtcmorph.diagnostics import gap_ratios, ratio_histogram
from dtcmorph.ensemble import (
    SweepPlan,
    aggregate_fractal,
    derive_seed,
    pooled_mean_ratios,
    pooled_ratios,
    run_cell,
    run_sweep,
    surviving_cells,
)
from dtcmorph.errors import ConfigError, ValidationError
from dtcmorph.floquet import diagonalize_floquet, fast_floquet_operator, floquet_factors
from dtcmorph.hamiltonians import default_params, sample_disorder
from dtcmorph.lapack import one_blas_thread


def small_plan(**overrides):
    kwargs = dict(
        lambdas=(0.2, 0.8),
        realizations=3,
        master_seed=101,
        base=default_params(4),
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)
    assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)
    assert derive_seed(7, 0, 0) != derive_seed(7, 1, 0)
    assert derive_seed(7, 0, 0) != derive_seed(8, 0, 0)
    assert 0 <= derive_seed(7, 3, 5) < 2**64


@pytest.mark.parametrize("payload", [b"", b"dtcmorph", bytes(range(256)) * (3 << 12)],
                         ids=["empty", "short", "3MB"])
def test_derive_seed_blake2b_is_hashlibs(payload):
    key = {"digest_size": 8, "person": b"dtc-cell"}
    assert ensemble.blake2b(payload, **key).digest() == hashlib.blake2b(payload, **key).digest()


def test_derive_seed_is_the_keyed_blake2b_of_the_cell():
    for cell in [(0, 0, 0), (7, 3, 5), (2**64 - 1, 20, 99)]:
        digest = hashlib.blake2b(struct.pack("<QQQ", *cell), digest_size=8, person=b"dtc-cell")
        assert derive_seed(*cell) == int.from_bytes(digest.digest(), "little")


def test_derive_seed_collision_sweep():
    # adjacent realization indices must never collide across many masters
    rng = np.random.default_rng(0)
    masters = rng.integers(0, 2**63, size=1_000_000)
    seen = set()
    for master in masters:
        a = derive_seed(int(master), 0, 0)
        b = derive_seed(int(master), 0, 1)
        assert a != b
        seen.add(a)
        seen.add(b)
    assert len(seen) == 2 * len(np.unique(masters))


def test_derive_seed_rejects_negative_indices():
    with pytest.raises(ValueError):
        derive_seed(0, -1, 0)


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(lambdas=(0.5, 1.5))
    with pytest.raises(ValueError):
        small_plan(realizations=0)


def test_plan_params_keep_the_base_couplings():
    base = replace(default_params(4), g=4.2, w=7.5)
    plan = small_plan(base=base)
    assert plan.params(0.8) == replace(base, lam=0.8)


def test_degenerate_sweep_matches_direct_pipeline():
    plan = small_plan(lambdas=(0.4,), realizations=1)
    result = run_sweep(plan, workers=1)
    assert len(result.records) == 1
    record = result.records[0]

    params = default_params(4, 0.4)
    seed = derive_seed(101, 0, 0)
    disorder = sample_disorder(params, seed)
    factors = floquet_factors(params, disorder)
    direct = diagonalize_floquet(fast_floquet_operator(factors), factors, params.period)
    assert record.seed == seed
    assert np.array_equal(record.quasienergies, direct.quasienergies)
    assert np.array_equal(
        record.ratios.ratios, gap_ratios(record.quasienergies).ratios
    )


def test_sweep_deterministic_across_worker_counts():
    plan = small_plan()
    solo = run_sweep(plan, workers=1)
    for workers in (2, 3, 4):
        pooled = run_sweep(plan, workers=workers)
        # aggregates read each lambda column as a slice of this grid order
        grid = [(li, ri) for li in range(2) for ri in range(3)]
        assert [(r.lambda_index, r.realization_index) for r in pooled.records] == grid
        assert len(solo.records) == len(pooled.records)
        for a, b in zip(solo.records, pooled.records):
            assert (a.lambda_index, a.realization_index, a.seed) == (
                b.lambda_index,
                b.realization_index,
                b.seed,
            )
            assert np.array_equal(a.quasienergies, b.quasienergies)
            assert np.array_equal(a.fractal_dimensions, b.fractal_dimensions)
            assert np.array_equal(a.ratios.ratios, b.ratios.ratios)


def test_cell_seed_regenerates_record():
    plan = small_plan()
    record = run_sweep(plan, workers=2).records[4]
    again = run_cell(plan, record.lambda_index, record.realization_index)
    assert np.array_equal(record.quasienergies, again.quasienergies)


def test_pooled_ratio_ordering_melted_vs_recrystallized():
    plan = SweepPlan(
        lambdas=(0.5, 0.999),
        realizations=10,
        master_seed=77,
        base=default_params(6),
    )
    means = pooled_mean_ratios(run_sweep(plan))
    assert means[0] > means[1]


def test_pooled_histograms_shapes():
    result = run_sweep(small_plan(), workers=2)
    for li in range(2):
        hist = ratio_histogram(pooled_ratios(result, li), bins=10)
        assert hist.counts.sum() == 3 * (16 - 2)


def test_aggregate_fractal_constant_records():
    result = run_sweep(small_plan(lambdas=(0.3,), realizations=2), workers=1)
    for record in result.records:
        record.fractal_dimensions = np.full(16, 0.25)
    assert aggregate_fractal(result) == pytest.approx([0.25])


def test_aggregate_fractal_curve_length():
    result = run_sweep(small_plan(), workers=2)
    assert len(aggregate_fractal(result)) == 2


def test_aggregate_fractal_missing_diagnostic():
    result = run_sweep(small_plan(states=False), workers=1)
    with pytest.raises(ValueError, match="fractal_dimensions"):
        aggregate_fractal(result)


def test_worker_count_sources():
    assert ensemble.worker_count(3) == 3
    assert ensemble.worker_count() >= 1
    with pytest.raises(ConfigError, match="worker count"):
        ensemble.worker_count(0)
    plan = small_plan(lambdas=(0.4,), realizations=4)
    assert run_sweep(plan, workers=3).workers == 3
    assert run_sweep(plan).workers == min(ensemble.worker_count(), 4)
    # a sweep of fewer cells than workers runs on as many threads as cells
    assert run_sweep(small_plan(lambdas=(0.4,), realizations=1), workers=3).workers == 1
    assert run_sweep(small_plan(lambdas=(0.4,), realizations=2), workers=9).workers == 2


def recording_pools(monkeypatch):
    """The max_workers of every pool `run_sweep` starts, in order."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", Recording)
    return sizes


def test_sweep_pool_holds_workers_minus_one_threads(monkeypatch):
    # the calling thread takes cells beside the pool, and one worker starts none
    sizes = recording_pools(monkeypatch)
    seen, real = [], ensemble.run_cell

    def recorded(*args):
        seen.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(ensemble, "run_cell", recorded)
    plan = small_plan(lambdas=(0.4,), realizations=6, states=False)
    for workers in (1, 2, 3):
        seen.clear()
        before = threading.active_count()
        assert run_sweep(plan, workers=workers).workers == workers
        assert threading.active_count() == before
        assert len(seen) == 6 and len(set(seen)) <= workers
    assert sizes == [1, 2]
    seen.clear()
    run_sweep(plan, workers=1)
    assert set(seen) == {threading.get_ident()}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_no_thread_outlives_a_sweep_whose_cell_raises(monkeypatch, workers):
    # run_cell records a cell's own failures; an error outside that handling
    # (here, run_cell itself raising) fails the sweep, after every thread stopped
    real = ensemble.run_cell

    def raising(plan, li, ri):
        if (li, ri) == (0, 1):
            raise RuntimeError("outside the cell's handling")
        return real(plan, li, ri)

    monkeypatch.setattr(ensemble, "run_cell", raising)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="outside the cell's handling"):
        run_sweep(small_plan(states=False), workers=workers)
    assert threading.active_count() == before


def test_run_indexed_takes_every_index_once_under_switching():
    # more threads than cores, switching often, on the one shared iterator
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        taken = []
        with ThreadPoolExecutor(max_workers=3) as pool:
            results = ensemble.run_indexed(lambda i: taken.append(i) or -i, 5000, 4, pool)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-i for i in range(5000)]
    assert sorted(taken) == list(range(5000))


def test_run_indexed_orders_results_and_stops_after_an_error():
    with ThreadPoolExecutor(max_workers=2) as pool:
        for workers in (1, 2, 3):
            runner = pool if workers > 1 else None
            assert ensemble.run_indexed(lambda i: i * i, 50, workers, runner) == [
                i * i for i in range(50)]
        started = []

        def slow(i):
            started.append(i)
            if i == 1:
                raise ValueError("task 1")
            time.sleep(0.01)
            return i

        with pytest.raises(ValueError, match="task 1"):
            ensemble.run_indexed(slow, 200, 3, pool)
        # each thread finishes the task it holds, then starts no other
        assert len(started) < 200


def test_default_worker_count_is_the_usable_cpus(monkeypatch):
    # the affinity mask, which taskset narrows, not the machine's cpu count
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 16)
    monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert ensemble.worker_count() == 2
    assert ensemble.worker_count(5) == 5
    # where the platform has no affinity mask, the cpu count, else 1
    monkeypatch.delattr(ensemble.os, "sched_getaffinity")
    assert ensemble.worker_count() == 16
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: None)
    assert ensemble.worker_count() == 1


def test_cell_failure_recorded_not_raised(monkeypatch):
    calls = {"n": 0}
    real = ensemble.floquet_factors

    def flaky(params, disorder):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected failure")
        return real(params, disorder)

    monkeypatch.setattr(ensemble, "floquet_factors", flaky)
    result = run_sweep(small_plan(lambdas=(0.2,), realizations=3), workers=1)
    errors = [r.error for r in result.records]
    assert errors.count(None) == 2
    assert any(e and "injected failure" in e for e in errors)
    assert [r.route for r in result.records if r.error] == [None]
    # aggregates skip the failed cell
    assert len(pooled_mean_ratios(result)) == 1


def test_lambda_column_without_survivor_fails_every_aggregate(monkeypatch):
    # the aggregates used to fail differently on such a column: numpy's
    # "need at least one array to concatenate", or a NaN mean with warnings
    real = ensemble.floquet_factors

    def failing_at_02(params, disorder):
        if params.lam == 0.2:
            raise RuntimeError("injected failure")
        return real(params, disorder)

    monkeypatch.setattr(ensemble, "floquet_factors", failing_at_02)
    result = run_sweep(small_plan(), workers=1)
    assert len(surviving_cells(result, 1)) == 3
    for aggregate in (lambda r: surviving_cells(r, 0), lambda r: pooled_ratios(r, 0),
                      pooled_mean_ratios, aggregate_fractal):
        with pytest.raises(ValidationError, match="every cell failed at lambda 0.2$"):
            aggregate(result)


def test_cells_without_fractal_solve_for_values_only():
    plan = small_plan(states=False)
    for record in run_sweep(plan, workers=2).records:
        params = plan.params(record.lam)
        factors = floquet_factors(params, sample_disorder(params, record.seed))
        values = diagonalize_floquet(fast_floquet_operator(factors), factors, params.period,
                                     vectors=False)
        assert record.route == "cayley"
        assert np.array_equal(record.quasienergies, values.quasienergies)
        assert np.array_equal(record.ratios.ratios, gap_ratios(values.quasienergies).ratios)
        assert record.fractal_dimensions is None


def test_cell_records_an_eigensolver_fallback(monkeypatch):
    # with the Cayley route refused at every rotation, the cell fails and
    # records why, with and without states
    fractal_plan = small_plan(lambdas=(0.4,), realizations=1)
    assert run_sweep(fractal_plan, workers=1).records[0].route == "cayley"
    monkeypatch.setattr(floquet_module, "_cayley_hermitian", lambda f, phase=0.0: None)
    plan = small_plan(lambdas=(0.4,), realizations=2, states=False)
    records = run_sweep(plan, workers=1).records + run_sweep(fractal_plan, workers=1).records
    assert [r.route for r in records] == [None] * 3
    for record in records:
        assert record.error.startswith("ValidationError: the Cayley solve refused F")
        assert record.quasienergies is None


@pytest.mark.parametrize("states", [False, True])
def test_a_fault_at_the_factors_fails_the_cell_on_unitarity(monkeypatch, factor_fault, states):
    real = ensemble.floquet_factors
    monkeypatch.setattr(ensemble, "floquet_factors",
                        lambda params, disorder: factor_fault(real(params, disorder)))
    result = run_sweep(small_plan(lambdas=(0.4,), realizations=2, states=states), workers=2)
    for record in result.records:
        assert record.route is None and record.quasienergies is None
        assert record.error.startswith("ValidationError: matrix deviates from unitary by ")


def test_endpoint_cells_take_the_closed_form():
    # every state of the closed form spreads evenly over one 4-cycle (lam = 0)
    # or 2-cycle (lam = 1) of configurations: fractal dimension ln L / ln D
    plan = small_plan(lambdas=(0.0, 0.5, 1.0), realizations=2)
    records = run_sweep(plan, workers=2).records
    routes = ["closed_form"] * 2 + ["cayley"] * 2 + ["closed_form"] * 2
    assert [r.route for r in records] == routes
    for record, cycle in zip(records[::2], (4, None, 2)):
        if cycle is not None:
            expected = np.log(cycle) / np.log(plan.base.dim)
            assert np.max(np.abs(record.fractal_dimensions - expected)) < 1e-12


def test_one_blas_thread_per_sweep_then_restored(monkeypatch, blas_threads):
    assert blas_threads() == 2
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            assert blas_threads() == 1
            raise RuntimeError("cell body failed")
    assert blas_threads() == 2
    seen, real = [], ensemble.run_cell

    def counted(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(ensemble, "run_cell", counted)
    run_sweep(small_plan(lambdas=(0.4,), realizations=2), workers=2)
    assert seen == [1, 1]  # every cell, on either thread, ran with one BLAS thread
    assert blas_threads() == 2
    with one_blas_thread():
        # a sweep nested in a command's scope leaves the outer limit in place
        run_sweep(small_plan(lambdas=(0.4,), realizations=1), workers=2)
        assert blas_threads() == 1
    assert blas_threads() == 2
