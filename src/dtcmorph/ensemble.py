"""Disorder-ensemble sweeps over the deformation grid.

Every (lambda, realization) cell gets its own seed derived from the master
seed by a keyed hash, so any cell can be regenerated in isolation and the
result of a sweep is independent of scheduling. Cells run on the calling
thread and a bounded thread pool (`run_indexed`; the heavy work is LAPACK,
which releases the GIL); all floating-point reductions happen afterwards in
fixed index order. LAPACK results depend on the number of BLAS threads, so
every sweep runs under `lapack.one_blas_thread`, whatever the worker count
and the environment; results are then bitwise identical for any worker
count.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

from _blake2 import blake2b  # hashlib's own blake2b, without loading OpenSSL

import numpy as np

from .diagnostics import GapRatioSample, gap_ratios, state_fractal_dimensions
from .errors import ConfigError, ValidationError
from .floquet import floquet_factors, floquet_spectrum
from .hamiltonians import ModelParams, sample_disorder
from .lapack import one_blas_thread

_SEED_MASK = (1 << 64) - 1


def derive_seed(master_seed: int, lambda_index: int, realization_index: int) -> int:
    """Collision-resistant 64-bit seed for one sweep cell.

    Keyed blake2b hash of the (master, lambda_index, realization_index)
    triple; independent of execution order and worker count.
    """
    if lambda_index < 0 or realization_index < 0:
        raise ValueError("grid indices must be nonnegative")
    payload = struct.pack(
        "<QQQ", master_seed & _SEED_MASK, lambda_index & _SEED_MASK, realization_index & _SEED_MASK
    )
    digest = blake2b(payload, digest_size=8, person=b"dtc-cell").digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class SweepPlan:
    """What to compute: lambda grid x realizations, with seed provenance.

    Every cell runs `base` at its own lambda and records its quasienergies and
    gap ratios; with `states` also the fractal dimensions of its Floquet states.
    """

    lambdas: tuple
    realizations: int
    master_seed: int
    base: ModelParams
    states: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        for lam in self.lambdas:
            self.params(lam)  # ModelParams rejects a lam outside [0, 1]
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")

    def params(self, lam: float) -> ModelParams:
        return replace(self.base, lam=lam)


@dataclass
class CellRecord:
    """Everything computed for one (lambda, realization) cell.

    `route` is the `FloquetResult.route` of its spectrum, None for a failed cell.
    """

    lambda_index: int
    realization_index: int
    lam: float
    seed: int
    quasienergies: np.ndarray | None = None
    ratios: GapRatioSample | None = None
    fractal_dimensions: np.ndarray | None = None
    route: str | None = None
    error: str | None = None


@dataclass
class EnsembleResult:
    """All cell records of a sweep, ordered by (lambda_index, realization_index).

    `workers` is the number of threads that ran the cells, the calling one included.
    """

    plan: SweepPlan
    records: list = field(default_factory=list)
    workers: int = 1


def run_cell(plan: SweepPlan, lambda_index: int, realization_index: int) -> CellRecord:
    """Compute one sweep cell; failures are recorded, not raised."""
    lam = plan.lambdas[lambda_index]
    seed = derive_seed(plan.master_seed, lambda_index, realization_index)
    record = CellRecord(
        lambda_index=lambda_index,
        realization_index=realization_index,
        lam=lam,
        seed=seed,
    )
    try:
        params = plan.params(lam)
        factors = floquet_factors(params, sample_disorder(params, seed))
        result = floquet_spectrum(factors, params.period, vectors=plan.states)
        record.quasienergies = result.quasienergies
        record.ratios = gap_ratios(result.quasienergies)
        if plan.states:
            record.fractal_dimensions = state_fractal_dimensions(result)
        record.route = result.route
    except Exception as exc:  # cell failures never abort the sweep
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def worker_count(requested: int | None = None) -> int:
    """Worker-pool size: the requested count, else the usable CPUs; below 1 is a ConfigError.

    The usable CPUs are the ones this process may run on (its affinity mask,
    which `taskset` narrows), where the platform reports them, else the cpu
    count.
    """
    if requested is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if requested < 1:
        raise ConfigError(f"worker count must be >= 1, got {requested}")
    return requested


def run_indexed(task, count: int, workers: int, pool: ThreadPoolExecutor | None) -> list:
    """[task(0), ..., task(count - 1)], computed by the calling thread and `workers` - 1 others.

    The calling thread and `workers` - 1 jobs submitted to `pool` (None with
    one worker) each take the next index from one shared iterator until it
    is exhausted, so a thread holds one task's buffers at a time and no
    thread idles while another has work. The results are ordered by index
    whatever ran them. Once a task raises, no thread starts another one; the
    call returns or raises only after every job has finished, the first
    error raised again, so no job still runs when it returns.
    """
    indices = iter(range(count))
    lock = threading.Lock()  # one index per taker, also without a GIL
    results = [None] * count

    def drain() -> None:
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            try:
                results[index] = task(index)
            except BaseException:
                with lock:
                    for _ in indices:  # the others stop after their current task
                        pass
                raise

    jobs = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        wait(jobs)
    for job in jobs:
        job.result()
    return results


def run_sweep(plan: SweepPlan, workers: int | None = None) -> EnsembleResult:
    """Run every cell of the plan on min(`worker_count(workers)`, cells) threads.

    The calling thread takes cells beside a pool of the other threads
    (`run_indexed`); with one thread, or one cell, no thread starts, and none
    outlives the call. Every cell runs with one BLAS thread; the result is
    deterministic for any worker count and any BLAS thread setting.
    """
    cells = [
        (li, ri)
        for li in range(len(plan.lambdas))
        for ri in range(plan.realizations)
    ]
    n_workers = min(worker_count(workers), len(cells))
    pool = ThreadPoolExecutor(max_workers=n_workers - 1) if n_workers > 1 else None
    with one_blas_thread(), pool or contextlib.nullcontext():
        records = run_indexed(lambda i: run_cell(plan, *cells[i]), len(cells), n_workers, pool)
    return EnsembleResult(plan=plan, records=records, workers=n_workers)


def surviving_cells(result: EnsembleResult, lambda_index: int) -> list:
    """Records of one lambda column that did not fail, in realization order.

    The column is a slice of `result.records`, which `run_sweep` orders by
    (lambda, realization). A column with no survivor has nothing to
    aggregate: a ValidationError naming its lambda.
    """
    n = result.plan.realizations
    column = result.records[lambda_index * n:(lambda_index + 1) * n]
    survivors = [r for r in column if r.error is None]
    if not survivors:
        raise ValidationError(f"every cell failed at lambda {result.plan.lambdas[lambda_index]}")
    return survivors


def pooled_ratios(result: EnsembleResult, lambda_index: int) -> np.ndarray:
    """Gap ratios of one lambda column's surviving cells, realizations merged in index order."""
    return np.concatenate([r.ratios.ratios for r in surviving_cells(result, lambda_index)])


def pooled_mean_ratios(result: EnsembleResult) -> np.ndarray:
    """Pooled mean gap ratio per lambda."""
    means = np.empty(len(result.plan.lambdas))
    for li in range(len(result.plan.lambdas)):
        means[li] = pooled_ratios(result, li).mean()
    return means


def aggregate_fractal(result: EnsembleResult) -> np.ndarray:
    """Mean fractal dimension per lambda (mean of per-record means)."""
    if not result.plan.states:
        raise ValueError("a sweep without states records no 'fractal_dimensions'")
    curve = np.empty(len(result.plan.lambdas))
    for li in range(len(result.plan.lambdas)):
        cells = surviving_cells(result, li)
        curve[li] = np.mean([np.mean(r.fractal_dimensions) for r in cells])
    return curve
