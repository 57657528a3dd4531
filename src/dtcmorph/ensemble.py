"""Disorder-ensemble sweeps over the deformation grid.

Every (lambda, realization) cell gets its own seed derived from the master
seed by a keyed hash, so any cell can be regenerated in isolation and the
result of a sweep is independent of scheduling. Cells run on a bounded
thread pool (the heavy work is LAPACK, which releases the GIL); all
floating-point reductions happen afterwards in fixed index order. LAPACK
results depend on the number of BLAS threads, so every cell runs with one
OpenBLAS thread, whatever the worker count and the environment; results are
then bitwise identical for any worker count.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import (
    GapRatioSample,
    HistogramData,
    gap_ratios,
    ratio_histogram,
    state_fractal_dimensions,
)
from .errors import ConfigError
from .floquet import floquet_factors, floquet_spectrum
from .hamiltonians import ModelParams, sample_disorder

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
    digest = hashlib.blake2b(payload, digest_size=8, person=b"dtc-cell").digest()
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

    `workers` is the size of the cells' thread pool; `blas_threads` is the
    OpenBLAS thread count every cell ran with, or None when no OpenBLAS could
    be controlled.
    """

    plan: SweepPlan
    records: list = field(default_factory=list)
    workers: int = 1
    blas_threads: int | None = None


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
    """Worker-pool size: the requested count, else the cpu count; below 1 is a ConfigError."""
    if requested is None:
        return os.cpu_count() or 1
    if requested < 1:
        raise ConfigError(f"worker count must be >= 1, got {requested}")
    return requested


def _openblas_thread_setters() -> list:
    """`openblas_set_num_threads_local` of each OpenBLAS this process has loaded.

    The package loads only the copy numpy links, whose LAPACK `lapack` calls;
    a scipy imported beside it brings its own. The loaded ones are read from
    /proc/self/maps; where that does not exist, the list is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return setters


@contextlib.contextmanager
def one_blas_thread():
    """Limit every loaded OpenBLAS to one thread, restoring the old counts on exit.

    Yields 1, or None when no OpenBLAS was found (then nothing changes). The
    limit covers numpy's own OpenBLAS, and with it every `lapack` call. These
    builds keep one process-wide count, which even the "_local" setter
    changes, so the limit is set once around a whole command or sweep by
    the calling thread, never per cell by pool workers. Nested
    scopes are harmless: the inner one restores the outer one's count.
    """
    setters = _openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield 1 if setters else None
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def run_sweep(plan: SweepPlan, workers: int | None = None) -> EnsembleResult:
    """Run every cell of the plan on a pool of `worker_count(workers)` threads.

    Every cell runs with one BLAS thread; the result is deterministic for any
    worker count and any BLAS thread setting.
    """
    cells = [
        (li, ri)
        for li in range(len(plan.lambdas))
        for ri in range(plan.realizations)
    ]
    n_workers = worker_count(workers)
    with one_blas_thread() as blas_threads, ThreadPoolExecutor(max_workers=n_workers) as pool:
        records = list(pool.map(lambda cell: run_cell(plan, *cell), cells))
    return EnsembleResult(plan=plan, records=records, workers=n_workers, blas_threads=blas_threads)


def surviving_cells(result: EnsembleResult, lambda_index: int) -> list:
    """Records of one lambda column that did not fail, in realization order.

    The column is a slice of `result.records`, which `run_sweep` orders by
    (lambda, realization).
    """
    n = result.plan.realizations
    column = result.records[lambda_index * n:(lambda_index + 1) * n]
    return [r for r in column if r.error is None]


def _pooled_ratios(result: EnsembleResult, lambda_index: int) -> np.ndarray:
    return np.concatenate([r.ratios.ratios for r in surviving_cells(result, lambda_index)])


def pooled_mean_ratios(result: EnsembleResult) -> np.ndarray:
    """Pooled mean gap ratio per lambda, realizations merged in index order."""
    means = np.empty(len(result.plan.lambdas))
    for li in range(len(result.plan.lambdas)):
        means[li] = _pooled_ratios(result, li).mean()
    return means


def pooled_histograms(result: EnsembleResult, bins: int = 20) -> list[HistogramData]:
    """Pooled ratio histogram per lambda."""
    return [
        ratio_histogram(_pooled_ratios(result, li), bins=bins)
        for li in range(len(result.plan.lambdas))
    ]


def aggregate_fractal(result: EnsembleResult) -> np.ndarray:
    """Mean fractal dimension per lambda (mean of per-record means)."""
    if not result.plan.states:
        raise ValueError("a sweep without states records no 'fractal_dimensions'")
    curve = np.empty(len(result.plan.lambdas))
    for li in range(len(result.plan.lambdas)):
        cells = surviving_cells(result, li)
        curve[li] = np.mean([np.mean(r.fractal_dimensions) for r in cells])
    return curve
