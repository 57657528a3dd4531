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
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    GapRatioSample,
    HistogramData,
    gap_ratios,
    ratio_histogram,
    state_fractal_dimensions,
)
from .errors import ConfigError
from .floquet import diagonalize_floquet, fast_floquet_operator
from .hamiltonians import ModelParams, default_params, sample_disorder

DIAGNOSTIC_NAMES = ("spectrum", "levels", "fractal")

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
    """What to compute: lambda grid x realizations, with seed provenance."""

    lambdas: tuple
    realizations: int
    master_seed: int
    n_sites: int = 8
    diagnostics: tuple = DIAGNOSTIC_NAMES
    params_factory: object = default_params

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        for lam in self.lambdas:
            self.params(lam)  # ModelParams rejects a lam outside [0, 1]
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        unknown = set(self.diagnostics) - set(DIAGNOSTIC_NAMES)
        if unknown:
            raise ValueError(f"unknown diagnostics: {sorted(unknown)}")

    def params(self, lam: float) -> ModelParams:
        return self.params_factory(self.n_sites, lam)


@dataclass
class CellRecord:
    """Everything computed for one (lambda, realization) cell."""

    lambda_index: int
    realization_index: int
    lam: float
    seed: int
    quasienergies: np.ndarray | None = None
    ratios: GapRatioSample | None = None
    fractal_dimensions: np.ndarray | None = None
    eigensolver_fallback: bool = False
    error: str | None = None


@dataclass
class EnsembleResult:
    """All cell records of a sweep, ordered by (lambda_index, realization_index).

    `blas_threads` is the OpenBLAS thread count every cell ran with, or None
    when no OpenBLAS could be controlled.
    """

    plan: SweepPlan
    records: list = field(default_factory=list)
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
        disorder = sample_disorder(params, seed)
        result = diagonalize_floquet(
            fast_floquet_operator(params, disorder),
            params.period,
            vectors="fractal" in plan.diagnostics,
        )
        record.eigensolver_fallback = result.fallback
        if "spectrum" in plan.diagnostics:
            record.quasienergies = result.quasienergies
        if "levels" in plan.diagnostics:
            record.ratios = gap_ratios(result.quasienergies)
        if "fractal" in plan.diagnostics:
            record.fractal_dimensions = state_fractal_dimensions(result)
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

    numpy and scipy each bundle their own copy. The loaded ones are read from
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
    numpy and scipy builds keep one process-wide count, which even the
    "_local" setter changes, so the limit is set once around a whole command
    or sweep by the calling thread, never per cell by pool workers. Nested
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
    """Run every cell of the plan, each with one BLAS thread.

    Deterministic for any worker count and any BLAS thread setting.
    """
    cells = [
        (li, ri)
        for li in range(len(plan.lambdas))
        for ri in range(plan.realizations)
    ]
    n_workers = worker_count(workers)
    with one_blas_thread() as blas_threads:
        if n_workers == 1:
            records = [run_cell(plan, li, ri) for li, ri in cells]
        else:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                records = list(pool.map(lambda cell: run_cell(plan, *cell), cells))
    return EnsembleResult(plan=plan, records=records, blas_threads=blas_threads)


def surviving_cells(result: EnsembleResult, lambda_index: int, attr: str | None = None) -> list:
    """Records of one lambda column that did not fail, in realization order.

    The column is a slice of `result.records`, which `run_sweep` orders by
    (lambda, realization). With `attr`, every surviving record must carry
    that diagnostic.
    """
    n = result.plan.realizations
    column = result.records[lambda_index * n:(lambda_index + 1) * n]
    cells = [r for r in column if r.error is None]
    if attr is not None and any(getattr(r, attr) is None for r in cells):
        raise ValueError(f"sweep records are missing the {attr!r} diagnostic")
    return cells


def _pooled_ratios(result: EnsembleResult, lambda_index: int) -> np.ndarray:
    cells = surviving_cells(result, lambda_index, "ratios")
    return np.concatenate([r.ratios.ratios for r in cells])


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
    curve = np.empty(len(result.plan.lambdas))
    for li in range(len(result.plan.lambdas)):
        cells = surviving_cells(result, li, "fractal_dimensions")
        curve[li] = np.mean([np.mean(r.fractal_dimensions) for r in cells])
    return curve
