"""Stroboscopic dynamics, Fourier analysis and configuration-space walks.

Time series are sampled at integer periods m = 1..n (the m = 0 value is kept
separately so raw output can include it). The discrete Fourier transform uses

    M(k) = (1/n) sum_{m=1..n} exp(-i 2 pi k m / n) M(mT),    k = 0..n-1,

so a 4T-periodic series peaks exactly at bins n/4 and 3n/4 and a 2T-periodic
one at bin n/2 when n is a multiple of 4. `dft` transforms a series or,
column by column, a block of them. `walk_populations` evolves one basis
state; the fidelity maps evolve all 2^N of them at once.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft  # loaded with the package, not on the first spectrum

from .ensemble import run_indexed, worker_count
from .floquet import (
    apply_floquet,
    floquet_factors,
    kron_dims,
    stripped_floquet_powers,
    stripped_gates,
)
from .hamiltonians import DisorderRealization, ModelParams
from .lapack import one_blas_thread
from .spins import (
    BLOCK_COLS,
    basis_state,
    check_norm_deviation,
    magnetization_weights,
    norm_deviation,
)

# a fidelity is undefined where the product of the two spectrum norms is below
# this fraction of the largest product in its lambda column: the series is
# identically 0 up to rounding, so the cosine similarity compares noise
UNDEFINED_FIDELITY_RTOL = 1e-12


@dataclass
class TimeSeries:
    """Total magnetization at stroboscopic times; values[m-1] = M(mT)."""

    values: np.ndarray
    period: float
    initial_value: float


@dataclass
class PowerSpectrum:
    """Squared DFT magnitudes on the frequency grid omega_k = 2 pi k/(n T)."""

    values: np.ndarray
    frequencies: np.ndarray


def evolve_stroboscopic(f: np.ndarray, psi0: np.ndarray, n_periods: int) -> np.ndarray:
    """States F^m psi0 for m = 0..n, stacked as rows, from the dense D x D propagator.

    The reference for the factor-form evolution of `walk_populations`.
    """
    if n_periods < 0:
        raise ValueError("n_periods must be nonnegative")
    psi0 = np.asarray(psi0, dtype=complex)
    out = np.empty((n_periods + 1, len(psi0)), dtype=complex)
    out[0] = psi0
    for m in range(1, n_periods + 1):
        out[m] = f @ out[m - 1]
    return out


def walk_populations(
    params: ModelParams, disorder: DisorderRealization, initial_config: int, n_periods: int
) -> np.ndarray:
    """Quantum walk over configurations: the (n+1, D) populations
    |<l|F^m|initial_config>|^2 for m = 0..n as rows, from the factors of F.

    One state is evolved in place and only its real populations are kept, so
    memory is the result plus O(D). No dense F exists on this path, so the
    final norm is the numerical health check: a ValidationError if it
    drifted.
    """
    if n_periods < 0:
        raise ValueError("n_periods must be nonnegative")
    factors = floquet_factors(params, disorder)
    psi = basis_state(params.n_sites, initial_config)
    populations = np.empty((n_periods + 1, params.dim))
    for m, row in enumerate(populations):
        if m:
            apply_floquet(factors, psi)
        np.abs(psi, out=row)
        row *= row
    check_norm_deviation(norm_deviation(psi))
    return populations


def magnetization_series(
    params: ModelParams,
    disorder: DisorderRealization,
    initial_config: int,
    n_periods: int,
) -> TimeSeries:
    """Total magnetization after each of n periods from one basis configuration."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    populations = walk_populations(params, disorder, initial_config, n_periods)
    magnetizations = populations @ magnetization_weights(params.n_sites)
    return TimeSeries(
        values=magnetizations[1:],
        period=params.period,
        initial_value=float(magnetizations[0]),
    )


def dft(values) -> np.ndarray:
    """Complex spectrum of a series, bins k = 0..n-1 with 1/n normalization.

    Transforms along axis 0, so each column of a 2-D array is a separate series.
    """
    values = np.asarray(values, dtype=float)
    # FFT over m = 0..n-1 matches the m = 1..n sum after a one-step phase twist
    n = len(values)
    twist = np.exp(-2j * np.pi * np.arange(n) / n)
    return twist.reshape((n,) + (1,) * (values.ndim - 1)) * fft(values, axis=0) / n


def _frequencies(n: int, period: float) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / (n * period)


def power_spectrum(series: TimeSeries) -> PowerSpectrum:
    """Elementwise squared modulus of the DFT."""
    spectrum = dft(series.values)
    return PowerSpectrum(np.abs(spectrum) ** 2, _frequencies(len(series.values), series.period))


def _fidelities(a: np.ndarray, b: np.ndarray) -> tuple:
    """(fidelities, norm products) of two power spectra, column by column.

    A fidelity is the square root of the cosine similarity; it is 0.0 where
    a norm product is exactly 0, and the caller flags those entries.
    """
    norms = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        fid = np.sqrt(np.clip(np.sum(a * b, axis=0) / norms, 0.0, 1.0))
    return np.where(norms == 0.0, 0.0, fid), norms


@dataclass
class FidelityMaps:
    """Power-spectrum fidelities against the lam = 0 and lam = 1 references.

    Rows are initial configurations (all 2^N of them), columns follow the
    lam grid. One shared disorder realization is used across the whole grid.
    `undefined_4t`/`undefined_2t` flag the entries whose fidelity compares
    rounding noise (see UNDEFINED_FIDELITY_RTOL); their values are kept as
    computed, or 0.0 where a spectrum is exactly zero. `series` and
    `spectra` hold the magnetization series of one initial configuration per
    column and its power spectrum, both taken from the same evolution and
    transform as the maps; each spectrum is bitwise `power_spectrum` of its
    series. `workers` is the number of threads that evolved each lam's
    column blocks.
    """

    lambdas: np.ndarray
    fid_4t: np.ndarray
    fid_2t: np.ndarray
    undefined_4t: np.ndarray
    undefined_2t: np.ndarray
    series: list
    spectra: list
    workers: int = 1


def column_blocks(n_sites: int) -> list[range]:
    """The fixed blocks of the high Kronecker index of `stripped_floquet_powers`
    that the fidelity maps evolve one at a time: contiguous runs of
    max(1, BLOCK_COLS // d_lo) indices, BLOCK_COLS columns each from N = 8 up
    and one block for N <= 6 (D <= 64). A block evolves in two real buffers
    of real and imaginary planes, each the size of a complex D x BLOCK_COLS
    array.
    """
    d_hi, d_lo = kron_dims(n_sites)
    width = max(1, BLOCK_COLS // d_lo)
    return [range(lo, min(lo + width, d_hi)) for lo in range(0, d_hi, width)]


def _signed_weights(n_sites: int) -> np.ndarray:
    """The (2, 2D) weights of the magnetization on the (h, plane, l) rows of a
    block's squared planes (`stripped_floquet_powers`): row 0 the positive
    parts of the configuration weights, row 1 the magnitudes of the negative
    parts, each repeated over the two planes.
    """
    d_hi, d_lo = kron_dims(n_sites)
    weights = magnetization_weights(n_sites).reshape(d_hi, 1, d_lo).repeat(2, axis=1).ravel()
    return np.stack((np.maximum(weights, 0.0), np.maximum(-weights, 0.0)))


def _all_config_power_spectra(
    params: ModelParams,
    disorder: DisorderRealization,
    n_periods: int,
    initial_config: int,
    workers: int,
    pool: ThreadPoolExecutor | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(n, D) power spectra of the magnetization series of every basis state,
    and the (n,) series of `initial_config` itself.

    Column i of U3^H F^m has the norm and the magnetization of F^m|i>, since
    U3 conserves both, so dense F is never built. The columns evolve in the
    fixed `column_blocks`, which share one `stripped_gates`, in real and
    imaginary planes (`stripped_floquet_powers`). Each period a block squares
    its planes into the spare buffer, and two GEMVs with the rows of
    `_signed_weights` give the up- and down-weighted population sums of its
    columns, whose difference is the magnetization. Each sum adds
    nonnegative terms and the difference is exact, so a series that is zero
    by symmetry reads exactly 0 where the two sums round alike. (One GEMM of
    both rows rounds a column differently with the block's width; a GEMV
    does not.) The column sums of the last period's squares are the squared
    norms. The calling
    thread and `workers` - 1 threads of `pool` (None with one worker) take
    the blocks one at a time (`ensemble.run_indexed`), so a thread holds one
    block's two buffers at a time, each the size of a complex D x BLOCK_COLS
    array, whatever D. Every column is computed the same way whatever the
    workers, so the result is bitwise the same. Once every block has
    finished, a norm drift in any column raises one ValidationError naming
    the largest.
    """
    d_lo = kron_dims(params.n_sites)[1]
    blocks = column_blocks(params.n_sites)
    gates = stripped_gates(floquet_factors(params, disorder))
    weights = _signed_weights(params.n_sites)
    magnetizations = np.empty((n_periods, params.dim))

    def evolve(b: int) -> float:
        block = blocks[b]
        columns = magnetizations[:, block.start * d_lo:block.stop * d_lo]
        sums = np.empty((2, columns.shape[1]))
        for m, (planes, spare) in enumerate(stripped_floquet_powers(gates, n_periods, block)):
            squares = np.square(planes, out=spare).reshape(2 * params.dim, -1)
            for row, total in zip(weights, sums):
                np.matmul(row, squares, out=total)
            np.subtract(sums[0], sums[1], out=columns[m])
        return float(np.max(np.abs(np.sqrt(squares.sum(axis=0)) - 1.0)))

    deviations = run_indexed(evolve, len(blocks), workers, pool)
    check_norm_deviation(float(np.max(deviations)))  # NaN-safe, whatever the block order
    # a copy, so the (n, D) block is freed on return
    return np.abs(dft(magnetizations)) ** 2, magnetizations[:, initial_config].copy()


def fidelity_map(
    params: ModelParams,
    disorder: DisorderRealization,
    lambdas,
    n_periods: int,
    initial_config: int = 0,
    workers: int | None = None,
) -> FidelityMaps:
    """Both fidelity maps over every initial configuration and the lam grid,
    plus the magnetization series of `initial_config` and its power spectrum
    at each grid lam.

    The lam = 0 and lam = 1 references are reused as grid columns when the
    grid holds those values. Each lam's columns evolve in real arithmetic
    (`_all_config_power_spectra`), in `column_blocks(N)`
    on min(worker_count(workers), blocks) workers: the calling thread and a
    pool of (workers - 1) threads, open for the whole grid, which take the
    blocks one at a time (`ensemble.run_indexed`); with one worker
    (always for N <= 6, one block) no thread starts. All run with one BLAS
    thread (`one_blas_thread`), and the maps are bitwise the same for any
    worker count.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    d = params.dim
    if not 0 <= initial_config < d:
        raise ValueError(f"configuration {initial_config} outside [0, {d})")
    lambdas = np.asarray(lambdas, dtype=float)
    grid = [replace(params, lam=lam) for lam in lambdas]  # ModelParams checks each lam
    workers = min(worker_count(workers), len(column_blocks(params.n_sites)))
    pool = ThreadPoolExecutor(max_workers=workers - 1) if workers > 1 else None

    def evolved(lam_params: ModelParams) -> tuple:
        return _all_config_power_spectra(
            lam_params, disorder, n_periods, initial_config, workers, pool
        )

    with one_blas_thread(), pool or contextlib.nullcontext():
        refs = {lam: evolved(replace(params, lam=lam)) for lam in (0.0, 1.0)}
        ref_4t, ref_2t = refs[0.0][0], refs[1.0][0]
        initial_value = float(magnetization_weights(params.n_sites)[initial_config])
        shape = (d, len(lambdas))
        fid_4t, fid_2t = np.empty(shape), np.empty(shape)
        undefined_4t, undefined_2t = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        series, spectra = [], []
        references = ((ref_4t, fid_4t, undefined_4t), (ref_2t, fid_2t, undefined_2t))
        for col, lam_params in enumerate(grid):
            powers, values = refs.get(lam_params.lam) or evolved(lam_params)
            series.append(TimeSeries(values, lam_params.period, initial_value))
            spectra.append(PowerSpectrum(powers[:, initial_config].copy(),
                                         _frequencies(n_periods, lam_params.period)))
            for ref, fid, undefined in references:
                fid[:, col], norms = _fidelities(ref, powers)
                undefined[:, col] = norms <= UNDEFINED_FIDELITY_RTOL * norms.max()
    return FidelityMaps(
        lambdas=lambdas,
        fid_4t=fid_4t,
        fid_2t=fid_2t,
        undefined_4t=undefined_4t,
        undefined_2t=undefined_2t,
        series=series,
        spectra=spectra,
        workers=workers,
    )


def walk_support(populations: np.ndarray, threshold: float) -> int:
    """Number of configurations (columns of `walk_populations`) whose population ever
    exceeds the threshold."""
    return int(np.sum(populations.max(axis=0) > threshold))
