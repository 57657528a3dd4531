"""Stroboscopic dynamics, Fourier analysis and configuration-space walks.

Time series are sampled at integer periods m = 1..n (the m = 0 value is kept
separately so raw output can include it). The discrete Fourier transform uses

    M(k) = (1/n) sum_{m=1..n} exp(-i 2 pi k m / n) M(mT),    k = 0..n-1,

so a 4T-periodic series peaks exactly at bins n/4 and 3n/4 and a 2T-periodic
one at bin n/2 when n is a multiple of 4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft  # loaded with the package, not on the first spectrum

from .errors import UndefinedFidelityError
from .floquet import FloquetFactors, apply_floquet, floquet_factors, stripped_floquet_powers
from .hamiltonians import DisorderRealization, ModelParams
from .spins import basis_state, check_normalized, magnetization_weights

# a fidelity is undefined where the product of the two spectrum norms is below
# this fraction of the largest product in its lambda column: the series is
# identically 0 up to rounding, so the cosine similarity compares noise
UNDEFINED_FIDELITY_RTOL = 1e-12


@dataclass
class TimeSeries:
    """Total magnetization at stroboscopic times; values[m-1] = M(mT)."""

    values: np.ndarray
    period: float
    initial_config: int
    initial_value: float


@dataclass
class PowerSpectrum:
    """Squared DFT magnitudes on the frequency grid omega_k = 2 pi k/(n T)."""

    values: np.ndarray
    frequencies: np.ndarray


@dataclass
class WalkRecord:
    """Configuration populations |<l|F^m|i>|^2 for m = 0..n (rows)."""

    populations: np.ndarray


def evolve_stroboscopic(f, psi0: np.ndarray, n_periods: int) -> np.ndarray:
    """States F^m psi0 for m = 0..n, stacked as rows.

    `f` is either the dense D x D propagator or its `FloquetFactors`.
    """
    if n_periods < 0:
        raise ValueError("n_periods must be nonnegative")
    psi0 = np.asarray(psi0, dtype=complex)
    out = np.empty((n_periods + 1, len(psi0)), dtype=complex)
    out[0] = psi0
    for m in range(1, n_periods + 1):
        if isinstance(f, FloquetFactors):
            out[m] = out[m - 1]
            apply_floquet(f, out[m])
        else:
            out[m] = f @ out[m - 1]
    return out


def _config_populations(
    params: ModelParams, disorder: DisorderRealization, initial_config: int, n_periods: int
) -> np.ndarray:
    """|<l|F^m|initial_config>|^2 for m = 0..n as rows, from the factors of F.

    One state is evolved in place and only its real populations are kept, so
    memory is the (n+1, D) result plus O(D). No dense F exists on this path,
    so the final norm is the numerical health check: a ValidationError if it
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
    check_normalized(psi)
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
    populations = _config_populations(params, disorder, initial_config, n_periods)
    magnetizations = populations @ magnetization_weights(params.n_sites)
    return TimeSeries(
        values=magnetizations[1:],
        period=params.period,
        initial_config=initial_config,
        initial_value=float(magnetizations[0]),
    )


def _dft_values(values: np.ndarray) -> np.ndarray:
    # FFT over m = 0..n-1 matches the m = 1..n sum after a one-step phase twist;
    # transforms along axis 0, so the columns of a 2-D array are separate series
    n = len(values)
    twist = np.exp(-2j * np.pi * np.arange(n) / n)
    return twist.reshape((n,) + (1,) * (values.ndim - 1)) * fft(values, axis=0) / n


def dft(series: TimeSeries) -> np.ndarray:
    """Complex spectrum of the series, bins k = 0..n-1 with 1/n normalization."""
    return _dft_values(np.asarray(series.values, dtype=float))


def power_spectrum(series: TimeSeries) -> PowerSpectrum:
    """Elementwise squared modulus of the DFT."""
    spectrum = dft(series)
    n = len(series.values)
    freqs = 2.0 * np.pi * np.arange(n) / (n * series.period)
    return PowerSpectrum(values=np.abs(spectrum) ** 2, frequencies=freqs)


def _spectrum_values(v) -> np.ndarray:
    return np.asarray(v.values if isinstance(v, PowerSpectrum) else v, dtype=float)


def spectrum_fidelity(v_ref, v) -> float | np.ndarray:
    """Square root of the cosine similarity of two power spectra, column by column if 2-D."""
    a = _spectrum_values(v_ref)
    b = _spectrum_values(v)
    if a.shape != b.shape:
        raise ValueError(f"spectrum lengths differ: {a.shape} vs {b.shape}")
    fid, norms = _fidelities(a, b)
    if np.any(norms == 0.0):
        raise UndefinedFidelityError("fidelity of a zero power spectrum is undefined")
    return float(fid) if fid.ndim == 0 else fid


def _fidelities(a: np.ndarray, b: np.ndarray) -> tuple:
    """(fidelities, norm products) column by column; 0.0 where a norm is exactly 0."""
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
    computed, or 0.0 where a spectrum is exactly zero. `series` holds the
    magnetization series of one initial configuration per column, taken from
    the same evolution.
    """

    lambdas: np.ndarray
    fid_4t: np.ndarray
    fid_2t: np.ndarray
    undefined_4t: np.ndarray
    undefined_2t: np.ndarray
    series: list


def _all_config_power_spectra(
    params: ModelParams, disorder: DisorderRealization, n_periods: int, initial_config: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n, D) power spectra of the magnetization series of every basis state,
    and the (n,) series of `initial_config` itself.

    Column i of U3^H F^m has the norm and the magnetization of F^m|i>, since
    U3 conserves both, so dense F is never built.
    """
    d = params.dim
    weights = magnetization_weights(params.n_sites)
    populations = np.empty((d, d))
    magnetizations = np.empty((n_periods, d))
    powers = stripped_floquet_powers(floquet_factors(params, disorder), n_periods)
    for m, states in enumerate(powers):
        np.abs(states, out=populations)
        populations *= populations
        np.matmul(weights, populations, out=magnetizations[m])
    check_normalized(states)  # a ValidationError if any column drifted
    # a copy, so the (n, D) block is freed on return
    return np.abs(_dft_values(magnetizations)) ** 2, magnetizations[:, initial_config].copy()


def fidelity_map(
    params: ModelParams,
    disorder: DisorderRealization,
    lambdas,
    n_periods: int,
    initial_config: int = 0,
) -> FidelityMaps:
    """Both fidelity maps over every initial configuration and the lam grid,
    plus the magnetization series of `initial_config` at each grid lam.

    The lam = 0 and lam = 1 references are reused as grid columns when the
    grid holds those values.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    d = params.dim
    if not 0 <= initial_config < d:
        raise ValueError(f"configuration {initial_config} outside [0, {d})")
    lambdas = np.asarray(lambdas, dtype=float)
    grid = [replace(params, lam=lam) for lam in lambdas]  # ModelParams checks each lam
    refs = {
        lam: _all_config_power_spectra(
            replace(params, lam=lam), disorder, n_periods, initial_config
        )
        for lam in (0.0, 1.0)
    }
    ref_4t, ref_2t = refs[0.0][0], refs[1.0][0]
    initial_value = float(magnetization_weights(params.n_sites)[initial_config])
    shape = (d, len(lambdas))
    fid_4t, fid_2t = np.empty(shape), np.empty(shape)
    undefined_4t, undefined_2t = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    series = []
    for col, lam_params in enumerate(grid):
        evolved = refs.get(lam_params.lam)
        if evolved is None:
            evolved = _all_config_power_spectra(lam_params, disorder, n_periods, initial_config)
        spectra, values = evolved
        series.append(TimeSeries(values, lam_params.period, initial_config, initial_value))
        for ref, fid, undefined in ((ref_4t, fid_4t, undefined_4t), (ref_2t, fid_2t, undefined_2t)):
            fid[:, col], norms = _fidelities(ref, spectra)
            undefined[:, col] = norms <= UNDEFINED_FIDELITY_RTOL * norms.max()
    return FidelityMaps(
        lambdas=lambdas,
        fid_4t=fid_4t,
        fid_2t=fid_2t,
        undefined_4t=undefined_4t,
        undefined_2t=undefined_2t,
        series=series,
    )


def walk_populations(
    params: ModelParams,
    disorder: DisorderRealization,
    initial_config: int,
    n_periods: int,
) -> WalkRecord:
    """Quantum walk over configurations: populations after each period."""
    return WalkRecord(populations=_config_populations(params, disorder, initial_config, n_periods))


def walk_support(record: WalkRecord, threshold: float = 1e-3) -> int:
    """Number of configurations whose population ever exceeds the threshold."""
    return int(np.sum(record.populations.max(axis=0) > threshold))
