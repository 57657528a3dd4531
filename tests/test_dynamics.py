import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcmorph.dynamics import (
    TimeSeries,
    column_blocks,
    dft,
    evolve_stroboscopic,
    fidelity_map,
    magnetization_series,
    power_spectrum,
    walk_populations,
    walk_support,
)
import dtcmorph.dynamics as dynamics_module
from dtcmorph.errors import ValidationError
from dtcmorph.floquet import (
    fast_floquet_operator,
    floquet_factors,
    kron_dims,
    stripped_floquet_powers,
    stripped_gates,
)
from dtcmorph.hamiltonians import default_params, sample_disorder
from dtcmorph.spins import (
    BLOCK_COLS,
    basis_state,
    check_norm_deviation,
    magnetization_weights,
    norm_deviation,
)

# the lam=0 drive walks the fully polarized state around a 4-configuration
# cycle: all-up -> odd sites down -> all-down -> even sites down -> all-up
CYCLE_8 = [0, 0b10101010, 0b11111111, 0b01010101]


def direct_dft(values):
    """O(n^2) evaluation of the m = 1..n transform, the test oracle."""
    n = len(values)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for m in range(1, n + 1):
            out[k] += np.exp(-2j * np.pi * k * m / n) * values[m - 1]
    return out / n


def series_of(values, period=1.0):
    return TimeSeries(
        values=np.asarray(values, dtype=float),
        period=period,
        initial_value=0.0,
    )


def test_evolve_identity():
    psi = basis_state(3, 5)
    states = evolve_stroboscopic(np.eye(8, dtype=complex), psi, 5)
    assert states.shape == (6, 8)
    assert np.allclose(states, psi[None, :])


def test_evolve_rejects_negative():
    with pytest.raises(ValueError):
        evolve_stroboscopic(np.eye(2, dtype=complex), basis_state(1, 0), -1)


def test_evolve_norm_drift_over_thousand_periods():
    p = default_params(4, 0.7)
    f = fast_floquet_operator(floquet_factors(p, sample_disorder(p, 2)))
    states = evolve_stroboscopic(f, basis_state(4, 3), 1000)
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_crystal_cycle_dominant_configurations():
    p = default_params(8, 0.0)
    f = fast_floquet_operator(floquet_factors(p, sample_disorder(p, 11)))
    states = evolve_stroboscopic(f, basis_state(8, 0), 8)
    for m in range(9):
        probs = np.abs(states[m]) ** 2
        expected = CYCLE_8[m % 4]
        assert np.argmax(probs) == expected
        assert probs[expected] > 0.999


def test_series_crystal_period_four():
    p = default_params(8, 0.0)
    series = magnetization_series(p, sample_disorder(p, 23), 0, 12)
    assert series.initial_value == pytest.approx(1.0)
    expected = np.tile([0.0, -1.0, 0.0, 1.0], 3)
    assert np.max(np.abs(series.values - expected)) < 1e-9


def test_series_recrystallized_alternates():
    p = default_params(8, 1.0)
    series = magnetization_series(p, sample_disorder(p, 40), 0, 10)
    expected = np.array([(-1.0) ** m for m in range(1, 11)])
    assert np.max(np.abs(series.values - expected)) < 1e-9


def test_series_length_contract():
    p = default_params(4, 0.5)
    series = magnetization_series(p, sample_disorder(p, 1), 0, 1)
    assert len(series.values) == 1


def test_dft_constant_series():
    spectrum = dft(np.full(16, 0.37))
    assert spectrum[0] == pytest.approx(0.37, abs=1e-12)
    assert np.max(np.abs(spectrum[1:])) < 1e-12


def test_dft_alternating_series():
    n = 16
    values = np.array([(-1.0) ** m for m in range(1, n + 1)])
    spectrum = dft(values)
    assert spectrum[n // 2] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(spectrum, n // 2)
    assert np.max(np.abs(others)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
def test_dft_matches_direct_oracle(seed, n):
    values = np.random.default_rng(seed).normal(size=n)
    assert np.max(np.abs(dft(values) - direct_dft(values))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
def test_power_spectrum_parseval(seed, n):
    values = np.random.default_rng(seed).normal(size=n)
    spectrum = power_spectrum(series_of(values))
    assert spectrum.values.sum() == pytest.approx(np.mean(values**2), abs=1e-9)


def test_power_spectrum_crystal_peaks():
    p = default_params(8, 0.0)
    series = magnetization_series(p, sample_disorder(p, 3), 0, 64)
    spectrum = power_spectrum(series)
    assert spectrum.values[16] == pytest.approx(0.25, abs=1e-9)
    assert spectrum.values[48] == pytest.approx(0.25, abs=1e-9)
    assert np.max(np.delete(spectrum.values, [16, 48])) < 1e-9
    assert spectrum.frequencies[16] == pytest.approx(2 * np.pi * 16 / 64)


def test_power_spectrum_zero_series():
    spectrum = power_spectrum(series_of(np.zeros(8)))
    assert np.all(spectrum.values == 0.0)


def fidelity(a, b):
    return dynamics_module._fidelities(np.asarray(a), np.asarray(b))[0]


def test_fidelity_basic_properties():
    v = np.array([0.2, 0.0, 0.8])
    assert fidelity(v, v) == pytest.approx(1.0)
    assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
    for a, b in ((np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3))):
        fid, norms = dynamics_module._fidelities(a, b)
        assert (fid, norms) == (0.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
def test_fidelity_symmetric_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.01, 1, 16)
    b = rng.uniform(0.01, 1, 16)
    fab = fidelity(a, b)
    assert 0.0 <= fab <= 1.0
    assert fidelity(b, a) == pytest.approx(fab)
    assert fidelity(scale * a, b) == pytest.approx(fab, abs=1e-9)


def test_fidelity_columnwise_matches_scalar_calls():
    rng = np.random.default_rng(8)
    ref, spectra = rng.random((2, 16, 7))
    together = fidelity(ref, spectra)
    assert together.shape == (7,)
    for j in range(7):
        a, b = ref[:, j], spectra[:, j]
        assert abs(together[j] - fidelity(a, b)) <= 1e-15
        oracle = np.sqrt(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(together[j] - oracle) <= 1e-15
    spectra[:, 3] = 0.0
    fid, norms = dynamics_module._fidelities(ref, spectra)
    assert (fid[3], norms[3]) == (0.0, 0.0)
    assert np.array_equal(np.delete(fid, 3), np.delete(together, 3))


def test_fidelity_map_reference_columns():
    p = default_params(4, 0.0)
    disorder = sample_disorder(p, 6)
    maps = fidelity_map(p, disorder, [0.0, 0.4, 1.0], 16)
    assert maps.fid_4t.shape == (16, 3)
    assert np.allclose(maps.fid_4t[:, 0], 1.0, atol=1e-12)
    assert np.allclose(maps.fid_2t[:, 2], 1.0, atol=1e-12)
    assert np.all(maps.fid_4t >= 0) and np.all(maps.fid_4t <= 1)


def test_fidelity_map_melting_reduces_crystal_fidelity():
    # measured at build time: ~0.996 at lam=0.05 vs ~0.12 at lam=0.5
    p = default_params(8, 0.0)
    disorder = sample_disorder(p, 42)
    maps = fidelity_map(p, disorder, [0.05, 0.5], 64)
    assert maps.fid_4t[0, 1] < maps.fid_4t[0, 0]


def test_fidelity_map_rejects_bad_grid():
    p = default_params(4, 0.0)
    with pytest.raises(ValueError):
        fidelity_map(p, sample_disorder(p, 0), [0.0, 1.2], 8)


def test_fidelity_map_checks_its_inputs_before_any_evolution(monkeypatch):
    p = default_params(4, 0.0)
    calls = []
    monkeypatch.setattr(dynamics_module, "_all_config_power_spectra",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="lam must lie in"):
        fidelity_map(p, sample_disorder(p, 0), [0.5, -0.1], 8)
    with pytest.raises(ValueError, match="n_periods"):
        fidelity_map(p, sample_disorder(p, 0), [0.5], 0)
    for config in (-1, 16):
        with pytest.raises(ValueError, match=f"configuration {config} outside"):
            fidelity_map(p, sample_disorder(p, 0), [0.5], 8, initial_config=config)
    assert calls == []


def test_walk_initial_row_is_indicator():
    p = default_params(4, 0.3)
    populations = walk_populations(p, sample_disorder(p, 9), 6, 5)
    expected = np.zeros(16)
    expected[6] = 1.0
    assert np.allclose(populations[0], expected)


def test_walk_rows_are_probabilities():
    p = default_params(6, 0.5)
    populations = walk_populations(p, sample_disorder(p, 13), 0, 30)
    assert populations.shape == (31, 64)
    assert np.all(populations >= 0)
    assert np.allclose(populations.sum(axis=1), 1.0, atol=1e-9)


def test_walk_crystal_supports():
    p0 = default_params(8, 0.0)
    populations = walk_populations(p0, sample_disorder(p0, 19), 0, 40)
    assert walk_support(populations, 1e-3) == 4
    peak = populations.max(axis=0)
    for config in CYCLE_8:
        assert peak[config] > 0.999
    p1 = default_params(8, 1.0)
    populations1 = walk_populations(p1, sample_disorder(p1, 19), 0, 40)
    assert walk_support(populations1, 1e-3) == 2
    assert populations1.max(axis=0)[0b11111111] > 0.999


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_walk_populations_are_the_squared_stroboscopic_states(n_sites, lam):
    # the series is bitwise the magnetization of the walk's rows; the rows
    # themselves are checked against the dense propagator in
    # test_factor_evolution_matches_dense_propagator
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 4)
    populations = walk_populations(p, disorder, 1, 30)
    series = magnetization_series(p, disorder, 1, 30)
    assert np.array_equal(series.values, (populations @ magnetization_weights(n_sites))[1:])


# traced allocations of a walk beyond its (n+1, D) populations, in complex
# D-vectors: the state, the factors and gate temporaries, not a complex
# (n+1, D) stack of states (401 vectors here)
WALK_EXTRA_VECTORS = 64


def test_walk_keeps_populations_only():
    p = default_params(8, 0.5)
    disorder = sample_disorder(p, 6)
    walk_populations(p, disorder, 0, 2)  # caches and first-call set-up
    tracemalloc.start()
    try:
        populations = walk_populations(p, disorder, 0, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert populations.shape == (401, p.dim)
    assert peak < populations.nbytes + WALK_EXTRA_VECTORS * p.dim * 16


def test_corrupted_factor_trips_the_norm_check(corrupt_factors):
    p = default_params(6, 0.5)
    disorder = sample_disorder(p, 3)
    corrupt_factors("u3")
    with pytest.raises(ValidationError):
        walk_populations(p, disorder, 0, 40)
    with pytest.raises(ValidationError):
        magnetization_series(p, disorder, 0, 40)


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_factor_evolution_matches_dense_propagator(n_sites, lam):
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 21)
    config = 5 % p.dim
    f = fast_floquet_operator(floquet_factors(p, disorder))
    dense = evolve_stroboscopic(f, basis_state(n_sites, config), 40)
    populations = walk_populations(p, disorder, config, 40)
    assert np.allclose(populations, np.abs(dense) ** 2, rtol=0, atol=1e-12)


def test_dft_columns_match_single_series():
    rng = np.random.default_rng(4)
    block = rng.normal(size=(24, 5))
    together = dft(block)
    for j in range(5):
        assert np.array_equal(together[:, j], dft(block[:, j]))


@pytest.mark.parametrize("n_sites", [2, 4, 8])
def test_map_spectra_are_bitwise_the_power_spectra_of_their_series(n_sites):
    p = default_params(n_sites, 0.0)
    disorder = sample_disorder(p, 9)
    lambdas = np.linspace(0.0, 1.0, 21)
    half_down = (1 << (n_sites // 2)) - 1  # zero magnetization: series identically 0 at lam = 1
    for config in (0, half_down):
        maps = fidelity_map(p, disorder, lambdas, 32, initial_config=config)
        assert len(maps.spectra) == len(maps.series) == len(lambdas)
        for series, spectrum in zip(maps.series, maps.spectra):
            expected = power_spectrum(series)
            assert np.array_equal(spectrum.values, expected.values)
            assert np.array_equal(spectrum.frequencies, expected.frequencies)
        if config == half_down:  # the last grid point is lam = 1
            assert np.max(np.abs(maps.series[-1].values)) <= 1e-12
            assert np.max(maps.spectra[-1].values) <= 1e-24


def dense_power_spectra(params, disorder, n_periods):
    """The all-configuration spectra from powers of dense F, the oracle of the factor route."""
    f = fast_floquet_operator(floquet_factors(params, disorder))
    weights = magnetization_weights(params.n_sites)
    states = np.eye(params.dim, dtype=complex)
    magnetizations = np.empty((n_periods, params.dim))
    for m in range(n_periods):
        states = f @ states
        magnetizations[m] = weights @ (np.abs(states) ** 2)
    return np.abs(dft(magnetizations)) ** 2


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_all_config_power_spectra_match_dense_powers(n_sites, lam):
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 5)
    expected = dense_power_spectra(p, disorder, 32)
    got, _ = dynamics_module._all_config_power_spectra(p, disorder, 32, 0, 1, None)
    assert got.shape == expected.shape == (32, p.dim)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_fidelity_map_reuses_endpoint_spectra(monkeypatch):
    p = default_params(4, 0.0)
    disorder = sample_disorder(p, 6)
    lambdas = [0.0, 0.3, 0.6, 1.0]
    expected = fidelity_map(p, disorder, lambdas, 16)
    calls = []
    real = dynamics_module._all_config_power_spectra

    def counting(params, *args):
        calls.append(params.lam)
        return real(params, *args)

    monkeypatch.setattr(dynamics_module, "_all_config_power_spectra", counting)
    maps = fidelity_map(p, disorder, lambdas, 16)
    assert sorted(calls) == [0.0, 0.3, 0.6, 1.0]
    assert np.array_equal(maps.fid_4t, expected.fid_4t)
    assert np.array_equal(maps.fid_2t, expected.fid_2t)


def zero_series_configs(n_sites, lam):
    """Configurations whose magnetization series is identically 0 at lam = 0 or 1.

    At both endpoints F maps each configuration to one configuration: at lam = 1
    it flips every site, at lam = 0 it flips the odd sites and swaps the dimers.
    """
    d = 1 << n_sites
    odd = sum(1 << bit for bit in range(0, n_sites, 2))

    def magnetization(c):
        return n_sites - 2 * bin(c).count("1")

    def step(c):
        if lam == 1.0:
            return c ^ (d - 1)
        c ^= odd
        low, high = c & odd, (c >> 1) & odd
        return (low << 1) | high

    zero = set()
    for c in range(d):
        orbit = [c]
        for _ in range(3):
            orbit.append(step(orbit[-1]))
        if all(magnetization(x) == 0 for x in orbit):
            zero.add(c)
    return zero


def test_undefined_fidelities_are_the_zero_series():
    p = default_params(8, 0.0)
    maps = fidelity_map(p, sample_disorder(p, 42), [0.0, 1.0], 64)
    z0, z1 = zero_series_configs(8, 0.0), zero_series_configs(8, 1.0)
    assert (len(z0), len(z1)) == (36, 70)
    flags = {
        "4t": [z0, z0 | z1],  # columns lam = 0, 1 against the lam = 0 reference
        "2t": [z0 | z1, z1],
    }
    for name, undefined in (("4t", maps.undefined_4t), ("2t", maps.undefined_2t)):
        for col, expected in enumerate(flags[name]):
            assert set(np.flatnonzero(undefined[:, col])) == expected
    assert (maps.undefined_4t.sum(), maps.undefined_2t.sum()) == (36 + 70, 70 + 70)


def test_fidelity_map_checks_the_all_configuration_norm(corrupt_factors):
    # each period applies the phases once, so 8 periods drift by 1.001^8 - 1
    p = default_params(4, 0.0)
    corrupt_factors("phases")
    with pytest.raises(ValidationError, match="state norm deviates from 1 by 8.028e-03"):
        fidelity_map(p, sample_disorder(p, 2), [0.0, 0.5, 1.0], 8)


def test_column_blocks_split_the_high_kronecker_index():
    # a block is max(1, 64 // d_lo) high indices: N = 12: d_hi = d_lo = 64;
    # N = 10: d_hi = 64, d_lo = 16; N = 8: d_hi = d_lo = 16; N = 6: d_hi = 16,
    # d_lo = 4; N = 4: d_hi = d_lo = 4; N = 2: d_hi = 4, d_lo = 1
    assert column_blocks(12) == [range(i, i + 1) for i in range(64)]
    assert column_blocks(10) == [range(i, i + 4) for i in range(0, 64, 4)]
    assert column_blocks(8) == [range(0, 4), range(4, 8), range(8, 12), range(12, 16)]
    assert column_blocks(6) == [range(16)]  # D = 64: one block
    assert column_blocks(4) == [range(4)]
    assert column_blocks(2) == [range(4)]
    for n_sites in range(2, 13, 2):
        d_hi, d_lo = kron_dims(n_sites)
        blocks = column_blocks(n_sites)
        assert [i for block in blocks for i in block] == list(range(d_hi))
        assert {len(block) * d_lo for block in blocks} == {min(BLOCK_COLS, 1 << n_sites)}


def blocked_power_spectra(params, disorder, n_periods, workers):
    """`_all_config_power_spectra` on `workers` threads, as `fidelity_map` runs it."""
    if workers == 1:
        return dynamics_module._all_config_power_spectra(params, disorder, n_periods, 3, 1, None)
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        return dynamics_module._all_config_power_spectra(
            params, disorder, n_periods, 3, workers, pool
        )


def whole_power_spectra(params, disorder, n_periods):
    """The spectra and the configuration-3 series from one whole-D `stripped_floquet_powers`,
    its magnetizations the up- minus the down-weighted sums of the squared planes."""
    weights = dynamics_module._signed_weights(params.n_sites)
    magnetizations = np.empty((n_periods, params.dim))
    gates = stripped_gates(floquet_factors(params, disorder))
    for m, (planes, _) in enumerate(stripped_floquet_powers(gates, n_periods)):
        squares = np.square(planes).reshape(2 * params.dim, -1)
        magnetizations[m] = weights[0] @ squares - weights[1] @ squares
    return np.abs(dft(magnetizations)) ** 2, magnetizations[:, 3]


@pytest.mark.parametrize("n_sites, n_periods", [(4, 32), (6, 32), (8, 32), (10, 8)])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_column_blocks_are_bitwise_the_whole_evolution(n_sites, n_periods, lam):
    # N = 8 and 10 have 4 and 16 blocks; N = 4 and 6 are one block
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 8)
    spectra, series = whole_power_spectra(p, disorder, n_periods)
    # up to 4 threads on the shared magnetization array, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3, 4):
            blocked_spectra, blocked_series = blocked_power_spectra(p, disorder, n_periods, workers)
            assert np.array_equal(blocked_spectra, spectra), workers
            assert np.array_equal(blocked_series, series), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_all_config_evolution_peak_is_workers_times_a_block(workers):
    # one lambda at N = 10 (D = 1024, 16 blocks of 64 columns), 8 periods.
    # Each worker holds one block's two real (planes, spare) buffers, each
    # the size of a complex D x 64 one; all share real_lo (4 D d_lo reals,
    # 2 d_lo complex D-length columns) and the (n, D) magnetizations and
    # their transform, under 4 complex (n, D) arrays. Evolving every column
    # at once peaked at 2.5 D x D buffers, 40 block buffers, whatever the
    # workers.
    n_sites, n_periods = 10, 8
    p = default_params(n_sites, 0.5)
    disorder = sample_disorder(p, 3)
    blocked_power_spectra(p, disorder, n_periods, workers)  # caches and first-call set-up
    tracemalloc.start()
    try:
        blocked_power_spectra(p, disorder, n_periods, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = 2 * workers * BLOCK_COLS + 2 * kron_dims(n_sites)[1] + 4 * n_periods
    assert peak <= columns * p.dim * 16


def test_norm_drift_names_the_largest_deviation_over_every_block(monkeypatch):
    # at lam = 1, F flips every site, so column c visits c and its complement
    # only; the phases drift most on high Kronecker indices 4..11, so of the 4
    # blocks at N = 8 the largest deviation lies in blocks 1 and 2. The
    # threads take the blocks one at a time, so with 2 to 4 workers which
    # thread evolves blocks 1 and 2 depends on scheduling
    real = dynamics_module.floquet_factors
    n_sites, d_lo = 8, 16

    def drifting(params, disorder):
        factors = real(params, disorder)
        if params.lam != 1.0:
            return factors
        high = np.arange(params.dim) // d_lo
        scale = np.where((high >= 4) & (high < 12), 1.001, 1.0005)
        return dataclasses.replace(factors, phases=factors.phases * scale)

    monkeypatch.setattr(dynamics_module, "floquet_factors", drifting)
    p = default_params(n_sites, 0.3)
    disorder = sample_disorder(p, 2)
    messages = set()
    for workers in (1, 2, 3, 4):
        with pytest.raises(ValidationError) as info:
            fidelity_map(p, disorder, [0.3], 8, workers=workers)
        messages.add(str(info.value))
    (message,) = messages
    gates = stripped_gates(drifting(dataclasses.replace(p, lam=1.0), disorder))
    for planes, _ in stripped_floquet_powers(gates, 8):
        pass
    states = (planes[:, 0] + 1j * planes[:, 1]).reshape(p.dim, -1)
    drift = np.abs(np.linalg.norm(states, axis=0) - 1.0)
    blocks = column_blocks(n_sites)
    for block in (blocks[0], blocks[3]):
        assert drift[block.start * d_lo:block.stop * d_lo].max() < drift.max()
    with pytest.raises(ValidationError) as info:
        check_norm_deviation(norm_deviation(states))
    assert str(info.value) == message
    assert "8.028e-03" in message  # 1.001^8 - 1


def test_one_worker_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(dynamics_module, "ThreadPoolExecutor", refuse)
    p = default_params(4, 0.0)
    disorder = sample_disorder(p, 1)
    assert fidelity_map(p, disorder, [0.0, 0.5], 8, workers=1).workers == 1
    # N <= 6 is one block whatever the worker count
    for n_sites in (2, 4, 6):
        p = default_params(n_sites, 0.0)
        assert fidelity_map(p, sample_disorder(p, 1), [0.5], 8, workers=4).workers == 1


def test_fidelity_map_pool_is_smaller_than_its_block_count(monkeypatch):
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(dynamics_module, "ThreadPoolExecutor", Recording)
    p = default_params(8, 0.0)
    disorder = sample_disorder(p, 1)
    maps = fidelity_map(p, disorder, [0.0, 0.5, 1.0], 8, workers=9)
    # N = 8 has 4 blocks: 4 workers, the calling thread and 3 pool threads
    assert (maps.workers, sizes) == (4, [3])
    sizes.clear()
    assert fidelity_map(p, disorder, [0.5], 8, workers=2).workers == 2
    assert sizes == [1]


def test_no_thread_outlives_fidelity_map():
    p = default_params(8, 0.3)
    disorder = sample_disorder(p, 4)
    before = threading.active_count()
    maps = fidelity_map(p, disorder, [0.0, 0.3, 1.0], 8, workers=3)
    assert maps.workers == 3
    assert threading.active_count() == before
