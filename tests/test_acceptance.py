"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria use n_sites = 8
(256 levels) unless stated. One small propagator is built before any timed
criterion so first-call library set-up never counts against a runtime bound.
"""

import time

import numpy as np
import pytest

import dtcmorph.cli as cli
from dtcmorph.diagnostics import mean_gap_ratio, reference_density
from dtcmorph.dynamics import (
    evolve_stroboscopic,
    magnetization_series,
    power_spectrum,
    walk_populations,
)
from dtcmorph.ensemble import SweepPlan, aggregate_fractal, pooled_mean_ratios, run_sweep
from dtcmorph.floquet import (
    diagonalize_floquet,
    fast_floquet_operator,
    floquet_factors,
    floquet_operator,
)
from dtcmorph.hamiltonians import default_params, sample_disorder
from dtcmorph.spins import basis_state, local_magnetization, max_unitarity_defect

N_SITES = 8
DIM = 1 << N_SITES
CYCLE = [0, 0b10101010, 0b11111111, 0b01010101]


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # the first call pays for lazy LAPACK/einsum set-up; keep it out of every budget
    params = default_params(2, 0.5)
    fast_floquet_operator(floquet_factors(params, sample_disorder(params, 0)))


def report(criterion: int, checks: list[tuple[str, bool]], elapsed: float, budget: float):
    failed = [name for name, ok in checks if not ok]
    timed_out = elapsed >= budget
    status = "PASS" if not failed and not timed_out else "FAIL"
    detail = f"{len(checks) - len(failed)}/{len(checks)} checks, {elapsed:.1f}s (budget {budget:.0f}s)"
    print(f"ACCEPTANCE CRITERION {criterion}: {status} [{detail}]")
    assert not failed, f"criterion {criterion} failed checks: {failed}"
    assert not timed_out, f"criterion {criterion} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_crystal_cycle_periodicity():
    start = time.perf_counter()
    params = default_params(N_SITES, 0.0)
    disorder = sample_disorder(params, 2026)
    f = fast_floquet_operator(floquet_factors(params, disorder))
    states = evolve_stroboscopic(f, basis_state(N_SITES, 0), 4)
    checks = []
    for m, state in enumerate(states):
        probs = np.abs(state) ** 2
        expected = CYCLE[m % 4]
        checks.append(
            (f"step {m} dominant config {expected}", int(np.argmax(probs)) == expected)
        )
        checks.append((f"step {m} dominant probability", probs[expected] > 0.999))
    site_drift = max(
        abs(local_magnetization(states[4], l) - local_magnetization(states[0], l))
        for l in range(1, N_SITES + 1)
    )
    checks.append(("per-site magnetization returns after 4 periods", site_drift < 1e-9))
    report(1, checks, time.perf_counter() - start, budget=1.0)


def test_criterion_2_recrystallized_alternation():
    start = time.perf_counter()
    params = default_params(N_SITES, 1.0)
    disorder = sample_disorder(params, 515)
    series = magnetization_series(params, disorder, 0, 32)
    expected = np.array([(-1.0) ** m for m in range(1, 33)])
    deviation = float(np.max(np.abs(series.values - expected)))
    report(
        2,
        [("magnetization alternates as (-1)^m within 1e-9", deviation < 1e-9)],
        time.perf_counter() - start,
        budget=1.0,
    )


def test_criterion_3_power_spectrum_peaks():
    start = time.perf_counter()
    n = 64
    checks = []

    params0 = default_params(N_SITES, 0.0)
    spectrum0 = power_spectrum(
        magnetization_series(params0, sample_disorder(params0, 8), 0, n)
    ).values
    checks.append(("bin 16 equals 0.25", abs(spectrum0[16] - 0.25) < 1e-9))
    checks.append(("bin 48 equals 0.25", abs(spectrum0[48] - 0.25) < 1e-9))
    checks.append(
        ("all other bins below 1e-9", float(np.max(np.delete(spectrum0, [16, 48]))) < 1e-9)
    )

    params1 = default_params(N_SITES, 1.0)
    spectrum1 = power_spectrum(
        magnetization_series(params1, sample_disorder(params1, 8), 0, n)
    ).values
    checks.append(("bin 32 equals 1", abs(spectrum1[32] - 1.0) < 1e-9))
    checks.append(
        ("all other bins below 1e-9", float(np.max(np.delete(spectrum1, [32]))) < 1e-9)
    )
    report(3, checks, time.perf_counter() - start, budget=1.0)


def _cluster_fraction(quasienergies, centers, period):
    centers = np.asarray(centers)
    dist = np.abs(quasienergies[:, None] - centers[None, :])
    dist = np.minimum(dist, 2 * np.pi / period - dist)
    return float(np.mean(dist.min(axis=1) <= 0.1 * np.pi / period))


def test_criterion_4_quasienergy_clustering():
    start = time.perf_counter()
    fractions = {}
    for lam, centers in ((0.0, [0.0, np.pi / 2, -np.pi / 2, np.pi]), (1.0, [0.0, np.pi])):
        params = default_params(N_SITES, lam)
        per_seed = []
        for seed in range(20):
            factors = floquet_factors(params, sample_disorder(params, seed))
            result = diagonalize_floquet(fast_floquet_operator(factors), factors, params.period)
            per_seed.append(_cluster_fraction(result.quasienergies, centers, params.period))
        fractions[lam] = float(np.mean(per_seed))
    checks = [
        (
            f"lam=0: >=95% within 0.1*pi/T of 4T cluster centers (measured {fractions[0.0]:.4f})",
            fractions[0.0] >= 0.95,
        ),
        (
            f"lam=1: >=95% within 0.1*pi/T of 2T cluster centers (measured {fractions[1.0]:.4f})",
            fractions[1.0] >= 0.95,
        ),
    ]
    report(4, checks, time.perf_counter() - start, budget=30.0)


def test_criterion_5_level_statistics_crossover():
    start = time.perf_counter()
    plan = SweepPlan(
        lambdas=(0.001, 0.5, 0.999),
        realizations=100,
        master_seed=424242,
        base=default_params(N_SITES),
        states=False,
    )
    means = pooled_mean_ratios(run_sweep(plan))
    coe_mean = mean_gap_ratio("coe")
    gap = abs(means[1] - coe_mean)
    checks = [
        (
            f"<r>(0.5)={means[1]:.4f} exceeds <r>(0.999)={means[2]:.4f}",
            means[1] > means[2],
        ),
        (
            f"<r>(0.5)={means[1]:.4f} within 0.03 of COE mean {coe_mean:.4f} (gap {gap:.4f})",
            gap <= 0.03,
        ),
    ]
    report(5, checks, time.perf_counter() - start, budget=300.0)


def test_criterion_6_fractal_dimension_hump():
    start = time.perf_counter()
    plan = SweepPlan(
        lambdas=(0.001, 0.5, 0.999),
        realizations=20,
        master_seed=777,
        base=default_params(N_SITES),
    )
    curve = aggregate_fractal(run_sweep(plan))
    checks = [
        (
            f"d*(0.5)={curve[1]:.3f} exceeds d*(0.001)={curve[0]:.3f}",
            curve[1] > curve[0],
        ),
        (
            f"d*(0.5)={curve[1]:.3f} exceeds d*(0.999)={curve[2]:.3f}",
            curve[1] > curve[2],
        ),
    ]
    report(6, checks, time.perf_counter() - start, budget=120.0)


def test_criterion_7_walk_support():
    start = time.perf_counter()
    supports = {}
    for lam in (0.0, 1.0):
        params = default_params(N_SITES, lam)
        populations = walk_populations(params, sample_disorder(params, 99), 0, 40)
        supports[lam] = int(np.sum(populations.max(axis=0) > 1e-3))
    checks = [
        (f"lam=0 support is exactly 4 (measured {supports[0.0]})", supports[0.0] == 4),
        (f"lam=1 support is exactly 2 (measured {supports[1.0]})", supports[1.0] == 2),
    ]
    report(7, checks, time.perf_counter() - start, budget=5.0)


def test_criterion_8_numerical_core():
    start = time.perf_counter()
    checks = []
    rng = np.random.default_rng(1)

    worst_unitarity = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0, 1))
        seed = int(rng.integers(0, 2**32))
        params = default_params(N_SITES, lam)
        f = fast_floquet_operator(floquet_factors(params, sample_disorder(params, seed)))
        worst_unitarity = max(worst_unitarity, max_unitarity_defect(f))
    checks.append(
        (f"unitarity below 1e-10 over 50 random cells (worst {worst_unitarity:.2e})",
         worst_unitarity < 1e-10)
    )

    worst_fast = 0.0
    for _ in range(10):
        lam = float(rng.uniform(0, 1))
        seed = int(rng.integers(0, 2**32))
        params = default_params(N_SITES, lam)
        disorder = sample_disorder(params, seed)
        fast = fast_floquet_operator(floquet_factors(params, disorder))
        dev = float(np.max(np.abs(floquet_operator(params, disorder) - fast)))
        worst_fast = max(worst_fast, dev)
    checks.append(
        (f"fast path matches dense oracle within 1e-10 (worst {worst_fast:.2e})",
         worst_fast < 1e-10)
    )

    from dtcmorph.dynamics import dft

    worst_dft = 0.0
    for n in (1, 5, 16, 33, 64):
        values = rng.normal(size=n)
        direct = np.array(
            [
                sum(
                    np.exp(-2j * np.pi * k * m / n) * values[m - 1]
                    for m in range(1, n + 1)
                )
                / n
                for k in range(n)
            ]
        )
        worst_dft = max(worst_dft, float(np.max(np.abs(dft(values) - direct))))
    checks.append(
        (f"fft-based transform matches direct sum within 1e-12 (worst {worst_dft:.2e})",
         worst_dft < 1e-12)
    )

    from scipy.integrate import quad

    for kind in ("poisson", "goe", "coe"):
        integral, _ = quad(lambda r: reference_density(kind, r), 0, 1, limit=200)
        checks.append(
            (f"{kind} density integrates to 1 within 1e-6 (got {integral:.8f})",
             abs(integral - 1.0) < 1e-6)
        )
    poisson_mean = mean_gap_ratio("poisson")
    checks.append(
        ("poisson mean ratio equals 2*ln2 - 1 within 1e-9",
         abs(poisson_mean - (2 * np.log(2) - 1)) < 1e-9)
    )
    report(8, checks, time.perf_counter() - start, budget=60.0)


def test_criterion_9_sweep_determinism(tmp_path):
    start = time.perf_counter()
    base = [
        "sweep",
        "--n-sites", "6",
        "--lambdas", "0.2,0.8",
        "--realizations", "3",
        "--seed", "2024",
    ]
    outputs = {}
    for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / tag
        code = cli.main([*base, "--workers", workers, "--out", str(out)])
        assert code == 0
        outputs[tag] = {
            name: (out / name).read_bytes()
            for name in ("sweep_cells.csv", "sweep_mean_ratio.csv", "sweep_fractal.csv")
        }
    checks = [
        ("different worker counts give byte-identical files", outputs["a"] == outputs["b"]),
        ("re-running is byte-identical", outputs["a"] == outputs["c"]),
    ]
    report(9, checks, time.perf_counter() - start, budget=120.0)
