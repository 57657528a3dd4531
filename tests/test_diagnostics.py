import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dtcmorph.diagnostics import (
    gap_ratios,
    mean_gap_ratio,
    ratio_histogram,
    reference_density,
    state_fractal_dimensions,
)
from dtcmorph.floquet import (
    FloquetResult,
    diagonalize_floquet,
    fast_floquet_operator,
    floquet_factors,
)
from dtcmorph.hamiltonians import default_params, sample_disorder


# --- gap ratios ---------------------------------------------------------


def test_gap_ratios_equally_spaced():
    sample = gap_ratios(np.array([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(sample.ratios, 1.0)


def test_gap_ratios_hand_value():
    sample = gap_ratios(np.array([0.0, 1.0, 3.0]))
    assert np.allclose(sample.ratios, [0.5])


def test_gap_ratios_count_contract():
    eps = np.sort(np.random.default_rng(0).uniform(-np.pi, np.pi, 256))
    assert len(gap_ratios(eps).ratios) == 254


def test_gap_ratios_degenerate_rules():
    # double zero gap pins the ratio to 1, a single zero gap to 0
    both = gap_ratios(np.array([1.0, 1.0, 1.0]))
    assert both.ratios[0] == 1.0
    assert both.double_degenerate == 1
    single = gap_ratios(np.array([1.0, 1.0, 2.0]))
    assert single.ratios[0] == 0.0
    assert single.single_degenerate == 1


def test_gap_ratios_rejects_unsorted_or_short():
    with pytest.raises(ValueError):
        gap_ratios(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        gap_ratios(np.array([0.0, 1.0]))


@pytest.mark.parametrize("levels", [[0.0, np.nan, 1.0, 2.0], [0.0, 1.0, np.inf], [np.nan] * 4])
def test_gap_ratios_rejects_non_finite_levels(levels):
    # a NaN gap fails every comparison, so an ascending check by "delta < 0"
    # let it through and returned NaN ratios
    with pytest.raises(ValueError, match="finite and sorted ascending"):
        gap_ratios(np.array(levels))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-10, 10),
    scale=st.floats(0.01, 100),
)
def test_gap_ratios_translation_and_scale_invariance(seed, shift, scale):
    eps = np.sort(np.random.default_rng(seed).uniform(0, 1, 32))
    base = gap_ratios(eps).ratios
    shifted = gap_ratios(eps + shift).ratios
    scaled = gap_ratios(eps * scale).ratios
    assert np.allclose(base, shifted, atol=1e-7)
    assert np.allclose(base, scaled, atol=1e-9)
    assert np.all(base >= 0.0) and np.all(base <= 1.0)


# --- reference densities -------------------------------------------------


def test_density_values_at_zero():
    assert reference_density("poisson", 0.0) == pytest.approx(2.0)
    assert reference_density("goe", 0.0) == pytest.approx(0.0)
    assert reference_density("coe", 0.0) == pytest.approx(0.0)


def test_coe_density_value_at_one():
    # closed form gives exactly 5/6 at r = 1
    assert reference_density("coe", 1.0) == pytest.approx(5.0 / 6.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["poisson", "goe", "coe"])
def test_densities_normalized(kind):
    integral, _ = quad(lambda r: reference_density(kind, r), 0.0, 1.0, limit=200)
    assert abs(integral - 1.0) < 1e-6


@pytest.mark.parametrize("kind", ["poisson", "goe", "coe"])
def test_densities_nonnegative(kind):
    grid = np.linspace(0.0, 1.0, 501)
    assert np.all(reference_density(kind, grid) >= -1e-12)


def test_coe_density_matches_surmise_integral():
    # independent oracle: quadrature of the 3-eigenphase circular-ensemble
    # surmise integrand s*sin(rs/2)*sin(s/2)*sin((1+r)s/2) over its support
    def direct(r):
        upper = 2 * np.pi / (1 + r)
        val, _ = quad(
            lambda s: s * np.sin(r * s / 2) * np.sin(s / 2) * np.sin((1 + r) * s / 2),
            0.0,
            upper,
        )
        return val

    norm, _ = quad(direct, 0.0, 1.0, limit=200)
    for r in (0.05, 0.2, 0.5, 0.8, 1.0):
        assert reference_density("coe", r) == pytest.approx(direct(r) / norm, abs=1e-9)


def test_density_rejects_bad_input():
    with pytest.raises(ValueError):
        reference_density("poisson", 1.5)
    for kind in ("poisson", "goe", "coe"):
        for r in (float("nan"), np.array([0.5, np.nan]), float("inf")):
            with pytest.raises(ValueError, match=r"r must lie in \[0, 1\]"):
                reference_density(kind, r)
    with pytest.raises(ValueError):
        reference_density("gue", 0.5)


def test_mean_gap_ratio_references():
    assert mean_gap_ratio("poisson") == pytest.approx(2 * np.log(2) - 1, abs=1e-9)
    assert mean_gap_ratio("goe") == pytest.approx(4 - 2 * np.sqrt(3), abs=1e-9)
    # quadrature constant of the circular-orthogonal surmise, pinned
    assert mean_gap_ratio("coe") == pytest.approx(0.5269216860, abs=1e-6)


# --- fractal dimensions --------------------------------------------------


def result_with_states(states):
    return FloquetResult(
        quasienergies=np.zeros(states.shape[1]), states=states, period=1.0, route="cayley"
    )


def spread_columns(d, sizes):
    """One column per size k, spread evenly over the first k of d configurations."""
    states = np.zeros((d, len(sizes)), dtype=complex)
    for col, k in enumerate(sizes):
        states[:k, col] = 1 / np.sqrt(k)
    return states


def test_participation_ratio_limits():
    # the participation ratio of a state is D ** D_2: 1 for a basis state, D if uniform
    d = 16
    states = np.zeros((d, 3), dtype=complex)
    states[3, 0] = 1.0
    states[:, 1] = 1 / np.sqrt(d)
    states[[1, 5], 2] = 1 / np.sqrt(2)
    dims = state_fractal_dimensions(result_with_states(states))
    assert d**dims == pytest.approx([1.0, d, 2.0])


def test_fractal_dimension_limits():
    # hand-built D = 256: a basis column, a uniform column, 16 configurations
    dims = state_fractal_dimensions(result_with_states(spread_columns(256, [1, 256, 16])))
    assert dims[0] == 0.0
    assert dims[1] == pytest.approx(1.0)
    assert dims[2] == pytest.approx(0.5)


def test_fractal_dimension_monotone():
    # column k spreads evenly over 2^k of the D = 256 configurations: ln 2^k / ln 256 = k / 8
    dims = state_fractal_dimensions(
        result_with_states(spread_columns(256, [1 << k for k in range(9)]))
    )
    assert np.all(np.diff(dims) > 0)
    assert dims == pytest.approx(np.arange(9) / 8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_state_fractal_dimensions_invariances(seed):
    rng = np.random.default_rng(seed)
    d = 256
    states = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    states /= np.linalg.norm(states, axis=0)
    base = state_fractal_dimensions(result_with_states(states))
    permuted = states[rng.permutation(d)]
    rephased = states * np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    assert state_fractal_dimensions(result_with_states(permuted)) == pytest.approx(base)
    assert state_fractal_dimensions(result_with_states(rephased)) == pytest.approx(base)


def test_melted_states_more_fractal_than_crystal():
    seed = 14
    means = {}
    for lam in (0.001, 0.5):
        p = default_params(8, lam)
        factors = floquet_factors(p, sample_disorder(p, seed))
        res = diagonalize_floquet(fast_floquet_operator(factors), factors, p.period)
        means[lam] = float(np.mean(state_fractal_dimensions(res)))
    assert means[0.5] > means[0.001]


# --- histograms ------------------------------------------------------------


def test_ratio_histogram_density_normalized():
    rng = np.random.default_rng(8)
    hist = ratio_histogram(rng.uniform(0, 1, 500), bins=20)
    width = hist.edges[1] - hist.edges[0]
    assert hist.density.sum() * width == pytest.approx(1.0, abs=1e-9)
    assert len(hist.counts) == 20
    assert hist.counts.sum() == 500


@pytest.mark.parametrize("ratios", [[0.5, 1.5, np.nan], [0.5, np.nan], [-0.1, 0.5], [0.5, 1.5]])
def test_ratio_histogram_rejects_ratios_it_cannot_count(ratios):
    # np.histogram drops values outside its range, NaN included, and the
    # density would be normalized over the ones it kept
    with pytest.raises(ValueError, match=r"ratios must lie in \[0, 1\]"):
        ratio_histogram(np.array(ratios), bins=2)


def test_ratio_histogram_counts_both_ends():
    hist = ratio_histogram(np.array([0.0, 0.5, 1.0]), bins=2)
    assert hist.counts.tolist() == [1, 2]


def test_ratio_histogram_empty():
    hist = ratio_histogram(np.array([]), bins=10)
    assert hist.counts.sum() == 0
    assert np.all(hist.density == 0.0)
