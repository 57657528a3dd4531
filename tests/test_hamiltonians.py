from dataclasses import replace

import numpy as np
import pytest

from dtcmorph.hamiltonians import (
    DisorderRealization,
    build_h1,
    build_h2,
    build_h3,
    default_params,
    sample_disorder,
)
from dtcmorph.spins import max_hermiticity_defect

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def site_operator(op, site, n_sites):
    """Independent kron-product construction; site 1 is the least-significant bit."""
    ops = [np.eye(2, dtype=complex)] * n_sites
    ops[site - 1] = op
    out = ops[-1]
    for factor in reversed(ops[:-1]):
        out = np.kron(out, factor)
    return out


def reference_h1(params):
    d = params.dim
    h = np.zeros((d, d), dtype=complex)
    for site in range(1, params.n_sites + 1):
        coeff = params.g if site % 2 == 1 else params.lam * params.g
        h += coeff * site_operator(SX, site, params.n_sites)
    return h


def reference_h2(params, disorder):
    d = params.dim
    h = np.zeros((d, d), dtype=complex)
    for l in range(1, params.n_sites + 1):
        for m in range(l + 1, params.n_sites + 1):
            coupling = params.j0 / (m - l) ** params.mu
            h += coupling * site_operator(SZ, l, params.n_sites) @ site_operator(
                SZ, m, params.n_sites
            )
        h += (1 - params.lam) * disorder.w[l - 1] * site_operator(SZ, l, params.n_sites)
    return h


def reference_h3(params, disorder):
    d = params.dim
    h = np.zeros((d, d), dtype=complex)
    for k in range(1, params.n_sites // 2 + 1):
        a, b = 2 * k - 1, 2 * k
        h += (1 - params.lam) * params.jxy * (
            site_operator(SX, a, params.n_sites) @ site_operator(SX, b, params.n_sites)
            + site_operator(SY, a, params.n_sites) @ site_operator(SY, b, params.n_sites)
        )
    for l in range(1, params.n_sites + 1):
        h += params.lam * disorder.w[l - 1] * site_operator(SZ, l, params.n_sites)
    return h


def test_default_profile_products():
    p = default_params(8)
    assert p.g * p.t1 == pytest.approx(np.pi / 2, abs=1e-14)
    assert p.j0 * p.t2 == pytest.approx(0.15, abs=1e-14)
    assert p.w * p.t3 == pytest.approx(np.pi, abs=1e-14)
    assert p.jxy * p.t3 == pytest.approx(np.pi / 4, abs=1e-14)
    assert p.mu == 1.51
    assert p.period == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 0, 14, -2])
def test_default_params_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        default_params(n)


def test_params_reject_bad_lambda():
    with pytest.raises(ValueError):
        default_params(4, lam=1.5)


@pytest.mark.parametrize("name", ["t1", "t2", "t3", "g", "j0", "mu", "jxy", "w"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite_couplings(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(default_params(4), **{name: value})


def test_sample_disorder_deterministic():
    p = default_params(8)
    a = sample_disorder(p, 123)
    b = sample_disorder(p, 123)
    assert np.array_equal(a.w, b.w)
    assert a.seed == 123
    assert not np.array_equal(a.w, sample_disorder(p, 124).w)


def test_sample_disorder_zero_bound():
    from dataclasses import replace

    p = replace(default_params(8), w=0.0)
    assert np.all(sample_disorder(p, 5).w == 0.0)


def test_sample_disorder_range_and_mean():
    # law-of-large-numbers check on the sampler: mean over 1e4 draws ~ w/2
    p = default_params(8)
    draws = np.concatenate([sample_disorder(p, s).w for s in range(10_000 // 8 * 2)])
    assert np.all(draws >= 0.0) and np.all(draws <= p.w)
    assert abs(draws.mean() - p.w / 2) < 0.05 * (p.w / 2)


def test_h1_two_sites_lambda_zero():
    p = default_params(2, lam=0.0)
    h1 = build_h1(p)
    assert h1[1, 0] == pytest.approx(p.g)  # flips site 1
    assert h1[2, 0] == 0.0  # site 2 untouched at lam=0
    assert np.trace(h1) == pytest.approx(0.0)


def test_h1_two_sites_lambda_one():
    p = default_params(2, lam=1.0)
    expected = p.g * (site_operator(SX, 1, 2) + site_operator(SX, 2, 2))
    assert np.max(np.abs(build_h1(p) - expected)) < 1e-12


def test_h1_lambda_zero_identity_on_even_sites():
    p = default_params(4, lam=0.0)
    h1 = build_h1(p)
    even_mask = 0b1010
    for a in range(16):
        for b in range(16):
            if (a & even_mask) != (b & even_mask):
                assert h1[a, b] == 0.0


def test_h2_two_sites_hand_values():
    p = default_params(2, lam=0.3)
    disorder = sample_disorder(p, 9)
    h2 = build_h2(p, disorder)
    # |00> has both sigma-z equal +1
    expected = p.j0 + (1 - p.lam) * (disorder.w[0] + disorder.w[1])
    assert h2[0, 0] == pytest.approx(expected, rel=1e-14)
    off_diag = h2 - np.diag(np.diag(h2))
    assert np.all(off_diag == 0.0)


def test_h3_flip_flop_element():
    p = default_params(2, lam=0.25)
    disorder = sample_disorder(p, 4)
    h3 = build_h3(p, disorder)
    # <01|H3|10> in site notation: configurations 2 and 1
    assert h3[2, 1] == pytest.approx(2 * (1 - p.lam) * p.jxy)
    assert h3[1, 2] == pytest.approx(2 * (1 - p.lam) * p.jxy)


def test_h3_diagonal_at_lambda_one():
    p = default_params(4, lam=1.0)
    disorder = sample_disorder(p, 11)
    h3 = build_h3(p, disorder)
    assert np.all(h3 - np.diag(np.diag(h3)) == 0.0)


def test_h3_conserves_total_sz():
    p = default_params(4, lam=0.4)
    disorder = sample_disorder(p, 2)
    h3 = build_h3(p, disorder)
    total_sz = sum(site_operator(SZ, l, 4) for l in range(1, 5))
    comm = h3 @ total_sz - total_sz @ h3
    assert np.max(np.abs(comm)) < 1e-12


@pytest.mark.parametrize("n_sites", [2, 4])
@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
def test_builders_match_kron_oracle(n_sites, lam):
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 31)
    assert np.max(np.abs(build_h1(p) - reference_h1(p))) < 1e-12
    assert np.max(np.abs(build_h2(p, disorder) - reference_h2(p, disorder))) < 1e-12
    assert np.max(np.abs(build_h3(p, disorder) - reference_h3(p, disorder))) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_builders_hermitian(lam):
    p = default_params(6, lam)
    disorder = sample_disorder(p, 8)
    for h in (build_h1(p), build_h2(p, disorder), build_h3(p, disorder)):
        assert max_hermiticity_defect(h) < 1e-12


def test_builders_linear_in_lambda():
    lam = 0.643
    p = default_params(4, lam)
    disorder = sample_disorder(p, 17)
    for build in (build_h1, lambda q: build_h2(q, disorder), lambda q: build_h3(q, disorder)):
        at_zero = build(replace(p, lam=0.0))
        at_one = build(replace(p, lam=1.0))
        blended = (1 - lam) * at_zero + lam * at_one
        assert np.max(np.abs(build(p) - blended)) < 1e-12


def test_disorder_length_mismatch():
    p = default_params(4)
    bad = DisorderRealization(w=np.zeros(3), seed=0)
    with pytest.raises(ValueError):
        build_h2(p, bad)
    with pytest.raises(ValueError):
        build_h3(p, bad)
