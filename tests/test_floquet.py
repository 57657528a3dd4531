import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dtcmorph.floquet as floquet_module
from dtcmorph.diagnostics import gap_ratios, state_fractal_dimensions
from dtcmorph.errors import ValidationError
from dtcmorph.floquet import (
    apply_floquet,
    diagonalize_floquet,
    effective_hamiltonian,
    fast_floquet_operator,
    floquet_factors,
    floquet_operator,
    propagator,
    sparsity_fraction,
    stripped_floquet_powers,
)
from dtcmorph.hamiltonians import ModelParams, build_h3, default_params, sample_disorder
from dtcmorph.spins import basis_state, magnetization_weights, max_unitarity_defect


def expm_taylor(a):
    """Independent scaling-and-squaring Taylor-series exponential."""
    norm = np.max(np.abs(a))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 4)
    small = a / (2**squarings)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 40):
        term = term @ small / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def test_propagator_zero_hamiltonian():
    h = np.zeros((8, 8), dtype=complex)
    assert np.allclose(propagator(h, 2.7), np.eye(8))


def test_propagator_half_pi_pulse():
    # exp(-i (pi/2) sigma^x) = -i sigma^x, embedded on site 1 of two sites
    p = default_params(2, lam=0.0)
    from dtcmorph.hamiltonians import build_h1

    u = propagator(build_h1(p), np.pi / 2 / p.g)
    sx1 = np.zeros((4, 4), dtype=complex)
    idx = np.arange(4)
    sx1[idx ^ 1, idx] = 1.0
    assert np.max(np.abs(u - (-1j) * sx1)) < 1e-12


def test_propagator_matches_taylor_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = 0.5 * (a + a.conj().T)
    t = 0.37
    assert np.max(np.abs(propagator(h, t) - expm_taylor(-1j * t * h))) < 1e-10


def test_propagator_rejects_non_hermitian():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        propagator(mat, 1.0)


def test_propagator_rejects_a_nan_hamiltonian():
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = np.nan
    with pytest.raises(ValidationError, match="deviates from Hermitian by nan"):
        propagator(h, 1.0)


def test_propagator_rejects_negative_duration():
    with pytest.raises(ValueError):
        propagator(np.eye(2, dtype=complex), -0.1)


def test_floquet_operator_segment_order():
    # first segment flips site 1, the dimer swap then moves the flip to site 2
    p = default_params(2, lam=0.0)
    disorder = sample_disorder(p, 5)
    f = floquet_operator(p, disorder)
    out = f @ basis_state(2, 0)
    assert np.argmax(np.abs(out) ** 2) == 2
    assert abs(out[2]) > 0.999


def test_floquet_operator_unitary():
    p = default_params(6, lam=0.61)
    disorder = sample_disorder(p, 1)
    assert max_unitarity_defect(floquet_operator(p, disorder)) < 1e-10


def test_four_period_return_at_lambda_zero():
    p = default_params(8, lam=0.0)
    disorder = sample_disorder(p, 77)
    f = fast_floquet_operator(p, disorder)
    psi = basis_state(8, 0)
    for _ in range(4):
        psi = f @ psi
    assert abs(abs(psi[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
def test_fast_path_matches_dense_oracle(n_sites):
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = default_params(n_sites, lam)
        for seed in range(5):
            disorder = sample_disorder(p, seed)
            dense = floquet_operator(p, disorder)
            fast = fast_floquet_operator(p, disorder)
            assert np.max(np.abs(dense - fast)) < 1e-10


def test_fast_path_never_exponentiates_dense_segments(monkeypatch):
    # the diagonal segment must be applied as elementwise phases; only the
    # 4x4 dimer blocks may go through the dense exponential
    import dtcmorph.floquet as floquet_module

    shapes = []
    real = floquet_module.propagator

    def recording(h, duration):
        shapes.append(h.shape[0])
        return real(h, duration)

    monkeypatch.setattr(floquet_module, "propagator", recording)
    p = default_params(6, 0.0)
    fast_floquet_operator(p, sample_disorder(p, 0))
    assert shapes and max(shapes) == 4


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_factor_form_matches_dense_oracle(n_sites, lam):
    p = default_params(n_sites, lam)
    rng = np.random.default_rng(n_sites)
    for seed in range(3):
        disorder = sample_disorder(p, seed)
        dense = floquet_operator(p, disorder)
        factors = floquet_factors(p, disorder)
        psi = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
        work = psi.copy()
        apply_floquet(factors, work)
        assert np.max(np.abs(work - dense @ psi)) < 1e-12
        mat = np.eye(p.dim, dtype=complex)
        apply_floquet(factors, mat)
        assert np.max(np.abs(mat - dense)) < 1e-12


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_stripped_powers_are_floquet_powers_without_the_last_u3(n_sites, lam):
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 4)
    dense = floquet_operator(p, disorder)
    u3 = propagator(build_h3(p, disorder), p.t3)
    power = np.eye(p.dim, dtype=complex)
    for m, states in enumerate(stripped_floquet_powers(floquet_factors(p, disorder), 6), 1):
        power = dense @ power
        assert np.max(np.abs(u3 @ states - power)) < 1e-12
    assert m == 6


def test_diagonalize_identity():
    res = diagonalize_floquet(np.eye(8, dtype=complex), 1.0)
    assert np.allclose(res.quasienergies, 0.0)
    assert np.allclose(res.states, np.eye(8))


def test_diagonalize_diagonal_phases():
    phases = np.array([-2.0, -0.5, 0.1, 3.0])
    f = np.diag(np.exp(-1j * phases))
    res = diagonalize_floquet(f, 1.0)
    assert np.allclose(np.sort(phases), res.quasienergies, atol=1e-12)
    # states are basis vectors up to phase
    assert np.allclose(np.abs(res.states), np.eye(4)[:, np.argsort(phases)], atol=1e-12)


def test_diagonalize_principal_branch_edge():
    # eigenvalue -1 maps to +pi/T, not -pi/T
    res = diagonalize_floquet(np.diag([-1.0 + 0j, 1.0]), 1.0)
    assert res.quasienergies[-1] == pytest.approx(np.pi)
    assert np.all(res.quasienergies > -np.pi)


def test_diagonalize_rejects_non_unitary():
    with pytest.raises(ValidationError):
        diagonalize_floquet(np.diag([0.5 + 0j, 1.0]), 1.0)


@pytest.mark.parametrize("lam,seed", [(0.0, 0), (0.37, 4), (1.0, 9)])
def test_spectral_round_trip(lam, seed):
    p = default_params(6, lam)
    disorder = sample_disorder(p, seed)
    f = fast_floquet_operator(p, disorder)
    res = diagonalize_floquet(f, p.period)
    dim = p.dim
    assert len(res.quasienergies) == dim
    assert np.all(np.diff(res.quasienergies) >= 0)
    edge = np.pi / p.period
    assert np.all(res.quasienergies > -edge) and np.all(res.quasienergies <= edge)
    assert np.max(np.abs(res.states.conj().T @ res.states - np.eye(dim))) < 1e-9
    rebuilt = (res.states * res.eigenvalues) @ res.states.conj().T
    assert np.max(np.abs(rebuilt - f)) < 1e-9
    assert np.max(np.abs(np.abs(res.eigenvalues) - 1.0)) < 1e-10
    per_state = np.abs(f @ res.states - res.states * res.eigenvalues)
    assert np.max(per_state) < 1e-9


# The Cayley route changes the numerical path, not the result: quasienergies
# must agree with Schur and with numpy's eig to this tolerance, fixed before
# measuring (measured worst over the grid below: 6.4e-13).
VALUES_ONLY_TOL = 1e-11


def unsorted_folded(eigvals, period):
    eps = -np.angle(eigvals) / period
    return np.where(eps <= -np.pi / period, eps + 2.0 * np.pi / period, eps)


def folded(eigvals, period):
    return np.sort(unsorted_folded(eigvals, period))


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.001, 0.5, 0.999, 1.0])
def test_values_only_matches_schur_and_eig(n_sites, lam):
    p = default_params(n_sites, lam)
    for seed in range(10):
        f = fast_floquet_operator(p, sample_disorder(p, seed))
        values = diagonalize_floquet(f, p.period, vectors=False)
        assert values.states is None and not values.fallback
        schur = diagonalize_floquet(f, p.period)
        assert np.max(np.abs(values.quasienergies - schur.quasienergies)) < VALUES_ONLY_TOL
        eig = folded(np.linalg.eigvals(f), p.period)
        assert np.max(np.abs(values.quasienergies - eig)) < VALUES_ONLY_TOL


@st.composite
def coupling_params(draw):
    """Model parameters anywhere in the accepted coupling space, not just the default profile.

    g*t1 lands on pi/2 (an exact spin flip, the default drive) and on pi
    (minus the identity) as well as on arbitrary values.
    """
    durations = st.floats(0.1, 1.0)
    t1, t2, t3 = draw(durations), draw(durations), draw(durations)
    g_t1 = draw(st.one_of(st.sampled_from([np.pi / 2, np.pi]), st.floats(0.0, 2 * np.pi)))
    return ModelParams(
        n_sites=draw(st.sampled_from([2, 4, 6])),
        lam=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        t1=t1,
        t2=t2,
        t3=t3,
        g=g_t1 / t1,
        j0=draw(st.floats(0.1, 2.0)),
        mu=draw(st.floats(0.5, 3.0)),
        jxy=draw(st.floats(0.0, 3.0)),
        w=draw(st.floats(0.5, 10.0)),
    )


@settings(max_examples=30, deadline=None)
@given(p=coupling_params(), seed=st.integers(0, 2**32 - 1))
def test_coupling_space_matches_dense_oracle(p, seed):
    disorder = sample_disorder(p, seed)
    dense = floquet_operator(p, disorder)
    assert np.max(np.abs(fast_floquet_operator(p, disorder) - dense)) < 1e-10
    factors = floquet_factors(p, disorder)
    mat = np.eye(p.dim, dtype=complex)
    apply_floquet(factors, mat)
    assert np.max(np.abs(mat - dense)) < 1e-12
    weights = magnetization_weights(p.n_sites)
    power = np.eye(p.dim, dtype=complex)
    for states in stripped_floquet_powers(factors, 6):
        power = dense @ power
        got = weights @ (np.abs(states) ** 2)
        assert np.max(np.abs(got - weights @ (np.abs(power) ** 2))) < 1e-12
    eps = diagonalize_floquet(dense, p.period).quasienergies
    assert np.max(np.abs(eps - folded(np.linalg.eigvals(dense), p.period))) < VALUES_ONLY_TOL


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_values_only_keeps_degenerate_gap_counts(lam):
    # at the endpoints F is monomial and its clusters are exactly degenerate
    p = default_params(8, lam)
    f = fast_floquet_operator(p, sample_disorder(p, 5))
    schur = gap_ratios(diagonalize_floquet(f, p.period).quasienergies)
    values = gap_ratios(diagonalize_floquet(f, p.period, vectors=False).quasienergies)
    assert schur.single_degenerate > 0
    assert (values.double_degenerate, values.single_degenerate) == (
        schur.double_degenerate,
        schur.single_degenerate,
    )


@pytest.mark.parametrize("f", [np.eye(8, dtype=complex), np.diag([-1.0 + 0j, 1.0])])
def test_values_only_falls_back_when_one_minus_f_is_singular(f):
    values = diagonalize_floquet(f, 1.0, vectors=False)
    assert values.fallback and values.states is None
    assert np.array_equal(values.quasienergies, diagonalize_floquet(f, 1.0).quasienergies)


def test_values_only_falls_back_on_the_hermiticity_gate():
    # an eigenvalue 1e-9 from 1 in a random basis makes (1 - F)^-1 so
    # ill-conditioned that H is measurably non-Hermitian (relative ~1e-6)
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    theta = rng.uniform(-np.pi, np.pi, 32)
    theta[:2] = (1e-9, -3e-10)
    f = (q * np.exp(1j * theta)) @ q.conj().T
    values = diagonalize_floquet(f, 1.0, vectors=False)
    assert values.fallback
    assert np.max(np.abs(values.quasienergies - folded(np.exp(1j * theta), 1.0))) < 1e-12


def test_values_only_rejects_non_unitary():
    with pytest.raises(ValidationError):
        diagonalize_floquet(np.diag([0.5 + 0j, 1.0]), 1.0, vectors=False)


# Floquet states from the Cayley transform: quasienergies must agree with
# Schur and eig to VALUES_ONLY_TOL and H_eff to HEFF_RTOL of its largest
# entry. At the exact endpoints the basis inside a degenerate cluster is
# arbitrary but the projector onto the cluster is not. Its rounding error
# grows as 1/gap (Davis-Kahan), gap being the quasienergy distance to the
# nearest other cluster, so projectors must agree to PROJECTOR_RTOL / gap.
# At the endpoints the gaps inside a cluster are < 1e-14 and those between
# clusters > 2e-4 for N <= 8 (measured), so CLUSTER_GAP splits them cleanly.
HEFF_RTOL = 1e-10
PROJECTOR_RTOL = 1e-12
CLUSTER_GAP = 1e-9


def schur_reference(f, period):
    """Folded quasienergies and Schur vectors, sorted by quasienergy."""
    upper, vecs = scipy.linalg.schur(f, output="complex")
    eps = unsorted_folded(np.diag(upper), period)
    order = np.argsort(eps, kind="stable")
    return eps[order], vecs[:, order]


def generator(states, eps):
    h = (states * eps) @ states.conj().T
    return 0.5 * (h + h.conj().T)


def cluster_projectors(eps, states, period):
    """(projector, distance to the nearest other cluster) per cluster of sorted eps."""
    bounds = np.flatnonzero(np.diff(eps) > CLUSTER_GAP) + 1
    gaps = np.diff(np.r_[eps, eps[0] + 2.0 * np.pi / period])[np.r_[bounds, len(eps)] - 1]
    return [
        (block @ block.conj().T, min(gaps[k - 1], gaps[k]))
        for k, block in enumerate(np.split(states, bounds, axis=1))
    ]


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.001, 0.5, 0.999, 1.0])
def test_vectors_route_matches_schur_and_eig(n_sites, lam):
    p = default_params(n_sites, lam)
    for seed in range(10):
        f = fast_floquet_operator(p, sample_disorder(p, seed))
        res = diagonalize_floquet(f, p.period)
        assert not res.fallback
        eps, vecs = schur_reference(f, p.period)
        assert np.max(np.abs(res.quasienergies - eps)) < VALUES_ONLY_TOL
        eig_values, eig_vecs = np.linalg.eig(f)
        assert np.max(np.abs(res.quasienergies - folded(eig_values, p.period))) < VALUES_ONLY_TOL
        h_eff = effective_hamiltonian(res)
        h_schur = generator(vecs, eps)
        scale = np.abs(h_schur).max()
        assert np.max(np.abs(h_eff - h_schur)) <= HEFF_RTOL * scale
        eig_eps = unsorted_folded(eig_values, p.period)
        h_eig = np.linalg.solve(eig_vecs.T, (eig_vecs * eig_eps).T).T  # V diag(eps) V^-1
        assert np.max(np.abs(h_eff - h_eig)) <= HEFF_RTOL * scale
        if lam in (0.0, 1.0):
            ours = cluster_projectors(res.quasienergies, res.states, p.period)
            theirs = cluster_projectors(eps, vecs, p.period)
            assert len(ours) == len(theirs)
            assert n_sites < 8 or len(ours) < p.dim  # N = 8 has degenerate clusters
            for (mine, _), (ref, gap) in zip(ours, theirs):
                assert np.max(np.abs(mine - ref)) < PROJECTOR_RTOL / gap


@pytest.mark.parametrize("f", [np.eye(8, dtype=complex), np.diag([-1.0 + 0j, 1.0])])
def test_vectors_route_falls_back_when_one_minus_f_is_singular(f):
    res = diagonalize_floquet(f, 1.0)
    assert res.fallback
    assert np.max(np.abs(res.states.conj().T @ res.states - np.eye(len(f)))) < 1e-12
    assert np.max(np.abs(f @ res.states - res.states * res.eigenvalues)) < 1e-12


@pytest.mark.parametrize("gate", ["residual", "orthonormality"])
def test_vectors_route_falls_back_when_a_gate_fails(monkeypatch, gate):
    real_eigh = scipy.linalg.eigh

    def corrupted_eigh(a, **kwargs):
        values, basis = real_eigh(a, **kwargs)
        if gate == "residual":
            # still orthonormal, but mixes eigenvectors of different eigenvalues
            c = np.sqrt(0.5)
            basis[:, [0, -1]] = basis[:, [0, -1]] @ np.array([[c, -c], [c, c]])
        else:
            basis[:, 1] = basis[:, 0]  # still eigenvectors, no longer orthonormal
        return values, basis

    p = default_params(4, 0.5)
    f = fast_floquet_operator(p, sample_disorder(p, 3))
    clean = diagonalize_floquet(f, p.period)
    monkeypatch.setattr(floquet_module.scipy.linalg, "eigh", corrupted_eigh)
    res = diagonalize_floquet(f, p.period)
    assert res.fallback and not clean.fallback
    assert np.max(np.abs(res.quasienergies - clean.quasienergies)) < VALUES_ONLY_TOL
    assert np.max(np.abs(res.states.conj().T @ res.states - np.eye(p.dim))) < 1e-12
    assert np.max(np.abs(f @ res.states - res.states * res.eigenvalues)) < 1e-12


@pytest.mark.parametrize("consumer", [effective_hamiltonian, state_fractal_dimensions])
def test_state_consumers_reject_values_only_results(consumer):
    p = default_params(4, 0.5)
    f = fast_floquet_operator(p, sample_disorder(p, 0))
    with pytest.raises(ValueError, match="quasienergies only; diagonalize with vectors=True"):
        consumer(diagonalize_floquet(f, p.period, vectors=False))


def test_effective_hamiltonian_identity():
    res = diagonalize_floquet(np.eye(4, dtype=complex), 1.0)
    assert np.allclose(effective_hamiltonian(res), 0.0)


def test_effective_hamiltonian_reconstructs_floquet():
    p = default_params(6, lam=0.43)
    disorder = sample_disorder(p, 21)
    f = fast_floquet_operator(p, disorder)
    res = diagonalize_floquet(f, p.period)
    h_eff = effective_hamiltonian(res)
    assert np.max(np.abs(propagator(h_eff, p.period) - f)) < 1e-8


def test_effective_hamiltonian_sparsity_contrast():
    # crystalline drive keeps H_eff supported on small orbit blocks; the
    # melted drive fills it (measured ~0.016 vs ~1.0 at n=8)
    disorder_seed = 5
    fractions = {}
    for lam in (0.0, 0.5):
        p = default_params(8, lam)
        disorder = sample_disorder(p, disorder_seed)
        res = diagonalize_floquet(fast_floquet_operator(p, disorder), p.period)
        fractions[lam] = sparsity_fraction(effective_hamiltonian(res))
    assert fractions[0.0] < fractions[0.5]
    assert fractions[0.0] < 0.05
    assert fractions[0.5] > 0.5


def test_sparsity_fraction_zero_matrix():
    assert sparsity_fraction(np.zeros((3, 3))) == 0.0


def cluster_fraction(quasienergies, centers, period, tol):
    centers = np.asarray(centers)
    dist = np.abs(quasienergies[:, None] - centers[None, :])
    dist = np.minimum(dist, 2 * np.pi / period - dist)
    return np.mean(dist.min(axis=1) <= tol)


def test_quasienergy_clustering_regression():
    # The cluster deviations are set by the Ising phases, which are disorder
    # independent along the drive orbits; the fractions below are constants
    # of the model (measured 0.8750 at lam=0 and 0.5781 at lam=1 for n=8).
    p0 = default_params(8, 0.0)
    p1 = default_params(8, 1.0)
    tol = 0.1 * np.pi
    for seed in (0, 1):
        d0 = sample_disorder(p0, seed)
        r0 = diagonalize_floquet(fast_floquet_operator(p0, d0), p0.period)
        frac0 = cluster_fraction(
            r0.quasienergies, [0, np.pi / 2, -np.pi / 2, np.pi], p0.period, tol
        )
        assert frac0 == pytest.approx(0.8750, abs=1e-9)
        d1 = sample_disorder(p1, seed)
        r1 = diagonalize_floquet(fast_floquet_operator(p1, d1), p1.period)
        frac1 = cluster_fraction(r1.quasienergies, [0, np.pi], p1.period, tol)
        assert frac1 == pytest.approx(0.578125, abs=1e-9)
