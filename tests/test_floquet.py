import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dtcmorph.floquet as floquet_module
from dtcmorph.diagnostics import gap_ratios, state_fractal_dimensions
from dtcmorph.errors import ValidationError
from dtcmorph.floquet import (
    UNITARITY_TOL,
    FloquetFactors,
    apply_floquet,
    diagonalize_floquet,
    effective_hamiltonian,
    endpoint_spectrum,
    fast_floquet_operator,
    floquet_factors,
    floquet_operator,
    floquet_spectrum,
    propagator,
    sparsity_fraction,
    stripped_floquet_powers,
    stripped_gates,
    unitarity_certificate,
)
from dtcmorph.hamiltonians import (
    ModelParams,
    build_h3,
    default_params,
    pair_coupling_diagonal,
    sample_disorder,
)
from dtcmorph.spins import BLOCK_COLS, basis_state, magnetization_weights, max_unitarity_defect


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


def dense_spectrum(factors, period, vectors=True):
    """`diagonalize_floquet` of the dense F built from `factors`."""
    return diagonalize_floquet(fast_floquet_operator(factors), factors, period, vectors)


EYE2, EYE4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)


def diagonal_factors(phases):
    """Hand-made factors with identity gates: F is exactly diag(phases), D = 2^n."""
    n_sites = len(phases).bit_length() - 1
    dimers = (EYE4,) * (n_sites // 2)
    return FloquetFactors(rotations=(EYE2,) * n_sites, u1=dimers,
                          phases=np.asarray(phases, dtype=complex), u3=dimers)


def gate_factors(u):
    """Hand-made factors of two sites whose one segment-3 gate is the 4x4 unitary `u`: F = u."""
    return FloquetFactors(rotations=(EYE2, EYE2), u1=(EYE4,), phases=np.ones(4, dtype=complex),
                          u3=(np.asarray(u, dtype=complex),))


@pytest.mark.parametrize("phases", [[1.0, 1.0], np.exp(1j * np.arange(8)), [0.5, 1.0, 2j, -1.0]])
def test_hand_made_factors_build_exactly_the_operator_they_stand_for(phases):
    factors = diagonal_factors(phases)
    assert np.array_equal(fast_floquet_operator(factors), np.diag(factors.phases))
    psi = np.arange(len(phases)) + 1j
    work = psi.copy()
    apply_floquet(factors, work)
    assert np.array_equal(work, factors.phases * psi)
    u, _ = near_identity_unitary()
    assert np.array_equal(fast_floquet_operator(gate_factors(u)), u)


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
    f = fast_floquet_operator(floquet_factors(p, disorder))
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
            fast = fast_floquet_operator(floquet_factors(p, disorder))
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
    fast_floquet_operator(floquet_factors(p, sample_disorder(p, 0)))
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
    for m, states in enumerate(stripped_floquet_powers(stripped_gates(floquet_factors(p, disorder)), 6), 1):
        power = dense @ power
        assert np.max(np.abs(u3 @ states - power)) < 1e-12
    assert m == 6


def test_diagonalize_identity():
    res = dense_spectrum(diagonal_factors(np.ones(8)), 1.0)
    assert np.allclose(res.quasienergies, 0.0)
    assert np.allclose(res.states, np.eye(8))


def test_diagonalize_diagonal_phases():
    phases = np.array([-2.0, -0.5, 0.1, 3.0])
    res = dense_spectrum(diagonal_factors(np.exp(-1j * phases)), 1.0)
    assert np.allclose(np.sort(phases), res.quasienergies, atol=1e-12)
    # states are basis vectors up to phase
    assert np.allclose(np.abs(res.states), np.eye(4)[:, np.argsort(phases)], atol=1e-12)


def test_diagonalize_principal_branch_edge():
    # eigenvalue -1 maps to +pi/T, not -pi/T
    res = dense_spectrum(diagonal_factors([-1.0, 1.0]), 1.0)
    assert res.quasienergies[-1] == pytest.approx(np.pi)
    assert np.all(res.quasienergies > -np.pi)


def test_diagonalize_rejects_non_unitary():
    with pytest.raises(ValidationError):
        dense_spectrum(diagonal_factors([0.5, 1.0]), 1.0)


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
def test_unitarity_certificate_bounds_the_gram_of_the_built_f(n_sites):
    # measured: bounds of 2.3e-14 (N = 2) to 1.1e-13 (N = 10) against Gram
    # defects of 4.4e-16 to 2.7e-15
    for lam in (0.1, 0.5, 0.9):
        for seed in (1, 2, 3):
            p = default_params(n_sites, lam)
            factors = floquet_factors(p, sample_disorder(p, seed))
            bound = unitarity_certificate(factors)
            assert max_unitarity_defect(fast_floquet_operator(factors)) <= bound
            assert bound <= 1e-2 * UNITARITY_TOL


def test_unitarity_certificate_sees_every_faulty_factor(factor_fault):
    p = default_params(6, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 1))
    faulty = factor_fault(factors)
    bound = unitarity_certificate(faulty)
    if np.isnan(faulty.phases).any():
        assert np.isnan(bound)
    else:  # a factor scaled by 1.01 scales some column of F by 1.01
        assert max_unitarity_defect(fast_floquet_operator(faulty)) <= bound
        assert 1.01**2 - 1 <= bound < 0.05
    with pytest.raises(ValidationError, match="deviates from unitary by"):
        floquet_spectrum(faulty, p.period, vectors=False)


@pytest.mark.parametrize("vectors", [False, True])
def test_no_gram_of_the_built_f(monkeypatch, vectors):
    # the factors certify F; only the states' orthonormality takes a Gram,
    # of V, after the eigensolve
    p = default_params(8, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 7))
    seen = []
    real = floquet_module.max_unitarity_defect
    monkeypatch.setattr(floquet_module, "max_unitarity_defect",
                        lambda mat: seen.append(mat.flags.f_contiguous) or real(mat))
    assert floquet_spectrum(factors, p.period, vectors).route == "cayley"
    assert seen == ([True] if vectors else [])


@pytest.mark.parametrize("lam,seed", [(0.0, 0), (0.37, 4), (1.0, 9)])
def test_spectral_round_trip(lam, seed):
    p = default_params(6, lam)
    disorder = sample_disorder(p, seed)
    factors = floquet_factors(p, disorder)
    f = fast_floquet_operator(factors)
    res = dense_spectrum(factors, p.period)
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
# without states must agree with those of the states route and with numpy's
# eig to this tolerance, fixed before
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
        factors = floquet_factors(p, sample_disorder(p, seed))
        f = fast_floquet_operator(factors)
        values = dense_spectrum(factors, p.period, vectors=False)
        assert values.states is None and values.route == "cayley"
        with_states = dense_spectrum(factors, p.period)
        assert np.max(np.abs(values.quasienergies - with_states.quasienergies)) < VALUES_ONLY_TOL
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
    assert np.max(np.abs(fast_floquet_operator(floquet_factors(p, disorder)) - dense)) < 1e-10
    factors = floquet_factors(p, disorder)
    mat = np.eye(p.dim, dtype=complex)
    apply_floquet(factors, mat)
    assert np.max(np.abs(mat - dense)) < 1e-12
    weights = magnetization_weights(p.n_sites)
    power = np.eye(p.dim, dtype=complex)
    for states in stripped_floquet_powers(stripped_gates(factors), 6):
        power = dense @ power
        got = weights @ (np.abs(states) ** 2)
        assert np.max(np.abs(got - weights @ (np.abs(power) ** 2))) < 1e-12
    eig = folded(np.linalg.eigvals(dense), p.period)
    eps = dense_spectrum(factors, p.period).quasienergies
    assert np.max(np.abs(eps - eig)) < VALUES_ONLY_TOL
    # wherever F is monomial, the closed form must match the dense oracle too
    closed = endpoint_spectrum(floquet_factors(p, disorder), p.period)
    if closed is not None:
        assert np.max(np.abs(closed.quasienergies - eig)) < VALUES_ONLY_TOL
        assert np.max(np.abs(dense @ closed.states - closed.states * closed.eigenvalues)) < 1e-12
        assert max_unitarity_defect(closed.states) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_values_only_keeps_degenerate_gap_counts(lam):
    # at the endpoints F is monomial and its clusters are exactly degenerate
    p = default_params(8, lam)
    factors = floquet_factors(p, sample_disorder(p, 5))
    with_states = gap_ratios(dense_spectrum(factors, p.period).quasienergies)
    values = gap_ratios(dense_spectrum(factors, p.period, vectors=False).quasienergies)
    assert with_states.single_degenerate > 0
    assert (values.double_degenerate, values.single_degenerate) == (
        with_states.double_degenerate,
        with_states.single_degenerate,
    )


# F = I (every eigenvalue on the branch point) and F = diag(-1, 1)
@pytest.mark.parametrize("f", [np.ones(8), np.array([-1.0, 1.0])])
def test_values_only_falls_back_when_one_minus_f_is_singular(f):
    values = dense_spectrum(diagonal_factors(f), 1.0, vectors=False)
    assert values.route == "cayley_rotated" and values.states is None
    assert np.max(np.abs(values.quasienergies - folded(f, 1.0))) < 1e-12


def near_identity_unitary():
    """(u, theta): a 4x4 unitary in a random basis with eigenphases theta, two of them 1e-9 and -3e-10."""
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    theta = rng.uniform(-np.pi, np.pi, 4)
    theta[:2] = (1e-9, -3e-10)
    return (q * np.exp(1j * theta)) @ q.conj().T, theta


def test_values_only_falls_back_on_the_hermiticity_gate():
    # an eigenvalue 1e-9 from 1 in a random basis makes (1 - F)^-1 so
    # ill-conditioned that H is measurably non-Hermitian (relative 5.4e-7)
    u, theta = near_identity_unitary()
    values = dense_spectrum(gate_factors(u), 1.0, vectors=False)
    assert values.route == "cayley_rotated"
    assert np.max(np.abs(values.quasienergies - folded(np.exp(1j * theta), 1.0))) < 1e-12


def test_values_only_rejects_non_unitary():
    with pytest.raises(ValidationError):
        dense_spectrum(diagonal_factors([0.5, 1.0]), 1.0, vectors=False)


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


def cluster_bounds(eps):
    """Start index of every cluster of sorted eps but the first."""
    return np.flatnonzero(np.diff(eps) > CLUSTER_GAP) + 1


def cluster_projectors(eps, states, period):
    """Yield (projector, distance to the nearest other cluster) per cluster of sorted eps."""
    bounds = cluster_bounds(eps)
    gaps = np.diff(np.r_[eps, eps[0] + 2.0 * np.pi / period])[np.r_[bounds, len(eps)] - 1]
    for k, block in enumerate(np.split(states, bounds, axis=1)):
        yield block @ block.conj().T, min(gaps[k - 1], gaps[k])


def assert_same_cluster_projectors(eps, states, ref_eps, ref_states, period):
    """The clusters of both spectra coincide, their projectors to PROJECTOR_RTOL / gap."""
    assert np.array_equal(cluster_bounds(eps), cluster_bounds(ref_eps))
    ours = cluster_projectors(eps, states, period)
    theirs = cluster_projectors(ref_eps, ref_states, period)
    for (mine, _), (ref, gap) in zip(ours, theirs):
        assert np.max(np.abs(mine - ref)) < PROJECTOR_RTOL / gap


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.001, 0.5, 0.999, 1.0])
def test_vectors_route_matches_schur_and_eig(n_sites, lam):
    p = default_params(n_sites, lam)
    for seed in range(10):
        factors = floquet_factors(p, sample_disorder(p, seed))
        f = fast_floquet_operator(factors)
        res = dense_spectrum(factors, p.period)
        assert res.route == "cayley"
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
            assert_same_cluster_projectors(res.quasienergies, res.states, eps, vecs, p.period)
            # N = 8 has degenerate clusters
            assert n_sites < 8 or len(cluster_bounds(eps)) + 1 < p.dim


# The closed form at the exact endpoints: its states are the Fourier modes of
# F's permutation cycles, so within a degenerate cluster they may differ from
# any solver's basis, but the cluster projectors and H_eff may not.
@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_endpoint_spectrum_matches_the_oracles(n_sites, lam):
    p = default_params(n_sites, lam)
    for seed in range(1 if n_sites == 10 else 5):
        disorder = sample_disorder(p, seed)
        res = endpoint_spectrum(floquet_factors(p, disorder), p.period)
        assert res is not None and res.route == "closed_form"
        dense = floquet_operator(p, disorder)
        eps, vecs = schur_reference(dense, p.period)
        assert np.max(np.abs(res.quasienergies - eps)) < VALUES_ONLY_TOL
        eig_values, eig_vecs = np.linalg.eig(dense)
        assert np.max(np.abs(res.quasienergies - folded(eig_values, p.period))) < VALUES_ONLY_TOL
        assert np.max(np.abs(dense @ res.states - res.states * res.eigenvalues)) < 1e-12
        assert max_unitarity_defect(res.states) < 1e-12
        assert_same_cluster_projectors(res.quasienergies, res.states, eps, vecs, p.period)
        h_eff = effective_hamiltonian(res)
        h_schur = generator(vecs, eps)
        scale = np.abs(h_schur).max()
        assert np.max(np.abs(h_eff - h_schur)) <= HEFF_RTOL * scale
        eig_eps = unsorted_folded(eig_values, p.period)
        h_eig = np.linalg.solve(eig_vecs.T, (eig_vecs * eig_eps).T).T  # V diag(eps) V^-1
        assert np.max(np.abs(h_eff - h_eig)) <= HEFF_RTOL * scale
        cayley = dense_spectrum(floquet_factors(p, disorder), p.period)
        ours, theirs = gap_ratios(res.quasienergies), gap_ratios(cayley.quasienergies)
        assert (ours.double_degenerate, ours.single_degenerate) == (
            theirs.double_degenerate,
            theirs.single_degenerate,
        )
        values = endpoint_spectrum(floquet_factors(p, disorder), p.period, vectors=False)
        assert values.states is None
        assert np.array_equal(values.quasienergies, res.quasienergies)


def pairing_defect(eps, k, period):
    """max |eps_{n+D/k} - eps_n - 2 pi/(kT)|, taken modulo 2 pi/T, in mean level spacings 2 pi/(DT).

    eps is sorted on the quasienergy zone; the index n + D/k wraps around it.
    """
    zone = 2.0 * np.pi / period
    shift = np.roll(eps, -(len(eps) // k)) - eps - zone / k
    return np.max(np.abs(np.remainder(shift + zone / 2, zone) - zone / 2)) / (zone / len(eps))


# The 4T and 2T orders as spectral pairing: at lam = 0 every quasienergy has
# partners shifted by pi/(2T), at lam = 1 by pi/T, exactly (the closed form says
# so for every seed). The bound, in mean level spacings, was fixed before
# measuring (measured worst 1.4e-13 at N = 10); an interior cell reads O(1).
PAIRING_TOL = 1e-12


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("lam, k", [(0.0, 4), (1.0, 2)])
def test_endpoint_spectra_are_exactly_paired(n_sites, lam, k):
    p = default_params(n_sites, lam)
    for seed in range(5):
        factors = floquet_factors(p, sample_disorder(p, seed))
        eps = endpoint_spectrum(factors, p.period, vectors=False).quasienergies
        assert pairing_defect(eps, k, p.period) < PAIRING_TOL


def test_an_interior_spectrum_is_not_paired():
    p = default_params(8, 0.5)
    eps = floquet_spectrum(floquet_factors(p, sample_disorder(p, 0)), p.period, vectors=False)
    for k in (4, 2):
        assert pairing_defect(eps.quasienergies, k, p.period) > 0.5  # measured 4.5 and 4.8


def detuned(p, **products):
    """p with g*t1 or jxy*t3 set to the given value."""
    fields = {"g_t1": ("g", p.t1), "jxy_t3": ("jxy", p.t3)}
    return dataclasses.replace(
        p, **{fields[k][0]: v / fields[k][1] for k, v in products.items()}
    )


@pytest.mark.parametrize(
    "p",
    [
        default_params(6, 0.5),
        detuned(default_params(6, 0.0), g_t1=np.pi / 2 + 1e-6),
        detuned(default_params(6, 0.0), jxy_t3=np.pi / 4 + 1e-6),
        detuned(default_params(6, 0.0), jxy_t3=0.6),
        detuned(default_params(6, 1.0), g_t1=np.pi / 2 - 1e-6),
    ],
)
def test_endpoint_spectrum_refuses_a_non_monomial_propagator(p):
    factors = floquet_factors(p, sample_disorder(p, 1))
    assert endpoint_spectrum(factors, p.period) is None
    assert endpoint_spectrum(factors, p.period, vectors=False) is None


@pytest.mark.parametrize("n_sites", [2, 4, 6])
def test_endpoint_spectrum_with_cycles_of_several_lengths(n_sites):
    # g*t1 = pi makes U1 = -1 at lam = 0, so the dimer swap alone permutes:
    # configurations with every dimer uu or dd are fixed, the rest pair up
    p = detuned(default_params(n_sites, 0.0), g_t1=np.pi)
    disorder = sample_disorder(p, 3)
    res = endpoint_spectrum(floquet_factors(p, disorder), p.period)
    fixed = 2 ** (n_sites // 2)
    cycle_lengths = np.repeat([1.0, 2.0], [fixed, p.dim - fixed])
    dims = np.sort(state_fractal_dimensions(res))
    assert np.max(np.abs(dims - np.log(cycle_lengths) / np.log(p.dim))) < 1e-12
    dense = floquet_operator(p, disorder)
    eig = folded(np.linalg.eigvals(dense), p.period)
    assert np.max(np.abs(res.quasienergies - eig)) < VALUES_ONLY_TOL
    assert np.max(np.abs(dense @ res.states - res.states * res.eigenvalues)) < 1e-12
    assert max_unitarity_defect(res.states) < 1e-12


@pytest.mark.parametrize(
    "part,corrupt",
    [
        ("phases", lambda phases: np.where(np.arange(len(phases)) == 3, np.nan, phases)),
        ("phases", lambda phases: 1.001 * phases),
        ("u1", lambda gates: (1.001 * gates[0],) + gates[1:]),
        ("u3", lambda gates: (np.full((4, 4), np.nan),) + gates[1:]),
    ],
)
def test_endpoint_spectrum_refuses_corrupt_factors(part, corrupt):
    for lam in (0.0, 1.0):
        p = default_params(4, lam)
        factors = floquet_factors(p, sample_disorder(p, 2))
        factors = dataclasses.replace(factors, **{part: corrupt(getattr(factors, part))})
        assert endpoint_spectrum(factors, p.period) is None


# traced peak of endpoint_spectrum with states, in D x D complex buffers: the
# result is one, and ordering its columns may add blocks and one column only
ENDPOINT_PEAK_BUFFERS = 1.25


def test_endpoint_spectrum_orders_its_states_in_place():
    p = default_params(10, 0.0)
    factors = floquet_factors(p, sample_disorder(p, 4))
    tracemalloc.start()
    try:
        res = endpoint_spectrum(factors, p.period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ENDPOINT_PEAK_BUFFERS * res.states.nbytes


# traced peak of one interior cell, dense build included, in D x D complex
# buffers. A values cell holds only F; since its factors certify F's
# unitarity, no Gram of F is taken, and its largest temporary is the dense
# build's chunk of one BLOCK_COLS block (measured 1.25 at N = 8, 1.06 at
# N = 10, as `test_dense_build_peak_buffers`; 1.50 and 1.13 with the Gram).
# The bound, set for the Gram's two blocks plus 0.75 of a block, is 1.69 and
# 1.17. A states cell computes its states in F's
# buffer too and adds zheevd's two workspace buffers; its residual applies F
# by its factors to one column block at a time (measured 3.03 at N = 8, 3.01
# at N = 10).
VALUES_CELL_EXTRA_BLOCKS = 2.75
STATES_CELL_PEAK_BUFFERS = 3.25


@pytest.mark.parametrize("n_sites", [8, 10])
@pytest.mark.parametrize("vectors", [False, True])
def test_interior_cell_peak_buffers(n_sites, vectors):
    p = default_params(n_sites, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 7))
    tracemalloc.start()
    try:
        res = floquet_spectrum(factors, p.period, vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.route == "cayley"
    if vectors:
        bound = STATES_CELL_PEAK_BUFFERS
    else:
        bound = 1.0 + VALUES_CELL_EXTRA_BLOCKS * BLOCK_COLS / p.dim
    assert peak <= bound * p.dim**2 * 16


# traced peak of the dense build alone: F and one chunk of a gate's product,
# BLOCK_COLS columns' worth (measured 1.25 at N = 8, 1.06 at N = 10)
BUILD_EXTRA_BLOCKS = 1.1


@pytest.mark.parametrize("n_sites", [8, 10])
def test_dense_build_peak_buffers(n_sites):
    p = default_params(n_sites, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 7))
    tracemalloc.start()
    try:
        fast_floquet_operator(factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.0 + BUILD_EXTRA_BLOCKS * BLOCK_COLS / p.dim) * p.dim**2 * 16


@pytest.mark.parametrize("dim", [1, 64, 150, 256])
def test_hermitian_part_is_bitwise_the_one_shot_sum(dim):
    # 150 leaves a short last block of the 64-wide pairs
    rng = np.random.default_rng(dim)
    h = np.asfortranarray(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    expected = h + h.conj().T
    defect = np.abs(2.0 * h - expected).max()
    assert floquet_module._hermitian_part(h) == (defect, np.abs(expected).max())
    assert np.array_equal(h, expected)


def test_cayley_transform_is_bitwise_the_one_shot_sum():
    p = default_params(8, 0.5)
    f = fast_floquet_operator(floquet_factors(p, sample_disorder(p, 7)))
    h = np.asfortranarray(np.eye(p.dim) - f)
    assert floquet_module.lapack.invert(h)
    h *= 2j
    h.flat[:: p.dim + 1] -= 1j
    assert np.array_equal(floquet_module._cayley_hermitian(np.asfortranarray(f)), h + h.conj().T)


# (row, column) of the kick: both halves of the off-diagonal block pair of
# index blocks 0 and 3, which no diagonal block sees
@pytest.mark.parametrize("entry", [(200, 10), (10, 200)])
def test_cayley_refuses_an_anti_hermitian_part_off_the_diagonal_blocks(monkeypatch, entry):
    p = default_params(8, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 7))
    f = fast_floquet_operator(factors)
    real_invert = floquet_module.lapack.invert

    def kicked(size):
        def invert(a):
            ok = real_invert(a)
            a[entry] += size * np.abs(a).max()
            return ok
        return invert

    # the transform is formed in its argument's buffer, so each call gets a copy of F
    monkeypatch.setattr(floquet_module.lapack, "invert", kicked(1e-12))
    assert floquet_module._cayley_hermitian(np.asfortranarray(f)) is not None
    monkeypatch.setattr(floquet_module.lapack, "invert", kicked(1e-8))
    assert floquet_module._cayley_hermitian(np.asfortranarray(f)) is None
    # the kick lands on every attempt, so every rotation is refused too
    with pytest.raises(ValidationError, match="refused F and e\\^\\(-i k pi/D\\) F"):
        dense_spectrum(factors, p.period, vectors=False)


# quasienergies of the states route against numpy's eig of dense F, stated
# before measuring (measured <= 9.8e-15 at N = 10)
STATES_ROUTE_TOL = 1e-13


@pytest.mark.parametrize("n_sites", [4, 6, 8, 10])
@pytest.mark.parametrize("lam", [0.001, 0.5, 0.999])
def test_states_cell_quasienergies_match_eig(n_sites, lam):
    p = default_params(n_sites, lam)
    factors = floquet_factors(p, sample_disorder(p, 7))
    eig = folded(np.linalg.eigvals(fast_floquet_operator(factors)), p.period)
    res = floquet_spectrum(factors, p.period, vectors=True)
    assert res.route == "cayley"
    assert np.max(np.abs(res.quasienergies - eig)) < STATES_ROUTE_TOL


# floquet_spectrum answers every cell by one route and names it: the closed
# form at the exact endpoints, Cayley in between, rotated Cayley where the
# Cayley solve of F itself is refused
@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("lam, route", [(0.0, "closed_form"), (0.5, "cayley"), (1.0, "closed_form")])
def test_floquet_spectrum_is_the_route_it_names(lam, route, vectors):
    p = default_params(4, lam)
    factors = floquet_factors(p, sample_disorder(p, 3))
    res = floquet_spectrum(factors, p.period, vectors)
    if route == "closed_form":
        direct = endpoint_spectrum(factors, p.period, vectors)
    else:
        direct = dense_spectrum(factors, p.period, vectors)
    assert res.route == direct.route == route
    assert np.array_equal(res.quasienergies, direct.quasienergies)
    if vectors:
        assert np.array_equal(res.states, direct.states)
    else:
        assert res.states is None and direct.states is None


@pytest.mark.parametrize("vectors", [True, False])
def test_floquet_spectrum_raises_once_every_rotation_is_refused(monkeypatch, vectors):
    p = default_params(4, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 3))
    monkeypatch.setattr(floquet_module, "_cayley_hermitian", lambda f, phase=0.0: None)
    with pytest.raises(ValidationError, match="refused"):
        floquet_spectrum(factors, p.period, vectors)


def refuse_the_unrotated_attempt(monkeypatch):
    real = floquet_module._cayley_hermitian
    monkeypatch.setattr(floquet_module, "_cayley_hermitian",
                        lambda f, phase=0.0: real(f, phase) if phase else None)


def count_builds(monkeypatch):
    calls = []
    real = floquet_module.fast_floquet_operator
    monkeypatch.setattr(floquet_module, "fast_floquet_operator",
                        lambda factors: calls.append(factors) or real(factors))
    return calls


@pytest.mark.parametrize("vectors", [False, True])
def test_a_retry_rebuilds_f_only_where_the_cell_consumed_it(monkeypatch, vectors):
    # the solve spends F's buffer on its first attempt, values and states
    # alike, so the retry builds F again
    p = default_params(8, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 7))
    f = fast_floquet_operator(factors)
    builds = count_builds(monkeypatch)
    refuse_the_unrotated_attempt(monkeypatch)
    res = floquet_spectrum(factors, p.period, vectors)
    assert res.route == "cayley_rotated"
    assert len(builds) == 2
    assert np.max(np.abs(res.quasienergies - folded(np.linalg.eigvals(f), p.period))) < 1e-12


@pytest.mark.parametrize(
    "order", [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 2, 0, 4, 3], [3, 0, 4, 1, 2]]
)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_permute_columns_matches_fancy_indexing(order, layout):
    mat = np.asarray(np.arange(25).reshape(5, 5) * (1 + 1j), order=layout)
    expected = mat[:, order]
    floquet_module._permute_columns(mat, order)
    assert np.array_equal(mat, expected)


# F = I and F = diag(-1, 1), given by their diagonals
@pytest.mark.parametrize("f", [np.ones(8), np.array([-1.0, 1.0])])
def test_vectors_route_falls_back_when_one_minus_f_is_singular(f):
    res = dense_spectrum(diagonal_factors(f), 1.0)
    assert res.route == "cayley_rotated"
    assert np.max(np.abs(res.quasienergies - folded(f, 1.0))) < 1e-12
    assert np.max(np.abs(res.states.conj().T @ res.states - np.eye(len(f)))) < 1e-12
    assert np.max(np.abs(f[:, None] * res.states - res.states * res.eigenvalues)) < 1e-12


@pytest.mark.parametrize("gate", ["residual", "orthonormality"])
def test_vectors_route_falls_back_when_a_gate_fails(monkeypatch, gate):
    real_eigh = floquet_module.lapack.eigh

    def corrupted_eigh(a, vectors):
        values = real_eigh(a, vectors)  # a now holds the eigenvectors
        if gate == "residual":
            # still orthonormal, but mixes eigenvectors of different eigenvalues
            c = np.sqrt(0.5)
            a[:, [0, -1]] = a[:, [0, -1]] @ np.array([[c, -c], [c, c]])
        else:
            a[:, 1] = a[:, 0]  # still eigenvectors, no longer orthonormal
        return values

    p = default_params(4, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 3))
    assert dense_spectrum(factors, p.period).route == "cayley"
    # every rotation's eigenvectors are corrupted too, so the call must fail
    monkeypatch.setattr(floquet_module.lapack, "eigh", corrupted_eigh)
    with pytest.raises(ValidationError, match="refused"):
        dense_spectrum(factors, p.period)


def corrupt_the_last_column_block(monkeypatch, gate):
    """Make every eigensolve with vectors fail `gate` in the last two columns.

    At D = 256 those lie in the last of four 64-column blocks.
    """
    real_eigh = floquet_module.lapack.eigh

    def corrupted_eigh(a, vectors):
        values = real_eigh(a, vectors)
        if gate == "residual":
            c = np.sqrt(0.5)
            a[:, [-2, -1]] = a[:, [-2, -1]] @ np.array([[c, -c], [c, c]])
        else:
            a[:, -1] = a[:, -2]
        return values

    monkeypatch.setattr(floquet_module.lapack, "eigh", corrupted_eigh)


@pytest.mark.parametrize("gate", ["residual", "orthonormality"])
def test_factor_applied_gates_see_the_last_column_block(monkeypatch, gate):
    # a cell's residual applies F by its factors to each column block
    p = default_params(8, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 3))
    assert floquet_spectrum(factors, p.period).route == "cayley"
    corrupt_the_last_column_block(monkeypatch, gate)
    with pytest.raises(ValidationError, match="refused"):
        floquet_spectrum(factors, p.period)


@pytest.mark.parametrize("consumer", [effective_hamiltonian, state_fractal_dimensions])
def test_state_consumers_reject_values_only_results(consumer):
    p = default_params(4, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 0))
    with pytest.raises(ValueError, match="quasienergies only; diagonalize with vectors=True"):
        consumer(dense_spectrum(factors, p.period, vectors=False))


def test_effective_hamiltonian_identity():
    res = dense_spectrum(diagonal_factors(np.ones(4)), 1.0)
    assert np.allclose(effective_hamiltonian(res), 0.0)


def test_effective_hamiltonian_reconstructs_floquet():
    p = default_params(6, lam=0.43)
    disorder = sample_disorder(p, 21)
    factors = floquet_factors(p, disorder)
    f = fast_floquet_operator(factors)
    res = dense_spectrum(factors, p.period)
    h_eff = effective_hamiltonian(res)
    assert np.max(np.abs(propagator(h_eff, p.period) - f)) < 1e-8


# blockwise H_eff against the one-shot formula, relative to its largest entry
HEFF_BLOCK_TOL = 1e-12


@pytest.mark.parametrize("block_rows", [None, 1, 3, 16])
def test_effective_hamiltonian_blocks_match_the_one_shot_formula(monkeypatch, block_rows):
    # 3 rows of 64 leave a short last block
    p = default_params(6, lam=0.43)
    res = dense_spectrum(floquet_factors(p, sample_disorder(p, 8)), p.period)
    h = (res.states * res.quasienergies) @ res.states.conj().T
    expected = 0.5 * (h + h.conj().T)
    if block_rows is not None:
        monkeypatch.setattr(floquet_module, "HEFF_BLOCK_ROWS", block_rows)
    h_eff = effective_hamiltonian(res)
    assert np.array_equal(h_eff, h_eff.conj().T)
    assert np.max(np.abs(h_eff - expected)) <= HEFF_BLOCK_TOL * np.max(np.abs(expected))


# traced allocations of effective_hamiltonian beyond its D x D result, in
# units of one block of rows: a copy of V^H or of V diag(eps) would be D x D
# (16 blocks at D = 256 with 16-row blocks)
HEFF_EXTRA_BLOCKS = 8


def test_effective_hamiltonian_allocates_blocks_beside_its_result(monkeypatch):
    p = default_params(8, lam=0.5)
    res = dense_spectrum(floquet_factors(p, sample_disorder(p, 5)), p.period)
    monkeypatch.setattr(floquet_module, "HEFF_BLOCK_ROWS", 16)
    tracemalloc.start()
    try:
        h_eff = effective_hamiltonian(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h_eff.nbytes + HEFF_EXTRA_BLOCKS * 16 * p.dim * 16


def test_effective_hamiltonian_sparsity_contrast():
    # crystalline drive keeps H_eff supported on small orbit blocks; the
    # melted drive fills it (measured ~0.016 vs ~1.0 at n=8)
    disorder_seed = 5
    fractions = {}
    for lam in (0.0, 0.5):
        p = default_params(8, lam)
        disorder = sample_disorder(p, disorder_seed)
        res = dense_spectrum(floquet_factors(p, disorder), p.period)
        fractions[lam] = sparsity_fraction(effective_hamiltonian(res))
    assert fractions[0.0] < fractions[0.5]
    assert fractions[0.0] < 0.05
    assert fractions[0.5] > 0.5


def test_sparsity_fraction_zero_matrix():
    assert sparsity_fraction(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("n_sites", [2, 8])
def test_sparsity_fraction_equals_the_one_shot_formula(n_sites):
    # an integer count over the size, so the BLOCK_COLS-column blocks (one
    # partial block at D = 4, four at D = 256) give the full-array result bitwise
    p = default_params(n_sites, lam=0.5)
    res = dense_spectrum(floquet_factors(p, sample_disorder(p, 5)), p.period)
    h_eff = effective_hamiltonian(res)
    mags = np.abs(h_eff)
    for threshold in (1e-3, 0.5):
        assert sparsity_fraction(h_eff, threshold) == float(np.mean(mags > threshold * mags.max()))


def test_sparsity_fraction_allocates_no_full_size_array():
    # one column block at a time: np.abs of a strided block takes about one
    # complex block of D x BLOCK_COLS, and its mask one byte an entry; at
    # D = 256 a full |H_eff| would take 4 real blocks, a full mask 4 masks
    p = default_params(8, lam=0.5)
    h_eff = effective_hamiltonian(
        dense_spectrum(floquet_factors(p, sample_disorder(p, 5)), p.period))
    tracemalloc.start()
    try:
        sparsity_fraction(h_eff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.dim * BLOCK_COLS * (16 + 1)


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
        r0 = dense_spectrum(floquet_factors(p0, d0), p0.period)
        frac0 = cluster_fraction(
            r0.quasienergies, [0, np.pi / 2, -np.pi / 2, np.pi], p0.period, tol
        )
        assert frac0 == pytest.approx(0.8750, abs=1e-9)
        d1 = sample_disorder(p1, seed)
        r1 = dense_spectrum(floquet_factors(p1, d1), p1.period)
        frac1 = cluster_fraction(r1.quasienergies, [0, np.pi], p1.period, tol)
        assert frac1 == pytest.approx(0.578125, abs=1e-9)


def test_closed_form_explains_criterion_4():
    # Over criterion 4's 20 seeds the closed-form quasienergies land in the
    # clusters exactly as often as the Cayley route's. At lam = 1 the drive
    # flips every spin, the z fields cancel over two periods and
    # F^2 = diag(exp(-2i t2 E_Ising)): the pair +-exp(-i t2 E_Ising(c)) sits
    # t2 |E_Ising(c)| / T from the 2T centers, independent of the disorder,
    # so the Ising coupling j0 t2 = 0.15 alone sets the fraction; without it
    # every quasienergy sits on a center at both endpoints.
    tol = 0.1 * np.pi
    fractions = {}
    for lam, centers in ((0.0, [0, np.pi / 2, -np.pi / 2, np.pi]), (1.0, [0, np.pi])):
        p = dataclasses.replace(default_params(8, lam), j0=0.0)
        factors = floquet_factors(p, sample_disorder(p, 0))
        closed = endpoint_spectrum(factors, p.period, vectors=False).quasienergies
        assert cluster_fraction(closed, centers, p.period, 1e-12) == 1.0
        p = default_params(8, lam)
        per_seed = []
        for seed in range(20):
            factors = floquet_factors(p, sample_disorder(p, seed))
            closed = endpoint_spectrum(factors, p.period, vectors=False).quasienergies
            cayley = dense_spectrum(factors, p.period).quasienergies
            frac = cluster_fraction(closed, centers, p.period, tol)
            assert frac == cluster_fraction(cayley, centers, p.period, tol)
            per_seed.append(frac)
        fractions[lam] = np.mean(per_seed)
    assert fractions[0.0] == 0.875
    assert fractions[1.0] == 0.578125
    p = default_params(8, 1.0)
    ising = p.t2 * pair_coupling_diagonal(p.n_sites, p.j0, p.mu) / p.period
    assert cluster_fraction(ising, [0, np.pi], p.period, tol) == 0.578125
