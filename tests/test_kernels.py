"""The numpy kernels against dense Kronecker-product and per-configuration oracles."""

import tracemalloc

import numpy as np
import pytest

from dtcmorph import backend, lapack
from dtcmorph.floquet import apply_floquet, fast_floquet_operator, floquet_factors
from dtcmorph.hamiltonians import build_h3, default_params, h2_diagonal, sample_disorder
from dtcmorph.spins import BLOCK_COLS


def dense_gate(n_sites, bit, gate):
    """kron(I, gate, I) acting on row bits bit.. of a 2^n_sites space."""
    width = gate.shape[0].bit_length() - 1
    eye_hi = np.eye(1 << (n_sites - bit - width))
    eye_lo = np.eye(1 << bit)
    return np.kron(eye_hi, np.kron(gate, eye_lo))


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
@pytest.mark.parametrize(
    "apply,width", [(backend.apply_site_gate, 1), (backend.apply_pair_gate, 2)]
)
def test_gate_kernels_match_kron_oracle(n_sites, apply, width):
    """A state vector, column blocks of 1, 3 and D/2 columns, and a D x D matrix."""
    rng = np.random.default_rng(n_sites)
    d = 1 << n_sites
    gate = random_complex(rng, (1 << width, 1 << width))
    operands = [random_complex(rng, shape) for shape in [d, (d, 1), (d, 3), (d, d // 2), (d, d)]]
    for bit in range(n_sites - width + 1):
        full = dense_gate(n_sites, bit, gate)
        for operand in operands:
            work = operand.copy()
            apply(work, bit, gate)
            assert np.max(np.abs(work - full @ operand)) < 1e-12


def one_shot_gate(mat, bit, gate):
    """The gate as one batched product over the whole view, with a full-size temporary."""
    k = gate.shape[0]
    view = mat.reshape(mat.shape[0] // (k << bit), k, -1)
    view[:] = np.matmul(gate, view)


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
@pytest.mark.parametrize(
    "apply,width", [(backend.apply_site_gate, 1), (backend.apply_pair_gate, 2)]
)
def test_chunked_gates_are_bitwise_the_one_shot_product(n_sites, apply, width):
    """A state vector, a block of 3 columns and a D x D matrix, at every bit."""
    rng = np.random.default_rng(n_sites)
    d = 1 << n_sites
    gate = random_complex(rng, (1 << width, 1 << width))
    operands = [random_complex(rng, shape) for shape in [d, (d, 3), (d, d)]]
    for bit in range(n_sites - width + 1):
        for operand in operands:
            work, expected = operand.copy(), operand.copy()
            apply(work, bit, gate)
            one_shot_gate(expected, bit, gate)
            assert np.array_equal(work, expected)


# traced peak of one gate call on a D x D matrix, in units of BLOCK_COLS * D
# complex entries: one chunk of the product, plus views and the gate
GATE_PEAK_CHUNKS = 1.01


@pytest.mark.parametrize(
    "apply,width", [(backend.apply_site_gate, 1), (backend.apply_pair_gate, 2)]
)
def test_a_gate_on_a_matrix_allocates_one_chunk(apply, width):
    n_sites = 10
    d = 1 << n_sites
    mat = np.eye(d, dtype=complex)
    gate = random_complex(np.random.default_rng(0), (1 << width, 1 << width))
    for bit in range(n_sites - width + 1):
        tracemalloc.start()
        try:
            apply(mat, bit, gate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= GATE_PEAK_CHUNKS * BLOCK_COLS * d * 16


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
def test_apply_floquet_on_a_block_matches_dense_f(n_sites):
    p = default_params(n_sites, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 5))
    block = random_complex(np.random.default_rng(n_sites), (p.dim, 3))
    work = block.copy()
    apply_floquet(factors, work)
    assert np.max(np.abs(work - fast_floquet_operator(factors) @ block)) < 1e-12


@pytest.mark.parametrize("n_sites", [4, 8])
def test_kernels_bitwise_equal_under_one_and_two_blas_threads(n_sites, blas_threads):
    """The gates run through BLAS, whose thread count must not reach the last bits."""
    p = default_params(n_sites, 0.5)
    factors = floquet_factors(p, sample_disorder(p, 3))
    rng = np.random.default_rng(n_sites)
    psi = random_complex(rng, p.dim)
    block = random_complex(rng, (p.dim, 3))

    def outputs():
        vec, cols = psi.copy(), block.copy()
        apply_floquet(factors, vec)
        apply_floquet(factors, cols)
        return fast_floquet_operator(factors), vec, cols

    assert blas_threads() == 2
    two = outputs()
    with lapack.one_blas_thread():
        assert blas_threads() == 1
        one = outputs()
    for a, b in zip(one, two):
        assert np.array_equal(a, b)


def test_gate_kernel_rejects_non_contiguous():
    mat = np.eye(8, dtype=complex)[:, ::2]
    with pytest.raises(ValueError):
        backend.apply_pair_gate(mat, 0, np.eye(4))


def old_sign_table(n_sites):
    # the private table the diagonals used before they shared spins.sign_table
    idx = np.arange(1 << n_sites)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(n_sites)[None, :]) & 1)


def old_h2_diagonal(params, disorder):
    signs = old_sign_table(params.n_sites)
    weights = np.zeros((params.n_sites, params.n_sites))
    for l in range(params.n_sites):
        for m in range(l + 1, params.n_sites):
            weights[l, m] = params.j0 / (m - l) ** params.mu
    diag = np.einsum("cl,lm,cm->c", signs, weights, signs)
    if params.lam != 1.0:
        diag = diag + (1.0 - params.lam) * (old_sign_table(params.n_sites) @ disorder.w)
    return diag


def loop_h2_diagonal(params, disorder):
    out = np.empty(params.dim)
    for c in range(params.dim):
        s = [1 - 2 * ((c >> l) & 1) for l in range(params.n_sites)]
        acc = sum(
            params.j0 / (m - l) ** params.mu * s[l] * s[m]
            for l in range(params.n_sites)
            for m in range(l + 1, params.n_sites)
        )
        acc += (1.0 - params.lam) * sum(w * sl for w, sl in zip(disorder.w, s))
        out[c] = acc
    return out


@pytest.mark.parametrize("n_sites", [2, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_diagonals_bitwise_unchanged(n_sites, lam):
    p = default_params(n_sites, lam)
    disorder = sample_disorder(p, 11)
    diag = h2_diagonal(p, disorder)
    assert np.array_equal(diag, old_h2_diagonal(p, disorder))
    assert np.allclose(diag, loop_h2_diagonal(p, disorder), rtol=0, atol=1e-12)
    h3 = build_h3(p, disorder)
    fields = lam * (old_sign_table(n_sites) @ disorder.w)
    if lam != 0.0:
        assert np.array_equal(np.diag(h3).real, fields)
