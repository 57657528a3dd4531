"""The numpy kernels against dense Kronecker-product and per-configuration oracles."""

import numpy as np
import pytest

from dtcmorph import backend
from dtcmorph.hamiltonians import build_h3, default_params, h2_diagonal, sample_disorder


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
    rng = np.random.default_rng(n_sites)
    d = 1 << n_sites
    gate = random_complex(rng, (1 << width, 1 << width))
    mat = random_complex(rng, (d, d))
    psi = random_complex(rng, d)
    for bit in range(n_sites - width + 1):
        full = dense_gate(n_sites, bit, gate)
        work = mat.copy()
        apply(work, bit, gate)
        assert np.max(np.abs(work - full @ mat)) < 1e-12
        vec = psi.copy()
        apply(vec, bit, gate)
        assert np.max(np.abs(vec - full @ psi)) < 1e-12


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
