import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcmorph.errors import ValidationError
from dtcmorph.spins import (
    basis_state,
    check_norm_deviation,
    local_magnetization,
    magnetization_weights,
    max_modulus,
    max_unitarity_defect,
    norm_deviation,
)


def random_state(n_sites, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return psi / np.linalg.norm(psi)


def test_local_magnetization_polarized():
    n = 4
    up = basis_state(n, 0)
    down = basis_state(n, (1 << n) - 1)
    for site in range(1, n + 1):
        assert local_magnetization(up, site) == pytest.approx(1.0)
        assert local_magnetization(down, site) == pytest.approx(-1.0)


def test_local_magnetization_superposition_is_zero():
    # (|0> + |1>)/sqrt(2) on site 1
    psi = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
    assert local_magnetization(psi, 1) == pytest.approx(0.0, abs=1e-12)


def test_local_magnetization_site_range():
    with pytest.raises(ValueError):
        local_magnetization(basis_state(2, 0), 3)


def total_magnetization(psi):
    # how dynamics reads the total magnetization of a state
    return float(magnetization_weights(int(np.log2(psi.size))) @ np.abs(psi) ** 2)


def test_total_magnetization_examples():
    assert total_magnetization(basis_state(4, 0)) == pytest.approx(1.0)
    assert total_magnetization(basis_state(4, 0b1111)) == pytest.approx(-1.0)
    # alternating |0101...> has equal up and down counts
    assert total_magnetization(basis_state(4, 0b1010)) == pytest.approx(0.0)


@settings(max_examples=50, deadline=None)
@given(config=st.integers(0, 63))
def test_total_magnetization_counts_bits(config):
    n = 6
    n_down = bin(config).count("1")
    expected = (n - 2 * n_down) / n
    assert total_magnetization(basis_state(n, config)) == expected


def test_magnetization_weights_cached_consistent():
    w = magnetization_weights(5)
    assert w[0] == 1.0
    assert w[-1] == -1.0
    assert len(w) == 32


def test_norm_check_flags_one_drifted_column():
    block = np.stack([random_state(3, seed) for seed in range(5)], axis=1)
    check_norm_deviation(norm_deviation(block))
    check_norm_deviation(norm_deviation(block[:, 0]))
    block[:, 2] *= 1 + 1e-6
    with pytest.raises(ValidationError, match="1.000e-06"):
        check_norm_deviation(norm_deviation(block))
    block[:, 2] = np.nan
    with pytest.raises(ValidationError, match="nan"):
        check_norm_deviation(norm_deviation(block))


@pytest.mark.parametrize("shape, order", [((256, 256), "C"), ((256, 256), "F"), ((100, 150), "C")])
def test_max_modulus_is_the_one_shot_maximum(shape, order):
    rng = np.random.default_rng(3)
    mat = np.asarray(rng.normal(size=shape) + 1j * rng.normal(size=shape), order=order)
    assert max_modulus(mat) == np.abs(mat).max()
    mat[7, -1] = np.nan
    assert np.isnan(max_modulus(mat))


def test_unitarity_defect_sees_every_column_block():
    # D = 256: the broken column lies in the last of four column blocks
    q = np.linalg.qr(random_state(8, 1)[:, None] * random_state(8, 2)[None, :] + np.eye(256))[0]
    assert max_unitarity_defect(q) < 1e-12
    q[:, 250] *= 1.01
    assert max_unitarity_defect(q) == pytest.approx(1.01**2 - 1)
    q[3, 250] = np.nan
    assert np.isnan(max_unitarity_defect(q))


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one_shot_unitarity_defect(mat):
    return np.abs(mat.conj().T @ mat - np.eye(len(mat))).max()


# (j, k): column k leans on column j, so only Gram entries (j, k) and (k, j)
# move; they lie in the block pair of index blocks 0 and 3, which only the
# product of one block with another sees
@pytest.mark.parametrize("j, k", [(10, 200), (200, 10)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_unitarity_defect_sees_a_kick_off_the_diagonal_blocks(j, k, order):
    q = np.asarray(haar_unitary(256, 4), order=order)
    assert max_unitarity_defect(q) < 1e-13
    eps = 1e-8
    q[:, k] = (q[:, k] + eps * q[:, j]) / np.sqrt(1.0 + eps**2)
    assert max_unitarity_defect(q) == pytest.approx(eps, rel=1e-6)
    assert max_unitarity_defect(q) == pytest.approx(one_shot_unitarity_defect(q), rel=1e-6)


def test_unitarity_defect_takes_a_short_last_block():
    # D = 150: blocks of 64, 64 and 22 columns
    q = haar_unitary(150, 5)
    assert max_unitarity_defect(q) == pytest.approx(one_shot_unitarity_defect(q), abs=1e-15)
    rng = np.random.default_rng(6)
    m = rng.normal(size=(150, 150)) + 1j * rng.normal(size=(150, 150))
    assert max_unitarity_defect(m) == pytest.approx(one_shot_unitarity_defect(m), rel=1e-13)
    q[140, 145] = np.nan
    assert np.isnan(max_unitarity_defect(q))
