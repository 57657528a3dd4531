"""The ctypes LAPACK bindings against scipy's separately built LAPACK as the oracle."""

import numpy as np
import pytest
import scipy.linalg

from dtcmorph import lapack

DIMS = [1, 2, 16, 256]
# entrywise agreement with scipy, relative to the largest entry: both sides
# run backward-stable LAPACK on well-conditioned inputs in float64
ORACLE_RTOL = 1e-12
# eigenvectors of a random Hermitian matrix agree up to a phase, to within
# round-off over the smallest gap (measured >= 0.05 for these seeds)
VECTOR_TOL = 1e-9


def random_complex(dim, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_hermitian(dim, seed):
    mat = random_complex(dim, seed)
    return np.asfortranarray(mat + mat.conj().T)


def assert_close(ours, theirs):
    assert np.max(np.abs(ours - theirs)) <= ORACLE_RTOL * max(1.0, np.max(np.abs(theirs)))


@pytest.mark.parametrize("dim", DIMS)
def test_invert_matches_scipy(dim):
    # shifted by 2 sqrt(D): far from singular
    a = np.asfortranarray(random_complex(dim, dim) + 2.0 * np.sqrt(dim) * np.eye(dim))
    expected = scipy.linalg.inv(a)
    assert lapack.invert(a)
    assert_close(a, expected)


@pytest.mark.parametrize("dim", [2, 16])
def test_invert_refuses_a_singular_matrix(dim):
    a = random_complex(dim, 1)
    a[:, -1] = 0.0
    assert not lapack.invert(a)


@pytest.mark.parametrize("dim", DIMS)
def test_eigh_values_match_scipy(dim):
    h = random_hermitian(dim, dim + 1)
    expected = scipy.linalg.eigvalsh(h)
    values = lapack.eigh(h.copy(order="F"), vectors=False)
    assert np.all(np.diff(values) >= 0)
    assert_close(values, expected)


@pytest.mark.parametrize("dim", DIMS)
def test_eigh_vectors_match_scipy(dim):
    h = random_hermitian(dim, dim + 2)
    expected_values, expected_vectors = scipy.linalg.eigh(h)
    basis = h.copy(order="F")
    values = lapack.eigh(basis, vectors=True)
    assert_close(values, expected_values)
    assert np.max(np.abs(h @ basis - basis * values)) <= ORACLE_RTOL * np.max(np.abs(values)) * dim
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) <= ORACLE_RTOL * dim
    overlaps = np.abs(np.einsum("ij,ij->j", basis.conj(), expected_vectors))
    assert np.max(np.abs(overlaps - 1.0)) <= VECTOR_TOL


@pytest.mark.parametrize(
    "bad",
    [
        np.eye(3, dtype=complex),  # C order
        np.asfortranarray(np.eye(3)),  # float64
        np.zeros((2, 3), dtype=complex, order="F"),  # not square
        np.zeros((0, 0), dtype=complex, order="F"),  # empty
    ],
)
def test_routines_reject_unsuitable_arrays(bad):
    for call in (lapack.invert, lambda a: lapack.eigh(a, vectors=True)):
        with pytest.raises(ValueError, match="square Fortran-ordered complex128"):
            call(bad)


def test_missing_symbols_are_named(monkeypatch):
    monkeypatch.setitem(lapack._SIGNATURES, "zbogus", (1, 0))
    with pytest.raises(ImportError, match="scipy_zbogus_64_ or zbogus_64_"):
        lapack._bind()
    monkeypatch.delitem(lapack._SIGNATURES, "zbogus")
    monkeypatch.setattr(lapack, "_THREAD_SETTER", "openblas_bogus_threads")
    with pytest.raises(ImportError, match="missing openblas_bogus_threads$"):
        lapack._bind()


def test_library_names_numpy_lapack():
    config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    assert lapack.library() == f"{config['name']} {config['version']}"


def test_environment_records_the_libraries_and_cpus(monkeypatch):
    env = lapack.environment(blas_threads_at_start=3)
    assert set(env) == {"python", "numpy", "lapack", "openblas_core", "openblas_config",
                        "cpu_count", "affinity", "blas_threads_at_start"}
    assert env["numpy"] == np.__version__ and env["lapack"] == lapack.library()
    assert env["blas_threads_at_start"] == 3
    # numpy's wheels export both queries; the build string names the core
    assert env["openblas_core"] and env["openblas_core"] in env["openblas_config"]
    # a library without them is recorded, not refused
    monkeypatch.setitem(lapack._BUILD_QUERIES, "openblas_core", "get_bogus")
    assert lapack.environment(1)["openblas_core"] is None
