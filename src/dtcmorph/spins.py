"""Computational z-basis for a chain of N two-level systems.

Conventions used throughout the package:

* a configuration is an integer index in [0, 2^N); bit (l-1) of the index
  stores site l, so site 1 is the least-significant bit;
* bit value 0 means sigma^z eigenvalue +1 ("up"), bit value 1 means -1;
* state vectors are dense complex arrays of length 2^N over configurations;
* sites are numbered 1..N.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError

# largest |norm - 1| a state, or any column of a block, may show
NORM_TOL = 1e-9
# columns per block where a D x D array is reduced or rewritten piecewise: a
# block is 1/4 of the array at N = 8 and 1/64 at N = 12
BLOCK_COLS = 64


def dimension(n_sites: int) -> int:
    return 1 << n_sites

def n_sites_of(psi: np.ndarray) -> int:
    """Number of sites for a state vector; rejects non-power-of-two lengths."""
    d = len(psi)
    n = d.bit_length() - 1
    if d < 2 or d != (1 << n):
        raise ValueError(f"state length {d} is not a power of two >= 2")
    return n


def basis_state(n_sites: int, config: int) -> np.ndarray:
    """Unit vector for one z-basis configuration."""
    d = dimension(n_sites)
    if not 0 <= config < d:
        raise ValueError(f"configuration {config} outside [0, {d})")
    psi = np.zeros(d, dtype=complex)
    psi[config] = 1.0
    return psi


@lru_cache(maxsize=None)
def sign_table(n_sites: int) -> np.ndarray:
    """(D, N) array of sigma^z eigenvalues; cached, treat as read-only."""
    idx = np.arange(dimension(n_sites))
    table = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n_sites)[None, :]) & 1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def magnetization_weights(n_sites: int) -> np.ndarray:
    """(D,) array of per-configuration mean magnetization (N_up - N_down)/N."""
    weights = sign_table(n_sites).mean(axis=1)
    weights.setflags(write=False)
    return weights


def _check_site(site: int, n_sites: int) -> None:
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside [1, {n_sites}]")


def local_magnetization(psi: np.ndarray, site: int) -> float:
    """Expectation value <psi|sigma^z_site|psi>."""
    psi = np.asarray(psi, dtype=complex)
    n = n_sites_of(psi)
    _check_site(site, n)
    return float(sign_table(n)[:, site - 1] @ np.abs(psi) ** 2)


def norm_deviation(psi: np.ndarray) -> float:
    """max |norm - 1| of the state, or over every column of a 2-D block; NaN if a norm is."""
    # vecdot conjugates its first argument and needs no block-sized temporary
    norms = np.sqrt(np.vecdot(psi, psi, axis=0).real)
    return float(np.max(np.abs(norms - 1.0)))


def check_norm_deviation(deviation: float) -> None:
    """ValidationError unless a `norm_deviation` is within NORM_TOL; a NaN fails too."""
    if not deviation <= NORM_TOL:
        raise ValidationError(f"state norm deviates from 1 by {deviation:.3e} (tol {NORM_TOL})")


def max_hermiticity_defect(mat: np.ndarray) -> float:
    """Max-entry norm of (M - M^dagger)."""
    return float(np.max(np.abs(mat - mat.conj().T)))


def max_modulus(mat: np.ndarray) -> float:
    """max |entry| of a 2-D array, over blocks of BLOCK_COLS columns; NaN if an entry is."""
    return float(np.max([np.abs(mat[:, lo:lo + BLOCK_COLS]).max()
                         for lo in range(0, mat.shape[1], BLOCK_COLS)]))


def max_unitarity_defect(mat: np.ndarray) -> float:
    """Max-entry norm of (M^dagger M - I) for a square M; NaN if M holds one.

    It gates the orthonormality of computed Floquet states and serves the
    tests; a built F is certified by its factors instead
    (`floquet.unitarity_certificate`). The Gram matrix M^H M is Hermitian,
    so its lower block triangle holds every modulus. It is taken one block
    row at a time: the BLOCK_COLS columns of a block, conjugated, against
    the columns up to them. Beside M only the conjugated block and its block
    row exist, 2 BLOCK_COLS * D entries.
    """
    return float(np.max([_gram_row_defect(mat, lo) for lo in range(0, mat.shape[1], BLOCK_COLS)]))


def _gram_row_defect(mat: np.ndarray, lo: int) -> float:
    """max|(M^H M - I)[block, :hi]| for the block of columns lo:hi, hi = lo + BLOCK_COLS."""
    hi = lo + BLOCK_COLS
    gram = np.conj(mat[:, lo:hi]).T @ mat[:, :hi]
    width = len(gram)
    gram[range(width), range(lo, lo + width)] -= 1.0
    return np.abs(gram).max()
