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
from scipy.linalg import blas

from .errors import ValidationError


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


def check_normalized(psi: np.ndarray, tol: float = 1e-9) -> None:
    """ValidationError unless the state, or every column of a 2-D block, has norm 1."""
    # vecdot conjugates its first argument and needs no block-sized temporary
    norms = np.sqrt(np.vecdot(psi, psi, axis=0).real)
    deviation = float(np.max(np.abs(norms - 1.0)))
    if not deviation <= tol:  # a NaN norm fails too
        raise ValidationError(f"state norm deviates from 1 by {deviation:.3e} (tol {tol})")


def max_hermiticity_defect(mat: np.ndarray) -> float:
    """Max-entry norm of (M - M^dagger)."""
    return float(np.max(np.abs(mat - mat.conj().T)))


def max_unitarity_defect(mat: np.ndarray) -> float:
    """Max-entry norm of (M^dagger M - I) for a square M; NaN if M holds one."""
    # herk forms the upper triangle of the Gram matrix only. It reads Fortran
    # order, so a C-ordered M goes in uncopied as M^T, Gram matrix conj(M^H M).
    c_order = mat.flags.c_contiguous
    gram = blas.zherk(1.0, mat.T if c_order else mat, trans=0 if c_order else 2)
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())
