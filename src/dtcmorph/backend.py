"""Numpy kernels behind the Hamiltonian diagonals and the structured propagator.

The diagonals are evaluated over all 2^N configurations at once from the
cached sign table. Gates are applied by one kernel: a k x k gate on the row
bits (bit, ..., bit + log2(k) - 1) is a single einsum over a
(D / (k*m), k, m*cols) view, m = 2^bit, so the same code serves state vectors
and D x cols matrices.
"""

import numpy as np

from .spins import sign_table


def pair_coupling_diagonal(n_sites: int, j0: float, mu: float) -> np.ndarray:
    """Diagonal of sum_{l<m} j0/(m-l)^mu * s_l*s_m over all 2^n configurations."""
    signs = sign_table(n_sites)
    weights = np.zeros((n_sites, n_sites))
    for l in range(n_sites):
        for m in range(l + 1, n_sites):
            weights[l, m] = j0 / (m - l) ** mu
    return np.einsum("cl,lm,cm->c", signs, weights, signs)


def field_diagonal(w: np.ndarray) -> np.ndarray:
    """Diagonal of sum_l w[l]*s_l over all 2^len(w) configurations."""
    return sign_table(len(w)) @ np.asarray(w, dtype=float)


def _apply_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    if not mat.flags.c_contiguous:
        raise ValueError("gate kernels act in place on C-contiguous arrays only")
    gate = np.asarray(gate, dtype=complex)
    k = gate.shape[0]
    m = 1 << bit
    view = mat.reshape(mat.shape[0] // (k * m), k, -1)
    view[:] = np.einsum("ab,xbj->xaj", gate, view)


def apply_site_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    """Left-multiply `mat` (a state or a matrix) in place by a 2x2 gate on row-index `bit`."""
    _apply_gate(mat, bit, gate)


def apply_pair_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    """Left-multiply `mat` (a state or a matrix) in place by a 4x4 gate on row bits (bit, bit+1).

    Local basis ordering: value = bit + 2*(bit+1), i.e. the low bit varies fastest.
    """
    _apply_gate(mat, bit, gate)
