"""Numpy gate kernels behind the structured propagator.

Gates are applied by one kernel: a k x k gate on the row bits
(bit, ..., bit + log2(k) - 1) is one batched BLAS product `gate @ view` over
a (D / (k*m), k, m*cols) view, m = 2^bit, so the same code serves state
vectors, column blocks and D x cols matrices.
"""

import numpy as np


def _apply_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    if not mat.flags.c_contiguous:
        raise ValueError("gate kernels act in place on C-contiguous arrays only")
    gate = np.asarray(gate, dtype=complex)
    k = gate.shape[0]
    view = mat.reshape(mat.shape[0] // (k << bit), k, -1)
    view[:] = np.matmul(gate, view)


def apply_site_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    """Left-multiply `mat` (a state or a matrix) in place by a 2x2 gate on row-index `bit`."""
    _apply_gate(mat, bit, gate)


def apply_pair_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    """Left-multiply `mat` (a state or a matrix) in place by a 4x4 gate on row bits (bit, bit+1).

    Local basis ordering: value = bit + 2*(bit+1), i.e. the low bit varies fastest.
    """
    _apply_gate(mat, bit, gate)
