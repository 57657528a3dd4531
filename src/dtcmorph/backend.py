"""Numpy gate kernels behind the structured propagator.

Gates are applied by one kernel: a k x k gate on the row bits
(bit, ..., bit + log2(k) - 1) is one batched BLAS product `gate @ view` over
a (D / (k*m), k, m*cols) view, m = 2^bit, so the same code serves state
vectors, column blocks and D x cols matrices. The product runs over chunks
of the view's leading axis, or of its trailing axis where one (k, m*cols)
slab is already too large, so that each temporary holds at most
`spins.BLOCK_COLS` * D entries: a state vector or a narrow block is one
chunk, and a D x D matrix never has a full-size temporary. The chunks are
independent batches and columns, so the result is bitwise the one-shot
product's.
"""

import numpy as np

from .spins import BLOCK_COLS


def _apply_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    if not mat.flags.c_contiguous:
        raise ValueError("gate kernels act in place on C-contiguous arrays only")
    gate = np.asarray(gate, dtype=complex)
    k = gate.shape[0]
    view = mat.reshape(mat.shape[0] // (k << bit), k, -1)
    lead, _, trail = view.shape
    limit = BLOCK_COLS * mat.shape[0]
    if k * trail <= limit:  # whole slabs, a run of them at a time
        step = limit // (k * trail)
        chunks = (view[lo:lo + step] for lo in range(0, lead, step))
    else:  # every slab, a run of columns at a time
        step = limit // (lead * k)
        chunks = (view[..., lo:lo + step] for lo in range(0, trail, step))
    for chunk in chunks:
        chunk[:] = np.matmul(gate, chunk)


def apply_site_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    """Left-multiply `mat` (a state or a matrix) in place by a 2x2 gate on row-index `bit`."""
    _apply_gate(mat, bit, gate)


def apply_pair_gate(mat: np.ndarray, bit: int, gate: np.ndarray) -> None:
    """Left-multiply `mat` (a state or a matrix) in place by a 4x4 gate on row bits (bit, bit+1).

    Local basis ordering: value = bit + 2*(bit+1), i.e. the low bit varies fastest.
    """
    _apply_gate(mat, bit, gate)
