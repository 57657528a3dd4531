"""One-period propagators, quasienergy spectra and the effective Hamiltonian.

The drive is piecewise constant, so the one-period operator is the ordered
product F = U3 U2 U1 of segment propagators (segment 1 acts first, hence
rightmost). Two construction routes are provided:

* `floquet_operator` exponentiates the dense segment Hamiltonians; it is the
  slow, structure-free oracle;
* `fast_floquet_operator` exploits the segment structure (single-site
  rotations, diagonal phases, commuting 4x4 dimer blocks) and must agree with
  the dense route to 1e-10.

Where only states are evolved, F is never formed: `floquet_factors` holds it
as the N site rotations of segment 1 (also merged into N/2 dimer factors),
the segment-2 phases and N/2 segment-3 dimer factors, and `apply_floquet`
applies them in place in O(N*D) per state. `stripped_floquet_powers`
evolves all 2^N configurations at once, or a block of them, through one
merged dimer layer per period (`stripped_gates`), again without F.

`floquet_spectrum` gives the spectrum of one cell from its factors, and
the result names its route in `route`. Where every dimer gate is monomial,
F is a permutation times phases (at lam = 0 and 1 with the default
couplings), and `endpoint_spectrum` reads quasienergies and Floquet states
off F's permutation cycles in closed form ("closed_form"), with no dense F
and no eigensolve. Everywhere else dense F is built from the same factors
and `diagonalize_floquet` diagonalizes its Hermitian Cayley transform
("cayley"), formed in F's own buffer, for quasienergies and Floquet states
alike, retried on e^{-i phi} F for a few fixed phases phi where refused
("cayley_rotated"). F's unitarity is certified by its factors
(`unitarity_certificate`: their small Gram defects plus an a-priori bound
on the build's round-off), so no D x D Gram of F is taken; the states are
checked against F applied by its factors, one block of columns at a time.
The inverse and the eigensolve call LAPACK in the OpenBLAS that numpy
links (`lapack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import backend, lapack
from .errors import ValidationError
from .hamiltonians import (
    DisorderRealization,
    ModelParams,
    build_h1,
    build_h2,
    build_h3,
    dimer_block,
    h2_diagonal,
)
from .spins import BLOCK_COLS, max_hermiticity_defect, max_modulus, max_unitarity_defect

HERMITICITY_TOL = 1e-10
# a dense cell is refused where `unitarity_certificate`, a bound on
# max|F^H F - 1| for the F built from its factors, exceeds this
UNITARITY_TOL = 1e-10
# unit round-off of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53
# the Cayley transform of F is refused above this relative anti-Hermitian
# part, max|H - H^H| / max|H|
CAYLEY_HERMITICITY_TOL = 1e-10
# Floquet states from the Cayley transform are refused above these entrywise
# defects: the eigen-residual max|FV - V Lambda| and the orthonormality
# max|V^H V - 1|
CAYLEY_RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
# a refused Cayley solve is retried on e^{-i phi} F, phi = k pi / D for k in this
# order; |phi| < pi for D >= 4, so one fold restores the principal branch
CAYLEY_RETRY_STEPS = (1, -1, 3, -3)
# a dimer gate is monomial (a permutation times phases) when its off-pattern
# entries and modulus defects are at most this; at the default endpoints
# they are cos(pi/2) = 6e-17 and propagator round-off up to 2.2e-16
MONOMIAL_TOL = 1e-14
# rows per block of the effective Hamiltonian's product
HEFF_BLOCK_ROWS = 256


@dataclass
class FloquetResult:
    """Diagonalized one-period propagator.

    `states` holds the orthonormal eigenvectors as columns, ordered like the
    ascending `quasienergies`; ties are broken by the index of the dominant
    configuration so degenerate clusters have a reproducible order. An
    eigenvalues-only result has `states` None. `route` names what computed
    it: "closed_form" (`endpoint_spectrum`), "cayley", or "cayley_rotated"
    where only the Cayley solve of a phase-rotated F was accepted.
    """

    quasienergies: np.ndarray
    states: np.ndarray | None
    period: float
    route: str

    def require_states(self) -> np.ndarray:
        """The Floquet states; ValueError for an eigenvalues-only result."""
        if self.states is None:
            raise ValueError(
                "this FloquetResult holds quasienergies only; diagonalize with vectors=True"
            )
        return self.states

    @property
    def eigenvalues(self) -> np.ndarray:
        """Unit-circle eigenvalues exp(-i*eps*T) matching `quasienergies`."""
        return np.exp(-1j * self.quasienergies * self.period)


def propagator(h: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i*h*duration) through a Hermitian eigendecomposition."""
    if duration < 0:
        raise ValueError(f"duration must be nonnegative, got {duration}")
    defect = max_hermiticity_defect(h)
    if not defect <= HERMITICITY_TOL:  # a NaN defect fails too
        raise ValidationError(
            f"matrix deviates from Hermitian by {defect:.3e} (tol {HERMITICITY_TOL})"
        )
    h = 0.5 * (h + h.conj().T)  # scrub accumulated round-off
    energies, modes = np.linalg.eigh(h)
    return (modes * np.exp(-1j * energies * duration)) @ modes.conj().T


def floquet_operator(
    params: ModelParams, disorder: DisorderRealization
) -> np.ndarray:
    """One-period propagator from dense segment exponentials (oracle route)."""
    u1 = propagator(build_h1(params), params.t1)
    u2 = propagator(build_h2(params, disorder), params.t2)
    u3 = propagator(build_h3(params, disorder), params.t3)
    return u3 @ u2 @ u1


def _site_rotation(theta: float) -> np.ndarray:
    """exp(-i*theta*sigma^x) in closed form."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _site_rotations(params: ModelParams) -> tuple:
    """Segment-1 rotation of every site, site 1 first."""
    return tuple(
        _site_rotation((params.g if site % 2 == 1 else params.lam * params.g) * params.t1)
        for site in range(1, params.n_sites + 1)
    )


@dataclass(frozen=True)
class FloquetFactors:
    """F = U3 U2 U1 held by its factors, never as a D x D matrix.

    `rotations[l]` is the 2x2 segment-1 rotation of site l+1 (row bit l).
    `u1[k]` and `u3[k]` are 4x4 gates on the row bits (2k, 2k+1) of dimer k+1,
    low bit fastest: `u1[k]` = kron(rotations[2k+1], rotations[2k]), `u3[k]` =
    exp(-i * t3 * dimer block). `phases` is the segment-2 diagonal
    exp(-i * t2 * h2_diagonal).
    """

    rotations: tuple
    u1: tuple
    phases: np.ndarray
    u3: tuple


def floquet_factors(
    params: ModelParams, disorder: DisorderRealization
) -> FloquetFactors:
    """The one-period propagator in factor form; O(D) memory.

    One cell builds it once and hands it to `apply_floquet` or to
    `floquet_spectrum`, which passes it on to every route.
    """
    phases = np.exp(-1j * params.t2 * h2_diagonal(params, disorder))
    rotations = _site_rotations(params)
    dimers = range(params.n_sites // 2)
    u1 = tuple(np.kron(rotations[2 * k + 1], rotations[2 * k]) for k in dimers)
    u3 = tuple(propagator(dimer_block(params, disorder, k + 1), params.t3) for k in dimers)
    return FloquetFactors(rotations=rotations, u1=u1, phases=phases, u3=u3)


def apply_floquet(factors: FloquetFactors, psi: np.ndarray) -> None:
    """Replace `psi` (a C-contiguous state, or states as columns) by F @ psi."""
    for k, gate in enumerate(factors.u1):
        backend.apply_pair_gate(psi, 2 * k, gate)
    psi *= factors.phases.reshape((-1,) + (1,) * (psi.ndim - 1))
    for k, gate in enumerate(factors.u3):
        backend.apply_pair_gate(psi, 2 * k, gate)


def _halves(dimers) -> tuple:
    """(upper, lower) parts of a per-dimer sequence, [0] lowest; the lower holds len // 2."""
    split = len(dimers) // 2
    return dimers[split:], dimers[:split]


def _kron_halves(gates) -> tuple:
    """(G_hi, G_lo) with kron(G_hi, G_lo) the product of the dimer gates, gates[0] lowest."""
    one = np.ones((1, 1), dtype=complex)
    return tuple(reduce(np.kron, part[::-1], one) for part in _halves(gates))


def kron_dims(n_sites: int) -> tuple[int, int]:
    """(d_hi, d_lo): the dimensions of `_kron_halves` over the N/2 dimers of a chain."""
    return tuple(4 ** len(part) for part in _halves(range(n_sites // 2)))


@dataclass(frozen=True)
class StrippedGates:
    """The operators of `stripped_floquet_powers`, built once per F by `stripped_gates`.

    `k_hi` (d_hi x d_hi) and the batched (d_hi, d_lo, d_lo) `phased_lo` =
    diag(phases) (I (x) K_lo) are the merged dimer layer of one period, and
    `u1_hi`, `u1_lo` the Kronecker halves of U1 (see `kron_dims`). Only
    `phased_lo` grows with D: D * d_lo entries, 4 MB at N = 12.
    """

    k_hi: np.ndarray
    phased_lo: np.ndarray
    u1_hi: np.ndarray
    u1_lo: np.ndarray
    phases: np.ndarray


def stripped_gates(factors: FloquetFactors) -> StrippedGates:
    k_hi, k_lo = _kron_halves([a @ b for a, b in zip(factors.u1, factors.u3)])
    phased_lo = factors.phases.reshape(len(k_hi), len(k_lo), 1) * k_lo
    return StrippedGates(k_hi, phased_lo, *_kron_halves(factors.u1), factors.phases)


def stripped_floquet_powers(gates: StrippedGates, n_periods: int, block: range | None = None):
    """Yield U3^H F^m for m = 1..n, for a block of the 2^N columns, never forming F.

    F^m = U3 [U2 (U1 U3)]^(m-1) U2 U1, so after U2 U1 every period applies
    the merged dimer gates u1[k] @ u3[k] and then the phases. The gates form
    K_hi (x) K_lo over the upper and lower dimers, applied as two GEMMs with
    the phases folded into the batched K_lo: O((d_hi + d_lo) D^2) per period
    against O(D^3) for F @ states. The missing left U3 keeps column norms and
    every observable that commutes with it, such as the total magnetization.

    `gates` is `stripped_gates(factors)`, which every block of one F shares.
    `block` is a range of the high Kronecker index (default: all of
    `range(d_hi)`, see `kron_dims`). The yielded D x (len(block) * d_lo)
    array holds the columns [block.start * d_lo, block.stop * d_lo) and
    starts from kron(U1_hi[:, block], U1_lo), so a block never builds a
    D x D temporary. Columns evolve independently, so a block's columns are
    those of the whole. The same buffer is yielded each period and
    overwritten by the next.
    """
    d_hi, d_lo = len(gates.k_hi), len(gates.u1_lo)
    u1_hi = gates.u1_hi if block is None else gates.u1_hi[:, block.start:block.stop]
    states = np.kron(u1_hi, gates.u1_lo)
    states *= gates.phases[:, None]
    scratch = np.empty_like(states)
    for m in range(n_periods):
        if m:
            np.matmul(gates.k_hi, states.reshape(d_hi, -1), out=scratch.reshape(d_hi, -1))
            np.matmul(gates.phased_lo, scratch.reshape(d_hi, d_lo, -1),
                      out=states.reshape(d_hi, d_lo, -1))
        yield states


def fast_floquet_operator(factors: FloquetFactors) -> np.ndarray:
    """Dense one-period propagator built from its factors.

    Segment 1 is applied as N single-site rotations, segment 2 as elementwise
    diagonal phases (no dense exponential), segment 3 as the N/2 4x4
    exponentials of the mutually commuting dimer blocks.
    """
    mat = np.eye(len(factors.phases), dtype=complex)
    for bit, gate in enumerate(factors.rotations):
        backend.apply_site_gate(mat, bit, gate)
    mat *= factors.phases[:, None]
    for k, gate in enumerate(factors.u3):
        backend.apply_pair_gate(mat, 2 * k, gate)
    return mat


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative error bound of k roundings (Higham's gamma_k)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _layers_growth(gates) -> float:
    """prod of sqrt(1 + e) + beta over the layers of the m x m `gates` (`unitarity_certificate`)."""
    if not gates:
        return 1.0
    g = np.asarray(gates, dtype=complex)
    m = g.shape[-1]
    frobenius2 = np.sum(np.abs(g) ** 2, axis=(1, 2))
    gram = np.conj(np.swapaxes(g, 1, 2)) @ g - np.eye(m)
    e = np.sqrt(np.sum(np.abs(gram) ** 2, axis=(1, 2)))
    e += math.sqrt(2.0) * _gamma(2 * m + 1) * frobenius2
    beta = math.sqrt(2.0) * _gamma(2 * m) * np.sqrt(frobenius2)
    return float(np.prod(np.sqrt(1.0 + e) + beta))


def unitarity_certificate(factors: FloquetFactors) -> float:
    """An upper bound on max|F^H F - 1| for F = `fast_floquet_operator(factors)`,
    taken from the factors alone in O(N) small products; NaN where a factor
    holds a NaN.

    The build applies 3N/2 + 1 layers to the columns of the identity: the N
    2x2 `rotations`, the `phases` and the N/2 4x4 `u3` gates; `apply_floquet`
    applies N + 1 layers, the N/2 `u1` gates in place of the rotations. Each
    layer acts on every column x as the full-space L = I (x) G (x) I of its
    gate G, or diag(phases), and has the singular values of G. Let P be the
    exact product of the stored layers, and F the computed one, column c of
    F being P e_c + r_c.

    Factors. For an m x m gate, e = ||G^H G - 1||_2 bounds the layer's
    singular values to [sqrt(1 - e), sqrt(1 + e)]. It is taken as the
    Frobenius norm of the computed G^H G - 1 plus that Gram's round-off,
    sqrt(2) gamma_{2m+1} || |G|^T |G| ||_2 <= sqrt(2) gamma_{2m+1} ||G||_F^2
    (see below; the 1 subtracted adds one rounding); the Frobenius norm's
    own rounding is relative and of the order m u, so it is left out. For
    the phases, with d = max||phase| - 1| + 2u (u for the modulus, u for
    its rounding into d), sqrt(1 + e) = 1 + d.

    Round-off. An entry of a layer's product is an inner product of m
    complex terms. Each of its real and imaginary parts is a sum of 2m real
    products, which any summation order, with or without FMA, computes to
    within gamma_{2m} of the sum of their moduli, and |a_r b_r| + |a_i b_i|
    <= |a||b|. So fl(L x) = L x + f with |f| <= sqrt(2) gamma_{2m} |L||x|
    entrywise, and ||f||_2 <= beta ||x||_2, beta = sqrt(2) gamma_{2m} ||G||_F,
    as || |L| ||_2 = || |G| ||_2 <= ||G||_F. A phase is one complex product:
    beta = sqrt(2) gamma_2 (1 + d).

    Bound. With s_j = sqrt(1 + e_j), S = prod s_j >= ||P||_2 and
    T = prod (s_j + beta_j), induction over the layers gives
    ||r_c|| <= T - S for every column, and
    ||P^H P - 1||_2 <= prod (1 + e_j) - 1 = S^2 - 1. Then every entry of
    F^H F - 1 = (P^H P - 1) + P^H R + R^H P + R^H R is at most
    S^2 - 1 + 2 S (T - S) + (T - S)^2 = T^2 - 1, the certificate: the larger
    of T^2 - 1 for the build and for `apply_floquet`. For clean factors the
    gates contribute a few tens of u each, so the bound is ~1e-13 at N = 10
    against measured Gram defects of ~3e-15 there, three orders of magnitude
    under UNITARITY_TOL; a gate or phases scaled by 1.01 give ~2e-2.
    """
    d = float(np.max(np.abs(np.abs(factors.phases) - 1.0))) + 2.0 * UNIT_ROUNDOFF
    phase = (1.0 + d) * (1.0 + math.sqrt(2.0) * _gamma(2))
    rest = phase * _layers_growth(factors.u3)
    firsts = [_layers_growth(gates) for gates in (factors.rotations, factors.u1)]
    return float(np.max(firsts)) ** 2 * rest**2 - 1.0  # np.max keeps a NaN


def _block_pairs(dim: int) -> list:
    """Pairs (a, b), a <= b, of the BLOCK_COLS-wide index blocks of range(dim)."""
    blocks = [slice(lo, lo + BLOCK_COLS) for lo in range(0, dim, BLOCK_COLS)]
    return [(a, b) for i, a in enumerate(blocks) for b in blocks[i:]]


def _transpose_in_place(mat: np.ndarray) -> None:
    """Replace the square `mat` by its transpose, one block pair at a time.

    A C-ordered F then holds F^T, so `mat.T` is F in Fortran order in the
    same buffer, with the same values; beside `mat` only one block exists.
    """
    for a, b in _block_pairs(len(mat)):
        upper = mat[a, b].copy()
        mat[a, b] = mat[b, a].T
        mat[b, a] = upper.T


def _hermitian_part(h: np.ndarray) -> tuple[float, float]:
    """Replace the square `h` by h + h^H in place; return max|2h - (h + h^H)| and max|h + h^H|.

    Walks pairs (a, b), a <= b, of BLOCK_COLS-wide index blocks: S = h[a, b] +
    h[b, a]^H goes to [a, b] and S^H to [b, a], so the result is Hermitian to
    the last bit, and beside `h` only temporaries of one block pair exist.
    The first maximum, the anti-Hermitian part of the input, is taken in both
    blocks of each pair before they are overwritten. Either maximum is NaN
    where an entry is.
    """
    defects, scales = [], []
    for a, b in _block_pairs(len(h)):
        s = h[a, b] + np.conj(h[b, a]).T
        defects += [np.abs(2.0 * h[a, b] - s).max(), np.abs(2.0 * h[b, a] - s.conj().T).max()]
        scales.append(np.abs(s).max())
        h[a, b] = s
        h[b, a] = s.conj().T
    return float(np.max(defects)), float(np.max(scales))


def _cayley_hermitian(g: np.ndarray, phase: float = 0.0) -> np.ndarray | None:
    """2H for the Hermitian Cayley transform H of the unitary e^{-i phase} F, or None when refused.

    `g` holds F as a writeable Fortran-ordered complex128 array and is
    consumed: the transform is formed in its buffer, which is returned.
    H = i(1+G)(1-G)^-1 = i(2(1-G)^-1 - 1) for G = e^{-i phase} F is
    Hermitian, shares F's eigenvectors, and each eigenvalue e^{i*theta} of G
    becomes h = -cot(theta/2). H is symmetrized (`_hermitian_part`) before
    `lapack.eigh`, which reads one triangle only. Refused (None): 1-G
    singular, or H non-finite or further from Hermitian than
    CAYLEY_HERMITICITY_TOL. Beside `g` it allocates `lapack.invert`'s
    workspace of 64 D entries and block temporaries.
    """
    d = g.shape[0]
    if phase:
        g *= -np.exp(-1j * phase)
    else:
        np.negative(g, out=g)
    g.flat[:: d + 1] += 1.0  # 1 - G
    if not lapack.invert(g):
        return None
    g *= 2j
    g.flat[:: d + 1] -= 1j
    defect, scale = _hermitian_part(g)  # g is 2H from here on
    if not (np.isfinite(scale) and defect <= CAYLEY_HERMITICITY_TOL * scale):
        return None
    return g


def _cayley_solve(g: np.ndarray, phase: float, factors: FloquetFactors | None):
    """(eigenphases of F, states or None) from the Cayley transform of e^{-i phase} F.

    The transform is formed in `g`, which holds F (see `_cayley_hermitian`).
    With `factors`, the Floquet states are computed too, in `g`'s buffer,
    and gated against F applied by its factors (`_rayleigh_quotients`).
    None where the transform or a gate refuses; see `diagonalize_floquet`.
    """
    herm = _cayley_hermitian(g, phase)
    if herm is None:
        return None
    if factors is None:
        values = lapack.eigh(herm, vectors=False)
        return 2.0 * np.arctan2(1.0, -0.5 * values) + phase, None
    # divide and conquer keeps V orthonormal to ~1e-15 where "evr" drifted to 4e-11
    lapack.eigh(herm, vectors=True)
    basis = herm  # overwritten by the eigenvectors
    quotients, residual = _rayleigh_quotients(basis, factors)
    orthonormality = max_unitarity_defect(basis)
    if residual <= CAYLEY_RESIDUAL_TOL and orthonormality <= ORTHONORMALITY_TOL:
        return np.angle(quotients), basis
    return None


def _rayleigh_quotients(basis: np.ndarray, factors: FloquetFactors) -> tuple[np.ndarray, float]:
    """(v^H F v per column of `basis`, the eigen-residual max|FV - V Lambda|).

    Taken one BLOCK_COLS-column block at a time: F is applied by its factors
    (`apply_floquet`) to a C-ordered copy of the block, so beside `basis`
    only block-sized arrays exist and no F or FV is formed. The residual is
    NaN where an entry is.
    """
    quotients = np.empty(basis.shape[1], dtype=complex)
    defects = []
    for lo in range(0, len(quotients), BLOCK_COLS):
        cols = slice(lo, lo + BLOCK_COLS)
        fv = np.array(basis[:, cols], order="C")
        apply_floquet(factors, fv)
        quotients[cols] = np.vecdot(basis[:, cols], fv, axis=0)
        fv -= basis[:, cols] * quotients[cols]
        defects.append(max_modulus(fv))
    return quotients, float(np.max(defects))


def diagonalize_floquet(
    f: np.ndarray, factors: FloquetFactors, period: float, vectors: bool = True
) -> FloquetResult:
    """Quasienergies and Floquet states of F = `fast_floquet_operator(factors)`, which is consumed.

    Quasienergies are -arg(eigenvalue)/period folded onto the principal
    branch (-pi/period, pi/period]. F is diagonalized through its Hermitian
    Cayley transform H (`_cayley_hermitian`). With `vectors=False` only the
    sorted quasienergies are computed, from the eigenvalues of H. With
    states, its eigenvectors give an orthonormal basis V, also inside exactly
    degenerate clusters, and each eigenphase is the argument of the Rayleigh
    quotient v^H F v; the call is gated on the eigen-residual
    max|FV - V Lambda| and the orthonormality max|V^H V - 1|. Where the
    transform or a gate refuses, the solve is retried on G = e^{-i phi} F for
    phi = k pi / D, k in CAYLEY_RETRY_STEPS, with route "cayley_rotated":
    values add phi back to G's eigenphases, and the quotients and residual
    are taken against F itself. Refused at every phi, it is a ValidationError.

    First the unitarity gate: `unitarity_certificate(factors)`, a bound on
    max|F^H F - 1| from the factors F is built from, must be at most
    UNITARITY_TOL, and a NaN in a factor fails it. No Gram of F is taken; a
    NaN that enters F after a clean build makes the Cayley transform
    non-finite, which every attempt refuses.

    `f` is the C-ordered F built from `factors`, and its buffer is spent:
    it is transposed in place by block pairs, so that it holds F in Fortran
    order, and the transform is formed there. A
    retry builds F again from `factors`, after the refused attempt's buffer
    is freed (where the caller keeps no reference to `f`). Values hold that
    one D x D buffer and block-sized temporaries. States are computed in
    the same buffer, beside zheevd's two workspace buffers, and the
    Rayleigh quotients and the residual apply F through its factors to one
    BLOCK_COLS-column block of V at a time (`_rayleigh_quotients`), so no F
    and no FV are kept beside them. No max|entry| or Gram makes a full-size
    temporary.
    """
    defect = unitarity_certificate(factors)
    if not defect <= UNITARITY_TOL:  # a NaN defect fails too
        raise ValidationError(
            f"matrix deviates from unitary by {defect:.3e} (tol {UNITARITY_TOL})"
        )
    for step in (0, *CAYLEY_RETRY_STEPS):
        if step:  # the refused attempt spent F's buffer: free it, build F again
            del f
            f = fast_floquet_operator(factors)
        _transpose_in_place(f)
        solved = _cayley_solve(f.T, step * np.pi / len(f), factors if vectors else None)
        if solved is not None:
            route = "cayley_rotated" if step else "cayley"
            return _ordered_result(*solved, period, route)
    raise ValidationError(
        f"the Cayley solve refused F and e^(-i k pi/D) F for every k in {CAYLEY_RETRY_STEPS}"
    )


def _ordered_result(angles, states, period: float, route: str) -> FloquetResult:
    """Quasienergies -angles/period on the principal branch, ascending.

    With `states` (eigenvectors as columns, matching `angles`), ties are
    broken by the index of each state's dominant configuration, and the
    columns are reordered in place: beside `states` only blocks of
    BLOCK_COLS columns and one column of scratch are allocated.
    """
    eps = -angles / period
    edge = np.pi / period
    eps = np.where(eps <= -edge, eps + 2.0 * edge, eps)
    if states is None:
        return FloquetResult(np.sort(eps), None, period, route)
    dominant = np.concatenate([
        np.argmax(np.abs(states[:, lo:lo + BLOCK_COLS]), axis=0)
        for lo in range(0, states.shape[1], BLOCK_COLS)
    ])
    order = np.lexsort((dominant, eps))
    _permute_columns(states, order.tolist())
    return FloquetResult(eps[order], states, period, route)


def _permute_columns(mat: np.ndarray, order: list) -> None:
    """Replace mat by mat[:, order] in place, one permutation cycle at a time."""
    scratch = np.empty(len(mat), dtype=mat.dtype)
    done = [False] * len(order)
    for start in range(len(order)):
        if done[start] or order[start] == start:
            continue
        scratch[:] = mat[:, start]
        col = start
        while order[col] != start:
            mat[:, col] = mat[:, order[col]]
            done[col] = True
            col = order[col]
        mat[:, col] = scratch
        done[col] = True


def _monomial(gate: np.ndarray):
    """(rows, values) with gate[:, j] = values[j] e_rows[j], or None.

    The gate counts as monomial when one entry per column has unit modulus,
    every other entry is at most MONOMIAL_TOL and no two columns share a row;
    a NaN fails.
    """
    cols = np.arange(len(gate))
    rows = np.argmax(np.abs(gate), axis=0)
    values = gate[rows, cols]
    rest = np.abs(gate)
    rest[rows, cols] = np.abs(np.abs(values) - 1.0)
    if not rest.max() <= MONOMIAL_TOL or len(set(rows.tolist())) < len(rows):
        return None
    return rows, values


def _permutation_action(factors: FloquetFactors):
    """(sigma, phi) with F e_c = phi[c] e_sigma[c] for every configuration c.

    Built by bit operations from the monomial dimer gates and the phases, in
    O(N*D); None when a gate is not monomial or a phase is off the unit circle.
    """
    if not np.abs(np.abs(factors.phases) - 1.0).max() <= MONOMIAL_TOL:
        return None
    configs = np.arange(len(factors.phases))
    sigma, phi = configs, np.ones(len(configs), dtype=complex)
    for layer in (factors.u1, factors.u3):
        if layer is factors.u3:  # the segment-2 phases act between the layers
            phi = phi * factors.phases[sigma]
        moved = np.zeros_like(configs)
        for k, gate in enumerate(layer):
            action = _monomial(gate)
            if action is None:
                return None
            bits = (sigma >> 2 * k) & 3
            moved |= action[0][bits] << 2 * k
            phi = phi * action[1][bits]
        sigma = moved
    return sigma, phi


def _cycles(sigma: np.ndarray):
    """Yield every cycle of the permutation `sigma`, grouped by length L.

    Each group is an (n, L) array whose row holds one cycle c, sigma(c),
    sigma^2(c), ..., starting from its smallest configuration.
    """
    configs = np.arange(len(sigma))
    length = np.zeros(len(sigma), dtype=int)
    leader = configs
    image = sigma
    step = 1
    while not length.all():
        length[(length == 0) & (image == configs)] = step
        leader = np.minimum(leader, image)
        image = sigma[image]
        step += 1
    leaders = np.flatnonzero(leader == configs)
    for size in sorted(set(length[leaders].tolist())):  # np.unique would import numpy.ma
        walk = [leaders[length[leaders] == size]]
        for _ in range(size - 1):
            walk.append(sigma[walk[-1]])
        yield np.stack(walk, axis=1)


def endpoint_spectrum(
    factors: FloquetFactors, period: float, vectors: bool = True
) -> FloquetResult | None:
    """Quasienergies and Floquet states of a monomial F, given by its factors,
    from its permutation cycles.

    Where every dimer gate is monomial (the exact endpoints lam = 0 and 1 at
    the default couplings), F e_c = phi_c e_sigma(c). A cycle c_0 .. c_{L-1}
    of sigma with total phase Phi has the eigenvalues
    mu_k = exp(i(arg Phi + 2 pi k)/L), and the eigenvector of mu_k is the
    phase-twisted Fourier mode with entry (prod_{i<j} phi_{c_i}) mu_k^-j / sqrt(L)
    on c_j. F is never formed and nothing is diagonalized; the only D x D
    array is `states`, built only with `vectors`. The modes are gated
    like the Cayley route's states: eigen-residual (F applied through sigma
    and phi) and orthonormality within CAYLEY_RESIDUAL_TOL and
    ORTHONORMALITY_TOL. None where F is not monomial or a gate refuses.
    """
    action = _permutation_action(factors)
    if action is None:
        return None
    sigma, phi = action
    dim = len(sigma)
    # Fortran order, like the states of the LAPACK routes, so that H_eff's
    # products see one layout whichever route computed the states
    states = np.zeros((dim, dim), dtype=complex, order="F") if vectors else None
    angles = []
    for cycles in _cycles(sigma):
        n, size = cycles.shape
        steps = np.arange(size)
        cycle_phi = phi[cycles]
        prefix = np.cumprod(np.c_[np.ones(n), cycle_phi[:, :-1]], axis=1)
        total = prefix[:, -1] * cycle_phi[:, -1]  # Phi of each cycle
        theta = (np.angle(total)[:, None] + 2.0 * np.pi * steps) / size
        mu = np.exp(1j * theta)  # (cycle, k)
        # (cycle, j, k): entry j of the mode of mu_k
        mode = prefix[:, :, None] * np.exp(-1j * steps[:, None] * theta[:, None, :]) / np.sqrt(size)
        residual = np.abs(cycle_phi[:, :, None] * mode - mu[:, None, :] * np.roll(mode, -1, axis=1))
        gram = np.matmul(mode.conj().transpose(0, 2, 1), mode) - np.eye(size)
        if not (residual.max() <= CAYLEY_RESIDUAL_TOL and np.abs(gram).max() <= ORTHONORMALITY_TOL):
            return None
        if states is not None:
            cols = sum(map(len, angles)) + np.arange(n * size).reshape(n, 1, size)
            states[cycles[:, :, None], cols] = mode
        angles.append(np.angle(mu).ravel())
    return _ordered_result(np.concatenate(angles), states, period, "closed_form")


def floquet_spectrum(factors: FloquetFactors, period: float, vectors: bool = True) -> FloquetResult:
    """Quasienergies, and with `vectors` Floquet states, of F given by its factors.

    The closed form (`endpoint_spectrum`) answers where it can; elsewhere
    dense F is built (`fast_floquet_operator`) and spent by
    `diagonalize_floquet`, by Cayley, retried on a phase-rotated F where
    refused. The result's `route` says which.
    """
    result = endpoint_spectrum(factors, period, vectors)
    if result is None:
        result = diagonalize_floquet(fast_floquet_operator(factors), factors, period, vectors)
    return result


def effective_hamiltonian(result: FloquetResult) -> np.ndarray:
    """Hermitian generator with F = exp(-i*H_eff*T), from the principal branch.

    H = V diag(eps) V^H over blocks of HEFF_BLOCK_ROWS rows, then
    (H + H^H)/2 in place (`_hermitian_part`), so beside the states V and H
    itself only O(HEFF_BLOCK_ROWS * D) temporaries exist: V^H is never
    copied (a row block of H is conj(conj(V_rows eps) V^T), with V^T a view).
    """
    states = result.require_states()
    dim = len(states)
    h = np.empty((dim, dim), dtype=complex)
    for lo in range(0, dim, HEFF_BLOCK_ROWS):
        rows = slice(lo, lo + HEFF_BLOCK_ROWS)
        scaled = states[rows] * result.quasienergies
        np.matmul(np.conj(scaled, out=scaled), states.T, out=h[rows])
        np.conj(h[rows], out=h[rows])
    _hermitian_part(h)
    h *= 0.5
    return h


def sparsity_fraction(mat: np.ndarray, rel_threshold: float = 1e-3) -> float:
    """Fraction of entries with magnitude above rel_threshold * max |entry|.

    The max and the count are taken over blocks of BLOCK_COLS columns, so no
    full-size modulus or mask array exists beside `mat`.
    """
    peak = max_modulus(mat)
    if peak == 0.0:
        return 0.0
    bound = rel_threshold * peak
    count = sum(int(np.count_nonzero(np.abs(mat[:, lo:lo + BLOCK_COLS]) > bound))
                for lo in range(0, mat.shape[1], BLOCK_COLS))
    return count / mat.size
