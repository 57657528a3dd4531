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
as N/2 segment-1 dimer factors, the segment-2 phases and N/2 segment-3 dimer
factors, and `apply_floquet` applies them in place in O(N*D) per state.
`stripped_floquet_powers` evolves all 2^N configurations at once through one
merged dimer layer per period, again without F.

`diagonalize_floquet` diagonalizes the Hermitian Cayley transform of F, for
quasienergies alone (`eigvalsh`) and for Floquet states (`eigh` plus
Rayleigh quotients) alike; a complex Schur decomposition is the one
fallback where the transform or its gates refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import backend
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
from .spins import max_hermiticity_defect, max_unitarity_defect

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
# the Cayley transform of F falls back to Schur above this relative
# anti-Hermitian part, max|H - H^H| / max|H|
CAYLEY_HERMITICITY_TOL = 1e-10
# Floquet states from the Cayley transform fall back to Schur above these
# entrywise defects: the eigen-residual max|FV - V Lambda| and the
# orthonormality max|V^H V - 1|
CAYLEY_RESIDUAL_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10


@dataclass
class FloquetResult:
    """Diagonalized one-period propagator.

    `states` holds the orthonormal eigenvectors as columns, ordered like the
    ascending `quasienergies`; ties are broken by the index of the dominant
    configuration so degenerate clusters have a reproducible order. An
    eigenvalues-only result has `states` None; `fallback` marks one whose
    Cayley solve was refused by its gates, so Schur computed it.
    """

    quasienergies: np.ndarray
    states: np.ndarray | None
    period: float
    fallback: bool = False

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


def _site_rotations(params: ModelParams) -> list:
    """Segment-1 rotation of every site, site 1 first."""
    return [
        _site_rotation((params.g if site % 2 == 1 else params.lam * params.g) * params.t1)
        for site in range(1, params.n_sites + 1)
    ]


@dataclass(frozen=True)
class FloquetFactors:
    """F = U3 U2 U1 held by its factors, never as a D x D matrix.

    `u1[k]` and `u3[k]` are 4x4 gates on the row bits (2k, 2k+1) of dimer k+1,
    low bit fastest: `u1[k]` = kron(rotation of site 2k+2, rotation of site
    2k+1), `u3[k]` = exp(-i * t3 * dimer block). `phases` is the segment-2
    diagonal exp(-i * t2 * h2_diagonal).
    """

    u1: tuple
    phases: np.ndarray
    u3: tuple


def floquet_factors(
    params: ModelParams, disorder: DisorderRealization
) -> FloquetFactors:
    """The one-period propagator in factor form; O(D) memory."""
    phases = np.exp(-1j * params.t2 * h2_diagonal(params, disorder))
    rotations = _site_rotations(params)
    dimers = range(params.n_sites // 2)
    u1 = tuple(np.kron(rotations[2 * k + 1], rotations[2 * k]) for k in dimers)
    u3 = tuple(propagator(dimer_block(params, disorder, k + 1), params.t3) for k in dimers)
    return FloquetFactors(u1=u1, phases=phases, u3=u3)


def apply_floquet(factors: FloquetFactors, psi: np.ndarray) -> None:
    """Replace `psi` (a C-contiguous state, or states as columns) by F @ psi."""
    for k, gate in enumerate(factors.u1):
        backend.apply_pair_gate(psi, 2 * k, gate)
    psi *= factors.phases.reshape((-1,) + (1,) * (psi.ndim - 1))
    for k, gate in enumerate(factors.u3):
        backend.apply_pair_gate(psi, 2 * k, gate)


def _kron_halves(gates) -> tuple:
    """(G_hi, G_lo) with kron(G_hi, G_lo) the product of the dimer gates, gates[0] lowest."""
    split = len(gates) // 2
    one = np.ones((1, 1), dtype=complex)
    return tuple(reduce(np.kron, part[::-1], one) for part in (gates[split:], gates[:split]))


def stripped_floquet_powers(factors: FloquetFactors, n_periods: int):
    """Yield U3^H F^m for m = 1..n, all 2^N columns at once, never forming F.

    F^m = U3 [U2 (U1 U3)]^(m-1) U2 U1, so after U2 U1 every period applies
    the merged dimer gates u1[k] @ u3[k] and then the phases. The gates form
    K_hi (x) K_lo over the upper and lower dimers, applied as two GEMMs with
    the phases folded into the batched K_lo: O((d_hi + d_lo) D^2) per period
    against O(D^3) for F @ states. The missing left U3 keeps column norms and
    every observable that commutes with it, such as the total magnetization.
    The same D x D buffer is yielded each period and overwritten by the next.
    """
    k_hi, k_lo = _kron_halves([a @ b for a, b in zip(factors.u1, factors.u3)])
    d_hi, d_lo = len(k_hi), len(k_lo)
    phased_lo = factors.phases.reshape(d_hi, d_lo, 1) * k_lo  # diag(phases) (I (x) K_lo)
    states = np.kron(*_kron_halves(factors.u1))
    states *= factors.phases[:, None]
    scratch = np.empty_like(states)
    for m in range(n_periods):
        if m:
            np.matmul(k_hi, states.reshape(d_hi, -1), out=scratch.reshape(d_hi, -1))
            np.matmul(phased_lo, scratch.reshape(d_hi, d_lo, -1), out=states.reshape(d_hi, d_lo, -1))
        yield states


def fast_floquet_operator(
    params: ModelParams, disorder: DisorderRealization
) -> np.ndarray:
    """One-period propagator built from the segment structure.

    Segment 1 is applied as N single-site rotations, segment 2 as elementwise
    diagonal phases (no dense exponential), segment 3 as 4x4 exponentials of
    the mutually commuting dimer blocks.
    """
    factors = floquet_factors(params, disorder)
    mat = np.eye(params.dim, dtype=complex)
    for bit, gate in enumerate(_site_rotations(params)):
        backend.apply_site_gate(mat, bit, gate)
    mat *= factors.phases[:, None]
    for k, gate in enumerate(factors.u3):
        backend.apply_pair_gate(mat, 2 * k, gate)
    return mat


def _cayley_hermitian(f: np.ndarray) -> np.ndarray | None:
    """2H for the Hermitian Cayley transform H of a unitary F, or None when refused.

    H = i(1+F)(1-F)^-1 = i(2(1-F)^-1 - 1) is Hermitian, shares F's
    eigenvectors, and each eigenvalue e^{i*theta} of F becomes
    h = -cot(theta/2). H is symmetrized before `eigh`/`eigvalsh`, which read
    one triangle only. Refused (None): 1-F singular, or H non-finite or
    further from Hermitian than CAYLEY_HERMITICITY_TOL.
    """
    d = f.shape[0]
    h = np.negative(np.asarray(f, dtype=complex), order="F")
    h.flat[:: d + 1] += 1.0  # 1 - F, in place from here on
    lu, piv, info = lapack.zgetrf(h, overwrite_a=True)
    if info != 0:
        return None
    h, info = lapack.zgetri(lu, piv, lwork=64 * d, overwrite_lu=True)
    if info != 0:
        return None
    h *= 2j
    h.flat[:: d + 1] -= 1j
    herm = np.conj(h.T, order="F")
    herm += h  # H + H^H, Hermitian to the last bit
    h *= 2.0
    h -= herm  # H - H^H
    scale = np.abs(herm).max()
    if not (np.isfinite(scale) and np.abs(h).max() <= CAYLEY_HERMITICITY_TOL * scale):
        return None
    return herm


def diagonalize_floquet(f: np.ndarray, period: float, vectors: bool = True) -> FloquetResult:
    """Quasienergies and Floquet states of a unitary one-period propagator.

    Quasienergies are -arg(eigenvalue)/period folded onto the principal
    branch (-pi/period, pi/period]. F is diagonalized through its Hermitian
    Cayley transform H (`_cayley_hermitian`). With `vectors=False` only the
    sorted quasienergies are computed, from `eigvalsh(H)`. With states,
    `eigh(H)` gives an orthonormal basis V, also inside exactly degenerate
    clusters, and each eigenphase is the argument of the Rayleigh quotient
    v^H F v; the call is gated on the eigen-residual max|FV - V Lambda| and
    the orthonormality max|V^H V - 1|. Where the transform or a gate refuses,
    a complex Schur decomposition computes the result instead and marks it
    `fallback`.
    """
    defect = max_unitarity_defect(f)
    if not defect <= UNITARITY_TOL:  # a NaN defect fails too
        raise ValidationError(
            f"matrix deviates from unitary by {defect:.3e} (tol {UNITARITY_TOL})"
        )
    herm = _cayley_hermitian(f)
    angles = states = None
    if herm is not None and not vectors:
        values = scipy.linalg.eigvalsh(herm, overwrite_a=True, check_finite=False)
        angles = 2.0 * np.arctan2(1.0, -0.5 * values)
    elif herm is not None:
        # divide and conquer keeps V orthonormal to ~1e-15 where "evr" drifted to 4e-11
        _, basis = scipy.linalg.eigh(herm, overwrite_a=True, check_finite=False, driver="evd")
        fv = f @ basis
        quotients = np.vecdot(basis, fv, axis=0)  # v^H F v per column
        fv -= basis * quotients
        residual = np.abs(fv).max()
        orthonormality = max_unitarity_defect(basis)
        if residual <= CAYLEY_RESIDUAL_TOL and orthonormality <= ORTHONORMALITY_TOL:
            angles, states = np.angle(quotients), basis
    fallback = angles is None
    if fallback:
        upper, states = scipy.linalg.schur(np.asarray(f, dtype=complex), output="complex")
        angles = np.angle(np.diag(upper))
    eps = -angles / period
    edge = np.pi / period
    eps = np.where(eps <= -edge, eps + 2.0 * edge, eps)
    if not vectors:
        return FloquetResult(np.sort(eps), None, period, fallback=fallback)
    dominant = np.argmax(np.abs(states), axis=0)
    order = np.lexsort((dominant, eps))
    return FloquetResult(
        quasienergies=eps[order],
        states=states[:, order],
        period=period,
        fallback=fallback,
    )


def effective_hamiltonian(result: FloquetResult) -> np.ndarray:
    """Hermitian generator with F = exp(-i*H_eff*T), from the principal branch."""
    states = result.require_states()
    h = (states * result.quasienergies) @ states.conj().T
    return 0.5 * (h + h.conj().T)


def sparsity_fraction(mat: np.ndarray, rel_threshold: float = 1e-3) -> float:
    """Fraction of entries with magnitude above rel_threshold * max |entry|."""
    mags = np.abs(mat)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    return float(np.mean(mags > rel_threshold * peak))
