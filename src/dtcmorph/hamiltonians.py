"""The three piecewise-constant segment Hamiltonians of the driven chain.

One drive period of length T = t1 + t2 + t3 applies, in order:

* segment 1: x-rotations, full strength g on odd sites, strength lam*g on
  even sites;
* segment 2: long-range Ising couplings j0/|l-m|^mu (each pair counted once)
  plus (1-lam) times random on-site z fields;
* segment 3: (1-lam) times flip-flop couplings on the dimers (1,2), (3,4), ...
  plus lam times the same random z fields.

At lam=0 the drive produces 4T-periodic magnetization dynamics; at lam=1 it
is the disorder-localized 2T-periodic drive. Intermediate lam melts one order
and recrystallizes the other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .spins import dimension, sign_table

MAX_SITES = 12  # dense 2^N x 2^N matrices only; D <= 4096


@dataclass(frozen=True)
class ModelParams:
    """All couplings of the three-segment drive (hbar = 1)."""

    n_sites: int
    lam: float
    t1: float
    t2: float
    t3: float
    g: float
    j0: float
    mu: float
    jxy: float
    w: float  # disorder bound; on-site fields are drawn uniformly from [0, w]

    def __post_init__(self):
        if self.n_sites % 2 != 0 or not 2 <= self.n_sites <= MAX_SITES:
            raise ValueError(
                f"n_sites must be even and within [2, {MAX_SITES}], got {self.n_sites}"
            )
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        for name in ("t1", "t2", "t3", "g", "j0", "mu", "jxy", "w"):
            # a NaN would pass every comparison below
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.t1, self.t2, self.t3) <= 0.0:
            raise ValueError("segment durations must be positive")
        if self.w < 0.0:
            raise ValueError("disorder bound w must be nonnegative")

    @property
    def period(self) -> float:
        return self.t1 + self.t2 + self.t3

    @property
    def dim(self) -> int:
        return dimension(self.n_sites)


@dataclass(frozen=True)
class DisorderRealization:
    """One sampled profile of on-site z fields, with its seed for provenance."""

    w: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))


def default_params(n_sites: int, lam: float = 0.0) -> ModelParams:
    """Default coupling profile with the period fixed to T = 1.

    The segment durations are T/3 each and the couplings satisfy
    g*t1 = pi/2, j0*t2 = 0.15, w*t3 = pi, jxy*t3 = pi/4, mu = 1.51.
    """
    t_seg = 1.0 / 3.0
    return ModelParams(
        n_sites=n_sites,
        lam=lam,
        t1=t_seg,
        t2=t_seg,
        t3=t_seg,
        g=(np.pi / 2) / t_seg,
        j0=0.15 / t_seg,
        mu=1.51,
        jxy=(np.pi / 4) / t_seg,
        w=np.pi / t_seg,
    )


def sample_disorder(params: ModelParams, seed: int) -> DisorderRealization:
    """Draw n_sites independent fields uniformly from [0, w].

    Deterministic function of (seed, n_sites, w): bit for bit the draw of
    `numpy.random.default_rng(seed).uniform(0.0, w, n_sites)`, O'Neill's
    PCG64 (XSL-RR 128/64) seeded by numpy's `SeedSequence`, replayed in
    integers (`_pcg64_doubles`) so that no command loads `numpy.random`.
    The seed is any nonnegative integer (numpy's included); a negative one
    is a ValueError and a float a TypeError, as under numpy.
    """
    u = _pcg64_doubles(operator.index(seed), params.n_sites)
    return DisorderRealization(w=[0.0 + params.w * x for x in u], seed=seed)


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_doubles(seed: int, count: int) -> list:
    """The first `count` doubles in [0, 1) of numpy's PCG64(SeedSequence(seed))."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5  # SeedSequence's hashmix/mix entropy pool of 4 words

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD  # generate_state(4, uint64): 8 words, low word first
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    seed_words = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
    # PCG64 srandom: state 0, inc = 2*initseq + 1, step, add initstate, step
    inc = ((seed_words[2] << 64 | seed_words[3]) << 1 | 1) & _MASK128
    lcg = (inc + (seed_words[0] << 64 | seed_words[1])) * _PCG_MULTIPLIER + inc & _MASK128
    out = []
    for _ in range(count):
        lcg = (lcg * _PCG_MULTIPLIER + inc) & _MASK128
        x = ((lcg >> 64) ^ lcg) & 0xFFFFFFFFFFFFFFFF  # XSL-RR output
        rot = lcg >> 122
        x = (x >> rot | x << (64 - rot)) & 0xFFFFFFFFFFFFFFFF
        out.append((x >> 11) * 2.0**-53)
    return out


def _check_disorder(params: ModelParams, disorder: DisorderRealization) -> None:
    if len(disorder.w) != params.n_sites:
        raise ValueError(
            f"disorder has {len(disorder.w)} fields for {params.n_sites} sites"
        )


def build_h1(params: ModelParams) -> np.ndarray:
    """Segment-1 Hamiltonian: g sum_(odd l) sigma^x_l + lam*g sum_(even l) sigma^x_l."""
    d = params.dim
    h = np.zeros((d, d), dtype=complex)
    idx = np.arange(d)
    for site in range(1, params.n_sites + 1):
        coeff = params.g if site % 2 == 1 else params.lam * params.g
        if coeff == 0.0:
            continue
        h[idx ^ (1 << (site - 1)), idx] += coeff
    return h


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


def h2_diagonal(params: ModelParams, disorder: DisorderRealization) -> np.ndarray:
    """Diagonal of the segment-2 Hamiltonian over all configurations."""
    _check_disorder(params, disorder)
    diag = pair_coupling_diagonal(params.n_sites, params.j0, params.mu)
    if params.lam != 1.0:
        diag = diag + (1.0 - params.lam) * field_diagonal(disorder.w)
    return diag


def build_h2(params: ModelParams, disorder: DisorderRealization) -> np.ndarray:
    """Segment-2 Hamiltonian: long-range Ising couplings plus (1-lam) z fields.

    Diagonal in the computational basis.
    """
    return np.diag(h2_diagonal(params, disorder)).astype(complex)


def dimer_sites(n_sites: int) -> list[tuple[int, int]]:
    """The flip-flop bonds (1,2), (3,4), ..., (N-1,N)."""
    return [(2 * k - 1, 2 * k) for k in range(1, n_sites // 2 + 1)]


def dimer_block(params: ModelParams, disorder: DisorderRealization, k: int) -> np.ndarray:
    """4x4 segment-3 Hamiltonian of dimer k (sites 2k-1, 2k).

    Local basis ordering follows the configuration index: the first site of
    the dimer is the faster bit, so basis = (uu, du, ud, dd).
    """
    a, b = 2 * k - 1, 2 * k
    wa = params.lam * disorder.w[a - 1]
    wb = params.lam * disorder.w[b - 1]
    hop = 2.0 * (1.0 - params.lam) * params.jxy
    return np.array(
        [
            [wa + wb, 0.0, 0.0, 0.0],
            [0.0, -wa + wb, hop, 0.0],
            [0.0, hop, wa - wb, 0.0],
            [0.0, 0.0, 0.0, -wa - wb],
        ],
        dtype=complex,
    )


def build_h3(params: ModelParams, disorder: DisorderRealization) -> np.ndarray:
    """Segment-3 Hamiltonian: (1-lam) dimer flip-flops plus lam z fields.

    Commutes with the total z magnetization; diagonal at lam=1.
    """
    _check_disorder(params, disorder)
    d = params.dim
    h = np.zeros((d, d), dtype=complex)
    idx = np.arange(d)
    hop = 2.0 * (1.0 - params.lam) * params.jxy
    if hop != 0.0:
        for a, b in dimer_sites(params.n_sites):
            bit_a, bit_b = a - 1, b - 1
            pair_mask = (1 << bit_a) | (1 << bit_b)
            # flip-flop couples configurations whose dimer bits differ
            sel = (((idx >> bit_a) ^ (idx >> bit_b)) & 1) == 1
            h[idx[sel] ^ pair_mask, idx[sel]] += hop
    if params.lam != 0.0:
        h[idx, idx] += params.lam * field_diagonal(disorder.w)
    return h
