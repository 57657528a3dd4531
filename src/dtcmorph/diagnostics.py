"""Level-statistics and localization diagnostics.

Gap ratios r = min(delta_a, delta_{a+1}) / max(delta_a, delta_{a+1}) of the
sorted quasienergies distinguish localized from ergodic spectra without
spectral unfolding. Reference densities on [0, 1]:

* poisson:  P(r) = 2 / (1+r)^2                       (uncorrelated levels)
* goe:      P(r) = (27/4) (r+r^2) / (1+r+r^2)^(5/2)  (ergodic, undriven)
* coe:      3-eigenphase circular-orthogonal surmise (ergodic, driven)

The COE closed form implemented here is the one obtained by integrating the
3-level circular-ensemble joint eigenphase density; it is normalized to 1 on
[0, 1] (checked by quadrature in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import FloquetResult

REFERENCE_KINDS = ("poisson", "goe", "coe")

# below this, consecutive gaps count as exactly degenerate
DEGENERATE_GAP = 1e-12


@dataclass
class GapRatioSample:
    """Gap ratios of one spectrum plus degenerate-gap bookkeeping.

    `double_degenerate` counts ratio positions where both gaps were below
    DEGENERATE_GAP (ratio pinned to 1), `single_degenerate` where exactly one
    was (ratio pinned to 0).
    """

    ratios: np.ndarray
    double_degenerate: int = 0
    single_degenerate: int = 0


def gap_ratios(quasienergies: np.ndarray) -> GapRatioSample:
    """Ratios of consecutive gaps of an ascending spectrum (D-2 values)."""
    eps = np.asarray(quasienergies, dtype=float)
    if eps.ndim != 1 or len(eps) < 3:
        raise ValueError("need a 1-d spectrum with at least 3 levels")
    deltas = np.diff(eps)
    if not np.all(np.isfinite(deltas) & (deltas >= 0)):  # a NaN fails too
        raise ValueError("quasienergies must be finite and sorted ascending")
    lo = np.minimum(deltas[:-1], deltas[1:])
    hi = np.maximum(deltas[:-1], deltas[1:])
    tiny_lo = lo < DEGENERATE_GAP
    tiny_hi = hi < DEGENERATE_GAP
    ratios = lo / np.where(tiny_hi, 1.0, hi)
    ratios[tiny_lo & ~tiny_hi] = 0.0
    ratios[tiny_hi] = 1.0
    return GapRatioSample(
        ratios=np.clip(ratios, 0.0, 1.0),
        double_degenerate=int(np.sum(tiny_hi)),
        single_degenerate=int(np.sum(tiny_lo & ~tiny_hi)),
    )


def _poisson_density(r):
    return 2.0 / (1.0 + r) ** 2


def _goe_density(r):
    return 6.75 * (r + r * r) / (1.0 + r + r * r) ** 2.5


def _coe_density(r):
    u = 2.0 * np.pi * r / (1.0 + r)
    v = 2.0 * np.pi / (1.0 + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (2.0 / 3.0) * (
            np.sin(u) / (2.0 * np.pi * r * r)
            + 1.0 / (1.0 + r) ** 2
            + np.sin(v) / (2.0 * np.pi)
            - np.cos(v) / (1.0 + r)
            - np.cos(u) / (r * (1.0 + r))
        )
    # the 1/r terms cancel analytically; the density vanishes linearly at 0
    return np.where(r == 0.0, 0.0, val)


_DENSITIES = {"poisson": _poisson_density, "goe": _goe_density, "coe": _coe_density}


def reference_density(kind: str, r):
    """Reference gap-ratio density at r (scalar or array), r in [0, 1]."""
    if kind not in REFERENCE_KINDS:
        raise ValueError(f"kind must be one of {REFERENCE_KINDS}, got {kind!r}")
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both comparisons
        raise ValueError("r must lie in [0, 1]")
    out = _DENSITIES[kind](arr)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


# The 32-point Gauss-Legendre rule on [-1, 1], `np.polynomial.legendre.leggauss(32)`
# to the bit, as literals, so that no command loads numpy.polynomial (1.7 MB).
# The rule is symmetric; these are its 16 positive nodes and their weights.
# The densities are smooth on [0, 1], and 32 nodes match adaptive quadrature
# to 2.2e-16.
_GAUSS_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GAUSS_NODES = np.concatenate([-_GAUSS_HALF_NODES[::-1], _GAUSS_HALF_NODES])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_HALF_WEIGHTS[::-1], _GAUSS_HALF_WEIGHTS])


def mean_gap_ratio(kind: str) -> float:
    """First moment of a reference density: 32-point Gauss-Legendre rule for r * P(r)."""
    r = 0.5 * (_GAUSS_NODES + 1.0)
    return float(0.5 * np.dot(_GAUSS_WEIGHTS, r * reference_density(kind, r)))


def state_fractal_dimensions(result: FloquetResult) -> np.ndarray:
    """Fractal dimension ln P / ln D of every Floquet state, in quasienergy order.

    P = 1 / sum_l |C_l|^4 is the participation ratio: how many of the D
    configurations a state occupies.
    """
    states = result.require_states()
    d = states.shape[0]
    participation = 1.0 / np.sum(np.abs(states) ** 4, axis=0)
    participation = np.clip(participation, 1.0, float(d))
    return np.log(participation) / np.log(d)


@dataclass
class HistogramData:
    """Density-normalized histogram on uniform bins over [0, 1]."""

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def ratio_histogram(ratios: np.ndarray, bins: int = 20) -> HistogramData:
    """Histogram of gap ratios on uniform bins over [0, 1]; a ratio outside, or NaN, is
    a ValueError, so every ratio is counted."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    ratios = np.asarray(ratios, dtype=float)
    if not np.all((ratios >= 0.0) & (ratios <= 1.0)):  # NaN fails both comparisons
        raise ValueError("ratios must lie in [0, 1]")
    counts, edges = np.histogram(ratios, bins=bins, range=(0.0, 1.0))
    total = counts.sum()
    width = edges[1] - edges[0]
    density = counts / (total * width) if total > 0 else counts.astype(float)
    return HistogramData(edges=edges, counts=counts, density=density)
