"""Distribution distances for emission rows, in bits.

The synthetic emission family places one Gaussian bump per state on the
symbol axis. Consecutive centers sit ratio * SIGMA apart while each bump
has standard deviation SIGMA / 2, so the ratio, the family's one
decodability control, sets how much neighboring rows overlap: 0 makes
every row identical, 5 makes them essentially disjoint.
"""

import math
from dataclasses import dataclass

import numpy as np

from .validation import check_probability_vector, check_symbol_count

_FLOOR = 1e-300

# Spacing unit of the synthetic family, in symbols.
SIGMA = 2.0


def kl_divergence(p, q):
    """Relative entropy D(p || q) in bits.

    Returns math.inf when p puts mass on a cell where q has none.
    """
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.shape != q.shape:
        raise ValueError("p and q have different lengths")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float((p[mask] * np.log2(p[mask] / q[mask])).sum())


def js_divergence(p, q):
    """Jensen-Shannon divergence in bits; symmetric and bounded by 1."""
    p = check_probability_vector(p, "p")
    q = check_probability_vector(q, "q")
    if p.shape != q.shape:
        raise ValueError("p and q have different lengths")
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)


def jsd_all(rows):
    """Mixture entropy minus mean row entropy, in bits, over the uniform
    mixture of the rows.

    Computed as the mean of D(row || mixture), which is the same quantity
    without the cancellation of the entropy difference; identical rows give
    an exact zero. With K rows the value is bounded by log2(K); it hits the
    bound when the rows have pairwise disjoint support.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("rows must be a non-empty matrix")
    k = rows.shape[0]
    for i in range(k):
        check_probability_vector(rows[i], f"rows[{i}]")
    if bool(np.all(rows == rows[0])):
        return 0.0
    w = 1.0 / k
    mix = np.full(k, w) @ rows
    return float(sum(w * kl_divergence(r, mix) for r in rows))


@dataclass(frozen=True)
class SyntheticEmissionSpec:
    n_states: int
    ratio: float
    n_symbols: int = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be positive")
        if not math.isfinite(self.ratio):
            raise ValueError(f"ratio must be finite, got {self.ratio}")
        if self.ratio < 0:
            raise ValueError("ratio must be non-negative")


def default_n_symbols(n_states, ratio):
    """Alphabet size that comfortably fits all centers plus margins.

    Raises SymbolCapError when the centers alone span more than SYMBOL_CAP.
    """
    span = check_symbol_count((n_states + 1) * ratio * SIGMA,
                              f"a synthetic family of {n_states} rows at ratio {ratio}")
    return max(16, math.ceil(span) + 8 * math.ceil(SIGMA))


def synth_emissions(spec):
    """Build the synthetic emission matrix for a spec, one row per state.

    Row i is a discretized Gaussian centered at 4*SIGMA + i*ratio*SIGMA with
    standard deviation SIGMA/2, floored at a tiny positive value and
    normalized over the alphabet. Raises ValueError when the alphabet cannot
    hold all centers with a 4*SIGMA margin on both sides, and SymbolCapError
    before allocating when it or the span it needs exceeds SYMBOL_CAP.
    """
    n = spec.n_states
    j = spec.n_symbols
    if j is None:
        j = default_n_symbols(n, spec.ratio)
    check_symbol_count(j, "the synthetic alphabet")
    offset = 4.0 * SIGMA
    span = 2 * offset + (n - 1) * spec.ratio * SIGMA
    what = f"a synthetic family of {n} rows at ratio {spec.ratio}"
    needed = math.ceil(check_symbol_count(span, what))
    if j < needed:
        raise ValueError(
            f"alphabet of {j} symbols is too small for {n} rows at "
            f"ratio {spec.ratio} (needs at least {needed})"
        )
    centers = offset + np.arange(n) * spec.ratio * SIGMA
    width = SIGMA / 2.0
    idx = np.arange(j, dtype=np.float64)
    rows = np.exp(-((idx[None, :] - centers[:, None]) ** 2) / (2.0 * width**2))
    rows = np.maximum(rows, _FLOOR)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def divergence_table(sizes, ratios):
    """Rows (ratio, n_states, kld, jsd, jsd_all) over a grid of model sizes
    and decodability ratios; the pairwise columns compare the first two
    synthetic rows."""
    out = []
    for ratio in ratios:
        for n in sizes:
            rows = synth_emissions(SyntheticEmissionSpec(n, ratio))
            out.append(
                (
                    float(ratio),
                    int(n),
                    kl_divergence(rows[0], rows[1]) if n > 1 else 0.0,
                    js_divergence(rows[0], rows[1]) if n > 1 else 0.0,
                    jsd_all(rows),
                )
            )
    return out
