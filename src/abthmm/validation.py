"""Input checks shared by the model classes and the compiler.

Every helper raises ValueError with a message naming the offending input,
and returns the validated value (numbers as a float64 numpy array) so
callers can use the result directly.
"""

import numpy as np

ATOL = 1e-9

# Widest emission alphabet a model may have. Each row of an emission matrix
# is as wide as the alphabet, so callers check before allocating one.
SYMBOL_CAP = 1 << 20


class SymbolCapError(ValueError):
    """An emission alphabet would exceed SYMBOL_CAP symbols."""


def check_symbol_count(count, what):
    """Raise SymbolCapError unless count (an int, or a float span that may be
    inf) is at most SYMBOL_CAP; what names the alphabet's source."""
    if not count <= SYMBOL_CAP:
        shown = f"{count:.6g}" if isinstance(count, float) else count
        raise SymbolCapError(f"{what} needs {shown} symbols, more than the cap of {SYMBOL_CAP}")
    return count


def check_probability_vector(p, name="p", atol=ATOL):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {p.shape}")
    if p.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(p >= 0):
        raise ValueError(f"{name} has negative or NaN entries")
    if not abs(p.sum() - 1.0) <= atol:
        raise ValueError(f"{name} sums to {float(p.sum())}, expected 1")
    return p


def check_stochastic_matrix(m, name="matrix", atol=ATOL):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not np.all(m >= 0):
        raise ValueError(f"{name} has negative or NaN entries")
    sums = m.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= atol))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} sums to {float(sums[bad[0]])}, expected 1")
    return m


def check_updates(updates, name="updates"):
    """The Baum-Welch parameter groups to refit: any of "s", "t", "e"."""
    if set(updates) - set("ste"):
        raise ValueError(f"{name} must only contain 's', 't', 'e': {updates!r}")
    return updates


def check_observations(obs, n_symbols, name="obs"):
    obs = np.asarray(obs)
    if obs.ndim != 1:
        raise ValueError(f"{name} must be a flat sequence, got shape {obs.shape}")
    if obs.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.issubdtype(obs.dtype, np.integer):
        as_int = obs.astype(np.int64)
        if np.any(as_int != obs):
            raise ValueError(f"{name} contains non-integer symbols")
        obs = as_int
    if obs.min() < 0 or obs.max() >= n_symbols:
        raise ValueError(
            f"{name} contains symbol {int(obs[np.argmax((obs < 0) | (obs >= n_symbols))])} "
            f"outside [0, {n_symbols})"
        )
    return obs.astype(np.int64)
