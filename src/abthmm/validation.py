"""Input checks shared by the model classes and the compiler.

Every helper raises ValueError with a message naming the offending input,
and returns the validated value (numbers as a float64 numpy array) so
callers can use the result directly.
"""

import math
import numbers
import operator

import numpy as np

# How far from 1 a probability vector or stochastic row may sum.
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


def check_probability_vector(p, name="p"):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {p.shape}")
    if p.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(p >= 0):
        raise ValueError(f"{name} has negative or NaN entries")
    if not abs(p.sum() - 1.0) <= ATOL:
        raise ValueError(f"{name} sums to {float(p.sum())}, expected 1")
    return p


def check_stochastic_matrix(m, name="matrix"):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not np.all(m >= 0):
        raise ValueError(f"{name} has negative or NaN entries")
    sums = m.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ATOL))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} sums to {float(sums[bad[0]])}, expected 1")
    return m


def check_updates(updates):
    """The Baum-Welch parameter groups to refit: any of "s", "t", "e"."""
    if set(updates) - set("ste"):
        raise ValueError(f"updates must only contain 's', 't', 'e': {updates!r}")
    return updates


def check_max_iter(max_iter):
    """A Baum-Welch iteration cap: an integer, at least 1."""
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    return int(max_iter)


def check_tol(tol):
    """A Baum-Welch convergence tolerance: a number, at least 0 (not NaN)."""
    if not (isinstance(tol, numbers.Real) and tol >= 0):
        raise ValueError(f"tol must be a number of at least 0, got {tol!r}")
    return float(tol)


def check_ratio(ratio):
    """An emission ratio: finite and non-negative."""
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio}")
    if ratio < 0:
        raise ValueError("ratio must be non-negative")
    return ratio


def check_p_tilde(p_tilde):
    """A perturbation strength: in [0, 0.5]."""
    if not (0.0 <= p_tilde <= 0.5):
        raise ValueError(f"p_tilde {p_tilde} outside [0, 0.5]")
    return p_tilde


def check_run_count(n):
    """A number of rollout runs: a positive integer."""
    if operator.index(n) < 1:
        raise ValueError(f"need at least one run, got {n}")
    return n


def check_observations(obs, n_symbols):
    obs = np.asarray(obs)
    if obs.ndim != 1:
        raise ValueError(f"obs must be a flat sequence, got shape {obs.shape}")
    if obs.size == 0:
        raise ValueError("obs is empty")
    if not np.issubdtype(obs.dtype, np.integer):
        as_int = obs.astype(np.int64)
        if np.any(as_int != obs):
            raise ValueError("obs contains non-integer symbols")
        obs = as_int
    if obs.min() < 0 or obs.max() >= n_symbols:
        raise ValueError(
            f"obs contains symbol {int(obs[np.argmax((obs < 0) | (obs >= n_symbols))])} "
            f"outside [0, {n_symbols})"
        )
    return obs.astype(np.int64, copy=False)
