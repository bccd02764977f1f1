"""Shared fixtures and brute-force oracles for the test suite."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from abthmm import compile_abt, parse
from abthmm.hmm import DiscreteHMM
from abthmm.simulate import Dataset, Run
from abthmm.tree import (
    FAILURE,
    SUCCESS,
    VISIT_CAP,
    ABTDefinition,
    Leaf,
    LeafStats,
    Selector,
    Sequence,
    TickLimitError,
    execute,
)
from abthmm.validation import check_observations

REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "models"


def uniform_row(j):
    return tuple(1.0 / j for _ in range(j))


def make_leaf(i, ps=0.5, j=8):
    return Leaf(f"n{i}", LeafStats(ps, uniform_row(j)))


def random_canonical_tree(rng, l, j=8):
    """A random canonical tree over l leaves: composite nodes have at least
    two children and alternate kinds, leaf ps are drawn from (0.05, 0.95)."""
    names = itertools.count()

    def build(n, allow):
        if n == 1:
            i = next(names)
            ps = float(np.round(rng.uniform(0.05, 0.95), 3))
            return Leaf(f"n{i}", LeafStats(ps, uniform_row(j)))
        k = int(rng.integers(2, min(n, 4) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        parts = np.diff([0, *cuts, n])
        if allow == "both":
            kind = Sequence if rng.random() < 0.5 else Selector
        else:
            kind = Sequence if allow == "seq" else Selector
        child_allow = "sel" if kind is Sequence else "seq"
        return kind(tuple(build(int(q), child_allow) for q in parts))

    return ABTDefinition(build(l, "both"), j, uniform_row(j), uniform_row(j))


def all_canonical_trees(l, j=8):
    """Every canonical tree over l leaves (large Schroeder many)."""

    def compositions(n):
        for k in range(2, n + 1):
            for cuts in itertools.combinations(range(1, n), k - 1):
                prev, parts = 0, []
                for c in cuts:
                    parts.append(c - prev)
                    prev = c
                parts.append(n - prev)
                yield parts

    def build(n, start, allow):
        if n == 1:
            yield make_leaf(start, j=j)
            return
        kinds = []
        if allow in ("seq", "both"):
            kinds.append(Sequence)
        if allow in ("sel", "both"):
            kinds.append(Selector)
        for kind in kinds:
            child_allow = "sel" if kind is Sequence else "seq"
            for parts in compositions(n):
                pools, pos = [], start
                for p in parts:
                    pools.append(list(build(p, pos, child_allow)))
                    pos += p
                for combo in itertools.product(*pools):
                    yield kind(tuple(combo))

    for root in build(l, 0, "both"):
        yield ABTDefinition(root, j, uniform_row(j), uniform_row(j))


def schroder(n):
    """Number of canonical trees with n leaves: 1, 2, 6, 22, 90, 394, ..."""
    vals = [1, 2]
    while len(vals) < n:
        k = len(vals)
        vals.append((3 * (2 * k - 1) * vals[-1] - (k - 2) * vals[-2]) // (k + 1))
    return vals[n - 1]


# ----------------------------------------------------------------------
# brute-force HMM oracles (only viable for tiny instances)


def brute_path_logp(pi, a, b, obs, path):
    p = pi[path[0]] * b[path[0], obs[0]]
    for t in range(1, len(obs)):
        p *= a[path[t - 1], path[t]] * b[path[t], obs[t]]
    return math.log(p) if p > 0 else -math.inf


def brute_forward(pi, a, b, obs):
    """log of the exhaustive sum over all state paths."""
    n = len(pi)
    total = 0.0
    for path in itertools.product(range(n), repeat=len(obs)):
        p = pi[path[0]] * b[path[0], obs[0]]
        for t in range(1, len(obs)):
            p *= a[path[t - 1], path[t]] * b[path[t], obs[t]]
        total += p
    return math.log(total) if total > 0 else -math.inf


def brute_viterbi(pi, a, b, obs):
    """(logp, path) of the best state path; ties pick the path whose
    reversed tuple is smallest, matching first-maximum backtracking."""
    n = len(pi)
    best, best_path = -math.inf, None
    for path in itertools.product(range(n), repeat=len(obs)):
        lp = brute_path_logp(pi, a, b, obs, path)
        if best_path is None or lp > best or (
            lp == best and tuple(reversed(path)) < tuple(reversed(best_path))
        ):
            best, best_path = lp, path
    return best, best_path


def brute_sed(a, b):
    """Levenshtein distance over len(b) by the textbook row-by-row loop."""
    b = list(b)
    if not b:
        raise ValueError("reference sequence is empty")
    a = list(a)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (x != y),
            ))
        prev = cur
    return prev[-1] / len(b)


def draw_index(cdf, rng):
    """Index of one scalar uniform in a cumulative row; clamped so float
    shortfall in the last cell cannot return an out-of-range index."""
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), cdf.shape[0] - 1)


def brute_sample(model, rng, absorbing=None, max_steps=10_000):
    """One (states, observations) run by the step-by-step walk: one scalar
    uniform for the start state, then per step one for the symbol and, unless
    the state is absorbing, one for the next state."""
    if absorbing is None:
        absorbing = {i for i in range(model.n_states) if model.transmat[i, i] == 1.0}
    absorbing = {int(i) for i in absorbing}
    emit_cdf = np.cumsum(model.emissionprob, axis=1)
    trans_cdf = np.cumsum(model.transmat, axis=1)
    states, obs = [], []
    state = draw_index(np.cumsum(model.startprob), rng)
    for _ in range(max_steps):
        states.append(state)
        obs.append(draw_index(emit_cdf[state], rng))
        if state in absorbing:
            return np.asarray(states, dtype=np.int64), np.asarray(obs, dtype=np.int64)
        state = draw_index(trans_cdf[state], rng)
    raise RuntimeError(f"no absorbing state reached within {max_steps} steps")


def brute_rollout(abt, n, seed, *, model=None):
    """n tree executions by the tree walker, independent of the compiled
    matrix: each leaf visit records the leaf's model state, draws one
    symbol from its emission row, and succeeds with the tree's ps; parallel
    subtrees record their product states. A run that does not finish
    within the visit cap raises TickLimitError."""
    if model is None:
        model = compile_abt(abt)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(model.hmm.emissionprob, axis=1)
    leaf_ps = [float(leaf.stats.ps) for leaf in abt.leaves]
    status_state = {}
    for blk in model.blocks:
        for r, status in enumerate(blk.statuses):
            status_state[status] = blk.first + r

    runs = []
    for _ in range(n):
        states, obs = [], []
        gen = execute(abt.root)
        reply = None
        try:
            while True:
                event = gen.send(reply)
                if event[0] == "leaf":
                    q = model.leaf_states[event[1]]
                    states.append(q)
                    obs.append(draw_index(cdf[q], rng))
                    reply = SUCCESS if rng.random() < leaf_ps[event[1]] else FAILURE
                else:
                    q = status_state[event[2]]
                    states.append(q)
                    obs.append(draw_index(cdf[q], rng))
                    reply = [
                        SUCCESS if rng.random() < leaf_ps[m[1]] else FAILURE
                        for m in event[2]
                        if m[0] == "run"
                    ]
                if len(states) > VISIT_CAP:
                    raise TickLimitError(
                        f"run did not finish within {VISIT_CAP} visits"
                    )
        except StopIteration as stop:
            outcome = stop.value
        terminal = model.o_s if outcome == SUCCESS else model.o_f
        states.append(terminal)
        obs.append(draw_index(cdf[terminal], rng))
        runs.append(Run(tuple(states), tuple(obs), outcome))
    return Dataset(runs)


def brute_bucket(sequences, weights, n_symbols):
    """Duplicate merging keyed on symbol tuples: one (obs_matrix, weights)
    pair per length in increasing order, distinct sequences in first-seen
    order, weights summed in input order; plus the total weight."""
    if weights is None:
        weights = [1.0] * len(sequences)
    merged = {}
    for seq, w in zip(sequences, weights):
        key = tuple(int(x) for x in check_observations(seq, n_symbols))
        merged[key] = merged.get(key, 0.0) + float(w)
    by_length = {}
    for key in merged:
        by_length.setdefault(len(key), []).append(key)
    buckets = [
        (np.asarray(keys, dtype=np.int64), np.asarray([merged[k] for k in keys]))
        for _, keys in sorted(by_length.items())
    ]
    return buckets, math.fsum(float(ws.sum()) for _, ws in buckets)


def random_absorbing_model(rng, max_states=5, max_symbols=4):
    """A small random model whose last one or two states are absorbing
    (unit self-loops) and reachable in one step from every other state;
    returns the model and its absorbing states."""
    n = int(rng.integers(2, max_states + 1))
    j = int(rng.integers(1, max_symbols + 1))
    k = int(rng.integers(1, min(2, n - 1) + 1))
    a = rng.dirichlet(np.ones(n), size=n)
    a = np.where(rng.random(a.shape) < 0.3, 0.0, a)  # structural zeros
    a[:, n - 1] += 0.05
    a /= a.sum(axis=1, keepdims=True)
    a[n - k:] = np.eye(n)[n - k:]
    pi = np.where(rng.random(n) < 0.3, 0.0, rng.dirichlet(np.ones(n)))
    pi[0] += 0.05
    pi /= pi.sum()
    b = rng.dirichlet(np.ones(j), size=n)
    return DiscreteHMM(pi, a, b), tuple(range(n - k, n))


def random_hmm_instance(rng, max_states=5, max_symbols=6):
    """A small random dense-ish model plus one observable sequence."""
    n = int(rng.integers(2, max_states + 1))
    j = int(rng.integers(2, max_symbols + 1))
    pi = rng.dirichlet(np.ones(n))
    a = rng.dirichlet(np.ones(n), size=n)
    b = rng.dirichlet(np.ones(j), size=n)
    if rng.random() < 0.4:  # sprinkle structural zeros, keep rows valid
        a = np.where(rng.random(a.shape) < 0.3, 0.0, a)
        a[np.arange(n), (np.arange(n) + 1) % n] += 1e-3
        a /= a.sum(axis=1, keepdims=True)
    t = int(rng.integers(1, 7))
    state = rng.choice(n, p=pi)
    obs = []
    for _ in range(t):
        obs.append(int(rng.choice(j, p=b[state])))
        state = rng.choice(n, p=a[state])
    return pi, a, b, np.asarray(obs, dtype=np.int64)


# ----------------------------------------------------------------------
# exemplar fixtures


@pytest.fixture(scope="session")
def pick_place():
    return parse((MODELS / "pick_place.abt").read_text())


@pytest.fixture(scope="session")
def patrol():
    return parse((MODELS / "patrol.abt").read_text())


@pytest.fixture(scope="session")
def pick_place_model(pick_place):
    return compile_abt(pick_place)


@pytest.fixture(scope="session")
def patrol_model(patrol):
    return compile_abt(patrol)
