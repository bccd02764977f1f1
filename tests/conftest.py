"""Shared fixtures and brute-force oracles for the test suite."""

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from abthmm import compile_abt, parse
from abthmm.hmm import DiscreteHMM
from abthmm.simulate import Dataset
from abthmm.tree import (
    FAILURE,
    SUCCESS,
    VISIT_CAP,
    ABTDefinition,
    Leaf,
    LeafStats,
    Parallel,
    Retry,
    Selector,
    Sequence,
    TickLimitError,
    UnsupportedStructureError,
    n_leaves,
    parallel_outcome,
)
from abthmm.validation import check_observations

REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "models"

_LEAF = "(leaf a :ps 0.5 :emit (gauss))"
_TWO = "(outputs (table 0.5 0.5) (table 0.5 0.5))"

# Tree files that parse must refuse, each with a fragment of its error: a
# number error gives the position, a broken tree rule the node path.
MALFORMED_TREES = [
    (f"(alphabet inf) {_LEAF}", "line 1, col 11: alphabet size must be finite"),
    (f"(alphabet nan) {_LEAF}", "line 1, col 11: alphabet size must be finite"),
    (f"(ratio inf) {_LEAF}", "line 1, col 8: ratio must be finite"),
    (f"(ratio nan) {_LEAF}", "line 1, col 8: ratio must be finite"),
    (f"(outputs (gauss inf) (gauss 2)) {_LEAF}", "line 1, col 17: gauss index must be finite"),
    (f"(outputs (gauss 1) (gauss nan)) {_LEAF}", "line 1, col 27: gauss index must be finite"),
    ("(leaf a :ps nan :emit (gauss))", "line 1, col 13: :ps must be finite"),
    ("(leaf a :ps 1e999 :emit (gauss))", "line 1, col 13: :ps must be finite"),
    (f"(parallel :threshold inf {_LEAF} {_LEAF})", "line 1, col 22: :threshold must be finite"),
    (f"(parallel :threshold nan {_LEAF} {_LEAF})", "line 1, col 22: :threshold must be finite"),
    ("(leaf a :ps 0.5 :emit (table 0.5 inf))", "line 1, col 34: table entry must be finite"),
    ("(leaf a :ps 0.5 :emit (table nan 1.0))", "line 1, col 30: table entry must be finite"),
    (
        f"{_TWO} (sequence (leaf a :ps 0.5 :emit (table 0.5 0.5))\n"
        "  (leaf b :ps 0.5 :emit (table 0.5 0.5000005)))",
        "root/sequence[1]:b: emission row sums to 1.0000005, expected 1",
    ),
    (
        f"{_TWO} (selector (leaf a :ps 0.5 :emit (table 0.5 0.5))\n"
        "  (leaf b :ps 0.5 :emit (table -nan 0.5)))",
        "line 2, col 32: table entry must be finite",
    ),
    (
        "(ratio -1) (selector (leaf a :ps 0.5 :emit (gauss)) (leaf b :ps 0.5 :emit (gauss)))",
        "cannot build synthetic rows: ratio must be non-negative",
    ),
]


def _block(k, n):
    """A leaf followed by a parallel block of k children, each a sequence of
    n gauss leaves, at ratio 1.0."""
    kids = " ".join(
        "(sequence " + " ".join(f"(leaf c{c}l{i} :ps 0.9 :emit (gauss))" for i in range(n)) + ")"
        for c in range(k)
    )
    return f"(ratio 1.0) (sequence {_LEAF} (parallel :threshold 0.5 {kids}))"


# Trees whose emission alphabet would exceed validation.SYMBOL_CAP (2^20):
# the synthetic family's span at a huge ratio (inf at 1e308, 8e7 at 1e7),
# an explicit alphabet the gauss rows would fill, and a block whose joint
# alphabet is 48^4 = 5 308 416 symbols. Unrefused, the last three would
# fill a float64 matrix of 1.9 GB (synthetic rows), 48 MB (synthetic rows)
# and 1.4 GB (the block's 34 states in b).
OVERSIZED_TREES = [
    f"(ratio 1e308) {_LEAF}",
    f"(ratio 1e7) {_LEAF}",
    f"(alphabet 2000000) {_LEAF}",
    _block(4, 3),
]

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


def random_control_tree(rng, l, j=2):
    """A random tree over l leaves that mixes sequence and selector nodes,
    retry nodes that never nest, and parallel nodes over plain children of
    two or three subtrees. Leaf ps are drawn from (0.05, 0.95), now and then
    exactly 0 or 1; emission rows are random. The tree is not canonical."""
    names = itertools.count()

    def split(n, k):
        cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        return [int(q) for q in np.diff([0, *cuts, n])]

    def build(n, plain, in_retry):
        wrap = not plain and not in_retry and rng.random() < 0.25
        if n == 1:
            u = rng.random()
            if u < 0.1:
                ps = 1.0 if u < 0.05 else 0.0
            else:
                ps = float(np.round(rng.uniform(0.05, 0.95), 3))
            node = Leaf(f"n{next(names)}", LeafStats(ps, tuple(rng.dirichlet(np.ones(j)))))
        elif not plain and n <= 6 and rng.random() < 0.3:
            parts = split(n, int(rng.integers(2, min(n, 3) + 1)))
            threshold = float(rng.choice([0.3, 0.5, 0.6, 1.0]))
            node = Parallel(tuple(build(p, True, True) for p in parts), threshold)
        else:
            kind = Sequence if rng.random() < 0.5 else Selector
            parts = split(n, int(rng.integers(2, min(n, 4) + 1)))
            node = kind(tuple(build(p, plain, in_retry or wrap) for p in parts))
        return Retry(node) if wrap else node

    return ABTDefinition(build(l, False, False), j, uniform_row(j), uniform_row(j))


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


def is_canonical(node):
    """Whether no sequence or selector in the tree has one child or a child
    of its own kind, the form decompile returns."""
    if isinstance(node, Leaf):
        return True
    if isinstance(node, Retry):
        return is_canonical(node.child)
    if isinstance(node, (Sequence, Selector)) and (
        len(node.children) == 1 or any(type(c) is type(node) for c in node.children)
    ):
        return False
    return all(is_canonical(c) for c in node.children)


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


def brute_expectation(pi, a, b, sequences, weights):
    """One Baum-Welch E-step by exhaustive path sums: (logp, a_num, a_den,
    pi_num, b_num, b_den), where logp is the weighted total log-likelihood
    and each count is the weighted posterior expectation of a start, a
    transition, a visit before the last step, or a visit with its symbol."""
    n, j = b.shape
    logp = 0.0
    a_num, a_den, pi_num = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    b_num, b_den = np.zeros((n, j)), np.zeros(n)
    for obs, w in zip(sequences, weights):
        paths = list(itertools.product(range(n), repeat=len(obs)))
        probs = []
        for path in paths:
            p = pi[path[0]] * b[path[0], obs[0]]
            for t in range(1, len(obs)):
                p *= a[path[t - 1], path[t]] * b[path[t], obs[t]]
            probs.append(p)
        total = sum(probs)
        logp += w * math.log(total)
        for path, p in zip(paths, probs):
            post = w * p / total
            pi_num[path[0]] += post
            for t, (q, x) in enumerate(zip(path, obs)):
                b_num[q, x] += post
                b_den[q] += post
                if t + 1 < len(obs):
                    a_num[q, path[t + 1]] += post
                    a_den[q] += post
    return logp, a_num, a_den, pi_num, b_num, b_den


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


# ----------------------------------------------------------------------
# the tree walker: an executor independent of the compiled matrix, and
# the oracles built on it


def execute(root, leaf_offset=0):
    """Generator that walks the tree.

    It yields ("leaf", index) for an ordinary leaf visit and expects SUCCESS
    or FAILURE back. For a parallel node it yields
    ("parallel", node, statuses) where statuses holds one entry per child:
    ("run", leaf_index) for a child waiting at a leaf or ("done", outcome)
    for a finished one; the reply is a list with an outcome for every
    running child. Returns the overall outcome.
    """
    if isinstance(root, Leaf):
        outcome = yield ("leaf", leaf_offset)
        return outcome
    if isinstance(root, Sequence):
        pos = leaf_offset
        for child in root.children:
            outcome = yield from execute(child, pos)
            if outcome == FAILURE:
                return FAILURE
            pos += n_leaves(child)
        return SUCCESS
    if isinstance(root, Selector):
        pos = leaf_offset
        for child in root.children:
            outcome = yield from execute(child, pos)
            if outcome == SUCCESS:
                return SUCCESS
            pos += n_leaves(child)
        return FAILURE
    if isinstance(root, Retry):
        while True:
            outcome = yield from execute(root.child, leaf_offset)
            if outcome == SUCCESS:
                return SUCCESS
    if isinstance(root, Parallel):
        return (yield from _execute_parallel(root, leaf_offset))
    raise TypeError(f"not a tree node: {root!r}")


def _execute_parallel(node, leaf_offset):
    gens = []
    statuses = []
    pos = leaf_offset
    for child in node.children:
        g = execute(child, pos)
        pos += n_leaves(child)
        try:
            kind, idx = g.send(None)
        except StopIteration:  # pragma: no cover - children always hold a leaf
            raise UnsupportedStructureError("parallel child with no leaves")
        if kind != "leaf":
            raise UnsupportedStructureError("parallel children must be plain subtrees")
        gens.append(g)
        statuses.append(("run", idx))
    while True:
        outcomes = yield ("parallel", node, tuple(statuses))
        it = iter(outcomes)
        for i, status in enumerate(statuses):
            if status[0] != "run":
                continue
            try:
                event = gens[i].send(next(it))
            except StopIteration as stop:
                statuses[i] = ("done", stop.value)
                continue
            kind, idx = event
            if kind != "leaf":
                raise UnsupportedStructureError("parallel children must be plain subtrees")
            statuses[i] = ("run", idx)
        if all(s[0] == "done" for s in statuses):
            return parallel_outcome(statuses, node.threshold)


def walk_fixed(abt, outcomes):
    """(visited, result) of one walk where leaf i always answers
    outcomes[i]: visited holds one (leaf index, outcome) per leaf visit. A
    walk that does not finish within the visit cap raises TickLimitError."""
    visited = []
    gen = execute(abt.root)
    reply = None
    try:
        while True:
            event = gen.send(reply)
            if event[0] == "leaf":
                reply = outcomes[event[1]]
                visited.append((event[1], reply))
            else:
                running = [m[1] for m in event[2] if m[0] == "run"]
                reply = [outcomes[i] for i in running]
                visited.extend(zip(running, reply))
            if len(visited) > VISIT_CAP:
                raise TickLimitError(
                    f"tree did not finish within {VISIT_CAP} leaf visits"
                )
    except StopIteration as stop:
        return tuple(visited), stop.value


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
        runs.append((states, obs, outcome))
    return dataset_of(runs)


def dataset_of(runs):
    """A Dataset holding runs given as (states, obs, outcome) triples, in
    order, built through the flat constructor the sampler's output takes."""
    return Dataset(
        [q for states, _, _ in runs for q in states],
        [o for _, obs, _ in runs for o in obs],
        np.cumsum([len(states) for states, _, _ in runs]),
        [outcome for _, _, outcome in runs],
    )


def brute_transitions(abt, model):
    """The one-step transition law over model states, by the tree walker.

    Each walker position is the reply prefix that leads to it; prefixes are
    replayed on a fresh walk, breadth first from the root, and the first
    prefix to reach a model state sets that state's row. Replies of
    probability zero are not followed, so the result holds exactly the
    states the tree can reach: {state: {next state: probability}}."""
    leaf_ps = [float(leaf.stats.ps) for leaf in abt.leaves]
    status_state = {}
    for blk in model.blocks:
        for r, status in enumerate(blk.statuses):
            status_state[status] = blk.first + r

    def replay(prefix):
        """(state, [(reply, probability)]) at the end of a reply prefix."""
        gen = execute(abt.root)
        try:
            event = gen.send(None)
            for reply in prefix:
                event = gen.send(reply)
        except StopIteration as stop:
            terminal = model.o_s if stop.value == SUCCESS else model.o_f
            return terminal, []
        if event[0] == "leaf":
            p = leaf_ps[event[1]]
            return model.leaf_states[event[1]], [(SUCCESS, p), (FAILURE, 1.0 - p)]
        running = [m[1] for m in event[2] if m[0] == "run"]
        moves = []
        for outcomes in itertools.product((SUCCESS, FAILURE), repeat=len(running)):
            prob = 1.0
            for g, oc in zip(running, outcomes):
                prob *= leaf_ps[g] if oc == SUCCESS else 1.0 - leaf_ps[g]
            moves.append((list(outcomes), prob))
        return status_state[event[2]], moves

    law = {model.o_s: {model.o_s: 1.0}, model.o_f: {model.o_f: 1.0}}
    frontier = [()]
    seen = {replay(())[0]}
    while frontier:
        nxt_frontier = []
        for prefix in frontier:
            state, moves = replay(prefix)
            if state in law:
                continue
            row = law[state] = {}
            for reply, prob in moves:
                if prob == 0.0:
                    continue
                nxt, _ = replay(prefix + (reply,))
                row[nxt] = row.get(nxt, 0.0) + prob
                if nxt not in seen:
                    seen.add(nxt)
                    nxt_frontier.append(prefix + (reply,))
        frontier = nxt_frontier
    return {q: law[q] for q in seen}


def brute_estimate_ps(dataset, model):
    """Per-run loop over every leaf visit: the success-rate estimate and
    the visit count per leaf, nan and 0 for a leaf never visited."""
    state_leaf = {q: g for g, q in enumerate(model.leaf_states) if q is not None}
    n_leaves = len(model.leaf_states)
    wins = np.zeros(n_leaves)
    counts = np.zeros(n_leaves, dtype=np.int64)
    for run in dataset.runs:
        states = run.states
        for t in range(len(states) - 1):
            q = states[t]
            if q not in state_leaf:
                continue
            e = model.edges[q]
            if e is None:
                raise ValueError(f"state {q} has no edge labels")
            g = state_leaf[q]
            counts[g] += 1
            if states[t + 1] == e.succ_target:
                wins[g] += 1
            elif states[t + 1] != e.fail_target:
                raise ValueError(
                    f"transition {q} -> {states[t + 1]} matches neither outcome"
                )
    with np.errstate(invalid="ignore"):
        ps_hat = np.where(counts > 0, wins / np.maximum(counts, 1), np.nan)
    return ps_hat, counts


def brute_perturb(model, p_tilde, seed):
    """perturb_hmm as a per-row loop: one scalar sign draw per labeled row,
    then the row's first non-zero scaled and clamped and its second set to
    the complement, when the row has exactly two non-zeros."""
    new = replace(model, hmm=model.hmm.copy())
    if p_tilde == 0.0:
        return new
    rng = np.random.default_rng(seed)
    a = new.hmm.transmat
    for i in range(model.n_states):
        if model.edges[i] is None:
            continue
        r = 1.0 if rng.integers(0, 2) == 1 else -1.0
        cols = np.nonzero(a[i])[0]
        if cols.size != 2:
            continue
        c1, c2 = int(cols[0]), int(cols[1])
        p1 = float(np.clip((1.0 + p_tilde * r) * a[i, c1], 0.05, 0.95))
        a[i, c1] = p1
        a[i, c2] = 1.0 - p1
    return new


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
