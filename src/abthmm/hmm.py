"""Discrete hidden Markov model with estimator-style methods.

The class follows the fit/score/decode conventions used by estimator
libraries: hyperparameters live on the constructor, ``fit`` runs
Baum-Welch in place and returns ``self``, ``score`` is the forward
log-likelihood and ``decode``/``predict`` run Viterbi. Model files are
JSON with fields n_states, n_symbols, pi, a, b, labels and edge_labels,
written canonically so identical models produce identical bytes.
"""

import json
import math

import numpy as np

from .validation import check_observations, check_probability_vector, check_stochastic_matrix


class ImpossibleSequenceError(ValueError):
    """The observation sequence has probability zero under the model."""


class DiscreteHMM:
    """Hidden Markov model over a finite symbol alphabet.

    Parameters
    ----------
    startprob : array, shape (n_states,)
        Initial state distribution.
    transmat : array, shape (n_states, n_states)
        Row-stochastic transition matrix. Entries that are exactly zero are
        treated as structural and stay zero through fitting.
    emissionprob : array, shape (n_states, n_symbols)
        Row-stochastic emission matrix.
    max_iter : int
        Baum-Welch iteration cap.
    tol : float
        Stop fitting once the gain in total log-likelihood drops below this.
    updates : str
        Which parameter groups ``fit`` re-estimates: any of "s" (startprob),
        "t" (transmat), "e" (emissionprob).

    Attributes
    ----------
    history_ : list of float
        Total log-likelihood at the start of each completed iteration;
        non-decreasing.
    n_iter_ : int
        Iterations performed by the last ``fit``.
    converged_ : bool
        Whether the last ``fit`` stopped on tolerance rather than max_iter.
    """

    def __init__(self, startprob, transmat, emissionprob, *, max_iter=100,
                 tol=1e-4, updates="ste"):
        self.startprob = check_probability_vector(startprob, "startprob")
        self.transmat = check_stochastic_matrix(transmat, "transmat")
        self.emissionprob = check_stochastic_matrix(emissionprob, "emissionprob")
        n = self.startprob.shape[0]
        if self.transmat.shape != (n, n):
            raise ValueError(
                f"transmat shape {self.transmat.shape} does not match {n} states"
            )
        if self.emissionprob.shape[0] != n:
            raise ValueError(
                f"emissionprob has {self.emissionprob.shape[0]} rows for {n} states"
            )
        if set(updates) - set("ste"):
            raise ValueError(f"updates must only contain 's', 't', 'e': {updates!r}")
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.updates = updates

    @property
    def n_states(self):
        return self.startprob.shape[0]

    @property
    def n_symbols(self):
        return self.emissionprob.shape[1]

    def copy(self):
        return DiscreteHMM(
            self.startprob.copy(),
            self.transmat.copy(),
            self.emissionprob.copy(),
            max_iter=self.max_iter,
            tol=self.tol,
            updates=self.updates,
        )

    # ------------------------------------------------------------------
    # likelihood

    def score(self, obs):
        """Forward log-likelihood of one sequence, base e.

        Returns -inf when no state path supports the sequence.
        """
        obs = check_observations(obs, self.n_symbols)
        logp, _, _ = _forward_batch(self, obs[None, :])
        return float(logp[0])

    def score_total(self, sequences, weights=None):
        """Summed log-likelihood over many sequences (fsum, deterministic)."""
        buckets, _ = _bucket(sequences, weights, self.n_symbols)
        parts = []
        for obs, w in buckets:
            logp, _, _ = _forward_batch(self, obs)
            parts.extend((w * logp).tolist())
        return math.fsum(parts)

    # ------------------------------------------------------------------
    # decoding

    def decode(self, obs):
        """Most likely state path (Viterbi).

        Returns
        -------
        logprob : float
            Log-likelihood of the best path.
        states : ndarray
            The path itself; ties are broken toward the lower state index.
        """
        obs = check_observations(obs, self.n_symbols)
        logp, paths = _viterbi_batch(self, obs[None, :])
        return float(logp[0]), paths[0]

    def decode_all(self, sequences):
        """Viterbi over many sequences at once.

        Returns
        -------
        logprobs : ndarray, shape (n_sequences,)
            Log-likelihood of each best path, in input order.
        paths : list of ndarray
            The best paths, in input order; each equals ``decode(seq)[1]``.

        Raises ImpossibleSequenceError if any sequence has probability zero.
        """
        seqs = list(sequences)
        logprobs = np.empty(len(seqs))
        paths = [None] * len(seqs)
        for idx, obs in _stacked(seqs, self.n_symbols):
            logp, batch = _viterbi_batch(self, obs)
            logprobs[idx] = logp
            for i, path in zip(idx, batch):
                paths[i] = path
        return logprobs, paths

    def predict(self, obs):
        """Viterbi state path without the score."""
        return self.decode(obs)[1]

    # ------------------------------------------------------------------
    # sampling

    def sample(self, rng=None, absorbing=None, max_steps=10_000):
        """Draw one (states, observations) pair.

        The walk starts from startprob, emits in every visited state, and
        stops right after emitting once in an absorbing state. When
        ``absorbing`` is None the states with a unit self-loop are used.
        """
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        states, obs, _ = _sample_batch(self, 1, rng, absorbing, max_steps)
        return states, obs

    # ------------------------------------------------------------------
    # fitting

    def fit(self, sequences, weights=None):
        """Baum-Welch over a collection of sequences.

        Identical sequences are merged into weighted ones first, which
        changes nothing about the result but a lot about the run time.
        Structural zeros of transmat are preserved exactly. Sets history_,
        n_iter_ and converged_.
        """
        buckets, total_w = _bucket(sequences, weights, self.n_symbols)
        if total_w <= 0:
            raise ValueError("no sequences to fit")
        self.history_ = []
        self.converged_ = False
        for _ in range(self.max_iter):
            logp, a_num, a_den, b_num, b_den, pi_num = self._expectation(buckets)
            self.history_.append(logp)
            if len(self.history_) > 1 and logp - self.history_[-2] < self.tol:
                self.converged_ = True
                break
            if "s" in self.updates:
                self.startprob = pi_num / pi_num.sum()
            if "t" in self.updates:
                rows = a_den > 0
                new_a = self.transmat.copy()
                new_a[rows] = a_num[rows] / a_den[rows, None]
                self.transmat = new_a
            if "e" in self.updates:
                rows = b_den > 0
                new_b = self.emissionprob.copy()
                new_b[rows] = b_num[rows] / b_den[rows, None]
                self.emissionprob = new_b
        self.n_iter_ = len(self.history_)
        return self

    def _expectation(self, buckets):
        n, j = self.n_states, self.n_symbols
        a_num = np.zeros((n, n))
        a_den = np.zeros(n)
        b_num = np.zeros((n, j))
        b_den = np.zeros(n)
        pi_num = np.zeros(n)
        log_parts = []
        for obs, w in buckets:
            logp, alpha, scale = _forward_batch(self, obs)
            if not np.all(np.isfinite(logp)):
                raise ImpossibleSequenceError(
                    "a training sequence has zero probability under the model"
                )
            log_parts.extend((w * logp).tolist())
            beta = self._backward_batch(obs, scale)
            gamma = alpha * beta  # (B, T, N), rows already sum to one
            wg = w[:, None, None] * gamma
            pi_num += wg[:, 0, :].sum(axis=0)
            t_len = obs.shape[1]
            for t in range(t_len):
                np.add.at(b_num.T, obs[:, t], wg[:, t, :])
            b_den += wg.sum(axis=(0, 1))
            if t_len > 1:
                a_den += wg[:, :-1, :].sum(axis=(0, 1))
                bb = self.emissionprob[:, obs[:, 1:]]  # (N, B, T-1)
                bb = np.moveaxis(bb, 0, 2) * beta[:, 1:, :] / scale[:, 1:, None]
                xi = np.einsum("bti,ij,btj->ij", w[:, None, None] * alpha[:, :-1, :],
                               self.transmat, bb)
                a_num += xi
        return math.fsum(log_parts), a_num, a_den, b_num, b_den, pi_num

    def _backward_batch(self, obs, scale):
        b_count, t_len = obs.shape
        beta = np.ones((b_count, t_len, self.n_states))
        for t in range(t_len - 2, -1, -1):
            nxt = self.emissionprob[:, obs[:, t + 1]].T * beta[:, t + 1, :]
            beta[:, t, :] = (nxt @ self.transmat.T) / scale[:, t + 1, None]
        return beta


# Largest block of steps whose uniforms _sample_batch draws at once (two
# a step). Its scratch memory, about n_states + 3 numbers a step, is
# bounded by this whatever the number of runs.
_SAMPLE_BLOCK_STEPS = 1024


def _sample_batch(model, n, rng, absorbing, max_steps=10_000):
    """Draw n runs: exactly the runs of n step-by-step walks on ``rng``.

    A run starts from startprob, emits in every visited state and stops
    right after emitting once in a state of ``absorbing`` (None: the states
    with a unit self-loop). A step reads two uniforms: one picks the state
    (from startprob at the start of a run, else from the previous state's
    row), the next one the symbol. Uniforms are drawn in blocks that double
    from 32 steps up to _SAMPLE_BLOCK_STEPS; the unused rest of the last
    block is handed back, so ``rng`` ends where the walks would leave it.

    Returns the states and the symbols of all runs back to back, as flat
    int64 arrays, and the offset at which each run ends.
    """
    if absorbing is None:
        absorbing = {i for i in range(model.n_states) if model.transmat[i, i] == 1.0}
    else:
        absorbing = {int(i) for i in absorbing}
    if not absorbing:
        raise ValueError("model has no absorbing states; pass them explicitly")
    start_cdf = np.cumsum(model.startprob)
    trans_cdf = np.cumsum(model.transmat, axis=1)
    emit_cdf = np.cumsum(model.emissionprob, axis=1)
    states, marks, ends = [], [], []
    run_len, steps = 0, 16
    while len(ends) < n:
        steps = min(2 * steps, _SAMPLE_BLOCK_STEPS)
        saved = rng.bit_generator.state
        u = rng.random(2 * steps)
        picks = u[0::2]
        first = _lookup(start_cdf, picks).tolist()
        nxt = [None] * model.n_states  # a state's row of lookups, made on its first visit
        for k in range(steps):
            if run_len:
                row = nxt[state]
                if row is None:
                    row = nxt[state] = _lookup(trans_cdf[state], picks).tolist()
                state = row[k]
            else:
                state = first[k]
            states.append(state)
            run_len += 1
            if state in absorbing:
                ends.append(len(states))
                run_len = 0
                if len(ends) == n:
                    break
            elif run_len == max_steps:
                raise RuntimeError(f"no absorbing state reached within {max_steps} steps")
        used = k + 1
        marks.append(u[1:2 * used:2])
        if used < steps:
            rng.bit_generator.state = saved
            rng.random(2 * used)
    states = np.asarray(states, dtype=np.int64)
    marks = np.concatenate(marks) if marks else np.empty(0)
    obs = np.empty_like(states)
    for q in set(states.tolist()):
        at = states == q
        obs[at] = _lookup(emit_cdf[q], marks[at])
    return states, obs, np.asarray(ends, dtype=np.int64)


def _lookup(cdf, u):
    """Indices of the uniforms ``u`` in a cumulative row; clamped to the
    last index so float shortfall in the last cell cannot return an
    out-of-range index."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)


def _forward_batch(model, obs):
    """Scaled forward pass over a batch of equal-length sequences.

    Returns per-sequence log-likelihood, the scaled alphas and the scale
    factors. A scale of zero marks an impossible sequence; its log-likelihood
    comes back as -inf.
    """
    b_count, t_len = obs.shape
    alpha = np.zeros((b_count, t_len, model.n_states))
    scale = np.zeros((b_count, t_len))
    alpha[:, 0, :] = model.startprob[None, :] * model.emissionprob[:, obs[:, 0]].T
    scale[:, 0] = alpha[:, 0, :].sum(axis=1)
    ok = scale[:, 0] > 0
    alpha[ok, 0, :] /= scale[ok, 0, None]
    for t in range(1, t_len):
        alpha[:, t, :] = (alpha[:, t - 1, :] @ model.transmat) * model.emissionprob[:, obs[:, t]].T
        scale[:, t] = alpha[:, t, :].sum(axis=1)
        ok = scale[:, t] > 0
        alpha[ok, t, :] /= scale[ok, t, None]
    with np.errstate(divide="ignore"):
        logp = np.where(np.all(scale > 0, axis=1), np.log(np.maximum(scale, 1e-320)).sum(axis=1), -np.inf)
    return logp, alpha, scale


# Upper bound on the elements of the (B, N, N) candidate array that
# _viterbi_batch builds per step; larger batches are decoded in chunks.
_VITERBI_CHUNK_ELEMENTS = 1 << 22


def _viterbi_batch(model, obs):
    """Log-space Viterbi over a batch of equal-length sequences.

    Returns the best-path log-likelihoods, shape (B,), and the paths,
    shape (B, T). Ties go to the lower state index at every step. Raises
    ImpossibleSequenceError if any sequence has probability zero.
    """
    b_count, t_len = obs.shape
    n = model.n_states
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transmat)
        log_pi = np.log(model.startprob)
    rows = max(1, _VITERBI_CHUNK_ELEMENTS // (n * n))
    logp = np.empty(b_count)
    paths = np.empty((b_count, t_len), dtype=np.int64)
    for lo in range(0, b_count, rows):
        chunk = obs[lo:lo + rows]
        with np.errstate(divide="ignore"):
            log_b = np.log(model.emissionprob.T[chunk])  # (B, T, N)
        back = np.empty((chunk.shape[0], t_len, n), dtype=np.int64)
        delta = log_pi + log_b[:, 0]
        for t in range(1, t_len):
            cand = delta[:, :, None] + log_a
            back[:, t] = np.argmax(cand, axis=1)
            delta = cand.max(axis=1) + log_b[:, t]
        if np.any(np.all(np.isinf(delta), axis=1)):
            raise ImpossibleSequenceError("sequence impossible under the model")
        out = paths[lo:lo + rows]
        out[:, -1] = np.argmax(delta, axis=1)
        logp[lo:lo + rows] = delta.max(axis=1)
        pick = np.arange(chunk.shape[0])
        for t in range(t_len - 1, 0, -1):
            out[:, t - 1] = back[pick, t, out[:, t]]
    return logp, paths


def _by_length(sequences):
    """Indices of the sequences grouped by length, in first-seen order."""
    groups = {}
    for i, seq in enumerate(sequences):
        groups.setdefault(len(seq), []).append(i)
    return groups


def _stacked(sequences, n_symbols):
    """Validated observation sequences grouped by length.

    Returns (indices, obs) pairs in the order of ``_by_length``: obs is the
    (B, T) int64 matrix of the sequences at those indices. Each group is
    checked by one check_observations call; if a check fails, the sequences
    are checked one by one so the error is the one the first bad sequence
    raises on its own.
    """
    try:
        groups = []
        for idx in _by_length(sequences).values():
            obs = np.asarray([sequences[i] for i in idx])
            if obs.ndim != 2:
                raise ValueError("a sequence is not flat")
            groups.append((idx, check_observations(obs.ravel(), n_symbols).reshape(obs.shape)))
        return groups
    except (TypeError, ValueError):
        for seq in sequences:
            check_observations(seq, n_symbols)
        raise


def _bucket(sequences, weights, n_symbols):
    """Merge duplicate sequences and group by length.

    Returns a list of (obs_matrix, weight_vector) pairs, one per length in
    increasing order, and the total weight. Within a pair the distinct
    sequences are in first-seen order, and each weight is the sum, in input
    order, of the weights of its copies.
    """
    weights = np.ones(len(sequences)) if weights is None else np.asarray(weights, dtype=np.float64)
    if len(weights) != len(sequences):
        raise ValueError("weights length does not match sequences")
    buckets = []
    for idx, obs in sorted(_stacked(sequences, n_symbols), key=lambda g: g[1].shape[1]):
        # Equal rows have equal bytes; the dict numbers the distinct ones in
        # first-seen order. (np.unique(axis=0) sorts instead, and with numpy
        # 2.4 raises a sweep's peak memory by about 0.6 MB.)
        rows = obs.view(np.dtype((np.void, obs.shape[1] * obs.itemsize))).ravel().tolist()
        slot = {}
        inverse = [slot.setdefault(row, len(slot)) for row in rows]
        distinct = np.frombuffer(b"".join(slot), dtype=obs.dtype).reshape(len(slot), -1)
        buckets.append((distinct, np.bincount(inverse, weights=weights[idx])))
    total = math.fsum(float(ws.sum()) for _, ws in buckets)
    return buckets, total


# ----------------------------------------------------------------------
# model files


def save_hmm(model, path, labels=None, edge_labels=None):
    """Write a model file. Key order and float text are canonical, so equal
    models give byte-identical files."""
    doc = {
        "n_states": model.n_states,
        "n_symbols": model.n_symbols,
        "pi": model.startprob.tolist(),
        "a": model.transmat.tolist(),
        "b": model.emissionprob.tolist(),
        "labels": list(labels) if labels is not None else None,
        "edge_labels": list(edge_labels) if edge_labels is not None else None,
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_hmm(path):
    """Read a model file back as (model, labels, edge_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("n_states", "n_symbols", "pi", "a", "b"):
        if key not in doc:
            raise ValueError(f"model file is missing field {key!r}")
    model = DiscreteHMM(doc["pi"], doc["a"], doc["b"])
    if model.n_states != doc["n_states"] or model.n_symbols != doc["n_symbols"]:
        raise ValueError("model file header does not match matrix shapes")
    labels = doc.get("labels")
    edge_labels = doc.get("edge_labels")
    if labels is not None:
        if len(labels) != model.n_states:
            raise ValueError("labels length does not match n_states")
        labels = tuple(labels)
    if edge_labels is not None:
        if len(edge_labels) != model.n_states:
            raise ValueError("edge_labels length does not match n_states")
        edge_labels = tuple(edge_labels)
    return model, labels, edge_labels
