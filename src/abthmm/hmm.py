"""Discrete hidden Markov model with estimator-style methods.

The class follows the fit/score/decode conventions used by estimator
libraries: hyperparameters live on the constructor, ``fit`` runs
Baum-Welch in place and returns ``self``, ``score`` is the forward
log-likelihood and ``decode``/``predict`` run Viterbi.
"""

import bisect
import functools
import itertools
import math

import numpy as np

from .validation import (
    check_observations,
    check_probability_vector,
    check_stochastic_matrix,
    check_updates,
)


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
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.updates = check_updates(updates)

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
        logp, _, _ = _forward_batch(self, _Packed.single(obs), _emissions(self, obs))
        return float(logp[0])

    def score_total(self, sequences, weights=None):
        """Summed log-likelihood over many sequences (fsum, deterministic),
        each times its weight: one finite, non-negative number a sequence
        (None: one each)."""
        return self._score_batch(_bucket(_pack(sequences, self.n_symbols), weights))

    def _score_batch(self, batch):
        parts = []
        for sub in self._chunks(batch):
            logp, _, _ = _forward_batch(self, sub, _emissions(self, sub.obs))
            parts.extend((sub.weights * logp).tolist())
        return math.fsum(parts)

    def _chunks(self, batch):
        """The sub-batches the forward and backward passes run on."""
        return [sub for _, _, sub in batch.chunks(batch.lengths * self.n_states)]

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
        logp, path = _viterbi_batch(self, _Packed.single(obs))
        return float(logp[0]), path

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
        batch = _pack(list(sequences), self.n_symbols)
        logp, paths = _viterbi_batch(self, batch)
        logprobs = np.empty(len(logp))
        logprobs[batch.order] = logp
        return logprobs, batch.unpack(paths)

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
        return _sample_batch(self, 1, np.random.default_rng(rng), absorbing, max_steps)[:2]

    # ------------------------------------------------------------------
    # fitting

    def fit(self, sequences, weights=None):
        """Baum-Welch over a collection of sequences.

        Each sequence counts its weight times (weights as in score_total).
        Identical sequences are merged into weighted ones first, which
        changes nothing about the result but a lot about the run time.
        Structural zeros of transmat are preserved exactly. Sets history_,
        n_iter_ and converged_.
        """
        return self._fit_batch(_bucket(_pack(sequences, self.n_symbols), weights))

    def _fit_batch(self, batch):
        check_updates(self.updates)
        if not batch.weights.sum() > 0:
            raise ValueError("no sequences to fit")
        chunks = self._chunks(batch)  # planned once for every iteration
        self.history_ = []
        self.converged_ = False
        for _ in range(self.max_iter):
            logp, a_num, a_den, pi_num, b_num, b_den = self._expectation(chunks)
            self.history_.append(logp)
            if len(self.history_) > 1 and logp - self.history_[-2] < self.tol:
                self.converged_ = True
                break
            if "s" in self.updates:
                self.startprob = pi_num / pi_num.sum()
            if "t" in self.updates:
                self.transmat = _normalized(a_num, a_den, self.transmat)
            if "e" in self.updates:
                self.emissionprob = _normalized(b_num, b_den, self.emissionprob)
        self.n_iter_ = len(self.history_)
        return self

    def _expectation(self, chunks):
        """One E-step over a packed batch given as its ``_chunks``: the total
        log-likelihood and the expected counts a_num, a_den, pi_num, b_num and
        b_den. The transition counts are None unless "t" is in updates, the
        emission counts None unless "e" is."""
        n, j = self.n_states, self.n_symbols
        trans, emit = "t" in self.updates, "e" in self.updates
        a_num = np.zeros((n, n)) if trans else None
        pi_num = np.zeros(n)
        # Emission counts go in by joint (state, symbol) index through a flat
        # view: one np.add.at per chunk is faster than one per step, and
        # than np.bincount on a wide alphabet.
        b_num = np.zeros((n, j)) if emit else None
        b_den = np.zeros(n) if emit else None
        log_parts = []
        for sub in chunks:
            emis = _emissions(self, sub.obs)
            logp, alpha, scale = _forward_batch(self, sub, emis)
            if not np.all(np.isfinite(logp)):
                raise ImpossibleSequenceError(
                    "a training sequence has zero probability under the model"
                )
            log_parts.extend((sub.weights * logp).tolist())
            beta = _backward_batch(self, sub, emis, scale)  # emis[t >= 1] now holds bb
            alpha *= sub.weights[sub.rows, None]  # weighted alpha
            off, sizes = sub.offsets, sub.sizes
            pi_num += (alpha[:sizes[0]] * beta[:sizes[0]]).sum(axis=0)
            if trans:
                # xi of the step pair (t - 1, t) is walpha[t - 1]^T @ bb[t].
                xi = np.zeros((n, n))
                for t in range(1, len(sizes)):
                    k = sizes[t]
                    xi += alpha[off[t - 1]:off[t - 1] + k].T @ emis[off[t]:off[t] + k]
                a_num += xi * self.transmat
            if emit:
                gamma = np.multiply(alpha, beta, out=alpha)  # weighted: a row sums to its weight
                np.add.at(b_num.ravel(), (np.arange(n) * j + sub.obs[:, None]).ravel(), gamma.ravel())
                b_den += np.ones(len(gamma)) @ gamma
        # A state's expected transitions out of it are its expected visits
        # before a last step: sum_j xi(i, j) = gamma(i).
        a_den = a_num.sum(axis=1) if trans else None
        return math.fsum(log_parts), a_num, a_den, pi_num, b_num, b_den


def _normalized(num, den, old):
    """num / den row by row, written into num; a row with no expected
    visits (den == 0) keeps old's values."""
    seen = (den > 0)[:, None]
    np.divide(num, den[:, None], out=num, where=seen)
    np.copyto(num, old, where=~seen)
    return num


# Largest block of steps whose uniforms _sample_batch draws at once (two a
# step): it bounds the sampler's scratch memory whatever the number of runs.
_SAMPLE_BLOCK_STEPS = 1024


def _sample_batch(model, n, rng, absorbing, max_steps=10_000):
    """Draw n runs: exactly the runs of n step-by-step walks on ``rng``.

    A run starts from startprob, emits in every visited state and stops
    right after emitting once in a state of ``absorbing`` (None: the states
    with a unit self-loop). A step's even uniform picks its state by one
    ``bisect_right`` in the previous state's cumulative row of transmat
    (startprob's before a run), made a list on first visit; its odd uniform
    picks the symbol from the state's cumulative emission row after the walk.

    Uniforms are drawn in blocks that double from 32 steps up to
    _SAMPLE_BLOCK_STEPS. After each block the run ends in it are found and
    the walk is cut after the n-th; the last run's walk stops at its end. A
    run of max_steps states, none absorbing, raises RuntimeError with ``rng``
    left after the block. Else the unused rest of the last block is handed
    back, so ``rng`` ends where the walks would leave it. Returns all runs'
    states and symbols back to back, as flat int64 arrays, and each run's end offset.
    """
    n_states = model.n_states
    if absorbing is None:
        absorbing = np.flatnonzero(model.transmat.diagonal() == 1.0).tolist()
    absorbing = {int(i) for i in absorbing}.intersection(range(n_states))
    if not absorbing:
        raise ValueError("model has no absorbing states; pass them explicitly")
    stops_at = np.array([q in absorbing for q in range(n_states)])
    # rows[q]: the row a step after state q searches; rows[n_states] starts the first run.
    # A cumulative row ends in +inf, so float shortfall in the last cell picks the last index.
    start = model.startprob[:-1].cumsum().tolist() + [np.inf]
    rows = [start if q in absorbing else None for q in range(n_states)] + [start]
    walks, marks = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    state, run_len, found, steps = n_states, 0, 0, 16
    while found < n:
        # In the last run a miss on an absorbing row ends the walk; if the block starts
        # on the previous run's end, the run starts from rows[n_states].
        if found == n - 1:
            for q in absorbing:
                rows[q] = None
            state = n_states if state in absorbing else state
        steps = min(2 * steps, _SAMPLE_BLOCK_STEPS)
        saved = rng.bit_generator.state
        u = rng.random(2 * steps)
        walk = []
        for p in u[0::2].tolist():
            row = rows[state]
            if row is None:
                if state in absorbing:
                    break
                row = rows[state] = model.transmat[state, :-1].cumsum().tolist() + [np.inf]
            state = bisect.bisect_right(row, p)
            walk.append(state)
        walk = np.fromiter(walk, np.int64, len(walk))
        stops = np.flatnonzero(stops_at[walk])[:n - found]
        used = int(stops[-1]) + 1 if found + len(stops) == n else steps
        # Each gap between ends (and from the last to used) is a run's non-absorbing visits + 1.
        if run_len + used >= max_steps and np.diff(stops, prepend=-1 - run_len,
                                                   append=used).max() > max_steps:
            raise RuntimeError(f"no absorbing state reached within {max_steps} steps")
        run_len = used - 1 - int(stops[-1]) if len(stops) else run_len + used
        walks.append(walk[:used])
        marks.append(u[1:2 * used:2].copy())  # a copy, so that u is freed
        found += len(stops)
        if used < steps:
            rng.bit_generator.state = saved
            rng.random(2 * used)
    states, marks = np.concatenate(walks), np.concatenate(marks)
    obs = np.empty_like(states)
    for q in np.flatnonzero(np.bincount(states, minlength=n_states)).tolist():
        at = states == q
        cdf = model.emissionprob[q].cumsum()
        cdf[-1] = np.inf
        obs[at] = cdf.searchsorted(marks[at], side="right")
    return states, obs, np.flatnonzero(stops_at[states]) + 1


def _emissions(model, obs):
    """Emission probabilities of an observation array: shape obs.shape + (N,)."""
    return model.emissionprob.T[obs]


# Upper bound on the elements a kernel allocates for one chunk of rows of a
# packed batch: each (steps, N) array of the forward pass and the E-step,
# and Viterbi's deltas (kept over its log emissions) and (N, max_in, rows)
# candidates together. 1 << 19 float64 elements are 4 MB. Larger batches are processed
# in chunks of rows.
_CHUNK_ELEMENTS = 1 << 19


class _Packed:
    """A batch of sequences sorted by length, longest first, and stored
    time-major, as in PyTorch's PackedSequence.

    The sort is stable, so sequences of equal length keep their input
    order. Step t of the sizes[t] sequences longer than t is
    ``obs[offsets[t]:offsets[t + 1]]``; those sequences are always rows 0
    to sizes[t] - 1, so each step of a kernel works on one contiguous
    prefix slice and does no padding work. Row r is input sequence
    order[r], with length lengths[r] and weight weights[r]; its last step
    sits at ``offsets[lengths[r] - 1] + r``.
    """

    def __init__(self, obs, lengths, order, weights, sizes=None):
        self.obs = obs
        self.lengths = lengths
        self.order = order
        self.weights = weights
        if sizes is None:  # rows longer than t, unless the caller knows them
            steps = int(lengths[0]) if len(lengths) else 0
            sizes = np.searchsorted(-lengths, -np.arange(steps)).tolist()
        self.sizes = sizes
        self.offsets = list(itertools.accumulate(sizes, initial=0))

    @functools.cached_property
    def rows(self):
        """The row of each packed position."""
        return np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], self.sizes).astype(int)

    @classmethod
    def of(cls, flat, lengths):
        """Pack sequences given back to back in ``flat``, in input order."""
        order = np.argsort(-lengths, kind="stable")
        batch = cls(None, lengths[order], order, np.ones(len(order)))
        start = (np.cumsum(lengths) - lengths)[order]
        batch.obs = flat[np.concatenate(
            [np.empty(0, dtype=np.int64)] + [start[:k] + t for t, k in enumerate(batch.sizes)]
        )]
        return batch

    @classmethod
    def single(cls, obs):
        """A batch of one sequence, whose packed symbols are the sequence."""
        return cls(obs, np.array([len(obs)]), np.zeros(1, dtype=np.int64), np.ones(1),
                   [1] * len(obs))

    def like(self, obs):
        """The same layout holding other per-step values, e.g. state paths."""
        return _Packed(obs, self.lengths, self.order, self.weights, self.sizes)

    def repeat(self, copies):
        """The batch with each row ``copies`` times in a row: row r * copies
        + p is copy p of row r, and position i * copies + p of its obs is
        copy p of position i of self's. So values packed like self, one
        array per copy stacked as x of shape (copies, S), pack like the
        repeat as ``x.T.ravel()``."""
        return _Packed(np.repeat(self.obs, copies), np.repeat(self.lengths, copies),
                       np.repeat(self.order, copies), np.repeat(self.weights, copies),
                       [k * copies for k in self.sizes])

    def take(self, rows):
        """The sub-batch of the given rows (ascending) and the positions of
        its symbols in obs."""
        sub = _Packed(None, self.lengths[rows], self.order[rows], self.weights[rows])
        pos = np.concatenate([np.empty(0, dtype=np.int64)]
                             + [self.offsets[t] + rows[:k] for t, k in enumerate(sub.sizes)])
        sub.obs = self.obs[pos]
        return sub, pos

    def chunks(self, cost):
        """Split into runs of rows whose summed ``cost`` (the elements a
        kernel allocates for each row) stays within _CHUNK_ELEMENTS; a row
        over budget forms a chunk of its own. Yields (rows, positions,
        sub-batch), where rows is a slice and positions index the
        sub-batch's symbols in obs."""
        n_rows = len(self.lengths)
        ends = cost.cumsum()
        if n_rows and ends[-1] <= _CHUNK_ELEMENTS:
            yield slice(0, n_rows), slice(None), self
            return
        lo = 0
        while lo < n_rows:
            base = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK_ELEMENTS, side="right")))
            sub, pos = self.take(np.arange(lo, hi))
            yield slice(lo, hi), pos, sub
            lo = hi

    def padded_chunks(self, per_step):
        """Split, for a kernel that pads a run of rows to its first row, into
        runs of rows lo to hi - 1. A row's width is its length + 1. A run
        holds only rows at least half as wide as its first, so padding at
        most doubles the work, and its padded size, rows x width x
        per_step, stays within _CHUNK_ELEMENTS. Yields (lo, hi)."""
        lo, n_rows = 0, len(self.lengths)
        while lo < n_rows:
            width = int(self.lengths[lo]) + 1
            hi = min(lo + max(1, _CHUNK_ELEMENTS // (per_step * width)),
                     int(np.searchsorted(-self.lengths, 1 - width / 2, side="right")))
            yield lo, hi
            lo = hi

    def padded(self, values, fill, lo=0, hi=None):
        """Rows lo to hi - 1 of per-step ``values`` packed like obs, as a
        row-major matrix as wide as row lo, the longest, with ``fill`` past
        the end of each row."""
        lengths = self.lengths[lo:hi]
        width = int(lengths[0]) if len(lengths) else 0
        pos = np.add.outer(np.arange(lo, lo + len(lengths)),
                           np.array(self.offsets[:width], dtype=np.int64))
        inside = np.arange(width) < lengths[:, None]
        out = np.full(pos.shape, fill, dtype=values.dtype)
        out[inside] = values[pos[inside]]
        return out

    def unpack(self, values):
        """Per-step ``values`` packed like obs, as one array per sequence in
        input order."""
        # A stable sort by row turns the time-major values row-major.
        flat = values[np.argsort(self.rows, kind="stable")]
        out = [None] * len(self.lengths)
        for i, seq in zip(self.order.tolist(), np.split(flat, np.cumsum(self.lengths)[:-1])):
            out[i] = seq
        return out


def _pack(sequences, n_symbols):
    """Validated observation sequences as one packed batch, weights one.

    All symbols are checked by one check_observations call; if that or the
    gathering fails, the sequences are checked one by one so the error is
    the one the first bad sequence raises on its own.
    """
    if len(sequences) == 0:
        return _Packed.of(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    try:
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        flat = check_observations(np.concatenate(sequences), n_symbols)
        if not lengths.min():
            raise ValueError("an empty sequence")
    except (TypeError, ValueError):
        for seq in sequences:
            check_observations(seq, n_symbols)
        raise
    return _Packed.of(flat, lengths)


def _bucket(batch, weights=None):
    """The distinct rows of a packed batch, duplicates merged.

    The distinct rows keep the packed order: longest first, then first
    seen. Each row's weight is the sum, in input order, of the weights
    (given in input order; None: one each) of its copies. Raises
    ValueError unless there is one finite, non-negative weight a sequence.
    """
    n_rows = len(batch.lengths)
    weights = np.ones(n_rows) if weights is None else np.asarray(weights, dtype=np.float64)
    if weights.shape != (n_rows,):
        raise ValueError("weights length does not match sequences")
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError("weights must be finite and non-negative")
    # Copies share a length, so they sit in one run of equal-length rows.
    # Each run is gathered row-major; equal rows have equal bytes, and the
    # dict numbers the distinct ones in first-seen order. (np.unique(axis=0)
    # sorts instead, and with numpy 2.4 raises a sweep's peak memory.)
    keys = []
    offsets = np.asarray(batch.offsets)
    bounds = np.flatnonzero(np.diff(batch.lengths, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = batch.obs[np.add.outer(np.arange(lo, hi), offsets[:batch.lengths[lo]])]
        keys += run.view(np.dtype((np.void, run.shape[1] * run.itemsize))).ravel().tolist()
    slot = {}
    inverse = np.fromiter((slot.setdefault(key, len(slot)) for key in keys), dtype=np.int64,
                          count=len(keys))
    distinct, _ = batch.take(np.unique(inverse, return_index=True)[1])
    distinct.weights = np.bincount(inverse, weights=weights[batch.order], minlength=len(slot))
    return distinct


def _forward_batch(model, batch, emis):
    """Scaled forward pass over a packed batch, given the emission
    probabilities of its symbols (packed like obs, shape (S, N)).

    Returns each row's log-likelihood, the scaled alphas and the scale
    factors, both packed like obs. A scale of zero marks an impossible
    sequence; its log-likelihood comes back as -inf.
    """
    off, sizes = batch.offsets, batch.sizes
    alpha = np.empty_like(emis)
    scale = np.empty(len(emis))
    ones = np.ones(model.n_states)
    for t, k in enumerate(sizes):
        cur = alpha[off[t]:off[t] + k]
        if t:
            np.matmul(alpha[off[t - 1]:off[t - 1] + k], model.transmat, out=cur)
            cur *= emis[off[t]:off[t] + k]
        else:
            np.multiply(model.startprob, emis[:k], out=cur)
        s = scale[off[t]:off[t] + k]
        np.matmul(cur, ones, out=s)  # row sums, faster than sum(axis=1) on a narrow row
        cur /= np.where(s > 0, s, 1.0)[:, None]
    with np.errstate(divide="ignore"):
        log_scale = np.log(scale)
    # Each row's log scales, summed step by step in time order.
    return np.bincount(batch.rows, log_scale, len(batch.lengths)), alpha, scale


def _backward_batch(model, batch, emis, scale):
    """Scaled backward pass matching _forward_batch's scale factors. It
    overwrites emis at steps t >= 1 with bb = emis * beta / scale, which xi reads."""
    off, sizes = batch.offsets, batch.sizes
    beta = np.empty_like(emis)
    for t in range(len(sizes) - 1, -1, -1):
        k = sizes[t + 1] if t + 1 < len(sizes) else 0  # rows that go on to step t + 1
        beta[off[t] + k:off[t] + sizes[t]] = 1.0
        if k:
            nxt = emis[off[t + 1]:off[t + 1] + k]
            nxt *= beta[off[t + 1]:off[t + 1] + k]
            nxt /= scale[off[t + 1]:off[t + 1] + k, None]
            np.matmul(nxt, model.transmat.T, out=beta[off[t]:off[t] + k])
    return beta


def _viterbi_batch(model, batch):
    """Log-space Viterbi over a packed batch.

    Returns each row's best-path log-likelihood, shape (B,), and the paths
    packed like obs. Ties go to the lower state index at every step. Raises
    ImpossibleSequenceError if any sequence has probability zero.

    The deltas are indexed by state, shape (N, S): step t of the rows that
    reach it is ``delta[:, offsets[t]:offsets[t] + sizes[t]]``. They are
    the transposed view of the (S, N) log emissions they are computed in,
    so a step's block is one contiguous run of memory. A state's delta
    is the max over its predecessors only (the non-zeros of its column of
    transmat), so a step costs N x max_in candidates a row, where max_in is
    the largest in-degree. There are no back pointers: the walk back
    recomputes each row's predecessor from the previous step's deltas,
    taking the first maximum, as the forward pass would have.
    """
    n = model.n_states
    with np.errstate(divide="ignore"):  # log 0 = -inf: a transition or symbol that cannot occur
        log_into = np.log(model.transmat.T)  # row j: log a[i, j] over the from-states i
        log_pi = np.log(model.startprob)[:, None]
        logp = np.empty(len(batch.lengths))
        paths = np.empty(len(batch.obs), dtype=np.int64)
        # The max_in slots of state j hold its predecessors (the non-zeros
        # of column j of transmat) and, if it has fewer, states it cannot
        # come from, at log weight -inf.
        into = log_into > -np.inf
        max_in = into.sum(axis=1).max()
        src = into.argsort(axis=1, kind="stable")[:, n - max_in:]
        log_w = log_into[np.arange(n)[:, None], src][:, :, None]
        # Per row: its deltas, written over its emissions (N a step), and
        # its N x max_in candidates.
        for rows, at, sub in batch.chunks(batch.lengths * n + src.size):
            off, sizes = sub.offsets, sub.sizes
            by_step = _emissions(model, sub.obs)  # row p: the deltas at packed position p
            delta = np.log(by_step, out=by_step).T
            delta[:, :sizes[0]] += log_pi
            cands = np.empty(src.size * sizes[0])
            for t in range(1, len(sizes)):
                k = sizes[t]
                cand = cands[:src.size * k].reshape(n, max_in, k)
                delta[:, off[t - 1]:off[t - 1] + k].take(src, axis=0, out=cand, mode="clip")
                cand += log_w
                delta[:, off[t]:off[t] + k] += cand.max(axis=1)
            final = delta[:, np.asarray(off)[sub.lengths - 1] + np.arange(len(sub.lengths))]
            best = final.max(axis=0)
            if best.min() == -np.inf:
                raise ImpossibleSequenceError("sequence impossible under the model")
            logp[rows] = best
            # Walk back: state[r] is row r's state at step t, for the rows
            # that reach step t; a row joins the walk at its last step.
            state = final.argmax(axis=0)
            out = np.empty(len(sub.obs), dtype=np.int64)
            for t in range(len(sizes) - 1, 0, -1):
                k = sizes[t]
                out[off[t]:off[t] + k] = state[:k]
                prev = by_step[off[t - 1]:off[t - 1] + k]
                state[:k] = (log_into[state[:k]] + prev).argmax(axis=1)
            out[:sizes[0]] = state
            paths[at] = out
    return logp, paths
