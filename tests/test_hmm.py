import math
import re
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abthmm import hmm as hmm_module
from abthmm.hmm import (
    DiscreteHMM,
    ImpossibleSequenceError,
    _bucket,
    _pack,
    _sample_batch,
)
from abthmm.validation import check_probability_vector, check_stochastic_matrix

from conftest import (
    brute_bucket,
    brute_expectation,
    brute_forward,
    brute_path_logp,
    brute_sample,
    brute_viterbi,
    random_absorbing_model,
    random_hmm_instance,
)


def tiny_model(**kw):
    pi = np.array([1.0, 0.0])
    a = np.array([[0.4, 0.6], [0.0, 1.0]])
    b = np.array([[0.9, 0.1], [0.2, 0.8]])
    return DiscreteHMM(pi, a, b, **kw)


# ----------------------------------------------------------------------
# construction and validation


def test_rejects_malformed_parameters():
    ok = tiny_model()
    assert ok.n_states == 2 and ok.n_symbols == 2
    with pytest.raises(ValueError):
        DiscreteHMM([0.5, 0.6], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        DiscreteHMM([1, 0], [[0.5, 0.4], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        DiscreteHMM([1, 0], [[1, 0], [0, 1]], [[1.0, -0.1], [0, 1]])
    with pytest.raises(ValueError):
        DiscreteHMM([1, 0], [[1, 0], [0, 1]], [[1, 0]])
    with pytest.raises(ValueError):
        tiny_model(updates="xyz")


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan],
                                 [0.5, np.nan, 0.5]])
def test_probability_vector_refuses_nan(bad):
    with pytest.raises(ValueError, match="startprob has negative or NaN entries"):
        check_probability_vector(bad, "startprob")


@pytest.mark.parametrize("bad", [
    [[np.nan, 1.0], [0.0, 1.0]],
    [[1.0, 0.0], [np.nan, np.nan]],
    [[0.5, 0.5], [0.5, np.nan]],
])
def test_stochastic_matrix_refuses_nan(bad):
    with pytest.raises(ValueError, match="transmat has negative or NaN entries"):
        check_stochastic_matrix(bad, "transmat")


def test_validators_refuse_infinite_entries():
    with pytest.raises(ValueError, match="sums to inf, expected 1"):
        check_probability_vector([np.inf, 0.0])
    with pytest.raises(ValueError, match="row 1 sums to inf, expected 1"):
        check_stochastic_matrix([[1.0, 0.0], [0.0, np.inf]])


def test_validators_print_finite_bad_sums_as_plain_floats():
    with pytest.raises(ValueError, match=re.escape("p sums to 1.1, expected 1")):
        check_probability_vector([0.5, 0.6])
    with pytest.raises(ValueError, match=re.escape("row 0 sums to 1.1, expected 1")):
        check_stochastic_matrix([[0.5, 0.6], [0.0, 1.0]])


def test_model_refuses_nan_parameters():
    pi, a, b = [1.0, 0.0], [[0.4, 0.6], [0.0, 1.0]], [[0.9, 0.1], [0.2, 0.8]]
    for name, args in [
        ("startprob", ([np.nan, 0.0], a, b)),
        ("transmat", (pi, [[0.4, np.nan], [0.0, 1.0]], b)),
        ("emissionprob", (pi, a, [[0.9, 0.1], [np.nan, 0.8]])),
    ]:
        with pytest.raises(ValueError, match=f"{name} has negative or NaN entries"):
            DiscreteHMM(*args)


def test_copy_keeps_hyperparameters_and_owns_its_arrays():
    m = tiny_model(tol=1e-3, max_iter=7)
    c = m.copy()
    assert (c.tol, c.max_iter, c.updates) == (1e-3, 7, m.updates)
    c.transmat[0, 0] = 1.0
    assert m.transmat[0, 0] == 0.4


# ----------------------------------------------------------------------
# forward and viterbi against exhaustive path enumeration


def test_forward_matches_path_sum():
    rng = np.random.default_rng(101)
    for _ in range(60):
        pi, a, b, obs = random_hmm_instance(rng)
        model = DiscreteHMM(pi, a, b)
        assert model.score(obs) == pytest.approx(
            brute_forward(pi, a, b, obs), abs=1e-8
        )


def test_viterbi_matches_exhaustive_argmax():
    rng = np.random.default_rng(202)
    for _ in range(60):
        pi, a, b, obs = random_hmm_instance(rng)
        model = DiscreteHMM(pi, a, b)
        want_lp, want_path = brute_viterbi(pi, a, b, obs)
        got_lp, got_path = model.decode(obs)
        assert got_lp == pytest.approx(want_lp, abs=1e-8)
        # the decoded path itself must achieve the optimum
        assert brute_path_logp(pi, a, b, obs, tuple(got_path)) == pytest.approx(
            want_lp, abs=1e-8
        )
        assert tuple(got_path) == want_path


def test_viterbi_never_beats_forward():
    rng = np.random.default_rng(303)
    for _ in range(40):
        pi, a, b, obs = random_hmm_instance(rng)
        model = DiscreteHMM(pi, a, b)
        lp, _ = model.decode(obs)
        assert lp <= model.score(obs) + 1e-9


def test_viterbi_tie_breaks_toward_low_state_index():
    pi = np.array([0.5, 0.5])
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    b = np.array([[1.0], [1.0]])
    model = DiscreteHMM(pi, a, b)
    _, path = model.decode([0, 0, 0])
    assert list(path) == [0, 0, 0]


def test_impossible_sequences():
    m = tiny_model()
    assert m.score([1, 0]) > -math.inf
    # state 1 is absorbing, so symbol flow 1 -> heavy 0 again is possible
    # but any observation outside the alphabet is rejected
    with pytest.raises(ValueError):
        m.score([0, 2])
    zero = DiscreteHMM([1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert zero.score([1]) == -math.inf
    with pytest.raises(ImpossibleSequenceError):
        zero.decode([1])
    with pytest.raises(ImpossibleSequenceError):
        zero.predict([1])


def chain_corpus(model, n, t, rng):
    """Length-t observation sequences drawn directly from the chain, with no
    absorbing-state convention."""
    seqs = []
    for _ in range(n):
        state = rng.choice(model.n_states, p=model.startprob)
        obs = []
        for _ in range(t):
            obs.append(int(rng.choice(model.n_symbols, p=model.emissionprob[state])))
            state = rng.choice(model.n_states, p=model.transmat[state])
        seqs.append(np.asarray(obs, dtype=np.int64))
    return seqs


def test_score_total_equals_sum_of_scores():
    rng = np.random.default_rng(404)
    pi, a, b, _ = random_hmm_instance(rng)
    model = DiscreteHMM(pi, a, b)
    seqs = chain_corpus(model, 30, 6, rng)
    seqs += seqs[:10]  # duplicates exercise the dedupe path
    total = model.score_total(seqs)
    assert total == pytest.approx(sum(model.score(s) for s in seqs), abs=1e-9)
    weighted = model.score_total(seqs[:3], weights=[1.0, 2.0, 3.0])
    want = (model.score(seqs[0]) + 2 * model.score(seqs[1]) + 3 * model.score(seqs[2]))
    assert weighted == pytest.approx(want, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), max_size=30),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_bucket_matches_dict_merge(seqs, weighted, seed):
    rng = np.random.default_rng(seed)
    seqs = [np.asarray(s) if i % 2 else s for i, s in enumerate(seqs)]
    weights = (rng.random(len(seqs)) * 3).tolist() if weighted else None
    got = _bucket(_pack(seqs, 3), weights)
    want, _ = brute_bucket(seqs, weights, 3)
    assert got.obs.dtype == np.int64
    assert np.all(np.diff(got.lengths) <= 0)  # longest first
    rows = got.padded(got.obs, -1)
    assert sorted(set(got.lengths.tolist())) == [w_obs.shape[1] for w_obs, _ in want]
    for w_obs, w_w in want:
        at = got.lengths == w_obs.shape[1]
        assert np.array_equal(rows[at, :w_obs.shape[1]], w_obs)
        assert np.array_equal(got.weights[at], w_w)
    for r, i in enumerate(got.order):  # a row points back to its first copy
        assert np.array_equal(rows[r, :got.lengths[r]], seqs[i])
    assert math.fsum(got.weights) == math.fsum(w for _, w_w in want for w in w_w)


@pytest.mark.parametrize("bad, message", [
    ([[0, 1], [1, 0]], "obs must be a flat sequence, got shape (2, 2)"),
    ([], "obs is empty"),
    ([0.5, 1], "obs contains non-integer symbols"),
    ([0, 2], "obs contains symbol 2 outside [0, 2)"),
])
def test_batch_entry_points_name_the_first_bad_sequence(bad, message):
    # [7] is out of range too, and shares its length with the valid [1]
    # seen first, but the sequence reported is the first bad one in order.
    batch = [[1], bad, [7]]
    m = tiny_model()
    for call in (m.score_total, m.fit, m.decode_all):
        with pytest.raises(ValueError) as err:
            call(batch)
        assert str(err.value) == message


def test_batch_entry_points_take_an_empty_batch():
    m = tiny_model()
    assert m.score_total([]) == 0.0
    logps, paths = m.decode_all([])
    assert logps.shape == (0,) and paths == []
    with pytest.raises(ValueError, match="no sequences to fit"):
        m.fit([])


@pytest.mark.parametrize("weights", [[3.0, -1.0], [1.0, math.nan], [math.inf, 1.0]])
def test_weighted_entry_points_refuse_bad_weights(weights):
    # Unrefused, the negative weight made fit's history_ fall, the NaN one
    # read as "no sequences to fit" and the infinite one scored -inf.
    m = tiny_model()
    for call in (m.score_total, m.fit):
        with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
            call([[0, 1, 1], [1, 0]], weights=weights)
        with pytest.raises(ValueError, match="^weights length does not match sequences$"):
            call([[0, 1, 1], [1, 0]], weights=weights[:1])


def mixed_length_corpus(model, rng):
    return [s for t in (3, 1, 5, 3, 2, 5, 1, 3) for s in chain_corpus(model, 1, t, rng)]


def test_decode_all_matches_exhaustive_and_decode():
    rng = np.random.default_rng(505)
    models = [DiscreteHMM(*random_hmm_instance(rng)[:3]) for _ in range(12)]
    # Absorbing models have what the instances above never do: states with
    # no predecessor, zero start entries and rows with one non-zero.
    models += [random_absorbing_model(rng)[0] for _ in range(12)]
    into = [(m.transmat > 0).sum(axis=0) for m in models]
    assert any((d == 0).any() for d in into)
    assert any((m.startprob == 0).any() for m in models)
    for model in models:
        pi, a, b = model.startprob, model.transmat, model.emissionprob
        seqs = mixed_length_corpus(model, rng)
        logps, paths = model.decode_all(seqs)
        assert len(logps) == len(paths) == len(seqs)
        for obs, lp, path in zip(seqs, logps, paths):
            want_lp, want_path = brute_viterbi(pi, a, b, obs)
            assert lp == pytest.approx(want_lp, abs=1e-8)
            assert tuple(path) == want_path
            one_lp, one_path = model.decode(obs)
            assert lp == one_lp
            assert np.array_equal(path, one_path)


def test_decode_all_tie_breaks_toward_low_state_index():
    model = DiscreteHMM([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]])
    _, paths = model.decode_all([[0, 0, 0], [0], [0, 0, 0], [0, 0]])
    assert [list(p) for p in paths] == [[0, 0, 0], [0], [0, 0, 0], [0, 0]]
    # Two predecessors of state 2 tie; state 2 is the only one reachable.
    sparse = DiscreteHMM([0.5, 0.5, 0.0], [[0, 0, 1], [0, 0, 1], [0, 0, 1]], [[1.0]] * 3)
    logps, paths = sparse.decode_all([[0, 0, 0], [0], [0, 0]])
    assert [list(p) for p in paths] == [[0, 2, 2], [0], [0, 2]]
    assert logps.tolist() == [math.log(0.5)] * 3


def test_decode_all_rejects_a_batch_with_an_impossible_sequence():
    zero = DiscreteHMM([1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert zero.decode_all([[0, 1], [0]])[0].tolist() == [0.0, 0.0]
    with pytest.raises(ImpossibleSequenceError):
        zero.decode_all([[0, 1], [1, 1], [0]])
    with pytest.raises(ImpossibleSequenceError):
        zero.decode_all([[0, 1], [1]])


def test_decode_all_is_unchanged_by_chunking(monkeypatch):
    rng = np.random.default_rng(606)
    for model in (DiscreteHMM(*random_hmm_instance(rng)[:3]), random_absorbing_model(rng)[0]):
        seqs = chain_corpus(model, 25, 4, rng) + mixed_length_corpus(model, rng)
        with monkeypatch.context() as patch:
            want_lp, want_paths = model.decode_all(seqs)
            patch.setattr(hmm_module, "_CHUNK_ELEMENTS", 1)  # one row per chunk
            got_lp, got_paths = model.decode_all(seqs)
        assert np.array_equal(got_lp, want_lp)
        assert all(np.array_equal(g, w) for g, w in zip(got_paths, want_paths))


def test_forward_and_expectation_are_unchanged_by_chunking(monkeypatch):
    # A GEMM row may round differently with the row count, hence 1e-12.
    rng = np.random.default_rng(607)
    pi, a, b, _ = random_hmm_instance(rng)
    model = DiscreteHMM(pi, a, b)
    seqs = chain_corpus(model, 25, 4, rng) + mixed_length_corpus(model, rng)
    batch = _bucket(_pack(seqs, model.n_symbols), rng.uniform(0.5, 2.0, size=len(seqs)))
    want_total, want_counts = model._score_batch(batch), model._expectation(model._chunks(batch))
    monkeypatch.setattr(hmm_module, "_CHUNK_ELEMENTS", 1)  # one row per chunk
    assert model._score_batch(batch) == pytest.approx(want_total, rel=1e-12)
    got_counts = model._expectation(model._chunks(batch))
    assert got_counts[0] == pytest.approx(want_counts[0], rel=1e-12)
    for g, w in zip(got_counts[1:], want_counts[1:]):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


def test_kernels_stay_finite_under_a_subnormal_emission():
    # Symbol 2 has probability about 1e-310 in both states, so each step
    # showing it has a subnormal scale factor: its reciprocal overflows, and
    # so does a weight above one divided by it. Scaling symbol 2's column
    # to [1, 2] scales every path by tiny ** (its count of 2s), so the
    # posterior counts are the scaled model's and the log-likelihood is
    # its own plus that count times log(tiny).
    tiny = 1e-310
    pi, a = np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]])
    b = np.array([[0.6, 0.4, tiny], [0.25, 0.75, 2 * tiny]])
    scaled = b.copy()
    scaled[:, 2] = [1.0, 2.0]
    seqs = [np.array([1, 2]), np.array([0, 2, 1]), np.array([2, 2, 0, 2])]
    weights = [0.5, 3.0, 2.0]
    model = DiscreteHMM(pi, a, b, updates="ste")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = [model.score(obs) for obs in seqs]
        total = model.score_total(seqs, weights)
        got = model._expectation(model._chunks(_bucket(_pack(seqs, 3), weights)))
    # By hand for [1, 2]: the start emits 1 with mass 0.2 and 0.375; then
    # 0.2 * 0.9 + 0.375 * 0.2 = 0.255 to state 0 (emits 2 with tiny) and
    # 0.2 * 0.1 + 0.375 * 0.8 = 0.32 to state 1 (2 * tiny).
    assert scores[0] == pytest.approx(math.log(0.255 + 2 * 0.32) + math.log(tiny), rel=1e-12)
    shifts = [np.count_nonzero(obs == 2) * math.log(tiny) for obs in seqs]
    for obs, shift, score in zip(seqs, shifts, scores):
        assert score == pytest.approx(brute_forward(pi, a, scaled, obs) + shift, rel=1e-12)
    want = brute_expectation(pi, a, scaled, seqs, weights)
    want_total = want[0] + sum(w * shift for w, shift in zip(weights, shifts))
    assert total == pytest.approx(want_total, rel=1e-12)
    assert got[0] == pytest.approx(want_total, rel=1e-12)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)


# ----------------------------------------------------------------------
# sampling


def test_sample_stops_in_absorbing_state():
    m = tiny_model()
    rng = np.random.default_rng(12)
    for _ in range(50):
        states, obs = m.sample(rng)
        assert len(states) == len(obs)
        assert states[-1] == 1
        assert (states[:-1] != 1).all()


def test_sample_matches_transition_frequencies():
    pi = np.array([1.0, 0.0, 0.0])
    a = np.array([[0.3, 0.5, 0.2], [0.1, 0.6, 0.3], [0.0, 0.0, 1.0]])
    b = np.eye(3)
    m = DiscreteHMM(pi, a, b)
    rng = np.random.default_rng(77)
    counts = np.zeros((3, 3))
    emits = np.zeros((3, 3))
    for _ in range(4000):
        states, obs = m.sample(rng)
        for q, o in zip(states, obs):
            emits[q, o] += 1
        for u, v in zip(states, states[1:]):
            counts[u, v] += 1
    freqs = counts[:2] / counts[:2].sum(axis=1, keepdims=True)
    assert np.abs(freqs - a[:2]).max() < 0.02
    assert (emits == np.diag(emits.diagonal())).all()


@pytest.mark.parametrize("block", [hmm_module._SAMPLE_BLOCK_STEPS, 1, 3])
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 25),
    st.booleans(),
    st.sampled_from([4, 10_000]),
)
def test_sample_batch_reads_the_stream_like_the_step_by_step_walk(
    block, model_seed, seed, n, explicit, max_steps
):
    model, absorbing = random_absorbing_model(np.random.default_rng(model_seed))
    absorbing = absorbing if explicit else None
    walk = np.random.default_rng(seed)
    batch = np.random.default_rng(seed)
    wrapped = np.random.default_rng(seed)
    with mock.patch.object(hmm_module, "_SAMPLE_BLOCK_STEPS", block):
        try:
            want = [brute_sample(model, walk, absorbing, max_steps) for _ in range(n)]
        except RuntimeError:
            with pytest.raises(RuntimeError, match=f"within {max_steps} steps"):
                _sample_batch(model, n, batch, absorbing, max_steps)
            return
        states, obs, ends = _sample_batch(model, n, batch, absorbing, max_steps)
        one_by_one = [model.sample(wrapped, absorbing, max_steps) for _ in range(n)]
    starts = np.concatenate(([0], ends[:-1]))
    got = [(states[lo:hi], obs[lo:hi]) for lo, hi in zip(starts, ends)]
    assert len(got) == n and states.size == obs.size == sum(len(w) for w, _ in want)
    for (g_states, g_obs), (s_states, s_obs), (w_states, w_obs) in zip(got, one_by_one, want):
        assert np.array_equal(g_states, w_states) and np.array_equal(g_obs, w_obs)
        assert np.array_equal(s_states, w_states) and np.array_equal(s_obs, w_obs)
    # unused draws of the last block are handed back to the generator
    assert batch.random() == wrapped.random() == walk.random()


class ConstantUniforms:
    """Stands in for a Generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u
        self.bit_generator = types.SimpleNamespace(state=None)

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_sample_batch_gives_float_shortfall_to_the_last_index():
    # Every row sums to 1 - 5e-10, within the validators' tolerance, and the
    # last cell of the start row and of state 1's row has probability zero.
    short = 0.5 - 5e-10
    model = DiscreteHMM([0.5, short, 0.0], [[0.0, 0.0, 1.0], [0.5, short, 0.0], [0.0, 0.0, 1.0]],
                        [[0.5, short], [0.5, short], [0.5, short]])
    end = np.cumsum(model.startprob)[-1]
    assert end < 1.0
    for u in (end, np.nextafter(end, 1.0), np.nextafter(1.0, 0.0)):
        # the start draw lands on state 2 (absorbing), its symbol on 1
        states, obs, ends = _sample_batch(model, 2, ConstantUniforms(u), None)
        assert states.tolist() == [2, 2] and obs.tolist() == [1, 1] and ends.tolist() == [1, 2]
        want_states, want_obs = brute_sample(model, ConstantUniforms(u))
        assert want_states.tolist() == [2] and want_obs.tolist() == [1]
    # From state 1 a shortfall draw goes to state 2, the last index.
    model.startprob = np.array([0.0, 1.0, 0.0])
    states, obs, _ = _sample_batch(model, 1, ConstantUniforms(np.nextafter(1.0, 0.0)), None)
    assert states.tolist() == [1, 2] and obs.tolist() == [1, 1]


def chain(length):
    """A model that walks 0, 1, ..., length - 1 and absorbs in the last state."""
    a = np.eye(length, k=1)
    a[-1, -1] = 1.0
    return DiscreteHMM(np.eye(length)[0], a, np.full((length, 2), 0.5))


@pytest.mark.parametrize("block", [hmm_module._SAMPLE_BLOCK_STEPS, 3])
@pytest.mark.parametrize("length", [1, 3, 4, 32, 33, 100])
def test_sample_batch_cap_admits_a_run_of_exactly_max_steps(block, length):
    model = chain(length)
    with mock.patch.object(hmm_module, "_SAMPLE_BLOCK_STEPS", block):
        rng = np.random.default_rng(5)
        states, _, ends = _sample_batch(model, 3, rng, None, max_steps=length)
        assert states.tolist() == list(range(length)) * 3
        assert ends.tolist() == [length, 2 * length, 3 * length]
        if length > 1:
            rng = np.random.default_rng(5)
            with pytest.raises(RuntimeError, match=f"within {length - 1} steps"):
                _sample_batch(model, 3, rng, None, max_steps=length - 1)
            # the generator is left after the block holding the step that broke the cap
            drawn, size = 0, 16
            while drawn < length - 1:
                size = min(2 * size, block)
                drawn += size
            want = np.random.default_rng(5)
            want.random(2 * drawn)
            assert rng.random() == want.random()
            with pytest.raises(RuntimeError, match=f"within {length - 1} steps"):
                model.sample(rng, max_steps=length - 1)


def test_sample_caps_runaway_chains():
    spin = DiscreteHMM([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[1, 0], [0, 1]])
    with pytest.raises(RuntimeError):
        spin.sample(np.random.default_rng(0), absorbing=(1,), max_steps=50)


# ----------------------------------------------------------------------
# Baum-Welch


def sample_corpus(model, n, rng, max_steps=30):
    return [model.sample(rng, max_steps=max_steps)[1] for _ in range(n)]


def test_fit_increases_likelihood_monotonically():
    rng = np.random.default_rng(55)
    truth = DiscreteHMM(
        [0.7, 0.3],
        [[0.8, 0.2], [0.3, 0.7]],
        [[0.9, 0.1], [0.15, 0.85]],
    )
    seqs = chain_corpus(truth, 120, 8, rng)
    start = DiscreteHMM(
        [0.5, 0.5],
        [[0.6, 0.4], [0.4, 0.6]],
        [[0.7, 0.3], [0.3, 0.7]],
        updates="ste",
        tol=1e-6,
        max_iter=60,
    )
    start.fit(seqs)
    assert start.n_iter_ == len(start.history_)
    assert all(y >= x - 1e-9 for x, y in zip(start.history_, start.history_[1:]))
    assert start.history_[-1] >= start.history_[0]
    assert start.converged_ or start.n_iter_ == 60


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       updates=st.sampled_from(["s", "e", "se", "t", "te", "ste"]))
def test_expectation_matches_path_sums(seed, updates):
    rng = np.random.default_rng(seed)
    pi, a, b, _ = random_hmm_instance(rng, max_states=3, max_symbols=3)
    seqs = [rng.integers(0, b.shape[1], size=int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 7)))]
    seqs += seqs[:int(rng.integers(0, len(seqs) + 1))]  # repeats merge into weights
    weights = rng.uniform(0.1, 3.0, size=len(seqs))
    model = DiscreteHMM(pi, a, b, updates=updates)
    got = model._expectation(model._chunks(_bucket(_pack(seqs, b.shape[1]), weights)))
    want = brute_expectation(pi, a, b, seqs, weights)
    assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
    # a_num, a_den, pi_num, b_num, b_den: transition counts only with "t",
    # emission counts only with "e"
    made = ("t" in updates, "t" in updates, True, "e" in updates, "e" in updates)
    for g, w, m in zip(got[1:], want[1:], made):
        if m:
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)
        else:
            assert g is None


def test_fit_preserves_structural_zeros(pick_place_model):
    hm = pick_place_model.hmm
    rng = np.random.default_rng(66)
    seqs = sample_corpus(hm, 200, rng)
    fit = hm.copy()
    fit.updates = "t"
    fit.tol = 1e-6
    fit.fit(seqs)
    assert np.array_equal(fit.transmat == 0, hm.transmat == 0)
    assert np.allclose(fit.transmat.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(fit.emissionprob, hm.emissionprob)
    assert np.array_equal(fit.startprob, hm.startprob)


def test_fit_keeps_the_rows_of_a_state_it_never_visits():
    # State 2 is unreachable, so its expected visits are zero; the M-step
    # must keep its rows instead of dividing by zero.
    rng = np.random.default_rng(17)
    model = DiscreteHMM([0.6, 0.4, 0.0],
                        [[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.5, 0.25, 0.25]],
                        [[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]], updates="ste", max_iter=3)
    seqs = [rng.integers(0, 2, size=4) for _ in range(20)]
    model.fit(seqs)
    assert model.transmat[2].tolist() == [0.5, 0.25, 0.25]
    assert model.emissionprob[2].tolist() == [0.5, 0.5]
    assert np.allclose(model.transmat[:2].sum(axis=1), 1.0)


def test_fit_updates_flags_control_parameter_groups():
    rng = np.random.default_rng(9)
    truth = DiscreteHMM([0.5, 0.5], [[0.2, 0.8], [0.7, 0.3]], [[0.8, 0.2], [0.25, 0.75]])
    seqs = chain_corpus(truth, 60, 6, rng)
    base = DiscreteHMM([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.6, 0.4], [0.4, 0.6]])

    only_e = base.copy()
    only_e.updates = "e"
    only_e.fit(seqs)
    assert np.array_equal(only_e.transmat, base.transmat)
    assert np.array_equal(only_e.startprob, base.startprob)
    assert not np.array_equal(only_e.emissionprob, base.emissionprob)

    only_s = base.copy()
    only_s.updates = "s"
    only_s.fit(seqs)
    assert np.array_equal(only_s.transmat, base.transmat)
    assert not np.array_equal(only_s.startprob, base.startprob)


def test_fit_refuses_updates_set_after_construction():
    model = tiny_model()
    model.updates = "x"
    with pytest.raises(ValueError, match="updates must only contain"):
        model.fit([[0, 1, 0]])


def test_fit_weights_match_repetition():
    rng = np.random.default_rng(31)
    truth = DiscreteHMM([0.6, 0.4], [[0.5, 0.5], [0.2, 0.8]], [[0.9, 0.1], [0.3, 0.7]])
    x, y = chain_corpus(truth, 2, 5, rng)
    rep = DiscreteHMM([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.8, 0.2], [0.2, 0.8]],
                      updates="ste", max_iter=5, tol=0)
    wtd = rep.copy()
    rep.fit([x, x, x, y])
    wtd.fit([x, y], weights=[3.0, 1.0])
    assert np.allclose(rep.transmat, wtd.transmat, atol=1e-12)
    assert np.allclose(rep.emissionprob, wtd.emissionprob, atol=1e-12)
    assert np.allclose(rep.history_, wtd.history_, atol=1e-9)


@pytest.mark.parametrize("updates", ["t", "ste"])
def test_fit_is_unchanged_by_chunking(monkeypatch, updates):
    # One row per chunk against one chunk: the chunks a fit plans once
    # serve every iteration.
    rng = np.random.default_rng(608)
    truth = DiscreteHMM(*random_hmm_instance(rng)[:3])
    seqs = chain_corpus(truth, 25, 4, rng) + mixed_length_corpus(truth, rng)
    weights = rng.uniform(0.5, 2.0, size=len(seqs))
    n, j = truth.n_states, truth.n_symbols
    start = DiscreteHMM(np.full(n, 1 / n), (truth.transmat + 1 / n) / 2,
                        (truth.emissionprob + 1 / j) / 2, updates=updates, max_iter=12, tol=1e-9)
    want = start.copy().fit(seqs, weights)
    monkeypatch.setattr(hmm_module, "_CHUNK_ELEMENTS", 1)
    got = start.copy().fit(seqs, weights)
    assert (got.n_iter_, got.converged_) == (want.n_iter_, want.converged_)
    np.testing.assert_allclose(got.history_, want.history_, rtol=1e-12)
    for name in ("startprob", "transmat", "emissionprob"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-15)


def test_fit_single_state_model():
    m = DiscreteHMM([1.0], [[1.0]], [[0.25, 0.75]], updates="ste", max_iter=10)
    m.fit([[0, 1, 1], [1, 1, 0]])
    assert m.transmat[0, 0] == 1.0
    assert m.emissionprob[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_fit_recovers_emissions_of_separated_chain():
    truth = DiscreteHMM(
        [1.0, 0.0],
        [[0.7, 0.3], [0.0, 1.0]],
        [[0.95, 0.05], [0.05, 0.95]],
    )
    rng = np.random.default_rng(8)
    seqs = sample_corpus(truth, 400, rng)
    guess = DiscreteHMM(
        [1.0, 0.0],
        [[0.5, 0.5], [0.0, 1.0]],
        [[0.95, 0.05], [0.05, 0.95]],
        updates="t",
        tol=1e-8,
        max_iter=100,
    )
    guess.fit(seqs)
    assert abs(guess.transmat[0, 0] - 0.7) < 0.05
