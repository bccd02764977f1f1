import math
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
    _sample_batch,
    load_hmm,
    save_hmm,
)

from conftest import (
    brute_bucket,
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
    got, got_total = _bucket(seqs, weights, 3)
    want, want_total = brute_bucket(seqs, weights, 3)
    assert len(got) == len(want)
    for (g_obs, g_w), (w_obs, w_w) in zip(got, want):
        assert g_obs.dtype == np.int64 and np.array_equal(g_obs, w_obs)
        assert np.array_equal(g_w, w_w)
    assert got_total == want_total


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


def mixed_length_corpus(model, rng):
    return [s for t in (3, 1, 5, 3, 2, 5, 1, 3) for s in chain_corpus(model, 1, t, rng)]


def test_decode_all_matches_exhaustive_and_decode():
    rng = np.random.default_rng(505)
    for _ in range(12):
        pi, a, b, _ = random_hmm_instance(rng)
        model = DiscreteHMM(pi, a, b)
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


def test_decode_all_rejects_a_batch_with_an_impossible_sequence():
    zero = DiscreteHMM([1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert zero.decode_all([[0, 1], [0]])[0].tolist() == [0.0, 0.0]
    with pytest.raises(ImpossibleSequenceError):
        zero.decode_all([[0, 1], [1, 1], [0]])
    with pytest.raises(ImpossibleSequenceError):
        zero.decode_all([[0, 1], [1]])


def test_decode_all_is_unchanged_by_chunking(monkeypatch):
    rng = np.random.default_rng(606)
    pi, a, b, _ = random_hmm_instance(rng)
    model = DiscreteHMM(pi, a, b)
    seqs = chain_corpus(model, 25, 4, rng) + mixed_length_corpus(model, rng)
    want_lp, want_paths = model.decode_all(seqs)
    monkeypatch.setattr(hmm_module, "_VITERBI_CHUNK_ELEMENTS", 1)  # one row per chunk
    got_lp, got_paths = model.decode_all(seqs)
    assert np.array_equal(got_lp, want_lp)
    assert all(np.array_equal(g, w) for g, w in zip(got_paths, want_paths))


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


@pytest.mark.parametrize("block", [hmm_module._SAMPLE_BLOCK_STEPS, 1])
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


# ----------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.json"
    save_hmm(m, path, labels=("a", "b"), edge_labels=("S:1 F:0", None))
    again, labels, edge_labels = load_hmm(path)
    assert np.array_equal(again.startprob, m.startprob)
    assert np.array_equal(again.transmat, m.transmat)
    assert np.array_equal(again.emissionprob, m.emissionprob)
    assert labels == ("a", "b")
    assert edge_labels == ("S:1 F:0", None)
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "m2.json"
    save_hmm(again, path2, labels=labels, edge_labels=edge_labels)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(ValueError):
        load_hmm(p)
    p.write_text('{"n_states": 2, "n_symbols": 2, "pi": [1, 0], '
                 '"a": [[1, 0]], "b": [[1, 0], [0, 1]], '
                 '"labels": null, "edge_labels": null}')
    with pytest.raises(ValueError):
        load_hmm(p)
