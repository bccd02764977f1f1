import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abthmm import hmm as hmm_module
from abthmm import parse
from abthmm import simulate
from abthmm.compiler import compile_abt, load_model, save_model
from abthmm.hmm import DiscreteHMM, _Packed
from abthmm.simulate import (
    METRIC_COLUMNS,
    MetricRow,
    Run,
    SweepConfig,
    estimate_ps,
    perturb_hmm,
    randomize_hmm,
    read_dataset,
    read_metrics,
    rms_nonzero,
    rollout_dataset,
    run_sweep,
    _sed_batch,
    sed,
    sweep_cells,
    with_synthetic_emissions,
    write_dataset,
    write_metrics,
)
from abthmm.tree import (
    FAILURE,
    SUCCESS,
    ABTDefinition,
    Leaf,
    LeafStats,
    Parallel,
    Retry,
    Selector,
    Sequence,
    TickLimitError,
)

from conftest import (
    MODELS,
    REPO,
    brute_estimate_ps,
    brute_perturb,
    brute_rollout,
    brute_sample,
    brute_sed,
    dataset_of,
    uniform_row,
)


def seed_with_first_draw(bit):
    return next(
        s for s in range(50)
        if int(np.random.default_rng(s).integers(0, 2)) == bit
    )


# ----------------------------------------------------------------------
# rollouts


def test_rollout_is_reproducible(pick_place):
    d1 = rollout_dataset(pick_place, 40, seed=5)
    d2 = rollout_dataset(pick_place, 40, seed=5)
    assert d1.runs == d2.runs
    d3 = rollout_dataset(pick_place, 40, seed=6)
    assert d1.runs != d3.runs


def test_rollout_runs_follow_the_tree(pick_place, pick_place_model):
    data = rollout_dataset(pick_place, 300, seed=11, model=pick_place_model)
    assert len(data) == 300
    for run in data.runs:
        assert run.states[0] == 0
        assert run.states[-1] in (4, 5)
        assert (run.states[-1] == 4) == (run.outcome == SUCCESS)
        assert len(run.states) == len(run.obs)
        for q, nxt in zip(run.states, run.states[1:]):
            e = pick_place_model.edges[q]
            assert nxt in (e.succ_target, e.fail_target)


def test_rollout_frequencies_match_transition_rows(pick_place, pick_place_model):
    data = rollout_dataset(pick_place, 6000, seed=3, model=pick_place_model)
    counts = np.zeros((6, 6))
    for run in data.runs:
        for q, nxt in zip(run.states, run.states[1:]):
            counts[q, nxt] += 1
    hat = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    for q in pick_place_model.leaf_states:
        assert np.abs(hat[q] - pick_place_model.a[q]).max() < 0.03


def test_rollout_emissions_use_leaf_rows(pick_place, pick_place_model):
    data = rollout_dataset(pick_place, 4000, seed=9, model=pick_place_model)
    first = np.bincount(
        [run.obs[0] for run in data.runs], minlength=pick_place_model.n_symbols
    ) / len(data)
    assert np.abs(first - pick_place_model.b[0]).max() < 0.03


def retry_parallel_tree():
    """A retried two-step sequence, then a two-child parallel block whose
    first child is a fallback; distinct emission rows per leaf."""
    def leaf(name, ps, row):
        return Leaf(name, LeafStats(ps, row))

    return ABTDefinition(
        Sequence((
            Retry(Sequence((
                leaf("move", 0.7, (0.1, 0.2, 0.3, 0.4)),
                leaf("place", 0.6, (0.4, 0.3, 0.2, 0.1)),
            ))),
            Parallel(
                (
                    Selector((
                        leaf("grip", 0.5, uniform_row(4)),
                        leaf("regrip", 0.4, (0.7, 0.1, 0.1, 0.1)),
                    )),
                    leaf("lift", 0.6, (0.1, 0.1, 0.1, 0.7)),
                ),
                0.5,
            ),
        )),
        4, (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5),
    )


def stuck_retry_tree():
    """A retry around a leaf that never succeeds: no run can end."""
    return ABTDefinition(
        Retry(Leaf("stuck", LeafStats(0.0, uniform_row(4)))),
        4, uniform_row(4), uniform_row(4),
    )


@pytest.mark.parametrize("tree", ["pick_place", "retry_parallel"])
def test_rollout_is_the_step_by_step_walk_on_the_compiled_model(tree, request):
    abt = request.getfixturevalue(tree) if tree == "pick_place" else retry_parallel_tree()
    m = compile_abt(abt)
    n, seed = 400, 17
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(n):
        states, obs = brute_sample(m.hmm, rng, absorbing=(m.o_s, m.o_f))
        outcome = SUCCESS if states[-1] == m.o_s else FAILURE
        want.append(Run(tuple(states.tolist()), tuple(obs.tolist()), outcome))
    assert rollout_dataset(abt, n, seed, model=m).runs == want
    assert rollout_dataset(abt, n, seed).runs == want
    assert {run.outcome for run in want} == {SUCCESS, FAILURE}
    if m.blocks:  # the product states are visited
        blk = m.blocks[0]
        assert any(blk.first in run.states for run in want)


def test_rollout_rejects_run_counts_below_one(pick_place):
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least one run"):
            rollout_dataset(pick_place, n, seed=1)


def test_rollout_of_a_retry_that_cannot_exit_hits_the_visit_cap():
    stuck = stuck_retry_tree()
    with pytest.raises(TickLimitError, match="10000 visits"):
        rollout_dataset(stuck, 3, seed=1)
    with pytest.raises(TickLimitError):
        brute_rollout(stuck, 3, seed=1)


def test_visit_cap_counts_the_visits_before_the_output_state(monkeypatch):
    always = LeafStats(1.0, uniform_row(4))
    three = ABTDefinition(
        Sequence(tuple(Leaf(f"n{i}", always) for i in range(3))),
        4, uniform_row(4), uniform_row(4),
    )
    monkeypatch.setattr(simulate, "VISIT_CAP", 3)
    assert [len(run.states) for run in rollout_dataset(three, 2, seed=0).runs] == [4, 4]
    monkeypatch.setattr(simulate, "VISIT_CAP", 2)
    with pytest.raises(TickLimitError, match="2 visits"):
        rollout_dataset(three, 2, seed=0)


def test_dataset_is_flat_and_builds_runs_on_demand(pick_place):
    d = rollout_dataset(pick_place, 30, seed=4)
    runs = d.runs
    assert len(d) == 30 and d.runs is not runs  # built again, not cached
    assert [o.tolist() for o in d.observations()] == [list(r.obs) for r in runs]
    assert [s.tolist() for s in d.state_paths()] == [list(r.states) for r in runs]
    assert all(o.dtype == np.int64 for o in d.observations() + d.state_paths())
    assert list(d.outcomes) == [r.outcome for r in runs]
    for flat in (d.states, d.obs, d.observations()[0], d.state_paths()[0]):
        with pytest.raises(ValueError, match="read-only"):
            flat[0] = 1


# ----------------------------------------------------------------------
# ps recovery


def test_estimate_ps_recovers_leaf_rates(pick_place, pick_place_model):
    data = rollout_dataset(pick_place, 20000, seed=21, model=pick_place_model)
    ps_hat, counts = estimate_ps(data, pick_place_model)
    want = [0.82, 0.59, 0.9, 0.64]
    assert counts[0] == 20000
    for g, (hat, n) in enumerate(zip(ps_hat, counts)):
        assert n > 500  # regrasp only runs after a failed placement
        assert hat == pytest.approx(want[g], abs=0.03)


def test_estimate_ps_rejects_foreign_transitions(pick_place_model):
    alien = dataset_of([((0, 3, 4), (0, 0, 0), SUCCESS)])
    with pytest.raises(ValueError, match="matches neither outcome"):
        estimate_ps(alien, pick_place_model)


@pytest.mark.parametrize("tree", ["pick_place", "patrol", "parallel_retry"])
def test_estimate_ps_matches_the_per_run_loop(tree, request):
    if tree == "parallel_retry":
        abt = parse((REPO / "perfbench" / "trees" / "parallel_retry.abt").read_text())
    else:
        abt = request.getfixturevalue(tree)
    model = compile_abt(abt)
    data = rollout_dataset(abt, 2000, seed=31, model=model)
    got, got_counts = estimate_ps(data, model)
    want, want_counts = brute_estimate_ps(data, model)
    np.testing.assert_array_equal(got, want)  # nan in the same places
    np.testing.assert_array_equal(got_counts, want_counts)
    assert got_counts.dtype == want_counts.dtype
    if tree == "parallel_retry":
        assert 0 < np.count_nonzero(want_counts == 0) < len(want_counts)  # the block's leaves
    # Runs cut before their output state end on a leaf; the next run's first
    # visit does not classify it.
    cut = dataset_of([(r.states[:-1], r.obs[:-1], r.outcome) for r in data.runs])
    got, got_counts = estimate_ps(cut, model)
    want, want_counts = brute_estimate_ps(cut, model)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_counts, want_counts)


def test_estimate_ps_raises_the_per_run_loops_first_error(pick_place, pick_place_model):
    m = pick_place_model
    runs = [(r.states, r.obs, r.outcome) for r in rollout_dataset(pick_place, 20, seed=2, model=m).runs]
    alien = ((0, 3, 4), (0, 0, 0), SUCCESS)  # 0 -> 3 is neither of state 0's targets
    no_grasp_labels = replace(m, edges=m.edges[:1] + (None,) + m.edges[2:])
    cases = (
        (runs, no_grasp_labels, "state 1 has no edge labels"),
        (runs + [alien], m, "transition 0 -> 3 matches neither outcome"),
        ([alien] + runs, no_grasp_labels, "transition 0 -> 3 matches neither outcome"),
        (runs + [alien], no_grasp_labels, "state 1 has no edge labels"),
    )
    for runs_, model, message in cases:
        data = dataset_of(runs_)
        for estimate in (estimate_ps, brute_estimate_ps):
            with pytest.raises(ValueError) as err:
                estimate(data, model)
            assert str(err.value) == message


# ----------------------------------------------------------------------
# perturbations


def test_perturbation_spec_range(pick_place_model):
    perturb_hmm(pick_place_model, 0.0)
    perturb_hmm(pick_place_model, 0.5)
    with pytest.raises(ValueError, match=r"p_tilde -0.1 outside \[0, 0.5\]"):
        perturb_hmm(pick_place_model, -0.1)
    with pytest.raises(ValueError, match=r"p_tilde 0.6 outside \[0, 0.5\]"):
        perturb_hmm(pick_place_model, 0.6)


def test_perturb_zero_is_an_identity_copy(pick_place_model):
    out = perturb_hmm(pick_place_model, 0.0, seed=4)
    assert out is not pick_place_model
    assert out.hmm is not pick_place_model.hmm
    assert np.array_equal(out.a, pick_place_model.a)
    assert out.edges == pick_place_model.edges


def test_perturb_scales_the_first_transition(pick_place_model):
    up = seed_with_first_draw(1)
    down = seed_with_first_draw(0)
    # state 0 leads with the success edge at 0.82
    bumped = perturb_hmm(pick_place_model, 0.1, seed=up)
    assert bumped.a[0, 1] == pytest.approx(0.82 * 1.1)
    assert bumped.a[0, 5] == pytest.approx(1 - 0.82 * 1.1)
    shrunk = perturb_hmm(pick_place_model, 0.1, seed=down)
    assert shrunk.a[0, 1] == pytest.approx(0.82 * 0.9)
    for out in (bumped, shrunk):
        assert np.allclose(out.a.sum(axis=1), 1.0)
        assert np.array_equal(out.a == 0, pick_place_model.a == 0)


def test_perturb_clamps_into_the_probability_band(pick_place_model):
    up = seed_with_first_draw(1)
    out = perturb_hmm(pick_place_model, 0.5, seed=up)
    assert out.a[0, 1] == pytest.approx(0.95)  # 0.82 * 1.5 hits the lid
    assert out.a[0, 5] == pytest.approx(0.05)


def test_perturb_keeps_untouched_parts(pick_place_model):
    out = perturb_hmm(pick_place_model, 0.3, seed=8)
    assert np.array_equal(out.b, pick_place_model.b)
    assert np.array_equal(out.pi, pick_place_model.pi)
    assert out.a[4, 4] == 1.0 and out.a[5, 5] == 1.0


def test_perturb_signs_pair_across_levels(pick_place_model):
    small = perturb_hmm(pick_place_model, 0.1, seed=13)
    large = perturb_hmm(pick_place_model, 0.4, seed=13)
    for q in pick_place_model.leaf_states:
        c = np.nonzero(pick_place_model.a[q])[0][0]
        d1 = small.a[q, c] - pick_place_model.a[q, c]
        d2 = large.a[q, c] - pick_place_model.a[q, c]
        assert d1 != 0 and np.sign(d1) == np.sign(d2)
        assert abs(d2) > abs(d1)


SURE_LEAF = """
(sequence
  (leaf check :ps 1 :emit (gauss))
  (selector
    (leaf grab :ps 0.7 :emit (gauss))
    (leaf regrab :ps 0.4 :emit (gauss))))
"""


@pytest.mark.parametrize("source", ["pick_place", "patrol", "parallel_retry", "sure_leaf"])
def test_perturb_matches_the_per_row_loop(source, pick_place_model, patrol_model):
    model = {
        "pick_place": pick_place_model,
        "patrol": patrol_model,
        "parallel_retry": compile_abt(parse((REPO / "perfbench" / "trees" / "parallel_retry.abt").read_text())),
        "sure_leaf": compile_abt(parse(SURE_LEAF)),
    }[source]
    counts = (model.a != 0).sum(axis=1)
    labeled = np.array([e is not None for e in model.edges])
    if source == "parallel_retry":
        assert not labeled.all()  # the product rows have no label
    if source == "sure_leaf":
        assert (labeled & (counts == 1)).any()  # the :ps 1 row: drawn for, then skipped
    for p_tilde in (0.1, 0.5):  # 0.5 hits the clamps
        for seed in range(6):
            assert np.array_equal(perturb_hmm(model, p_tilde, seed).a,
                                  brute_perturb(model, p_tilde, seed).a)


def test_every_way_to_make_a_model_gives_read_only_parameters(
        pick_place, pick_place_model, tmp_path):
    save_model(pick_place_model, tmp_path / "model.json")
    fitted = pick_place_model.hmm.copy()
    fitted.max_iter = 2
    fitted.fit(rollout_dataset(pick_place, 30, seed=3, model=pick_place_model).observations())
    models = {
        "constructor": DiscreteHMM([1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], [[1.0], [1.0]]),
        "compile_abt": compile_abt(pick_place).hmm,
        "load_model": load_model(tmp_path / "model.json").hmm,
        "with_synthetic_emissions": with_synthetic_emissions(pick_place_model, 0.5).hmm,
        "randomize_hmm": randomize_hmm(pick_place_model, 2),
        "perturb_hmm": perturb_hmm(pick_place_model, 0.2, 1).hmm,
        "copy": pick_place_model.hmm.copy(),
        "fit": fitted,
    }
    for source, model in models.items():
        for name in ("startprob", "transmat", "emissionprob"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[0] = 0.0
                pytest.fail(f"{source}: {name} is writable")


def test_perturbing_and_fitting_a_copy_leave_the_input_bit_identical(pick_place):
    model = compile_abt(pick_place)
    before = [x.tobytes() for x in (model.pi, model.a, model.b)]
    perturbed = perturb_hmm(model, 0.3, seed=4)
    assert not np.array_equal(perturbed.a, model.a)
    assert np.shares_memory(perturbed.b, model.b)
    fitted = model.hmm.copy()
    fitted.max_iter = 3
    fitted.fit(rollout_dataset(pick_place, 50, seed=4, model=perturbed).observations())
    assert not np.array_equal(fitted.transmat, model.a)
    assert [x.tobytes() for x in (model.pi, model.a, model.b)] == before


def test_copy_and_a_transition_fit_do_not_duplicate_the_emission_matrix():
    # The benchmark's fit stage at 200 runs: the 10.2 MB product-state
    # emission matrix is shared with the copy, never copied.
    abt = parse((REPO / "perfbench" / "trees" / "parallel_retry.abt").read_text())
    model = compile_abt(abt)
    obs = rollout_dataset(abt, 200, seed=12061, model=model).observations()
    tracemalloc.start()
    try:
        fitted = model.hmm.copy()
        fitted.updates, fitted.max_iter = "t", 2
        fitted.fit(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fitted.n_iter_ >= 1
    assert peak < model.b.nbytes / 4


def test_randomize_hmm(pick_place_model):
    out = randomize_hmm(pick_place_model, seed=2)
    assert isinstance(out, DiscreteHMM)
    assert not hasattr(out, "edges")
    assert np.allclose(out.transmat.sum(axis=1), 1.0)
    assert (out.transmat > 0).all()
    assert np.array_equal(out.emissionprob, pick_place_model.b)
    assert np.array_equal(out.startprob, pick_place_model.pi)
    again = randomize_hmm(pick_place_model, seed=2)
    assert np.array_equal(out.transmat, again.transmat)


def test_with_synthetic_emissions(pick_place_model):
    out = with_synthetic_emissions(pick_place_model, 2.5)
    assert np.array_equal(out.a, pick_place_model.a)
    assert out.b.shape[0] == 6
    assert np.allclose(out.b.sum(axis=1), 1.0)
    assert out.edges == pick_place_model.edges
    flat = with_synthetic_emissions(pick_place_model, 0.0)
    assert np.allclose(flat.b, flat.b[0])


# ----------------------------------------------------------------------
# metrics


def test_sed_hand_cases():
    assert sed("kitten", "sitting") == pytest.approx(3 / 7)
    assert sed((1, 2, 3), (1, 2, 3)) == 0.0
    assert sed((), (1, 2)) == 1.0
    assert sed((1, 2, 3, 4), (1, 4)) == 1.0  # two deletions over length 2
    with pytest.raises(ValueError):
        sed((1, 2), ())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=8),
    st.lists(st.integers(0, 3), min_size=1, max_size=8),
)
def test_sed_is_a_scaled_edit_distance(a, b):
    d = sed(a, b) * len(b)
    assert d == int(round(d))
    assert d >= abs(len(a) - len(b))
    assert d <= max(len(a), len(b))
    assert (d == 0) == (a == b)
    if a:
        assert sed(a, b) * len(b) == pytest.approx(sed(b, a) * len(a))


@st.composite
def sed_batches(draw):
    """Pairs for two packed batches whose rows line up: either one length
    of a (which may be empty) against non-increasing lengths of b, or mixed
    lengths that are equal within a pair."""
    if draw(st.booleans()):
        ns = sorted(draw(st.lists(st.integers(1, 7), min_size=1, max_size=5)), reverse=True)
        m = draw(st.one_of(st.just(0), st.just(ns[0]), st.integers(0, 7)))
        sizes = [(m, n) for n in ns]
    else:
        sizes = [(n, n) for n in draw(st.lists(st.integers(1, 7), min_size=1, max_size=8))]
    return [
        (draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
         draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        for m, n in sizes
    ]


def packed(seqs):
    flat = np.array([x for s in seqs for x in s], dtype=np.int64)
    return _Packed.of(flat, np.array([len(s) for s in seqs], dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(sed_batches())
def test_sed_batch_matches_textbook_loop(pairs):
    a, b = packed([p for p, _ in pairs]), packed([q for _, q in pairs])
    assert np.array_equal(a.order, b.order)  # the pairs line up row by row
    got = np.empty(len(pairs))
    got[a.order] = _sed_batch(a, b)
    assert got.tolist() == [brute_sed(p, q) for p, q in pairs]


@pytest.mark.parametrize("budget", [None, 40])
def test_sed_batch_pads_a_long_reference_on_its_own(monkeypatch, budget):
    if budget is not None:  # also split the short rows by the element budget
        monkeypatch.setattr(hmm_module, "_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(808)
    pairs = [(rng.integers(0, 3, n).tolist(), rng.integers(0, 3, n).tolist())
             for n in [3] * 40 + [60] + [3] * 40 + [2] * 5]
    a, b = packed([p for p, _ in pairs]), packed([q for _, q in pairs])
    runs = list(b.padded_chunks(3))
    assert runs[0] == (0, 1)  # the long reference runs alone
    assert [lo for lo, _ in runs[1:]] == [hi for _, hi in runs[:-1]] and runs[-1][1] == len(pairs)
    for lo, hi in runs[1:]:
        width = b.lengths[lo] + 1
        assert 2 * (b.lengths[hi - 1] + 1) >= width
        assert hi - lo == 1 or (hi - lo) * width * 3 <= hmm_module._CHUNK_ELEMENTS
    got = np.empty(len(pairs))
    got[a.order] = _sed_batch(a, b)
    assert got.tolist() == [brute_sed(p, q) for p, q in pairs]


def test_repeated_batch_scores_every_copy_in_one_sed_call():
    # Row r * P + p of a batch repeated P times is copy p of row r; values
    # (P, S) packed like the batch pack like the repeat as x.T.ravel().
    rng = np.random.default_rng(809)
    truths = [rng.integers(0, 4, n).tolist() for n in (3, 7, 1, 7, 4, 3)]
    copies = 3
    guesses = [[rng.integers(0, 4, len(t)).tolist() for t in truths] for _ in range(copies)]
    b = packed(truths)
    rep = b.repeat(copies)
    want = packed([t for t in truths for _ in range(copies)])
    assert np.array_equal(rep.obs, want.obs) and np.array_equal(rep.lengths, want.lengths)
    assert rep.sizes == want.sizes and rep.offsets == want.offsets
    assert np.array_equal(rep.order, want.order // copies)
    x = np.stack([packed(g).obs for g in guesses])  # packed like b: equal lengths
    dists = _sed_batch(rep.like(x.T.ravel()), rep).reshape(-1, copies)
    got = np.empty((len(truths), copies))
    got[b.order] = dists
    assert got.tolist() == [[brute_sed(g[i], t) for g in guesses] for i, t in enumerate(truths)]


def test_rms_nonzero_hand_value():
    ref = np.array([[0.5, 0.5], [0.0, 1.0]])
    est = np.array([[0.6, 0.4], [0.3, 1.0]])  # the 0.3 sits on a zero cell
    assert rms_nonzero(ref, est) == pytest.approx(np.sqrt(0.02 / 3))
    assert rms_nonzero(ref, ref) == 0.0


def test_rms_nonzero_errors():
    with pytest.raises(ValueError, match="shape"):
        rms_nonzero(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="all zero"):
        rms_nonzero(np.zeros((2, 2)), np.zeros((2, 2)))


# ----------------------------------------------------------------------
# sweep configuration


def test_sweep_config_from_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comparison sweep\n"
        "model = models/pick_place.abt\n"
        "ratios = 0, 1, 5   # coarse\n"
        "perturbations = 0, 0.25, random\n"
        "n_sequences = 500\n"
        "master_seed = 99\n"
        "bw_updates = te\n"
    )
    cfg = SweepConfig.from_file(path)
    assert cfg.model == "models/pick_place.abt"
    assert cfg.ratios == (0.0, 1.0, 5.0)
    assert cfg.perturbations == (0.0, 0.25, "random")
    assert cfg.n_sequences == 500
    assert cfg.master_seed == 99
    assert cfg.bw_updates == "te"


def test_sweep_config_defaults(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("model = m.abt\n")
    cfg = SweepConfig.from_file(path)
    assert cfg.ratios == (0.0, 0.25, 1.0, 2.5, 5.0)
    assert cfg.perturbations == (0.0, 0.1, 0.25, 0.5)
    assert cfg.bw_updates == "t"


@pytest.mark.parametrize("body, fragment", [
    ("model = m.abt\nspeed = 9\n", "unknown config keys"),
    ("model = m.abt\nbw_updates = tx\n", "bw_updates"),
    ("ratios = 1\n", "model"),
    ("model = m.abt\njust some words\n", "key=value"),
    ("model = m.abt\nperturbations = 0, rnd\n",
     "sweep.cfg: perturbations: could not convert string to float: 'rnd'"),
    ("model = m.abt\nratios =\n", "sweep.cfg: ratios: could not convert string to float: ''"),
    ("model = m.abt\nratios = 0, -1\n", "sweep.cfg: ratios: ratio must be non-negative"),
    ("model = m.abt\nratios = inf\n", "sweep.cfg: ratios: ratio must be finite, got inf"),
    ("model = m.abt\nperturbations = 0, 0.7\n",
     r"sweep.cfg: perturbations: p_tilde 0.7 outside \[0, 0.5\]"),
    ("model = m.abt\nn_sequences = 0\n", "sweep.cfg: n_sequences: need at least one run, got 0"),
    ("model = m.abt\nratios = 1\n# again\nratios = 2\n",
     "sweep.cfg:4: ratios is already set on line 2"),
    ("model = m.abt\nspeed = 9\n", "sweep.cfg: unknown config keys"),
])
def test_sweep_config_rejects_bad_files(tmp_path, body, fragment):
    path = tmp_path / "sweep.cfg"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        SweepConfig.from_file(path)


@pytest.mark.parametrize("field, fragment", [
    (dict(ratios=()), "ratios: the grid needs at least one value"),
    (dict(perturbations=()), "perturbations: the grid needs at least one value"),
    (dict(ratios=(1.0, -0.5)), "ratios: ratio must be non-negative"),
    (dict(perturbations=(0.0, "rnd")), "perturbations: could not convert string to float: 'rnd'"),
    (dict(perturbations=(0.6,)), r"perturbations: p_tilde 0.6 outside \[0, 0.5\]"),
    (dict(n_sequences=0), "n_sequences: need at least one run, got 0"),
    (dict(n_sequences=2.5), "n_sequences: 'float' object cannot be interpreted as an integer"),
    (dict(master_seed="7"), "master_seed: 'str' object cannot be interpreted as an integer"),
])
def test_sweep_config_checks_every_field_when_built(field, fragment):
    # A missing tree file is not opened: the config is refused first.
    with pytest.raises(ValueError, match=fragment):
        SweepConfig(**{"model": "no-such-tree.abt", **field})
    with pytest.raises(ValueError, match=fragment):  # replace builds a new config
        replace(SweepConfig(model="no-such-tree.abt"), **field)


def test_shipped_sweep_configs_pass_the_checks():
    for path in sorted((REPO / "perfbench" / "configs").glob("*.cfg")):
        cfg = replace(SweepConfig.from_file(path), n_sequences=100, master_seed=1)
        assert cfg.n_sequences == 100


def test_sweep_config_rejects_unknown_bw_updates():
    with pytest.raises(ValueError, match="bw_updates"):
        SweepConfig(model="m.abt", bw_updates="x")
    assert SweepConfig(model="m.abt", bw_updates="ste").bw_updates == "ste"


# ----------------------------------------------------------------------
# sweeps


PICK_PLACE = str(MODELS / "pick_place.abt")


def small_cfg(n=40):
    return SweepConfig(
        model=PICK_PLACE,
        ratios=(0.0, 1.0),
        perturbations=(0.0, 0.25, "random"),
        n_sequences=n,
        master_seed=5,
    )


def test_sweep_cells_grid():
    cells = list(sweep_cells(small_cfg()))
    assert [(c.ratio, c.perturbation) for c in cells] == [
        (0.0, 0.0), (0.0, 0.25), (0.0, "random"),
        (1.0, 0.0), (1.0, 0.25), (1.0, "random"),
    ]
    # one dataset per ratio, shared across perturbation levels
    assert cells[0].dataset is cells[1].dataset is cells[2].dataset
    assert cells[3].dataset is not cells[0].dataset
    assert len({c.seed for c in cells}) == len(cells)


def test_sweep_cells_start_models():
    cells = list(sweep_cells(small_cfg()))
    clean, drifted, noise = cells[3:]
    assert all(isinstance(c.start, DiscreteHMM) for c in (clean, drifted, noise))
    assert np.array_equal(clean.start.transmat, clean.reference.a)
    assert not np.array_equal(drifted.start.transmat, drifted.reference.a)
    assert np.array_equal(
        drifted.start.transmat == 0, drifted.reference.a == 0
    )
    assert (noise.start.transmat > 0).all()


def test_run_sweep_kinds():
    cfg = small_cfg(30)
    fwd = run_sweep(cfg, "forward")
    assert len(fwd) == 6
    for row in fwd:
        assert row.kind == "forward"
        assert row.logp_per_seq < 0
        assert row.mean_sed is None
    vit = run_sweep(cfg, "viterbi")
    assert all(0 <= row.mean_sed for row in vit)
    bw = run_sweep(cfg, "bw")
    for row in bw:
        assert row.rms_error is not None and row.bw_iters >= 1
        assert row.final_logp == pytest.approx(row.logp_per_seq * row.n_seqs)
    with pytest.raises(ValueError, match="unknown sweep kind"):
        run_sweep(cfg, "backward")


def test_run_sweep_buckets_once_yet_matches_per_cell_calls():
    # run_sweep merges each ratio's dataset once for all its cells; every
    # row must equal what score_total and fit give on the raw sequences.
    cfg = SweepConfig(model=PICK_PLACE, ratios=(0.0, 0.25, 1.0),
                      perturbations=(0.0, 0.25, "random"), n_sequences=120, master_seed=5)
    fwd = run_sweep(cfg, "forward")
    bw = run_sweep(cfg, "bw")
    cells = list(sweep_cells(cfg))
    assert len(fwd) == len(bw) == len(cells) == 9
    for cell, f_row, b_row in zip(cells, fwd, bw):
        model = cell.start
        seqs = cell.dataset.observations()
        assert f_row.logp_per_seq == model.score_total(seqs) / len(seqs)
        fitted = model.copy()
        fitted.updates = cfg.bw_updates
        fitted.fit(seqs)
        assert b_row.final_logp == fitted.history_[-1]
        assert b_row.bw_iters == fitted.n_iter_
        assert b_row.rms_error == rms_nonzero(cell.reference.a, fitted.transmat)


def test_run_sweep_viterbi_matches_per_sequence_decode():
    # run_sweep packs each ratio's symbols and true paths once for all its
    # cells; every row must equal the mean SED of decode_all's paths.
    cfg = SweepConfig(model=PICK_PLACE, ratios=(0.0, 0.25, 1.0),
                      perturbations=(0.0, 0.25, "random"), n_sequences=120, master_seed=5)
    vit = run_sweep(cfg, "viterbi")
    cells = list(sweep_cells(cfg))
    assert len(vit) == len(cells) == 9
    for cell, row in zip(cells, vit):
        model = cell.start
        _, paths = model.decode_all(cell.dataset.observations())
        truths = cell.dataset.state_paths()
        assert row.mean_sed == np.mean([sed(p, t) for p, t in zip(paths, truths)])


def test_run_sweep_viterbi_is_unchanged_by_runs_of_rows(monkeypatch):
    # A small budget splits each ratio's decode and SED into many runs of
    # rows; the mean over input order must not move.
    cfg = SweepConfig(model=PICK_PLACE, ratios=(0.0, 1.0), perturbations=(0.1, "random"),
                      n_sequences=90, master_seed=8)
    whole = run_sweep(cfg, "viterbi")
    calls = []
    sed_batch = simulate._sed_batch
    monkeypatch.setattr(simulate, "_sed_batch", lambda a, b: calls.append(1) or sed_batch(a, b))
    monkeypatch.setattr(hmm_module, "_CHUNK_ELEMENTS", 300)
    assert run_sweep(cfg, "viterbi") == whole
    assert len(calls) > 2 * len(cfg.ratios)  # several runs of rows a ratio


def test_run_sweep_perfect_start_scores_best():
    cfg = small_cfg(60)
    rows = run_sweep(cfg, "forward")
    by_pert = {row.perturbation: row.logp_per_seq for row in rows if row.ratio == 1.0}
    assert by_pert[0.0] >= by_pert[0.25] >= by_pert["random"]


# ----------------------------------------------------------------------
# files


def test_metrics_round_trip(tmp_path):
    rows = [
        MetricRow("forward", 1.0, 0.25, 6, 100, 9, logp_per_seq=-12.5),
        MetricRow("viterbi", 0.0, "random", 6, 100, 10, mean_sed=0.375),
        MetricRow(
            "bw", 5.0, 0.5, 16, 200, 11,
            logp_per_seq=-30.25, rms_error=0.015, bw_iters=17, final_logp=-6050.0,
        ),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(rows, path)
    assert path.read_text().splitlines()[0] == ",".join(METRIC_COLUMNS)
    assert read_metrics(path) == rows


def test_read_metrics_rejects_foreign_headers(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("kind,ratio\nforward,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_metrics(path)


def test_dataset_round_trip(tmp_path, pick_place):
    data = rollout_dataset(pick_place, 25, seed=1)
    path = tmp_path / "runs.csv"
    write_dataset(data, path)
    assert path.read_text().splitlines()[0] == "run,states,obs,outcome"
    back = read_dataset(path)
    assert back.runs == data.runs


@pytest.mark.parametrize("row, message", [
    ("0,0 1,3 4", "a row has fewer than 4 columns"),
    (f"0,0 {2**64},3 4,S", "a state or symbol is outside the int64 range"),
    (f"0,0 {2**63},3 4,S", "a state or symbol is outside the int64 range"),
    ("0,0 1.5,3 4,S", "invalid literal for int() with base 10: '1.5'"),
    ("0,,,S", "a run has no visits"),
    ("0,0 1,3,S", "2 states but 1 symbols"),
    ("0,0 1,3 4,maybe", "outcome 'maybe' is neither 'S' nor 'F'"),
])
def test_read_dataset_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "runs.csv"
    path.write_text(f"run,states,obs,outcome\n0,0 1,3 4,F\n\n{row}\n1,0 1,3 4,S\n")
    with pytest.raises(ValueError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: line 4: {message}"
