import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abthmm import simulate
from abthmm.compiler import compile_abt
from abthmm.hmm import DiscreteHMM
from abthmm.simulate import (
    METRIC_COLUMNS,
    Dataset,
    MetricRow,
    PerturbationSpec,
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

from conftest import brute_rollout, brute_sample, brute_sed, uniform_row


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
    alien = Dataset([Run((0, 3, 4), (0, 0, 0), SUCCESS)])
    with pytest.raises(ValueError, match="matches neither outcome"):
        estimate_ps(alien, pick_place_model)


# ----------------------------------------------------------------------
# perturbations


def test_perturbation_spec_range():
    PerturbationSpec(0.0)
    PerturbationSpec(0.5)
    with pytest.raises(ValueError):
        PerturbationSpec(-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(0.6)


def test_perturb_zero_is_an_identity_copy(pick_place_model):
    out = perturb_hmm(pick_place_model, PerturbationSpec(0.0, seed=4))
    assert out is not pick_place_model
    assert out.hmm is not pick_place_model.hmm
    assert np.array_equal(out.a, pick_place_model.a)
    assert out.edges == pick_place_model.edges


def test_perturb_scales_the_first_transition(pick_place_model):
    up = seed_with_first_draw(1)
    down = seed_with_first_draw(0)
    # state 0 leads with the success edge at 0.82
    bumped = perturb_hmm(pick_place_model, PerturbationSpec(0.1, seed=up))
    assert bumped.a[0, 1] == pytest.approx(0.82 * 1.1)
    assert bumped.a[0, 5] == pytest.approx(1 - 0.82 * 1.1)
    shrunk = perturb_hmm(pick_place_model, PerturbationSpec(0.1, seed=down))
    assert shrunk.a[0, 1] == pytest.approx(0.82 * 0.9)
    for out in (bumped, shrunk):
        assert np.allclose(out.a.sum(axis=1), 1.0)
        assert np.array_equal(out.a == 0, pick_place_model.a == 0)


def test_perturb_clamps_into_the_probability_band(pick_place_model):
    up = seed_with_first_draw(1)
    out = perturb_hmm(pick_place_model, PerturbationSpec(0.5, seed=up))
    assert out.a[0, 1] == pytest.approx(0.95)  # 0.82 * 1.5 hits the lid
    assert out.a[0, 5] == pytest.approx(0.05)


def test_perturb_keeps_untouched_parts(pick_place_model):
    out = perturb_hmm(pick_place_model, PerturbationSpec(0.3, seed=8))
    assert np.array_equal(out.b, pick_place_model.b)
    assert np.array_equal(out.pi, pick_place_model.pi)
    assert out.a[4, 4] == 1.0 and out.a[5, 5] == 1.0


def test_perturb_signs_pair_across_levels(pick_place_model):
    small = perturb_hmm(pick_place_model, PerturbationSpec(0.1, seed=13))
    large = perturb_hmm(pick_place_model, PerturbationSpec(0.4, seed=13))
    for q in pick_place_model.leaf_states:
        c = np.nonzero(pick_place_model.a[q])[0][0]
        d1 = small.a[q, c] - pick_place_model.a[q, c]
        d2 = large.a[q, c] - pick_place_model.a[q, c]
        assert d1 != 0 and np.sign(d1) == np.sign(d2)
        assert abs(d2) > abs(d1)


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
    """Pairs sharing one length of a and one of b; a may be empty."""
    n = draw(st.integers(1, 7))
    m = draw(st.one_of(st.just(0), st.just(n), st.integers(0, 7)))
    k = draw(st.integers(1, 5))
    return [
        (draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
         draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        for _ in range(k)
    ]


@settings(max_examples=80, deadline=None)
@given(sed_batches())
def test_sed_batch_matches_textbook_loop(pairs):
    a = np.array([p for p, _ in pairs], dtype=np.int64).reshape(len(pairs), -1)
    b = np.array([q for _, q in pairs], dtype=np.int64)
    got = _sed_batch(a, b)
    assert got.tolist() == [brute_sed(p, q) for p, q in pairs]


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
])
def test_sweep_config_rejects_bad_files(tmp_path, body, fragment):
    path = tmp_path / "sweep.cfg"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        SweepConfig.from_file(path)


# ----------------------------------------------------------------------
# sweeps


def small_cfg(n=40):
    return SweepConfig(
        model="unused",
        ratios=(0.0, 1.0),
        perturbations=(0.0, 0.25, "random"),
        n_sequences=n,
        master_seed=5,
    )


def test_sweep_cells_grid(pick_place):
    cells = list(sweep_cells(small_cfg(), abt=pick_place))
    assert [(c.ratio, c.perturbation) for c in cells] == [
        (0.0, 0.0), (0.0, 0.25), (0.0, "random"),
        (1.0, 0.0), (1.0, 0.25), (1.0, "random"),
    ]
    # one dataset per ratio, shared across perturbation levels
    assert cells[0].dataset is cells[1].dataset is cells[2].dataset
    assert cells[3].dataset is not cells[0].dataset
    assert len({c.seed for c in cells}) == len(cells)


def test_sweep_cells_start_models(pick_place):
    cells = list(sweep_cells(small_cfg(), abt=pick_place))
    clean, drifted, noise = cells[3:]
    assert np.array_equal(clean.start.a, clean.reference.a)
    assert not np.array_equal(drifted.start.a, drifted.reference.a)
    assert np.array_equal(
        drifted.start.a == 0, drifted.reference.a == 0
    )
    assert isinstance(noise.start, DiscreteHMM)
    assert (noise.start.transmat > 0).all()


def test_run_sweep_kinds(pick_place):
    cfg = small_cfg(30)
    fwd = run_sweep(cfg, "forward", abt=pick_place)
    assert len(fwd) == 6
    for row in fwd:
        assert row.kind == "forward"
        assert row.logp_per_seq < 0
        assert row.mean_sed is None
    vit = run_sweep(cfg, "viterbi", abt=pick_place)
    assert all(0 <= row.mean_sed for row in vit)
    bw = run_sweep(cfg, "bw", abt=pick_place)
    for row in bw:
        assert row.rms_error is not None and row.bw_iters >= 1
        assert row.final_logp == pytest.approx(row.logp_per_seq * row.n_seqs)
    with pytest.raises(ValueError, match="unknown sweep kind"):
        run_sweep(cfg, "backward", abt=pick_place)


def test_run_sweep_perfect_start_scores_best(pick_place):
    cfg = small_cfg(60)
    rows = run_sweep(cfg, "forward", abt=pick_place)
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
