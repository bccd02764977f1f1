"""End-to-end checks of the package's headline numbers.

Each test here pins one behavior with its tolerance fixed up front, so a
verbose run prints exactly one pass/fail line per item. The tests print
the measured values as they go; run with -s to see them.
"""

import math
import time

import numpy as np
import pytest

from abthmm.compiler import (
    check_constraints,
    compile_abt,
    count_bts,
    decompile,
    enumerate_structures,
)
from abthmm.divergence import divergence_table
from abthmm.hmm import DiscreteHMM
from abthmm.simulate import (
    SweepConfig,
    estimate_ps,
    rms_nonzero,
    run_sweep,
    sed,
    sweep_cells,
)
from abthmm.tree import ABTDefinition, Leaf, LeafStats, Parallel, Retry, SUCCESS

from conftest import (
    MODELS,
    brute_forward,
    brute_rollout,
    brute_viterbi,
    random_canonical_tree,
    random_hmm_instance,
    uniform_row,
)

EXEMPLAR_RUNS = 15_000
EXEMPLAR_SEED = 7

RATIOS = (0.0, 0.25, 1.0, 2.5, 5.0)
PERTS = (0.0, 0.1, 0.25, 0.5)

_TREES = None
_DATASETS = {}


def thousand_trees():
    global _TREES
    if _TREES is None:
        rng = np.random.default_rng(2718)
        _TREES = [
            random_canonical_tree(rng, int(rng.integers(1, 13)))
            for _ in range(1000)
        ]
    return _TREES


def exemplar_dataset(name, abt, model):
    if name not in _DATASETS:
        _DATASETS[name] = brute_rollout(abt, EXEMPLAR_RUNS, EXEMPLAR_SEED, model=model)
    return _DATASETS[name]


def grid_cfg(n_sequences, tree):
    return SweepConfig(
        model=str(MODELS / f"{tree}.abt"),
        ratios=RATIOS,
        perturbations=PERTS,
        n_sequences=n_sequences,
    )


def test_criterion_01_structure_counting():
    t0 = time.perf_counter()
    assert count_bts(10) == 1_857_945_600
    small = [sum(1 for _ in enumerate_structures(l)) for l in (1, 2, 3, 4)]
    assert small == [1, 4, 24, 192]
    assert small == [count_bts(l) for l in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - t0
    print(f"counts {small}, l=10 count in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_02_compiled_matrices_keep_the_constraints():
    t0 = time.perf_counter()
    for abt in thousand_trees():
        report = check_constraints(compile_abt(abt))
        assert report.upper_diagonal
        assert report.two_nonzero_per_row
        assert report.superdiagonal_nonzero
        assert report.ok
    elapsed = time.perf_counter() - t0
    print(f"1000 trees pass all three constraints in {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_03_compile_decompile_round_trip():
    for abt in thousand_trees():
        model = compile_abt(abt)
        back = decompile(model)
        assert back.root == abt.root
        again = compile_abt(back)
        assert np.array_equal(again.a, model.a)
        assert again.edges == model.edges
    print("1000 trees survive both round-trip directions")


def test_criterion_04_rollout_frequencies_match_the_matrix(
    pick_place, pick_place_model, patrol, patrol_model
):
    t0 = time.perf_counter()
    worst = {}
    for name, abt, model in (
        ("pick_place", pick_place, pick_place_model),
        ("patrol", patrol, patrol_model),
    ):
        data = exemplar_dataset(name, abt, model)
        n = model.n_states
        counts = np.zeros((n, n))
        for run in data.runs:
            for q, nxt in zip(run.states, run.states[1:]):
                counts[q, nxt] += 1
        totals = counts.sum(axis=1)
        gap = 0.0
        for q in model.leaf_states:
            assert totals[q] > 0
            hat = counts[q] / totals[q]
            assert np.all(hat[model.a[q] == 0] == 0)
            gap = max(gap, float(np.abs(hat - model.a[q]).max()))
        worst[name] = gap
        assert gap < 0.02
    elapsed = time.perf_counter() - t0
    print(f"worst |freq - A| per exemplar: {worst} in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_05_divergence_grid_values():
    t0 = time.perf_counter()
    rows = {
        (ratio, n): (kld, jsd, jsd_all)
        for ratio, n, kld, jsd, jsd_all in divergence_table((6, 16), RATIOS)
    }
    for n in (6, 16):
        assert rows[(0.0, n)] == (0.0, 0.0, 0.0)
        klds = [rows[(r, n)][0] for r in RATIOS]
        assert all(x < y for x, y in zip(klds, klds[1:]))
    kld6, jsd6, all6 = rows[(5.0, 6)]
    assert jsd6 == pytest.approx(1.00, abs=0.02)
    assert all6 == pytest.approx(2.54, abs=0.10)
    assert all6 < math.log2(6) + 1e-12
    all16 = rows[(5.0, 16)][2]
    assert all16 == pytest.approx(3.95, abs=0.10)
    assert all16 < 4.0
    elapsed = time.perf_counter() - t0
    print(
        f"n=6 r=5: jsd {jsd6:.6f}, jsd_all {all6:.6f}; "
        f"n=16 r=5: jsd_all {all16:.6f} in {elapsed:.2f}s"
    )
    assert elapsed < 5.0


def test_criterion_06_forward_and_viterbi_against_exhaustive_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        pi, a, b, obs = random_hmm_instance(rng)
        model = DiscreteHMM(pi, a, b)
        want = brute_forward(pi, a, b, obs)
        got = model.score(obs)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            worst = max(worst, abs(got - want))
            assert got == pytest.approx(want, abs=1e-8)
        best_logp, best_path = brute_viterbi(pi, a, b, obs)
        if not math.isinf(best_logp):
            path = model.predict(obs)
            assert tuple(path) == best_path
    elapsed = time.perf_counter() - t0
    print(f"200 instances, worst forward gap {worst:.2e} in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_07_refitting_improves_and_respects_zeros():
    worst_drop = math.inf
    for cell in sweep_cells(grid_cfg(1000, "pick_place")):
        fitted = cell.start.copy()
        fitted.updates = "t"
        fitted.fit(cell.dataset.observations())
        steps = np.diff(fitted.history_)
        if steps.size:
            worst_drop = min(worst_drop, float(steps.min()))
        assert (steps >= -1e-9).all()
        assert np.all(fitted.transmat[cell.reference.a == 0] == 0)

    pin = SweepConfig(
        model=str(MODELS / "pick_place.abt"), ratios=(5.0,), perturbations=(0.0,),
        n_sequences=EXEMPLAR_RUNS,
    )
    cell = next(iter(sweep_cells(pin)))
    fitted = cell.start.copy()
    fitted.updates = "t"
    fitted.fit(cell.dataset.observations())
    rms = rms_nonzero(cell.reference.a, fitted.transmat)
    print(f"worst logp step {worst_drop:.2e}, clean-start rms {rms:.5f}")
    assert rms < 0.02


def test_criterion_08_decoding_error_trends():
    t0 = time.perf_counter()
    rows = run_sweep(grid_cfg(1000, "patrol"), "viterbi")
    by_cell = {(row.ratio, row.perturbation): row.mean_sed for row in rows}
    clean = by_cell[(5.0, 0.0)]
    assert clean < 0.01
    for p in PERTS:
        path = [by_cell[(r, p)] for r in RATIOS]
        assert all(x >= y - 1e-9 for x, y in zip(path, path[1:]))
    for r in (1.0, 2.5, 5.0):
        path = [by_cell[(r, p)] for p in PERTS]
        assert all(x <= y + 1e-9 for x, y in zip(path, path[1:]))
    elapsed = time.perf_counter() - t0
    print(f"well-separated clean-start sed {clean:.5f}, grid in {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_09_likelihood_drops_with_drift():
    for name in ("pick_place", "patrol"):
        rows = run_sweep(grid_cfg(1000, name), "forward")
        by_cell = {(row.ratio, row.perturbation): row.logp_per_seq for row in rows}
        for r in RATIOS:
            path = [by_cell[(r, p)] for p in PERTS]
            assert all(x >= y - 1e-9 for x, y in zip(path, path[1:])), (name, r, path)
        print(f"{name}: logp per sequence falls with drift at every spacing")


def test_criterion_10_success_rates_recovered_from_rollouts(
    pick_place, pick_place_model, patrol, patrol_model
):
    for name, abt, model in (
        ("pick_place", pick_place, pick_place_model),
        ("patrol", patrol, patrol_model),
    ):
        data = exemplar_dataset(name, abt, model)
        ps_hat, counts = estimate_ps(data, model)
        checked = 0
        gap = 0.0
        for leaf, hat, n in zip(abt.leaves, ps_hat, counts):
            if n < 500:
                continue
            checked += 1
            gap = max(gap, abs(hat - leaf.stats.ps))
            assert hat == pytest.approx(leaf.stats.ps, abs=0.02)
        assert checked == abt.n_leaves  # both exemplars visit every leaf often
        print(f"{name}: {checked} leaves, min visits {min(counts)}, worst gap {gap:.4f}")


def test_criterion_11_retry_and_parallel_semantics():
    j = 8
    retry = ABTDefinition(
        Retry(Leaf("flaky", LeafStats(0.35, uniform_row(j)))),
        j, uniform_row(j), uniform_row(j),
    )
    data = brute_rollout(retry, 10_000, seed=EXEMPLAR_SEED)
    visits = np.mean([len(run.states) - 1 for run in data.runs])
    assert visits == pytest.approx(1 / 0.35, rel=0.05)

    pair = ABTDefinition(
        Parallel(
            (
                Leaf("left", LeafStats(0.5, uniform_row(j))),
                Leaf("right", LeafStats(0.5, uniform_row(j))),
            ),
            0.5,
        ),
        j, uniform_row(j), uniform_row(j),
    )
    data = brute_rollout(pair, 10_000, seed=EXEMPLAR_SEED)
    rate = np.mean([run.outcome == SUCCESS for run in data.runs])
    assert rate == pytest.approx(0.75, abs=0.01)
    print(f"mean retry visits {visits:.4f} (want {1 / 0.35:.4f}), or-rate {rate:.4f}")


def test_criterion_12_twin_emissions_stay_distinguishable():
    model = DiscreteHMM(
        np.array([0.0, 1.0, 0.0]),
        np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.0, 0.5],
        ]),
        np.array([
            [0.02, 0.02, 0.96],
            [0.49, 0.49, 0.02],
            [0.49, 0.49, 0.02],
        ]),
    )
    rng = np.random.default_rng(EXEMPLAR_SEED)
    dists = []
    for _ in range(1000):
        states, obs = model.sample(rng, absorbing=(0,))
        dists.append(sed(model.predict(obs), states))
    mean_sed = float(np.mean(dists))
    print(f"twin-emission mean sed {mean_sed:.4f} over 1000 sequences")
    assert mean_sed < 0.05
