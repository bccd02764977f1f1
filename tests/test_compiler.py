import hashlib
import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from abthmm import compiler
from abthmm.compiler import (
    EdgeLabel,
    InconsistentLabelsError,
    LabeledHMM,
    StateCapError,
    StructureShape,
    check_constraints,
    compile_abt,
    count_bts,
    decompile,
    enumerate_structures,
    load_model,
    save_model,
)
from abthmm.dsl import parse, serialize
from abthmm.hmm import DiscreteHMM
from abthmm.simulate import rollout_dataset
from abthmm.tree import (
    ABTDefinition,
    FAILURE,
    SUCCESS,
    Leaf,
    LeafStats,
    Parallel,
    Retry,
    Selector,
    Sequence,
    UnsupportedStructureError,
    successor_map,
    validate_abt,
)
from abthmm.validation import SYMBOL_CAP, SymbolCapError

from conftest import (
    OVERSIZED_TREES,
    REPO,
    all_canonical_trees,
    brute_transitions,
    is_canonical,
    make_leaf,
    random_canonical_tree,
    random_control_tree,
    schroder,
    uniform_row,
)


def abt_of(root, j=8):
    return ABTDefinition(root, j, uniform_row(j), uniform_row(j))


def plain_leaf(name, ps, j=8):
    return Leaf(name, LeafStats(ps, uniform_row(j)))


# ----------------------------------------------------------------------
# compiling plain trees


def test_compile_small_exemplar_matrix(tmp_path, pick_place_model):
    m = pick_place_model
    assert m.n_states == 6
    assert (m.o_s, m.o_f) == (4, 5)
    want = np.zeros((6, 6))
    want[0, 1], want[0, 5] = 0.82, 1 - 0.82
    want[1, 2], want[1, 5] = 0.59, 1 - 0.59
    want[2, 4], want[2, 3] = 0.9, 1 - 0.9
    want[3, 4], want[3, 5] = 0.64, 1 - 0.64
    want[4, 4] = want[5, 5] = 1.0
    assert np.array_equal(m.a, want)
    assert m.labels == ("approach", "grasp", "place", "regrasp", "success", "failure")
    assert m.leaf_states == (0, 1, 2, 3)
    assert m.edges[2] == EdgeLabel(4, 3)
    assert m.edges[4] is None and m.edges[5] is None
    path = tmp_path / "pick_place.json"
    save_model(m, path)
    edge_labels = json.loads(path.read_text())["edge_labels"]
    assert edge_labels == ["S:1 F:5", "S:2 F:5", "S:4 F:3", "S:4 F:5", None, None]


def test_compile_starts_at_first_leaf_and_absorbs(patrol_model):
    m = patrol_model
    assert m.n_states == 16
    assert m.pi[0] == 1.0 and m.pi[1:].sum() == 0.0
    assert m.a[m.o_s, m.o_s] == 1.0
    assert m.a[m.o_f, m.o_f] == 1.0
    assert check_constraints(m).ok


def test_compile_treats_nesting_as_its_flattening():
    a, b, c = (plain_leaf(n, 0.5) for n in "abc")
    flat = compile_abt(abt_of(Sequence((a, b, c))))
    for nested in (Sequence((Sequence((a, b)), c)), Sequence((Sequence((a, b)), Selector((c,))))):
        m = compile_abt(abt_of(nested))
        assert np.array_equal(m.a, flat.a)
        assert m.edges == flat.edges


def test_compile_rejects_invalid_definitions():
    bad_ps = abt_of(Sequence((Leaf("x", LeafStats(1.5, uniform_row(8))), make_leaf(1))))
    with pytest.raises(ValueError, match=f"^{re.escape('root/sequence[0]: ps=1.5 outside [0, 1]')}$"):
        compile_abt(bad_ps)


@pytest.mark.parametrize("root, text", [
    (Sequence((Sequence(()), make_leaf(0))), "root/sequence[0]: empty sequence"),
    (Selector((make_leaf(0), Selector(()))), "root/selector[1]: empty selector"),
    (Sequence((make_leaf(0), "junk")), "root/sequence[1]: unknown node type str"),
])
def test_compile_refuses_what_validate_refuses(root, text):
    # The tree is checked as given: an empty composite is not flattened
    # away first, and a non-node child is named, not tripped over.
    for check in (validate_abt, compile_abt):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            check(abt_of(root))


def test_compiled_emissions_stack_leaves_then_outputs(pick_place, pick_place_model):
    b = pick_place_model.b
    for g, leaf in enumerate(pick_place.leaves):
        assert tuple(b[g]) == leaf.stats.emission
    assert tuple(b[4]) == pick_place.out_success
    assert tuple(b[5]) == pick_place.out_failure


# ----------------------------------------------------------------------
# constraint checking


def labeled_chain(a, edges):
    """A LabeledHMM over the transition matrix a whose rows before the two
    outputs carry edges: an EdgeLabel, or None for an unlabeled row."""
    n = len(a)
    return LabeledHMM(
        DiscreteHMM(np.eye(n)[0], a, np.ones((n, 1))),
        edges=tuple(edges) + (None, None),
        labels=tuple(f"l{i}" for i in range(n - 2)) + ("success", "failure"),
    )


def test_check_constraints_flags_each_violation():
    ok = labeled_chain([
        [0.0, 0.7, 0.3],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
    ], [EdgeLabel(1, 2)])
    assert check_constraints(ok).ok

    below = labeled_chain([
        [0.3, 0.7, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
    ], [EdgeLabel(1, 0)])
    rep = check_constraints(below)
    assert not rep.upper_diagonal

    three = labeled_chain([
        [0.0, 0.5, 0.25, 0.25],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ], [None, EdgeLabel(2, 3)])
    rep = check_constraints(three)
    assert not rep.two_nonzero_per_row
    assert rep.violations and rep.violations[0][0] == 0

    skip = labeled_chain([
        [0.0, 0.0, 0.6, 0.4],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ], [EdgeLabel(2, 3), EdgeLabel(2, 3)])
    rep = check_constraints(skip)
    assert not rep.superdiagonal_nonzero


def test_check_constraints_uses_edges_for_labeled_models():
    # an edge with probability zero still counts as present
    shape = StructureShape(((("S"), 3), (("S"), 3)))
    model = shape.to_labeled(ps=1.0)
    assert model.a[0, 3] == 0.0
    assert check_constraints(model).ok


# ----------------------------------------------------------------------
# decompiling


def test_decompile_round_trips_random_trees():
    rng = np.random.default_rng(77)
    sizes = [int(rng.integers(1, 13)) for _ in range(200)] + [100, 200, 300]
    for l in sizes:
        abt = random_canonical_tree(rng, l)
        model = compile_abt(abt)
        back = decompile(model)
        assert back.root == abt.root
        again = compile_abt(back)
        assert np.array_equal(again.a, model.a)
        assert np.array_equal(again.b, model.b)
        assert again.edges == model.edges


def test_a_900_level_chain_compiles_and_decompiles():
    # Alternating kinds, so the tree is canonical and decompile keeps every
    # level. Only the labels are compared: dataclass == on the trees
    # recurses two frames a level.
    root = make_leaf(0)
    for k in range(1, 901):
        root = (Sequence if k % 2 else Selector)((make_leaf(k), root))
    model = compile_abt(abt_of(root))
    again = compile_abt(decompile(model))
    assert model.n_states == 903
    assert again.edges == model.edges
    assert again.labels == model.labels


def test_decompile_round_trips_every_four_leaf_shape():
    seen = set()
    for abt in all_canonical_trees(4):
        model = compile_abt(abt)
        seen.add(StructureShape.of_model(model).rows)
        assert decompile(model).root == abt.root
    assert len(seen) == schroder(4) == 22


def test_decompile_rejects_label_flips():
    # two leaves allow four structures; only sequence and selector are trees
    realizable = {(("S", 3), ("S", 3)), (("F", 2), ("S", 3))}
    for shape in enumerate_structures(2):
        model = shape.to_labeled()
        if shape.rows in realizable:
            tree = decompile(model).root
            kind = Sequence if shape.rows[0][0] == "S" else Selector
            assert isinstance(tree, kind)
        else:
            with pytest.raises(InconsistentLabelsError):
                decompile(model)


def test_realizable_structure_counts_match_tree_counts():
    for l in (1, 2, 3, 4, 5):
        good = 0
        for shape in enumerate_structures(l):
            try:
                decompile(shape.to_labeled())
                good += 1
            except InconsistentLabelsError:
                pass
        assert good == schroder(l)


def test_decompile_random_labelings_give_their_tree_or_refuse():
    # Any targets at all: decompile either rebuilds a canonical tree whose
    # successor map is exactly the labels, or refuses the labels and names
    # a state.
    rng = np.random.default_rng(2024)
    accepted = refused = 0
    for _ in range(3000):
        l = int(rng.integers(1, 8))
        targets = [tuple(int(t) for t in rng.integers(0, l + 2, size=2)) for _ in range(l)]
        a = np.zeros((l + 2, l + 2))
        for i, (st, ft) in enumerate(targets):
            a[i, st] += 0.5
            a[i, ft] += 0.5
        a[l, l] = a[l + 1, l + 1] = 1.0
        pi = np.eye(l + 2)[0]
        model = LabeledHMM(
            hmm=DiscreteHMM(pi, a, np.full((l + 2, 2), 0.5)),
            edges=tuple(EdgeLabel(st, ft) for st, ft in targets) + (None, None),
            labels=tuple(f"l{i}" for i in range(l)) + ("success", "failure"),
        )
        try:
            root = decompile(model).root
        except InconsistentLabelsError as err:
            assert str(err).startswith("state ")
            refused += 1
            continue
        accepted += 1
        assert is_canonical(root)
        assert successor_map(root) == dict(enumerate(targets))
    assert accepted > 0 and refused > 0


def test_decompile_needs_a_start_on_the_first_leaf(pick_place_model):
    # A fit that updates the start vector may move it; such a model still
    # scores and decodes, but no tree starts anywhere but its first leaf.
    for pi in ([0, 1, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0, 0]):
        moved = replace(pick_place_model, hmm=pick_place_model.hmm.copy())
        moved.hmm.startprob = np.asarray(pi, dtype=float)
        with pytest.raises(InconsistentLabelsError, match="pi"):
            decompile(moved)


def test_decompile_needs_labels(pick_place_model):
    bare = pick_place_model
    stripped = type(bare)(
        hmm=bare.hmm,
        edges=(None,) * bare.n_states,
        labels=bare.labels,
    )
    with pytest.raises(InconsistentLabelsError):
        decompile(stripped)


# ----------------------------------------------------------------------
# counting and enumeration


def test_count_bts_values():
    assert [count_bts(l) for l in (1, 2, 3, 4)] == [1, 4, 24, 192]
    assert count_bts(10) == 1_857_945_600
    with pytest.raises(ValueError):
        count_bts(0)


def test_enumerate_structures_is_exhaustive_and_distinct():
    for l in (1, 2, 3, 4):
        shapes = list(enumerate_structures(l))
        assert len(shapes) == count_bts(l)
        assert len({s.rows for s in shapes}) == len(shapes)
        for s in shapes:
            assert s.rows[-1] == ("S", l + 1)
            assert check_constraints(s.to_labeled()).ok


def test_enumerate_structures_cap():
    with pytest.raises(ValueError):
        next(enumerate_structures(9))


def test_structure_shape_of_model_round_trip(pick_place_model):
    shape = StructureShape.of_model(pick_place_model)
    assert shape.rows == (("S", 5), ("S", 5), ("F", 4), ("S", 5))
    assert StructureShape.of_model(shape.to_labeled()) == shape


# ----------------------------------------------------------------------
# retry


def test_compile_retry_redirects_failure_exits():
    abt = abt_of(Sequence((
        plain_leaf("a", 0.8),
        Retry(Selector((plain_leaf("b", 0.6), plain_leaf("c", 0.7)))),
        plain_leaf("d", 0.9),
    )))
    m = compile_abt(abt)
    assert m.retry_ranges == ((1, 3),)
    # c failing restarts the selector instead of failing the tree
    assert m.a[2, 1] == pytest.approx(0.3)
    assert m.a[2, 5] == 0.0
    assert m.edges[2].fail_target == 1
    # b failing stays inside the range, untouched
    assert m.a[1, 2] == pytest.approx(0.4)
    rep = check_constraints(m)
    assert not rep.ok  # back-edges violate the plain-tree shape on purpose
    assert not rep.upper_diagonal


def test_retry_whole_tree_restarts_the_tree():
    abt = abt_of(Retry(Selector((plain_leaf("a", 0.3), plain_leaf("b", 0.4)))))
    m = compile_abt(abt)
    assert m.retry_ranges == ((0, 2),)
    assert m.a[1, 0] == pytest.approx(0.6)  # b failure restarts the tree
    assert m.a[1, m.o_f] == 0.0


def test_compile_rejects_nested_retry():
    abt = abt_of(Retry(Sequence((
        Retry(plain_leaf("a", 0.5)),
        plain_leaf("b", 0.5),
    ))))
    with pytest.raises(UnsupportedStructureError):
        compile_abt(abt)


def test_decompile_rejects_retry_models():
    abt = abt_of(Retry(plain_leaf("a", 0.5)))
    with pytest.raises(UnsupportedStructureError):
        decompile(compile_abt(abt))


# ----------------------------------------------------------------------
# parallel


def test_compile_parallel_two_leaves_exact():
    abt = abt_of(Parallel((plain_leaf("p", 0.9), plain_leaf("q", 0.8)), 1.0))
    m = compile_abt(abt)
    # one product state (both running) plus the two outputs
    assert m.n_states == 3
    blk = m.blocks[0]
    assert blk.statuses == ((("run", 0), ("run", 1)),)
    assert m.a[0, m.o_s] == pytest.approx(0.9 * 0.8)
    assert m.a[0, m.o_f] == pytest.approx(1 - 0.9 * 0.8)
    assert m.n_symbols == 8 * 8
    # joint emissions multiply the child rows
    assert np.allclose(m.b[0], np.kron(uniform_row(8), uniform_row(8)))


def test_block_emission_rows_are_outer_products():
    # Each block state emits the flattened outer product of its children's
    # rows: the running leaf's row, or the output row its child finished
    # on. Products are taken left to right, first child most significant,
    # so they match the compiled rows bit for bit; wider blocks elsewhere
    # leave the columns past J^k at 0.
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 200:
        abt = random_control_tree(rng, int(rng.integers(2, 8)), j=3)
        m = compile_abt(abt)
        if not m.blocks:
            continue
        checked += 1
        leaves = abt.leaves
        done = {SUCCESS: abt.out_success, FAILURE: abt.out_failure}
        for blk in m.blocks:
            for r, status in enumerate(blk.statuses):
                rows = [leaves[x].stats.emission if kind == "run" else done[x]
                        for kind, x in status]
                want = [math.prod(picks) for picks in itertools.product(*rows)]
                got = m.b[blk.first + r]
                assert len(want) == 3 ** len(status)
                assert got[: len(want)].tolist() == want
                assert not got[len(want):].any()


def test_parallel_threshold_half_is_an_or():
    abt = abt_of(Parallel((plain_leaf("p", 0.5), plain_leaf("q", 0.5)), 0.5))
    m = compile_abt(abt)
    assert m.a[0, m.o_s] == pytest.approx(0.75)


def test_parallel_inside_a_sequence_keeps_context():
    abt = abt_of(Sequence((
        plain_leaf("first", 0.7),
        Parallel((plain_leaf("p", 0.5), plain_leaf("q", 0.5)), 0.5),
        plain_leaf("last", 0.6),
    )))
    m = compile_abt(abt)
    blk = m.blocks[0]
    assert blk.first == 1
    assert m.a[0, 1] == pytest.approx(0.7)
    last_state = m.leaf_states[-1]
    assert m.a[blk.first, last_state] == pytest.approx(0.75)
    assert m.a[blk.first, m.o_f] == pytest.approx(0.25)


def test_parallel_multi_leaf_children_product():
    left = Sequence((plain_leaf("a", 0.9), plain_leaf("b", 0.8)))
    right = Selector((plain_leaf("c", 0.3), plain_leaf("d", 0.4)))
    abt = abt_of(Parallel((left, right), 1.0))
    m = compile_abt(abt)
    blk = m.blocks[0]
    assert blk.statuses[0] == (("run", 0), ("run", 2))
    # reachable product states never exceed the nominal core size (2 x 2
    # child leaves) plus the finished combinations
    assert blk.n_states <= 4 + 8
    rollout_mass = m.a[blk.first].sum()
    assert rollout_mass == pytest.approx(1.0)
    report = check_constraints(m)  # block-shaped: upper triangular, not a chain
    assert report.ok is False
    assert report.upper_diagonal is True
    assert report.two_nonzero_per_row is False
    assert report.superdiagonal_nonzero is False


def test_parallel_children_must_be_plain():
    with pytest.raises(UnsupportedStructureError):
        compile_abt(abt_of(Parallel((Retry(plain_leaf("a", 0.5)), plain_leaf("b", 0.5)), 1.0)))
    inner = Parallel((plain_leaf("a", 0.5), plain_leaf("b", 0.5)), 1.0)
    with pytest.raises(UnsupportedStructureError):
        compile_abt(abt_of(Parallel((inner, plain_leaf("c", 0.5)), 1.0)))


def test_retry_over_parallel_block():
    abt = abt_of(Retry(Parallel((plain_leaf("p", 0.5), plain_leaf("q", 0.5)), 1.0)))
    m = compile_abt(abt)
    blk = m.blocks[0]
    assert m.retry_ranges == ((blk.first, blk.first + blk.n_states),)
    assert m.a[blk.first, m.o_f] == 0.0
    assert m.a[blk.first, blk.first] == pytest.approx(0.75)


def test_state_cap_respected(monkeypatch):
    kids = tuple(
        Sequence((plain_leaf(f"a{i}", 0.5, j=3), plain_leaf(f"b{i}", 0.5, j=3)))
        for i in range(5)
    )
    abt = ABTDefinition(Parallel(kids, 1.0), 3, uniform_row(3), uniform_row(3))
    monkeypatch.setattr(compiler, "STATE_CAP", 16)
    with pytest.raises(StateCapError, match="^product blow-up: more than 16 parallel product states$"):
        compile_abt(abt)

    # Two blocks, each within the cap, that together exceed it.
    def block(tag):
        return Parallel((plain_leaf(f"{tag}0", 0.5, j=3), plain_leaf(f"{tag}1", 0.5, j=3)), 1.0)

    two = ABTDefinition(Sequence((block("p"), block("q"))), 3, uniform_row(3), uniform_row(3))
    monkeypatch.setattr(compiler, "STATE_CAP", 4096)
    sizes = [blk.n_states for blk in compile_abt(two).blocks]
    total = sum(sizes) + 2
    monkeypatch.setattr(compiler, "STATE_CAP", max(sizes))
    with pytest.raises(StateCapError, match=f"^product blow-up: {total} states exceed the cap of {max(sizes)}$"):
        compile_abt(two)


@pytest.mark.parametrize("text", OVERSIZED_TREES)
def test_symbol_cap_refuses_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(SymbolCapError, match=f"more than the cap of {SYMBOL_CAP}"):
            compile_abt(parse(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

def test_compiled_retry_and_parallel_trees_match_the_tree_walker():
    rng = np.random.default_rng(12)
    with_retry = with_blocks = 0
    for _ in range(200):
        abt = random_control_tree(rng, int(rng.integers(1, 8)))
        m = compile_abt(abt)
        law = brute_transitions(abt, m)
        reached, frontier = {0}, [0]
        while frontier:
            for r in np.flatnonzero(m.a[frontier.pop()]):
                if int(r) not in reached:
                    reached.add(int(r))
                    frontier.append(int(r))
        assert set(law) == reached
        for q, row in law.items():
            want = np.zeros(m.n_states)
            for r, p in row.items():
                want[r] += p
            np.testing.assert_allclose(m.a[q], want, rtol=0, atol=1e-12)
        with_retry += bool(m.retry_ranges)
        with_blocks += bool(m.blocks)
    assert with_retry >= 50 and with_blocks >= 50


# Digests of the compiled shipped trees; a change to the compiler that moves
# any of these must say why.
PINNED_DIGESTS = {
    "models/patrol.abt": "ffa2366b89a9275906acb5079adaede93fcddbc53e7b273f9d67b801a13bd6fc",
    "models/pick_place.abt": "ecff4f957d1f7fbebbce4bb002ac7ddc28926342f142497150e3e6309b7459c4",
    "perfbench/trees/parallel_retry.abt":
        "0dea085c5ca4d86b096910346823c0df20b0eed223ce32bd21bfd69bd5bb8120",
}


def test_compiled_shipped_trees_are_pinned():
    for name, want in PINNED_DIGESTS.items():
        m = compile_abt(parse((REPO / name).read_text()))
        h = hashlib.sha256()
        h.update(m.a.tobytes())
        h.update(m.b.tobytes())
        meta = [
            m.a.shape,
            m.b.shape,
            [None if e is None else (e.succ_target, e.fail_target) for e in m.edges],
            m.labels,
            m.retry_ranges,
            [(blk.first, blk.statuses) for blk in m.blocks],
        ]
        h.update(json.dumps(meta, default=int).encode())
        assert h.hexdigest() == want, name


# ----------------------------------------------------------------------
# model files


def _round_trip(model, path):
    """Save, load and save again; both files must hold the same bytes."""
    save_model(model, path)
    first = path.read_bytes()
    loaded = load_model(path)
    save_model(loaded, path)
    assert path.read_bytes() == first
    return loaded


def _assert_same_model(loaded, m):
    assert np.array_equal(loaded.pi, m.pi)
    assert np.array_equal(loaded.a, m.a)
    assert np.array_equal(loaded.b, m.b)
    assert loaded.edges == m.edges
    assert loaded.labels == m.labels
    assert loaded.leaf_states == m.leaf_states
    assert loaded.retry_ranges == m.retry_ranges


def test_save_load_model_round_trip(tmp_path, pick_place_model):
    _assert_same_model(_round_trip(pick_place_model, tmp_path / "m.json"), pick_place_model)


def test_save_load_model_keeps_retry_ranges(tmp_path):
    # Adjacent retries touch at a state; the loaded ranges must not merge.
    cases = {
        "retry_inside": (Sequence((
            plain_leaf("a", 0.8),
            Retry(Selector((plain_leaf("b", 0.6), plain_leaf("c", 0.7)))),
        )), ((1, 3),)),
        "adjacent": (Sequence((
            Retry(plain_leaf("a", 0.8)),
            Retry(plain_leaf("b", 0.6)),
        )), ((0, 1), (1, 2))),
    }
    for name, (root, ranges) in cases.items():
        m = compile_abt(abt_of(root))
        assert m.retry_ranges == ranges, name
        _assert_same_model(_round_trip(m, tmp_path / f"{name}.json"), m)


def test_save_load_model_round_trips_random_trees(tmp_path):
    rng = np.random.default_rng(2013)
    plain = with_retry = 0
    while plain < 300:
        abt = random_control_tree(rng, int(rng.integers(1, 9)))
        m = compile_abt(abt)
        path = tmp_path / f"tree{plain}.json"
        if m.blocks:
            with pytest.raises(UnsupportedStructureError, match="parallel blocks"):
                save_model(m, path)
            continue
        _assert_same_model(_round_trip(m, path), m)
        plain += 1
        with_retry += bool(m.retry_ranges)
    assert with_retry >= 50


def test_save_model_refuses_parallel_blocks(tmp_path):
    m = compile_abt(abt_of(Parallel((plain_leaf("p", 0.9), plain_leaf("q", 0.8)), 1.0)))
    path = tmp_path / "par.json"
    with pytest.raises(UnsupportedStructureError, match="parallel blocks"):
        save_model(m, path)
    assert not path.exists()


def test_fitted_model_decompiles_to_its_fitted_probabilities(tmp_path, pick_place):
    m = compile_abt(pick_place)
    m.hmm.updates = "t"
    m.hmm.fit(rollout_dataset(pick_place, 2000, seed=1).observations())
    back = decompile(m)
    for q, leaf in zip(m.leaf_states, back.leaves):
        assert leaf.stats.ps == m.a[q, m.edges[q].succ_target]
    path = tmp_path / "fitted.json"
    save_model(m, path)
    assert serialize(back) == serialize(decompile(load_model(path)))


def test_load_model_rejects_corrupt_files(tmp_path):
    path = tmp_path / "x.json"
    non_square = (
        '{"n_states": 2, "n_symbols": 2, "pi": [1, 0], "a": [[1, 0]], '
        '"b": [[1, 0], [0, 1]], "labels": null, "edge_labels": null}'
    )
    for text in ("not json", "{}", non_square):
        path.write_text(text)
        with pytest.raises(ValueError):
            load_model(path)
