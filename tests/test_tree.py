import itertools
import re

import numpy as np
import pytest

from abthmm.compiler import compile_abt
from abthmm.tree import (
    ABTDefinition,
    FAILURE,
    Leaf,
    LeafStats,
    Parallel,
    Retry,
    SUCCESS,
    Selector,
    Sequence,
    TickLimitError,
    UnsupportedStructureError,
    leaves_of,
    successor_map,
    validate_abt,
)

from conftest import execute, make_leaf, random_canonical_tree, uniform_row, walk_fixed


def abt_of(root, j=8):
    return ABTDefinition(root, j, uniform_row(j), uniform_row(j))


def follow_map(smap, total, outcomes):
    """Drive the successor map with fixed outcomes: (visited, result)."""
    visited = []
    g = 0
    while g < total:
        o = outcomes[g]
        visited.append((g, o))
        g = smap[g][0] if o == SUCCESS else smap[g][1]
    return tuple(visited), SUCCESS if g == total else FAILURE


def test_successor_map_hand_checked(pick_place):
    smap = successor_map(pick_place.root)
    assert smap == {0: (1, 5), 1: (2, 5), 2: (4, 3), 3: (4, 5)}


def test_successor_map_refuses_a_definition(pick_place):
    with pytest.raises(TypeError, match="not a tree node: ABTDefinition"):
        successor_map(pick_place)


def test_successor_map_matches_tick_exhaustively():
    rng = np.random.default_rng(11)
    for _ in range(25):
        l = int(rng.integers(1, 7))
        abt = random_canonical_tree(rng, l)
        smap = successor_map(abt.root)
        for combo in itertools.product((SUCCESS, FAILURE), repeat=l):
            outcomes = dict(enumerate(combo))
            assert walk_fixed(abt, outcomes) == follow_map(smap, l, outcomes)


def test_successor_targets_strictly_increase():
    rng = np.random.default_rng(5)
    for _ in range(50):
        l = int(rng.integers(1, 13))
        smap = successor_map(random_canonical_tree(rng, l).root)
        for g, (s, f) in smap.items():
            assert s > g and f > g
            assert s != f


def test_sequential_pathway_exists():
    # some outcome continues every leaf at the next leaf, so the all-leaves
    # left-to-right visit order is always reachable
    rng = np.random.default_rng(17)
    for _ in range(50):
        l = int(rng.integers(2, 13))
        abt = random_canonical_tree(rng, l)
        smap = successor_map(abt.root)
        outcomes = {}
        for g in range(l):
            s, f = smap[g]
            assert g + 1 in (s, f)
            outcomes[g] = SUCCESS if s == g + 1 else FAILURE
        visited, _ = walk_fixed(abt, outcomes)
        assert [v[0] for v in visited] == list(range(l))


def test_successor_map_rejects_decorators():
    with pytest.raises(UnsupportedStructureError):
        successor_map(Retry(make_leaf(0)))
    with pytest.raises(UnsupportedStructureError):
        successor_map(Parallel((make_leaf(0), make_leaf(1)), 0.5))


def test_leaves_in_depth_first_order(patrol):
    names = [leaf.name for leaf in leaves_of(patrol.root)]
    assert names[:4] == ["goto_a", "reroute_a", "scan_a", "rescan_a"]
    assert names[-1] == "report"
    assert len(names) == 14


def refused(abt, text):
    """Assert that validate_abt raises ValueError with exactly text."""
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        validate_abt(abt)


def test_validate_abt_flags_bad_numbers():
    good = abt_of(Sequence((make_leaf(0), make_leaf(1))))
    assert validate_abt(good) is None

    bad_ps = abt_of(Sequence((Leaf("x", LeafStats(1.5, uniform_row(8))), make_leaf(1))))
    refused(bad_ps, "root/sequence[0]: ps=1.5 outside [0, 1]")

    row = (0.5,) * 8  # sums to 4
    bad_row = abt_of(Sequence((Leaf("x", LeafStats(0.5, row)), make_leaf(1))))
    refused(bad_row, "root/sequence[0]:x: emission row sums to 4.0, expected 1")

    short = ABTDefinition(make_leaf(0), 8, uniform_row(4), uniform_row(8))
    refused(short, "out_success: emission row has 4 entries, alphabet is 8")

    nan_row = (float("nan"),) + uniform_row(8)[1:]
    nan_abt = abt_of(Sequence((make_leaf(0), Leaf("x", LeafStats(0.5, nan_row)))))
    refused(nan_abt, "root/sequence[1]:x: emission row has negative or NaN entries")


def test_validate_abt_checks_nodes_before_rows():
    # Leaf 0 has a short row and leaf 1 a bad ps; the node rules come first.
    short_leaf = Leaf("s", LeafStats(0.5, uniform_row(4)))
    abt = abt_of(Sequence((short_leaf, Leaf("p", LeafStats(1.5, uniform_row(8))))))
    refused(abt, "root/sequence[1]: ps=1.5 outside [0, 1]")
    abt = abt_of(Sequence((short_leaf, make_leaf(1))))
    refused(abt, "root/sequence[0]:s: emission row has 4 entries, alphabet is 8")


@pytest.mark.parametrize("name", ["a b", ":x", "", 3])
def test_validate_abt_refuses_leaf_names_no_tree_file_holds(name):
    abt = abt_of(Sequence((make_leaf(0), Leaf(name, LeafStats(0.5, uniform_row(8))))))
    text = f"root/sequence[1]: leaf name {name!r} is not a name a tree file can hold"
    refused(abt, text)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        compile_abt(abt)


def test_tick_retry_repeats_until_success():
    abt = abt_of(Retry(Selector((make_leaf(0), make_leaf(1)))))
    visited, result = walk_fixed(abt, {0: FAILURE, 1: SUCCESS})
    assert visited == ((0, FAILURE), (1, SUCCESS))
    assert result == SUCCESS


def test_tick_retry_loop_hits_visit_cap():
    abt = abt_of(Retry(make_leaf(0)))
    with pytest.raises(TickLimitError):
        walk_fixed(abt, {0: FAILURE})


def test_execute_parallel_status_protocol():
    node = Parallel((make_leaf(0), Sequence((make_leaf(1), make_leaf(2)))), 1.0)
    gen = execute(node)
    event = gen.send(None)
    assert event[0] == "parallel"
    assert event[2] == (("run", 0), ("run", 1))
    event = gen.send([SUCCESS, SUCCESS])
    assert event[2] == (("done", SUCCESS), ("run", 2))
    with pytest.raises(StopIteration) as stop:
        gen.send([SUCCESS])
    assert stop.value.value == SUCCESS


def test_execute_parallel_threshold_counts_failures():
    node = Parallel((make_leaf(0), make_leaf(1)), 0.5)
    gen = execute(node)
    gen.send(None)
    with pytest.raises(StopIteration) as stop:
        gen.send([FAILURE, SUCCESS])
    assert stop.value.value == SUCCESS

    gen = execute(node)
    gen.send(None)
    with pytest.raises(StopIteration) as stop:
        gen.send([FAILURE, FAILURE])
    assert stop.value.value == FAILURE
