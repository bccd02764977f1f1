import numpy as np
import pytest

from abthmm.divergence import synth_emissions
from abthmm.dsl import ParseError, parse, serialize
from abthmm.tree import FAILURE, Leaf, Retry, SUCCESS, Selector, Sequence

from conftest import MALFORMED_TREES, random_canonical_tree


def test_parse_minimal_tree():
    abt = parse("""
        (alphabet 4)
        (outputs (table 0.7 0.1 0.1 0.1) (table 0.1 0.1 0.1 0.7))
        (sequence
          (leaf go :ps 0.7 :emit (table 0.1 0.2 0.3 0.4))
          (leaf stop :ps 0.4 :emit (table 0.25 0.25 0.25 0.25)))
    """)
    assert abt.n_symbols == 4
    assert abt.n_leaves == 2
    go, stop = abt.leaves
    assert go.name == "go" and go.stats.ps == 0.7
    assert stop.stats.emission == (0.25, 0.25, 0.25, 0.25)
    assert abt.out_success == (0.7, 0.1, 0.1, 0.1)


def test_parse_explicit_outputs():
    abt = parse("""
        (alphabet 3)
        (outputs (table 0.9 0.05 0.05) (table 0.05 0.05 0.9))
        (leaf only :ps 0.5 :emit (table 0.2 0.3 0.5))
    """)
    assert abt.out_success == (0.9, 0.05, 0.05)
    assert abt.out_failure == (0.05, 0.05, 0.9)


def test_parse_gauss_emissions_use_ratio():
    abt = parse("""
        (ratio 2.5)
        (outputs (gauss 2) (gauss 3))
        (selector
          (leaf a :ps 0.5 :emit (gauss))
          (leaf b :ps 0.5 :emit (gauss)))
    """)
    n_states = abt.n_leaves + 2
    rows = synth_emissions(n_states, 2.5)
    assert abt.n_symbols == rows.shape[1] == 41
    assert abt.leaves[0].stats.emission == tuple(rows[0])
    assert abt.leaves[1].stats.emission == tuple(rows[1])
    assert abt.out_success == tuple(rows[2])
    assert abt.out_failure == tuple(rows[3])


def test_leaf_gauss_rejects_an_index():
    with pytest.raises(ParseError) as err:
        parse("(leaf a :ps 0.5 :emit (gauss 3))")
    assert "takes no index" in str(err.value)


def test_parse_default_ratio_argument():
    text = "(sequence (leaf a :ps 0.5 :emit (gauss)) (leaf b :ps 0.5 :emit (gauss)))"
    abt0 = parse("(ratio 0) " + text)
    abt5 = parse("(ratio 5) " + text)
    assert abt0.leaves[0].stats.emission == abt0.leaves[1].stats.emission
    assert abt5.leaves[0].stats.emission != abt5.leaves[1].stats.emission
    assert parse(text) == parse("(ratio 1) " + text)


def test_parse_retry_and_parallel():
    abt = parse("""
        (alphabet 4)
        (outputs (table 0.7 0.1 0.1 0.1) (table 0.1 0.1 0.1 0.7))
        (sequence
          (retry (leaf fix :ps 0.3 :emit (table 0.25 0.25 0.25 0.25)))
          (parallel :threshold 0.5
            (leaf u :ps 0.5 :emit (table 0.25 0.25 0.25 0.25))
            (leaf v :ps 0.5 :emit (table 0.25 0.25 0.25 0.25))))
    """)
    retry, par = abt.root.children
    assert isinstance(retry, Retry)
    assert par.threshold == 0.5
    assert abt.n_leaves == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(sequence)", "empty"),
        ("(leaf x :ps 2 :emit (gauss))", "ps"),
        ("(leaf x :ps 0.5)", "emit"),
        ("(alphabet 4) (leaf x :ps 0.5 :emit (table 0.5 0.5))", "4"),
        ("(widget 1)", "widget"),
        ("(sequence (leaf a :ps 0.5 :emit (gauss))", "end of input"),
        ("(alphabet 4) (ratio 1.0) (leaf a :ps .5 :emit (gauss))", "too small"),
    ] + MALFORMED_TREES,
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("(sequence\n  (oops))")
    assert "line 2" in str(err.value)


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        abt = random_canonical_tree(rng, int(rng.integers(1, 9)))
        again = parse(serialize(abt))
        assert again == abt


def test_serialize_round_trips_decorators():
    abt = parse("""
        (alphabet 4)
        (outputs (table 0.7 0.1 0.1 0.1) (table 0.1 0.1 0.1 0.7))
        (sequence
          (retry (leaf fix :ps 0.3 :emit (table 0.25 0.25 0.25 0.25)))
          (parallel :threshold 0.75
            (leaf u :ps 0.5 :emit (table 0.1 0.2 0.3 0.4))
            (leaf v :ps 0.5 :emit (table 0.25 0.25 0.25 0.25))))
    """)
    assert parse(serialize(abt)) == abt


def test_exemplar_files_parse(pick_place, patrol):
    assert pick_place.n_leaves == 4
    assert [leaf.stats.ps for leaf in pick_place.leaves] == [0.82, 0.59, 0.9, 0.64]
    assert patrol.n_leaves == 14
    assert isinstance(patrol.root, Sequence)
    assert isinstance(patrol.root.children[0], Selector)
