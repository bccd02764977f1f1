"""Behavior tree node types, validation and control flow.

Leaves are numbered depth first, left to right. A tree with l leaves has
two implicit output states: index l for overall success and l + 1 for
overall failure.
"""

import re
from dataclasses import dataclass
from typing import Union

from .validation import check_probability_vector, check_stochastic_matrix

SUCCESS = "S"
FAILURE = "F"

VISIT_CAP = 10_000

# One word of the tree file format, and a leaf name: one word that does
# not start with ":", the keyword marker.
_WORD = r"[^ \t\r\n();]+"
LEAF_NAME = re.compile(rf"(?!:){_WORD}")


class TickLimitError(RuntimeError):
    """Raised when a rollout exceeds the visit cap (a retry loop that never exits)."""


class UnsupportedStructureError(ValueError):
    """Raised when an operation only defined for plain sequence/selector trees
    meets a retry or parallel node."""


@dataclass(frozen=True)
class LeafStats:
    ps: float
    emission: tuple

    def __post_init__(self):
        object.__setattr__(self, "emission", tuple(map(float, self.emission)))


@dataclass(frozen=True)
class Leaf:
    name: str
    stats: LeafStats


@dataclass(frozen=True)
class Sequence:
    children: tuple


@dataclass(frozen=True)
class Selector:
    children: tuple


@dataclass(frozen=True)
class Retry:
    child: "Node"


@dataclass(frozen=True)
class Parallel:
    children: tuple
    threshold: float


Node = Union[Leaf, Sequence, Selector, Retry, Parallel]

_COMPOSITES = (Sequence, Selector)


def leaves_of(node):
    out = []
    _collect_leaves(node, out)
    return out


def _collect_leaves(node, out):
    if isinstance(node, Leaf):
        out.append(node)
    elif isinstance(node, _COMPOSITES) or isinstance(node, Parallel):
        for c in node.children:
            _collect_leaves(c, out)
    elif isinstance(node, Retry):
        _collect_leaves(node.child, out)
    else:
        raise TypeError(f"not a tree node: {node!r}")


def n_leaves(node):
    return len(leaves_of(node))


@dataclass(frozen=True)
class ABTDefinition:
    """A behavior tree together with everything the compiler needs: per leaf
    success probabilities and emission rows (stored on the leaves), the two
    output state emission rows, and the symbol alphabet size."""

    root: Node
    n_symbols: int
    out_success: tuple
    out_failure: tuple

    def __post_init__(self):
        object.__setattr__(self, "out_success", tuple(map(float, self.out_success)))
        object.__setattr__(self, "out_failure", tuple(map(float, self.out_failure)))

    @property
    def leaves(self):
        return leaves_of(self.root)

    @property
    def n_leaves(self):
        return len(self.leaves)


def validate_abt(abt):
    """Raise ValueError("<path>: <message>") on the first broken rule of a
    tree, checking in this order: the alphabet size; the nodes depth first
    (leaf ps in [0, 1], composite and parallel arity, parallel threshold in
    (0, 1], node type, leaf name a string matching LEAF_NAME); the emission
    rows, first their lengths and then their entries, leaves depth first and
    then the two outputs; and leaf names, which must be unique. A tree that
    passes is accepted by the compiler and written back by dsl.serialize."""
    if abt.n_symbols < 1:
        raise ValueError(f"alphabet size must be positive, got {abt.n_symbols}")
    rows = []
    _validate_node(abt.root, "root", rows)
    rows += [("out_success", abt.out_success), ("out_failure", abt.out_failure)]
    _validate_rows(rows, abt.n_symbols)
    seen = set()
    for leaf in abt.leaves:
        if leaf.name in seen:
            raise ValueError(f"{leaf.name}: duplicate leaf name")
        seen.add(leaf.name)


def _validate_rows(rows, n_symbols):
    """Check the (path, emission row) pairs with one stochastic-matrix check,
    and only when it fails row by row, so the error names the row's path."""
    for path, row in rows:
        if len(row) != n_symbols:
            raise ValueError(f"{path}: emission row has {len(row)} entries, alphabet is {n_symbols}")
    try:
        check_stochastic_matrix([row for _, row in rows], "emission rows")
    except ValueError:
        for path, row in rows:
            try:
                check_probability_vector(row, "emission row")
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None


def _validate_node(node, path, rows):
    if isinstance(node, Leaf):
        if not (0.0 <= node.stats.ps <= 1.0):
            raise ValueError(f"{path}: ps={node.stats.ps} outside [0, 1]")
        if not (isinstance(node.name, str) and LEAF_NAME.fullmatch(node.name)):
            raise ValueError(f"{path}: leaf name {node.name!r} is not a name a tree file can hold")
        rows.append((f"{path}:{node.name}", node.stats.emission))
    elif isinstance(node, _COMPOSITES):
        kind = type(node).__name__.lower()
        if len(node.children) < 1:
            raise ValueError(f"{path}: empty {kind}")
        for i, c in enumerate(node.children):
            _validate_node(c, f"{path}/{kind}[{i}]", rows)
    elif isinstance(node, Retry):
        _validate_node(node.child, f"{path}/retry", rows)
    elif isinstance(node, Parallel):
        if len(node.children) < 2:
            raise ValueError(f"{path}: parallel needs at least two children")
        if not (0.0 < node.threshold <= 1.0):
            raise ValueError(f"{path}: parallel threshold {node.threshold} outside (0, 1]")
        for i, c in enumerate(node.children):
            _validate_node(c, f"{path}/parallel[{i}]", rows)
    else:
        raise ValueError(f"{path}: unknown node type {type(node).__name__}")


def successor_map(root):
    """Map each leaf index to the pair (state on success, state on failure).

    Targets are leaf indices, or l for overall success and l + 1 for overall
    failure. Only plain sequence/selector trees are supported here; retry
    and parallel nodes go through the compiler.
    """
    units, retries = unit_successors(root)
    if retries or any(isinstance(node, Parallel) for node, _, _ in units):
        raise UnsupportedStructureError(
            "a parallel child or a successor map needs a plain sequence/selector"
            " tree; found a retry or parallel node"
        )
    return {i: (s, f) for i, (_, s, f) in enumerate(units)}


def unit_successors(root):
    """Walk the tree's control flow over units: a unit is a leaf or a whole
    parallel node, numbered depth first.

    Returns the units as (node, success target, failure target) triples,
    where a target is a unit index, or n for overall success and n + 1 for
    overall failure, and the unit range [start, stop) of each retry node.
    A retry sends its child's failures back to the child's first unit.
    Nested retries raise UnsupportedStructureError.
    """
    units, retries = [], []
    succ, fail = [None], [None]
    total = _walk_units(root, 0, succ, fail, units, retries, in_retry=False)
    succ[0], fail[0] = total, total + 1
    return [(node, s[0], f[0]) for node, s, f in units], retries


def _walk_units(node, start, succ, fail, units, retries, in_retry):
    """Append node's units from index start and return the index after them.
    Targets are one-item lists, filled once the unit they name is numbered."""
    if isinstance(node, (Leaf, Parallel)):
        units.append((node, succ, fail))
        return start + 1
    if isinstance(node, Retry):
        if in_retry:
            raise UnsupportedStructureError("nested retry ranges overlap")
        stop = _walk_units(node.child, start, succ, [start], units, retries, True)
        retries.append((start, stop))
        return stop
    if not isinstance(node, _COMPOSITES):
        raise TypeError(f"not a tree node: {node!r}")
    pos = start
    last = len(node.children) - 1
    for i, child in enumerate(node.children):
        nxt = [None]  # the next sibling's first unit
        if isinstance(node, Sequence):
            s, f = (succ if i == last else nxt), fail
        else:
            s, f = succ, (fail if i == last else nxt)
        pos = _walk_units(child, pos, s, f, units, retries, in_retry)
        nxt[0] = pos
    return pos


def parallel_outcome(statuses, threshold):
    """Outcome of a finished parallel node: SUCCESS iff the share of its
    ("done", outcome) statuses that succeeded reaches the threshold."""
    wins = sum(1 for s in statuses if s[1] == SUCCESS)
    return SUCCESS if wins / len(statuses) >= threshold - 1e-12 else FAILURE
