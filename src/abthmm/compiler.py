"""Compile behavior trees into labeled Markov models and back.

A tree with l leaves becomes a model with l + 2 states: one state per
leaf in depth-first order, then one absorbing state for overall success
and one for overall failure. Each leaf state carries exactly two
outgoing transitions, taken with probability ps and 1 - ps, and each
transition remembers which leaf outcome it encodes. That labeling is
what makes the mapping invertible: decompile reads the tree structure
back out of the jump targets alone, splitting each leaf range greedily,
and refuses labels that the compiler's own successor walk does not give
the rebuilt tree, naming the first state that differs.

Retry decorators redirect the failure exits of their subtree back to
its first state, which breaks the upper-diagonal shape on purpose.
Parallel nodes expand into a block of product states, one per reachable
combination of child positions.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import synth_emissions
from .hmm import DiscreteHMM
from .tree import (
    ABTDefinition,
    FAILURE,
    LEAF_NAME,
    Leaf,
    LeafStats,
    SUCCESS,
    Selector,
    Sequence,
    UnsupportedStructureError,
    n_leaves,
    parallel_outcome,
    successor_map,
    unit_successors,
    validate_abt,
)
from .validation import check_symbol_count

# Most states a compiled model with parallel blocks may have, and most
# product states one block may enumerate.
STATE_CAP = 4096

SUCCESS_LABEL = "success"
FAILURE_LABEL = "failure"


class InconsistentLabelsError(ValueError):
    """The edge labels cannot come from any behavior tree."""


class StateCapError(ValueError):
    """A parallel product expansion exceeded STATE_CAP."""


@dataclass(frozen=True)
class EdgeLabel:
    """Outcome labeling of one leaf state's two outgoing transitions.

    Only the targets are kept; the probabilities live in the model's
    transition matrix, at transmat[state, target].
    """

    succ_target: int
    fail_target: int


@dataclass(frozen=True)
class ParallelBlock:
    """Bookkeeping for one parallel product block inside a compiled model.

    statuses lists the product states in state order, starting with the
    entry; each one is a tuple with a ("run", leaf) or ("done", outcome)
    marker per child.
    """

    first: int
    statuses: tuple

    @property
    def n_states(self):
        return len(self.statuses)


@dataclass(frozen=True, eq=False)
class LabeledHMM:
    """A model together with the outcome labels of its transitions.

    The last two states are the absorbing outputs: o_s, overall success,
    and o_f, overall failure. edges holds an EdgeLabel per leaf state and
    None for output and product states. leaf_states maps each tree leaf
    index to its state, or None when the leaf lives inside a parallel block.
    """

    hmm: DiscreteHMM
    edges: tuple
    labels: tuple
    leaf_states: tuple = ()
    retry_ranges: tuple = ()
    blocks: tuple = ()

    @property
    def n_states(self):
        return self.hmm.n_states

    @property
    def n_symbols(self):
        return self.hmm.n_symbols

    @property
    def o_s(self):
        return self.n_states - 2

    @property
    def o_f(self):
        return self.n_states - 1

    @property
    def pi(self):
        return self.hmm.startprob

    @property
    def a(self):
        return self.hmm.transmat

    @property
    def b(self):
        return self.hmm.emissionprob


# ----------------------------------------------------------------------
# compilation


def compile_abt(abt):
    """Build the labeled model for a tree, which it first checks with
    validate_abt.

    The result has one state per leaf plus two absorbing output states;
    parallel subtrees add product-state blocks in place of their leaves.
    Nested same-kind and one-child composites compile as their flattening.
    Raises ValueError on an invalid tree, UnsupportedStructureError on
    nesting the transforms cannot express, StateCapError when a parallel
    product would blow past STATE_CAP, and SymbolCapError when its joint
    alphabet would exceed validation.SYMBOL_CAP.
    """
    validate_abt(abt)
    units, retries = unit_successors(abt.root)
    leaves = abt.leaves
    # Unit u starts at state offsets[u]. offsets[n] and offsets[n + 1] are
    # the success and failure outputs, so unit targets index offsets directly.
    offsets, first_leaf, products = [0], [0], []
    for node, _, _ in units:
        if isinstance(node, Leaf):
            products.append(None)
            offsets.append(offsets[-1] + 1)
        else:
            products.append(_product_states(node, first_leaf[-1], abt))
            offsets.append(offsets[-1] + len(products[-1][0]))
        first_leaf.append(first_leaf[-1] + n_leaves(node))
    o_s = offsets[-1]
    o_f = o_s + 1
    offsets.append(o_f)
    n_states = o_s + 2
    if any(products) and n_states > STATE_CAP:
        raise StateCapError(
            f"product blow-up: {n_states} states exceed the cap of {STATE_CAP}"
        )

    j_symbols = abt.n_symbols
    j_model = max([j_symbols] + [j_symbols ** len(node.children)
                                 for node, _, _ in units if not isinstance(node, Leaf)])
    a = np.zeros((n_states, n_states))
    b = np.zeros((n_states, j_model))
    done_rows = {SUCCESS: abt.out_success, FAILURE: abt.out_failure}
    edges = [None] * n_states
    labels = [None] * n_states
    leaf_states = [None] * len(leaves)
    blocks = []
    for u, (node, s, f) in enumerate(units):
        q, st, ft = offsets[u], offsets[s], offsets[f]
        if isinstance(node, Leaf):
            ps = float(node.stats.ps)
            a[q, st] += ps
            a[q, ft] += 1.0 - ps
            b[q, :j_symbols] = node.stats.emission
            edges[q] = EdgeLabel(st, ft)
            labels[q] = node.name
            leaf_states[first_leaf[u]] = q
            continue
        statuses, trans = products[u]
        exits = {"S": st, "F": ft}
        for r, cells in enumerate(trans):
            for col, prob in cells:
                a[q + r, exits[col] if col in exits else q + col] += prob
        for r, status in enumerate(statuses):
            # The joint emission row: the Kronecker product of each child's
            # row, the running leaf's or the finished child's output row.
            row = np.ones(1)
            for kind, x in status:
                row = np.kron(row, leaves[x].stats.emission if kind == "run" else done_rows[x])
            b[q + r, : row.size] = row
            labels[q + r] = "(" + "|".join(
                leaves[x].name if kind == "run" else x for kind, x in status
            ) + ")"
        blocks.append(ParallelBlock(q, tuple(statuses)))

    a[o_s, o_s] = 1.0
    a[o_f, o_f] = 1.0
    b[o_s, :j_symbols] = abt.out_success
    b[o_f, :j_symbols] = abt.out_failure
    labels[o_s] = SUCCESS_LABEL
    labels[o_f] = FAILURE_LABEL
    pi = np.zeros(n_states)
    pi[0] = 1.0
    return LabeledHMM(
        hmm=DiscreteHMM(pi, a, b),
        edges=tuple(edges),
        labels=tuple(labels),
        leaf_states=tuple(leaf_states),
        retry_ranges=tuple((offsets[lo], offsets[hi]) for lo, hi in retries),
        blocks=tuple(blocks),
    )


# ----------------------------------------------------------------------
# parallel products


def _product_states(par, first, abt):
    """Enumerate the reachable product states of the parallel node par,
    whose leaves are numbered from first on.

    Returns the ordered status tuples (entry first) and the transition cells
    per state as (column, probability) pairs, where the column is a local
    state index or "S"/"F" for the two exits. Raises SymbolCapError before
    any of this when the joint alphabet, J to the power of the child count,
    exceeds SYMBOL_CAP.
    """
    k = len(par.children)
    check_symbol_count(abt.n_symbols**k,
                       f"a parallel block of {k} children over {abt.n_symbols} symbols")
    ps = [float(leaf.stats.ps) for leaf in abt.leaves]
    moves = {}  # leaf index -> (status after success, status after failure)
    entry = []
    g0 = first
    for child in par.children:
        width = n_leaves(child)
        done = {width: ("done", SUCCESS), width + 1: ("done", FAILURE)}
        for i, targets in successor_map(child).items():
            moves[g0 + i] = tuple(done.get(t, ("run", g0 + t)) for t in targets)
        entry.append(("run", g0))
        g0 += width
    entry = tuple(entry)
    expanded = {entry: _expand(entry, moves, ps, par.threshold)}
    frontier = [entry]
    while frontier:
        for nxt, _ in expanded[frontier.pop()]:
            if nxt in ("S", "F") or nxt in expanded:
                continue
            if len(expanded) >= STATE_CAP:
                raise StateCapError(
                    f"product blow-up: more than {STATE_CAP} parallel product states"
                )
            expanded[nxt] = _expand(nxt, moves, ps, par.threshold)
            frontier.append(nxt)
    states = [entry] + sorted(set(expanded) - {entry})
    index = {s: i for i, s in enumerate(states)}
    trans = []
    for state in states:
        cells = {}
        for nxt, prob in expanded[state]:
            col = nxt if nxt in ("S", "F") else index[nxt]
            cells[col] = cells.get(col, 0.0) + prob
        trans.append(sorted(cells.items(), key=repr))
    return states, trans


def _expand(state, moves, ps, threshold):
    """All one-step moves out of a product state with their probabilities."""
    running = [i for i, m in enumerate(state) if m[0] == "run"]
    out = []
    for outcomes in itertools.product((SUCCESS, FAILURE), repeat=len(running)):
        prob = 1.0
        nxt = list(state)
        for i, oc in zip(running, outcomes):
            key = state[i][1]
            p = ps[key]
            prob *= p if oc == SUCCESS else 1.0 - p
            nxt[i] = moves[key][0 if oc == SUCCESS else 1]
        if prob == 0.0:
            continue
        if all(m[0] == "done" for m in nxt):
            won = parallel_outcome(nxt, threshold) == SUCCESS
            out.append(("S" if won else "F", prob))
        else:
            out.append((tuple(nxt), prob))
    return out


# ----------------------------------------------------------------------
# constraint checking


@dataclass
class ConstraintReport:
    upper_diagonal: bool = True
    two_nonzero_per_row: bool = True
    superdiagonal_nonzero: bool = True
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return self.upper_diagonal and self.two_nonzero_per_row and self.superdiagonal_nonzero


def check_constraints(model):
    """Check the transition-matrix shape every plain compiled tree has, on
    a LabeledHMM.

    Three checks over every row but the last two, the outputs: no mass at
    or below the diagonal, exactly two outgoing transitions, and a
    non-empty transition to the next state. A labeled row is read from its
    edge label, so probability-zero edges still count; an unlabeled row (a
    parallel block's product state) from the non-zeros of its matrix row.
    """
    report = ConstraintReport()
    for i, e in enumerate(model.edges[:-2]):
        if e is not None:
            cols = sorted({e.succ_target, e.fail_target})
        else:
            cols = list(np.nonzero(model.hmm.transmat[i])[0])
        if any(c <= i for c in cols):
            report.upper_diagonal = False
            report.violations.append((i, f"mass at or below the diagonal: {cols}"))
        if len(cols) != 2:
            report.two_nonzero_per_row = False
            report.violations.append((i, f"{len(cols)} outgoing transitions"))
        if i + 1 not in cols:
            report.superdiagonal_nonzero = False
            report.violations.append((i, "no transition to the next state"))
    return report


# ----------------------------------------------------------------------
# decompilation


def decompile(model):
    """Reconstruct the canonical tree a labeled model was compiled from: no
    sequence or selector in it has one child or a child of its own kind.

    Reads only the jump targets. Each leaf range is oriented by which of
    its exits is reached first (failure first means a sequence, success
    first a selector) and split greedily: a child ends at the first state e
    where every row from its start on targets at most e or the exit its
    siblings share. The rebuilt tree's successor map must equal the labels.
    Raises InconsistentLabelsError when the labels come from no tree (it
    names the first state that differs) or the start vector is not one-hot
    on state 0 (a tree starts at its first leaf), and
    UnsupportedStructureError for models with retry back-edges or parallel
    blocks.
    """
    if model.retry_ranges or model.blocks:
        raise UnsupportedStructureError(
            "only plain compiled models can be decompiled"
        )
    total = model.o_s
    if total < 1:
        raise InconsistentLabelsError("model has no leaf states")
    if model.pi[0] != 1.0 or np.count_nonzero(model.pi) != 1:
        raise InconsistentLabelsError("pi must be one-hot on state 0, where every tree starts")
    targets = []
    for i in range(total):
        e = model.edges[i]
        if e is None:
            raise InconsistentLabelsError(f"state {i} has no edge labels")
        targets.append((e.succ_target, e.fail_target))
    root = _split(model, targets, 0, total, model.o_s, model.o_f)
    for i, (s, f) in successor_map(root).items():
        if targets[i] != (s, f):
            st, ft = targets[i]
            raise InconsistentLabelsError(
                f"state {i}: labels S:{st} F:{ft} come from no tree;"
                f" the only candidate tree has S:{s} F:{f}"
            )
    b = model.hmm.emissionprob
    return ABTDefinition(
        root,
        model.n_symbols,
        tuple(b[model.o_s]),
        tuple(b[model.o_f]),
    )


def _split(model, targets, a, b, s, f):
    """Rebuild the node covering leaf states [a, b) whose success exit is s
    and failure exit is f.  The split is exact on labels from a tree: a
    subtree has a row reaching each of its exits, and none of the exits
    inside a child is the shared one."""
    if b - a == 1:
        ps = float(model.hmm.transmat[a, targets[a][0]])
        return Leaf(model.labels[a], LeafStats(ps, tuple(model.hmm.emissionprob[a])))
    kind = _root_kind(targets, a, b, s, f)
    shared = f if kind is Sequence else s
    bounds = [a]
    while bounds[-1] < b:
        far = 0
        for e in range(bounds[-1] + 1, b + 1):
            far = max([far] + [t for t in targets[e - 1] if t != shared])
            if far <= e:
                break
        # A range that does not split comes from no tree: cut off its first
        # leaf, so that the successor check names the state that differs.
        bounds.append(a + 1 if bounds == [a] and e == b else e)
    children = []
    for c, e in zip(bounds, bounds[1:]):
        if kind is Sequence:
            children.append(_split(model, targets, c, e, e if e < b else s, f))
        else:
            children.append(_split(model, targets, c, e, s, e if e < b else f))
    return kind(tuple(children))


def _root_kind(targets, a, b, s, f):
    """Decide whether leaf states [a, b) hang under a sequence or a selector.

    Every child of a sequence can fail the whole range, but only the last
    child can finish it, so the first row exiting to f sits left of the
    first row exiting to s.  A selector mirrors the argument.  Labels that
    do not decide it get a sequence and fail the successor check.
    """
    for g in range(a, b):
        if f in targets[g]:
            return Sequence
        if s in targets[g]:
            return Selector
    return Sequence


# ----------------------------------------------------------------------
# counting and enumeration

ENUMERATION_CAP = 8


def count_bts(l):
    """Number of transition-matrix shapes over l leaf states: 2^(l-1) l!."""
    l = int(l)
    if l < 1:
        raise ValueError("leaf count must be at least 1")
    return 2 ** (l - 1) * math.factorial(l)


@dataclass(frozen=True)
class StructureShape:
    """One shape from the constraint class over l leaf states.

    rows holds one (orientation, far_column) pair per leaf state:
    orientation "S" means the success edge feeds the next state and the
    failure edge jumps to far_column, "F" the other way round.
    """

    rows: tuple

    @property
    def n_leaves(self):
        return len(self.rows)

    def to_labeled(self, ps=0.5):
        """Materialize the shape as a labeled model with every success
        probability set to ps and synthetic emission rows."""
        l = self.n_leaves
        n = l + 2
        rows = synth_emissions(n, 1.0)
        a = np.zeros((n, n))
        edges = []
        for i, (orient, far) in enumerate(self.rows):
            st, ft = (i + 1, far) if orient == SUCCESS else (far, i + 1)
            a[i, st] += ps
            a[i, ft] += 1.0 - ps
            edges.append(EdgeLabel(st, ft))
        a[l, l] = 1.0
        a[l + 1, l + 1] = 1.0
        pi = np.zeros(n)
        pi[0] = 1.0
        labels = tuple(f"l{i}" for i in range(l)) + (SUCCESS_LABEL, FAILURE_LABEL)
        return LabeledHMM(
            hmm=DiscreteHMM(pi, a, rows),
            edges=tuple(edges) + (None, None),
            labels=labels,
            leaf_states=tuple(range(l)),
        )

    @classmethod
    def of_model(cls, model):
        """Read the shape off a labeled model's edges."""
        rows = []
        for i in range(model.o_s):
            e = model.edges[i]
            if e.succ_target == i + 1:
                rows.append((SUCCESS, e.fail_target))
            elif e.fail_target == i + 1:
                rows.append((FAILURE, e.succ_target))
            else:
                raise InconsistentLabelsError(
                    f"state {i}: neither outcome continues at state {i + 1}"
                )
        return cls(tuple(rows))


def enumerate_structures(l):
    """Yield every transition shape over l leaf states exactly once.

    Row i < l-1 picks an orientation and a far column in [i+2, l+1]; the
    last row is forced. The stream has exactly count_bts(l) members.
    Capped at l <= 8 because the count grows as 2^(l-1) l!.
    """
    l = int(l)
    if l < 1:
        raise ValueError("leaf count must be at least 1")
    if l > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration over {l} leaves would yield {count_bts(l)} shapes; "
            f"the cap is {ENUMERATION_CAP}"
        )
    per_row = [
        [(o, far) for o in (SUCCESS, FAILURE) for far in range(i + 2, l + 2)]
        for i in range(l - 1)
    ]
    per_row.append([(SUCCESS, l + 1)])
    for combo in itertools.product(*per_row):
        yield StructureShape(tuple(combo))


# ----------------------------------------------------------------------
# model files


def save_model(model, path):
    """Write a labeled model as JSON with the fields n_states, n_symbols, pi,
    a, b, labels (one name per state) and edge_labels ("S:<t> F:<t>" per
    leaf state, null elsewhere). Key order and float text are canonical, so
    equal models give byte-identical files.

    The format has no place for parallel block bookkeeping, so models with
    parallel blocks are refused with UnsupportedStructureError rather than
    written without it.
    """
    if model.blocks:
        raise UnsupportedStructureError(
            "models with parallel blocks cannot be written to a model file"
        )
    doc = {
        "n_states": model.n_states,
        "n_symbols": model.n_symbols,
        "pi": model.pi.tolist(),
        "a": model.a.tolist(),
        "b": model.b.tolist(),
        "labels": list(model.labels),
        "edge_labels": [
            None if e is None else f"S:{e.succ_target} F:{e.fail_target}"
            for e in model.edges
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_model(path):
    """Read a model file back, refusing with ValueError a file whose fields
    disagree with each other or whose output states, edge labels or leaf
    state labels break the rules compiled models keep. A leaf state's label
    must be a leaf name the tree file format reads (tree.LEAF_NAME) and no
    other leaf state's label, so that decompile writes a file parse accepts.

    Transition probabilities are read from the matrix alone. Retry ranges
    are rebuilt from the back edges: a row failing to a state at or before
    itself lies in the retry that starts at that state, and the range ends
    one past the last such row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model file does not hold a JSON object")
    for key in ("n_states", "n_symbols", "pi", "a", "b"):
        if key not in doc:
            raise ValueError(f"model file is missing field {key!r}")
    try:
        hmm = DiscreteHMM(doc["pi"], doc["a"], doc["b"])
    except TypeError:
        raise ValueError("model file fields 'pi', 'a' and 'b' must hold numbers") from None
    n = hmm.n_states
    if n != doc["n_states"] or hmm.n_symbols != doc["n_symbols"]:
        raise ValueError("model file header does not match matrix shapes")
    labels = doc.get("labels")
    edge_strings = doc.get("edge_labels")
    if edge_strings is None:
        raise ValueError("model file has no edge_labels block")
    for key, value in (("labels", labels), ("edge_labels", edge_strings)):
        if value is not None and (not isinstance(value, list) or len(value) != n):
            raise ValueError(f"model file field {key!r} is not a list of {n} entries")
    if n < 2:
        raise ValueError(f"a labeled model needs its two output states, the file has {n} states")
    o_s, o_f = n - 2, n - 1
    if labels is None:
        labels = tuple(f"l{i}" for i in range(o_s)) + (SUCCESS_LABEL, FAILURE_LABEL)
    for q in (o_s, o_f):
        row = hmm.transmat[q]
        if edge_strings[q] is not None or row[q] != 1.0 or np.count_nonzero(row) != 1:
            raise ValueError(f"output state {q} must be a unit self-loop with no edge label")
    edges = []
    retry_ends = {}  # first state of a retry -> one past its last state
    for i, text in enumerate(edge_strings):
        if text is None:
            edges.append(None)
            continue
        try:
            s_part, f_part = text.split()
            st = int(s_part.removeprefix("S:"))
            ft = int(f_part.removeprefix("F:"))
        except (ValueError, AttributeError):
            raise ValueError(f"bad edge label for state {i}: {text!r}")
        if not (0 <= st < n and 0 <= ft < n):
            raise ValueError(f"edge label for state {i} targets a state outside [0, {n}): {text!r}")
        if np.delete(hmm.transmat[i], [st, ft]).any():
            raise ValueError(
                f"state {i} has transition mass outside its labeled targets {st}, {ft}")
        edges.append(EdgeLabel(st, ft))
        if ft <= i:
            retry_ends[ft] = i + 1
    leaf_states = tuple(i for i in range(o_s) if edges[i] is not None)
    named = {}
    for i in leaf_states:
        label = labels[i]
        if not (isinstance(label, str) and LEAF_NAME.fullmatch(label)):
            raise ValueError(f"state {i}: label {label!r} is not a leaf name a tree file can hold")
        if label in named:
            raise ValueError(f"state {i}: label {label!r} is also the label of state {named[label]}")
        named[label] = i
    return LabeledHMM(
        hmm=hmm,
        edges=tuple(edges),
        labels=tuple(labels),
        leaf_states=leaf_states,
        retry_ranges=tuple(sorted(retry_ends.items())),
    )
