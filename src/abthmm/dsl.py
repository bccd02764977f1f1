"""Text format for augmented behavior trees.

An s-expression per node, with optional header directives before the root:

    file      : directive* node
    directive : "(alphabet" INT ")"
              | "(outputs" dist dist ")"
              | "(ratio" FLOAT ")"
    node      : "(sequence" node+ ")"
              | "(selector" node+ ")"
              | "(retry" node ")"
              | "(parallel" ":threshold" FLOAT node node+ ")"
              | "(leaf" NAME ":ps" FLOAT ":emit" dist ")"
    dist      : "(table" FLOAT+ ")"
              | "(gauss" INT? ")"

Comments run from ";" to the end of the line. "(gauss)" builds the leaf's
emission row from the synthetic family in the divergence module, using the
leaf's depth-first index and the header ratio (default 1.0); in the outputs
directive the row index is given explicitly. When the outputs directive is
omitted the two rows continue the synthetic progression at indices l and
l + 1. When "(alphabet J)" is omitted, J is taken from the first table row,
or from the synthetic family's default size if every row is synthetic.

Every number must be finite; INT is a whole number, at least 1 for the
alphabet and 0 for a gauss index. The parser checks only this grammar and
these numbers, and a ParseError for them gives the line and column. The
tree's own rules (ps in [0, 1], threshold in (0, 1], arity, unique leaf
names, rows of J non-negative entries summing to 1 within
validation.ATOL) belong to tree.validate_abt, whose error names the node
path, e.g. "root/sequence[0]: ps=1.5 outside [0, 1]".

>>> parse("(leaf a :ps 1.0 :emit (table 1.0))").n_leaves
1
"""

import math
import re

from . import divergence
from .tree import (
    ABTDefinition,
    Leaf,
    LeafStats,
    Parallel,
    Retry,
    Selector,
    Sequence,
    validate_abt,
)
from .validation import SymbolCapError


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


_WORD = r"[^ \t\r\n();]+"
_TOKEN = re.compile(rf"\n|;[^\n]*|[()]|{_WORD}")
# A leaf name is one word that does not start with ":", the keyword marker.
LEAF_NAME = re.compile(rf"(?!:){_WORD}")


def _tokenize(text):
    """(text, line, col) per token; comments and whitespace dropped."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        word = m.group()
        if word == "\n":
            line += 1
            line_start = m.end()
        elif word[0] != ";":
            tokens.append((word, line, m.start() - line_start + 1))
    return tokens


class _Tokens:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos >= len(self.tokens):
            return None
        return self.tokens[self.pos]

    def pop(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected!r}, got {tok[0]!r}", tok[1], tok[2])
        return tok


def _number(toks, what, least=None):
    """Read one finite number; with ``least``, an integer of at least that."""
    word, line, col = toks.pop()
    try:
        value = float(word)
    except ValueError:
        raise ParseError(f"expected a number for {what}, got {word!r}", line, col)
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {word!r}", line, col)
    if least is None:
        return value
    if value != int(value) or value < least:
        raise ParseError(f"{what} must be an integer >= {least}, got {word!r}", line, col)
    return int(value)


def _parse_dist(toks, allow_index):
    """A distribution as ("table", entries) or ("gauss", index or None)."""
    toks.pop("(")
    head = toks.pop()
    if head[0] == "table":
        values = []
        while toks.peek() is not None and toks.peek()[0] != ")":
            values.append(_number(toks, "table entry"))
        toks.pop(")")
        if not values:
            raise ParseError("empty table", head[1], head[2])
        return ("table", tuple(values))
    if head[0] != "gauss":
        raise ParseError(f"expected table or gauss, got {head[0]!r}", head[1], head[2])
    idx = None
    nxt = toks.peek()
    if nxt is not None and nxt[0] != ")":
        if not allow_index:
            raise ParseError(
                "leaf (gauss) takes no index, the leaf's own is used", nxt[1], nxt[2]
            )
        idx = _number(toks, "gauss index", least=0)
    elif allow_index:
        raise ParseError("outputs (gauss idx) needs an explicit row index", head[1], head[2])
    toks.pop(")")
    return ("gauss", idx)


def _parse_node(toks, leaves):
    """Read one node. Each leaf is appended to ``leaves`` as (leaf, ps, dist),
    depth first, and gets its stats once the header is known."""
    toks.pop("(")
    kind, line, col = toks.pop()
    if kind == "leaf":
        name, line, col = toks.pop()
        if not LEAF_NAME.fullmatch(name):
            raise ParseError("leaf needs a name", line, col)
        toks.pop(":ps")
        ps = _number(toks, ":ps")
        toks.pop(":emit")
        dist = _parse_dist(toks, allow_index=False)
        toks.pop(")")
        leaf = Leaf(name, None)
        leaves.append((leaf, ps, dist))
        return leaf
    if kind == "retry":
        child = _parse_node(toks, leaves)
        toks.pop(")")
        return Retry(child)
    if kind == "parallel":
        toks.pop(":threshold")
        threshold = _number(toks, ":threshold")
    elif kind not in ("sequence", "selector"):
        raise ParseError(f"unknown node kind {kind!r}", line, col)
    children = []
    while toks.peek() is not None and toks.peek()[0] == "(":
        children.append(_parse_node(toks, leaves))
    toks.pop(")")
    if kind == "parallel":
        return Parallel(tuple(children), threshold)
    return (Sequence if kind == "sequence" else Selector)(tuple(children))


def parse(text):
    """Parse DSL text into an ABTDefinition.

    Raises ParseError: a grammar or number error names its line and column,
    a tree that breaks one of validate_abt's rules names the node path.
    """
    toks = _Tokens(_tokenize(text))
    alphabet = outputs = root = None
    ratio = 1.0
    leaves = []
    while toks.peek() is not None:
        save = toks.pos
        toks.pop("(")
        head = toks.peek()
        if head is None:
            raise ParseError("unexpected end of input")
        if head[0] == "alphabet":
            toks.pop()
            alphabet = _number(toks, "alphabet size", least=1)
        elif head[0] == "outputs":
            toks.pop()
            outputs = (_parse_dist(toks, allow_index=True), _parse_dist(toks, allow_index=True))
        elif head[0] == "ratio":
            toks.pop()
            ratio = _number(toks, "ratio")
        else:
            toks.pos = save
            if root is not None:
                raise ParseError("more than one root node", head[1], head[2])
            root = _parse_node(toks, leaves)
            continue
        toks.pop(")")
    if root is None:
        raise ParseError("no tree in input")
    total = len(leaves)
    n_states = total + 2
    if outputs is None:
        outputs = (("gauss", total), ("gauss", total + 1))
    dists = [dist for _, _, dist in leaves] + list(outputs)
    n_symbols = alphabet or next((len(d[1]) for d in dists if d[0] == "table"), None)
    if n_symbols is None:
        n_symbols = divergence.default_n_symbols(n_states, ratio)

    synth = None
    if any(d[0] == "gauss" for d in dists):
        spec = divergence.SyntheticEmissionSpec(
            n_states=n_states, ratio=ratio, n_symbols=n_symbols
        )
        try:
            synth = divergence.synth_emissions(spec)
        except SymbolCapError:
            raise
        except ValueError as err:
            raise ParseError(f"cannot build synthetic rows: {err}")

    def resolve(dist, default_idx):
        if dist[0] == "table":
            return dist[1]
        idx = default_idx if dist[1] is None else dist[1]
        if idx >= n_states:
            raise ParseError(f"gauss index {idx} out of range for {n_states} rows")
        return synth[idx].tolist()

    for i, (leaf, ps, dist) in enumerate(leaves):
        # The leaf is still private to this call, so it is filled in place
        # rather than rebuilt together with every node above it.
        object.__setattr__(leaf, "stats", LeafStats(ps, resolve(dist, i)))
    abt = ABTDefinition(
        root, n_symbols, resolve(outputs[0], total), resolve(outputs[1], total + 1)
    )
    try:
        validate_abt(abt)
    except ValueError as err:
        raise ParseError(str(err)) from None
    return abt


def _fmt(x):
    return repr(float(x))


def _serialize_node(node, indent):
    pad = "  " * indent
    if isinstance(node, Leaf):
        table = " ".join(_fmt(v) for v in node.stats.emission)
        return f"{pad}(leaf {node.name} :ps {_fmt(node.stats.ps)} :emit (table {table}))"
    if isinstance(node, Retry):
        return f"{pad}(retry\n{_serialize_node(node.child, indent + 1)})"
    if isinstance(node, Parallel):
        body = "\n".join(_serialize_node(c, indent + 1) for c in node.children)
        return f"{pad}(parallel :threshold {_fmt(node.threshold)}\n{body})"
    kind = "sequence" if isinstance(node, Sequence) else "selector"
    body = "\n".join(_serialize_node(c, indent + 1) for c in node.children)
    return f"{pad}({kind}\n{body})"


def serialize(abt):
    """Render an ABTDefinition as canonical DSL text; parse(serialize(abt))
    rebuilds an equal definition."""
    out_s = " ".join(_fmt(v) for v in abt.out_success)
    out_f = " ".join(_fmt(v) for v in abt.out_failure)
    parts = [
        f"(alphabet {abt.n_symbols})",
        f"(outputs\n  (table {out_s})\n  (table {out_f}))",
        _serialize_node(abt.root, 0),
    ]
    return "\n".join(parts) + "\n"
