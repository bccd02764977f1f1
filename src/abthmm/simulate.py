"""Monte-Carlo rollouts, model perturbation, and experiment sweeps.

A rollout samples the compiled model, which is one tree execution with
the leaf outcomes drawn from their success probabilities, recording the
visited model states and one symbol per visit. The sweep harness
measures how inference degrades as the evaluation model drifts from the
generating one: forward likelihood, decoded-path edit distance, and
refit error over a grid of emission ratios and perturbation strengths.
"""

import csv
import itertools
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dsl
from .compiler import LabeledHMM, compile_abt
from .divergence import SyntheticEmissionSpec, synth_emissions
from .hmm import DiscreteHMM, _Packed, _bucket, _sample_batch, _viterbi_batch
from .tree import FAILURE, SUCCESS, TickLimitError, VISIT_CAP
from .validation import check_observations, check_updates

DEFAULT_N_SEQUENCES = 15_000
DEFAULT_SEED = 12061

@dataclass(frozen=True)
class Run:
    states: tuple
    obs: tuple
    outcome: str


class Dataset:
    """Rollout runs stored back to back, as the sampler makes them.

    ``states`` and ``obs`` hold every run's visited states and symbols in
    one read-only int64 array each, and run i is
    ``states[ends[i - 1]:ends[i]]`` (from 0 for the first run);
    ``outcomes[i]`` is its outcome. ``runs`` builds Run tuples on each
    call, for callers that want them.
    """

    def __init__(self, states, obs, ends, outcomes):
        self.states, self.obs, self.ends = (_read_only(a) for a in (states, obs, ends))
        self.outcomes = tuple(outcomes)

    @classmethod
    def from_runs(cls, runs):
        """A dataset holding the given Runs, in order."""
        runs = list(runs)
        return cls._of([r.states for r in runs], [r.obs for r in runs],
                       [r.outcome for r in runs])

    @classmethod
    def _of(cls, states, obs, outcomes):
        """A dataset from per-run sequences of states and of symbols (ints,
        or their decimal text)."""
        states, lengths = _flat(states)
        obs, obs_lengths = _flat(obs)
        bad = np.flatnonzero(lengths != obs_lengths)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"run {i} has {lengths[i]} states but {obs_lengths[i]} symbols")
        return cls(states, obs, np.cumsum(lengths), outcomes)

    def __len__(self):
        return len(self.ends)

    @property
    def lengths(self):
        return np.diff(self.ends, prepend=0)

    @property
    def runs(self):
        return [Run(tuple(s), tuple(o), outcome) for s, o, outcome in zip(
            self._per_run(self.states.tolist()), self._per_run(self.obs.tolist()), self.outcomes)]

    def observations(self):
        """Each run's symbols, as read-only views of ``obs``."""
        return self._per_run(self.obs)

    def state_paths(self):
        """Each run's states, as read-only views of ``states``."""
        return self._per_run(self.states)

    def _per_run(self, flat):
        """Per-run slices of a sequence laid out like ``states``."""
        bounds = [0, *self.ends.tolist()]
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _read_only(values):
    values = np.asarray(values, dtype=np.int64)
    values.flags.writeable = False
    return values


def _flat(seqs):
    """Sequences back to back as one int64 array, and their lengths."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    return np.array(list(itertools.chain.from_iterable(seqs)), dtype=np.int64), lengths


def rollout_dataset(abt, n, seed, *, model=None):
    """Simulate n independent tree executions.

    A run is a walk on the compiled model (``model``, or the tree compiled
    here): each visit records a model state (a leaf's, or a parallel
    block's product state) and one symbol from its emission row, until the
    walk reaches an output state, which emits once more. A run that does
    not finish within the visit cap (a retry loop that cannot exit) raises
    TickLimitError.
    """
    if n < 1:
        raise ValueError(f"need at least one run, got {n}")
    if model is None:
        model = compile_abt(abt)
    try:
        states, obs, ends = _sample_batch(
            model.hmm, n, np.random.default_rng(seed), (model.o_s, model.o_f),
            max_steps=VISIT_CAP + 1,
        )
    except RuntimeError:
        raise TickLimitError(f"run did not finish within {VISIT_CAP} visits") from None
    outcomes = np.where(states[ends - 1] == model.o_s, SUCCESS, FAILURE).tolist()
    return Dataset(states, obs, ends, outcomes)


def estimate_ps(dataset, model):
    """Frequentist success-rate estimate per leaf.

    Each leaf visit is classified by where the run went next: the success
    target counts as a success, the failure target as a failure. Returns
    (estimates, counts); a leaf that was never visited gets nan and 0.
    """
    states = dataset.states
    n_leaves = len(model.leaf_states)
    leaf = np.full(model.n_states, -1)  # each state's leaf, or -1
    for g, q in enumerate(model.leaf_states):
        if q is not None:
            leaf[q] = g
    labeled = np.array([e is not None for e in model.edges])
    succ = np.array([-1 if e is None else e.succ_target for e in model.edges])
    fail = np.array([-1 if e is None else e.fail_target for e in model.edges])
    cut = np.zeros(len(states) + 1, dtype=bool)
    cut[dataset.ends] = True  # a run starts at this position
    at = np.flatnonzero(~cut[1:-1])  # visits followed by a visit of the same run
    q = states[at]
    at = at[(q >= 0) & (q < model.n_states)]  # other numbers name no state
    at = at[leaf[states[at]] >= 0]  # visits of leaf states
    q, nxt = states[at], states[at + 1]
    won = nxt == succ[q]
    bad = ~labeled[q] | (~won & (nxt != fail[q]))
    if bad.any():
        i = int(np.argmax(bad))  # the first bad visit, in run order
        if not labeled[q[i]]:
            raise ValueError(f"state {q[i]} has no edge labels")
        raise ValueError(f"transition {q[i]} -> {nxt[i]} matches neither outcome")
    g = leaf[q]
    counts = np.bincount(g, minlength=n_leaves)
    wins = np.bincount(g[won], minlength=n_leaves)
    with np.errstate(invalid="ignore"):
        ps_hat = np.where(counts > 0, wins / np.maximum(counts, 1), np.nan)
    return ps_hat, counts


# ----------------------------------------------------------------------
# model perturbation


@dataclass(frozen=True)
class PerturbationSpec:
    p_tilde: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_tilde <= 0.5):
            raise ValueError(f"p_tilde {self.p_tilde} outside [0, 0.5]")


def perturb_hmm(model, spec):
    """Scale the first transition of every leaf row by (1 +- p_tilde).

    The sign is drawn per row; the first (lowest column) non-zero entry is
    scaled and clamped to [0.05, 0.95], and the row's other entry takes the
    complement. Zero pattern, targets, emissions and start vector stay as
    they are. p_tilde of zero returns an unchanged copy.
    """
    new = replace(model, hmm=model.hmm.copy())
    if spec.p_tilde == 0.0:
        return new
    a = new.hmm.transmat
    rows = np.flatnonzero([e is not None for e in model.edges])
    # One sign per labeled row, in row order, drawn even for a row that is
    # then skipped for not having exactly two non-zeros.
    signs = 2.0 * np.random.default_rng(spec.seed).integers(0, 2, size=len(rows)) - 1.0
    at, cols = np.nonzero(a[rows] != 0)  # the labeled rows' non-zeros, row by row
    two = np.bincount(at, minlength=len(rows)) == 2
    rows, signs, cols = rows[two], signs[two], cols[two[at]]
    c1, c2 = cols[0::2], cols[1::2]  # each kept row's two columns, ascending
    p1 = np.clip((1.0 + spec.p_tilde * signs) * a[rows, c1], 0.05, 0.95)
    a[rows, c1] = p1
    a[rows, c2] = 1.0 - p1
    return new


def randomize_hmm(model, seed):
    """Replace the whole transition matrix with row-normalized uniform
    noise, keeping emissions and the start vector. Returns a bare model,
    since no labeling survives."""
    rng = np.random.default_rng(seed)
    n = model.n_states
    a = rng.random((n, n))
    a /= a.sum(axis=1, keepdims=True)
    return DiscreteHMM(
        model.hmm.startprob.copy(), a, model.hmm.emissionprob.copy()
    )


def with_synthetic_emissions(model, ratio):
    """Swap every emission row for the synthetic family at the given ratio.

    State i takes row i of the family, so neighboring states are exactly
    ratio * divergence.SIGMA apart on the symbol axis.
    """
    rows = synth_emissions(SyntheticEmissionSpec(model.n_states, ratio))
    return replace(
        model,
        hmm=DiscreteHMM(model.hmm.startprob.copy(), model.hmm.transmat.copy(), rows),
    )


# ----------------------------------------------------------------------
# metrics


def sed(a, b):
    """Levenshtein distance between two sequences over the length of the
    second (the reference)."""
    codes = {}
    a = [codes.setdefault(x, len(codes)) for x in a]
    b = [codes.setdefault(x, len(codes)) for x in b]
    return float(_sed_batch(
        _Packed.single(np.asarray(a, dtype=np.int64)), _Packed.single(np.asarray(b, dtype=np.int64))
    )[0])


# Elements _sed_batch counts a padded cell. A step works on four int64
# (rows, width) arrays: ref, row, cur and diag. Counting each twice holds
# them to 2 MB, which a core's L2 cache keeps; with larger chunks the
# row-by-row passes run slower.
_SED_COST = 8


def _sed_batch(a, b):
    """sed over the pairs of two packed batches, row r of a against row r
    of b; the two must list their pairs in the same row order (for
    instance, packed from sequences of equal lengths).

    The rows run in chunks of b padded to their first reference (see
    _Packed.padded_chunks), so one long reference among short ones neither
    pads the others nor multiplies their work. Within a chunk the dynamic
    programme runs one row (one symbol of a) at a time, vectorized over
    the rows of a that reach that symbol and along the row; a pair's
    distance is read from its reference length's column as soon as its
    row of a ends. Columns past that length do not feed it.
    """
    n_rows = len(b.lengths)
    if n_rows and b.lengths[-1] == 0:  # the shortest row comes last
        raise ValueError("reference sequence is empty")
    dist = np.empty(n_rows, dtype=np.int64)
    for lo, hi in b.padded_chunks(_SED_COST):
        _sed_rows(a, b, lo, hi, dist)
    return dist / b.lengths


def _sed_rows(a, b, lo, hi, dist):
    """The distances of rows lo to hi - 1 of _sed_batch, written to dist.

    For each pair it keeps y[c] = D[c] - c - i, where D[c] is the distance
    between the first i symbols of a and the first c of b: all zeros at
    i = 0. A symbol of a makes y[c] = min(y[c], y[c - 1] - 1 - (a_i ==
    b_c)) for c >= 1, y[0] = 0, and then a running minimum along the row
    (the insertions). The pair's distance is y[len(b)] + len(b) + i once
    its row of a ends.
    """
    ref = b.padded(b.obs, -1, lo, hi)
    lengths = b.lengths[lo:hi]
    row, cur = np.zeros((2, hi - lo, ref.shape[1] + 1), dtype=np.int64)  # column 0 stays 0
    done = hi - lo  # chunk rows from here on have their distance read
    for i, k in enumerate(a.sizes):
        k = min(max(k - lo, 0), done)  # chunk rows whose row of a reaches symbol i
        if k < done:
            dist[lo + k:lo + done] = row[np.arange(k, done), lengths[k:done]] + lengths[k:done] + i
            done = k
        if not k:
            break
        step = a.obs[a.offsets[i] + lo:a.offsets[i] + lo + k]
        diag = row[:k, :-1] - (step[:, None] == ref[:k])
        diag -= 1
        np.minimum(row[:k, 1:], diag, out=cur[:k, 1:])
        np.minimum.accumulate(cur[:k], axis=1, out=cur[:k])
        row, cur = cur, row
    dist[lo:lo + done] = row[np.arange(done), lengths[:done]] + lengths[:done] + len(a.sizes)


def rms_nonzero(a_ref, a_est):
    """Root-mean-square difference over the reference's non-zero cells."""
    a_ref = np.asarray(a_ref, dtype=np.float64)
    a_est = np.asarray(a_est, dtype=np.float64)
    if a_ref.shape != a_est.shape:
        raise ValueError(f"shape mismatch: {a_ref.shape} vs {a_est.shape}")
    mask = a_ref != 0
    if not mask.any():
        raise ValueError("reference matrix is all zero")
    diff = a_ref[mask] - a_est[mask]
    return float(np.sqrt(np.mean(diff**2)))


# ----------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one experiment sweep.

    perturbations mixes scaling ratios with the string "random" for the
    fully randomized transition-matrix baseline. bw_updates picks which
    parameter groups refitting may touch ("t" holds emissions and the
    start vector at their reference values).
    """

    model: str
    ratios: tuple = (0.0, 0.25, 1.0, 2.5, 5.0)
    perturbations: tuple = (0.0, 0.1, 0.25, 0.5)
    n_sequences: int = DEFAULT_N_SEQUENCES
    master_seed: int = DEFAULT_SEED
    bw_updates: str = "t"

    def __post_init__(self):
        check_updates(self.bw_updates, "bw_updates")

    @classmethod
    def from_file(cls, path):
        """Read a flat key=value config file; unknown keys are an error."""
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key] = value
        unknown = set(values) - set(_CONFIG_PARSERS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "model" not in values:
            raise ValueError("config needs a model=<path> line")
        return cls(**{key: _CONFIG_PARSERS[key](text) for key, text in values.items()})


def _perturbation(text):
    """A perturbation ratio, or "random" for the randomized baseline."""
    text = text.strip()
    return "random" if text == "random" else float(text)


_CONFIG_PARSERS = {
    "model": str,
    "ratios": lambda text: tuple(float(x) for x in text.split(",")),
    "perturbations": lambda text: tuple(_perturbation(x) for x in text.split(",")),
    "n_sequences": int,
    "master_seed": int,
    "bw_updates": str,
}


@dataclass(frozen=True)
class MetricRow:
    kind: str
    ratio: float
    perturbation: float | str
    n_states: int
    n_seqs: int
    seed: int
    logp_per_seq: float = None
    mean_sed: float = None
    rms_error: float = None
    bw_iters: int = None
    final_logp: float = None


METRIC_COLUMNS = tuple(f.name for f in fields(MetricRow))
# Cell parsers by field type; an empty cell in an optional column reads as None.
_CELL_PARSERS = {str: str, int: int, float: float, float | str: _perturbation}


@dataclass(frozen=True)
class SweepCell:
    ratio: float
    perturbation: object
    reference: LabeledHMM
    start: object  # LabeledHMM or DiscreteHMM for the random baseline
    dataset: Dataset
    seed: int


def _derive(master, *parts):
    text = ":".join(str(p) for p in (master,) + parts)
    return zlib.crc32(text.encode("utf-8"))


def sweep_cells(cfg):
    """Yield one SweepCell per grid point of the tree file cfg.model.

    The dataset and the perturbation signs depend only on the ratio, so
    the perturbation levels within a ratio are directly comparable: they
    scale the same rows in the same directions and are scored on the same
    sequences.
    """
    with open(cfg.model, "r", encoding="utf-8") as fh:
        abt = dsl.parse(fh.read())
    base = compile_abt(abt)
    for ratio in cfg.ratios:
        reference = with_synthetic_emissions(base, ratio)
        data_seed = _derive(cfg.master_seed, "data", ratio)
        dataset = rollout_dataset(abt, cfg.n_sequences, data_seed, model=reference)
        sign_seed = _derive(cfg.master_seed, "signs", ratio)
        for pert in cfg.perturbations:
            cell_seed = _derive(cfg.master_seed, "cell", ratio, pert)
            if pert == "random":
                start = randomize_hmm(reference, cell_seed)
            else:
                start = perturb_hmm(reference, PerturbationSpec(float(pert), sign_seed))
            yield SweepCell(float(ratio), pert, reference, start, dataset, cell_seed)


def run_sweep(cfg, kind):
    """Evaluate every grid cell and return one MetricRow each.

    kind picks the measurement: "forward" scores the data under the
    drifted model, "viterbi" compares decoded paths against the true
    ones, "bw" refits the drifted model and reports how far it lands
    from the reference.
    """
    if kind not in ("forward", "viterbi", "bw"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    rows = []
    # The cells of a ratio come one after another and share one dataset,
    # which is checked and packed once for all of them. Taking them by
    # count, not by comparing datasets, keeps the next ratio's dataset
    # from being made before this one's cells are done.
    grid = sweep_cells(cfg)
    while cells := list(itertools.islice(grid, len(cfg.perturbations))):
        dataset, reference = cells[0].dataset, cells[0].reference
        models = [c.start.hmm if isinstance(c.start, LabeledHMM) else c.start for c in cells]
        lengths = dataset.lengths
        batch = _Packed.of(check_observations(dataset.obs, reference.n_symbols), lengths)
        if kind == "viterbi":
            # The true paths have the observations' lengths, so they pack
            # in the same row order.
            truths = _Packed.of(check_observations(
                dataset.states, reference.n_states, "states"), lengths)
            mean_seds = _mean_seds(models, batch, truths)
        else:
            batch = _bucket(batch)
        n = len(dataset)
        for i, (cell, model) in enumerate(zip(cells, models)):
            common = dict(kind=kind, ratio=cell.ratio, perturbation=cell.perturbation,
                          n_states=reference.n_states, n_seqs=n, seed=cell.seed)
            if kind == "forward":
                total = model._score_batch(batch)
                rows.append(MetricRow(logp_per_seq=total / n, **common))
            elif kind == "viterbi":
                rows.append(MetricRow(mean_sed=mean_seds[i], **common))
            else:
                fitted = model.copy()
                fitted.updates = cfg.bw_updates
                fitted._fit_batch(batch)
                rows.append(MetricRow(
                    logp_per_seq=fitted.history_[-1] / n,
                    rms_error=rms_nonzero(cell.reference.a, fitted.transmat),
                    bw_iters=fitted.n_iter_,
                    final_logp=fitted.history_[-1],
                    **common,
                ))
    return rows


def _mean_seds(models, batch, truths):
    """Each model's mean SED, over the sequences in input order, between its
    Viterbi paths of a packed batch and the true paths packed in the same
    row order. A run of rows takes one _sed_batch call for all P models,
    whose row r * P + p holds model p's path of row r (see
    _Packed.repeat). A run is about as large as one of _sed_batch's
    chunks, so the P paths and the repeated truths held for it stay small
    however many sequences the batch has."""
    copies = len(models)
    dists = np.empty((copies, len(batch.lengths)))
    for _, at, sub in batch.chunks(_SED_COST * copies * batch.lengths):
        paths = np.empty((len(sub.obs), copies), dtype=np.int64)
        for p, model in enumerate(models):
            paths[:, p] = _viterbi_batch(model, sub)[1]
        stacked = sub.like(truths.obs[at]).repeat(copies)
        dists[:, sub.order] = _sed_batch(stacked.like(paths.ravel()), stacked).reshape(-1, copies).T
    return [float(np.mean(d)) for d in dists]


# ----------------------------------------------------------------------
# files


def write_metrics(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            writer.writerow([
                _cell_text(getattr(row, col)) for col in METRIC_COLUMNS
            ])


def _cell_text(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_metrics(path):
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != METRIC_COLUMNS:
            raise ValueError(f"unexpected metrics header in {path}")
        for rec in reader:
            rows.append(MetricRow(**{
                f.name: _CELL_PARSERS[f.type](rec[f.name])
                if rec[f.name] or f.default is not None else None
                for f in fields(MetricRow)
            }))
    return rows


def write_dataset(dataset, path):
    """One CSV row per run; state and symbol sequences space-joined."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("run", "states", "obs", "outcome"))
        writer.writerows(zip(
            range(len(dataset)), _joined(dataset, dataset.states),
            _joined(dataset, dataset.obs), dataset.outcomes,
        ))


def _joined(dataset, flat):
    """Each run's values of a flat column as space-joined text; each
    distinct value is turned to text once."""
    values, inverse = np.unique(flat, return_inverse=True)
    words = np.array(list(map(str, values.tolist())), dtype=object)[inverse].tolist()
    return [" ".join(run) for run in dataset._per_run(words)]


def read_dataset(path):
    """A dataset from a file written by write_dataset."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]  # skip blank lines
    columns = {}
    for name in ("states", "obs", "outcome"):
        if name not in header:
            raise ValueError(f"{path} has no {name!r} column")
        i = header.index(name)
        columns[name] = [row[i] for row in rows]
    return Dataset._of(list(map(str.split, columns["states"])),
                       list(map(str.split, columns["obs"])), columns["outcome"])
