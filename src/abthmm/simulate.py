"""Monte-Carlo rollouts, model perturbation, and experiment sweeps.

A rollout samples the compiled model, which is one tree execution with
the leaf outcomes drawn from their success probabilities, recording the
visited model states and one symbol per visit. The sweep harness
measures how inference degrades as the evaluation model drifts from the
generating one: forward likelihood, decoded-path edit distance, and
refit error over a grid of emission ratios and perturbation strengths.
"""

import csv
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dsl
from .compiler import LabeledHMM, compile_abt
from .divergence import SyntheticEmissionSpec, synth_emissions
from .hmm import DiscreteHMM, _by_length, _sample_batch
from .tree import FAILURE, SUCCESS, TickLimitError, VISIT_CAP

DEFAULT_N_SEQUENCES = 15_000
DEFAULT_SEED = 12061

METRIC_COLUMNS = (
    "kind", "ratio", "perturbation", "n_states", "n_seqs", "seed",
    "logp_per_seq", "mean_sed", "rms_error", "bw_iters", "final_logp",
)


@dataclass(frozen=True)
class Run:
    states: tuple
    obs: tuple
    outcome: str


@dataclass
class Dataset:
    runs: list

    def __len__(self):
        return len(self.runs)

    def observations(self):
        return [np.asarray(r.obs, dtype=np.int64) for r in self.runs]

    def state_paths(self):
        return [np.asarray(r.states, dtype=np.int64) for r in self.runs]


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
    states, obs = states.tolist(), obs.tolist()
    runs = []
    lo = 0
    for hi in ends.tolist():
        outcome = SUCCESS if states[hi - 1] == model.o_s else FAILURE
        runs.append(Run(tuple(states[lo:hi]), tuple(obs[lo:hi]), outcome))
        lo = hi
    return Dataset(runs)


def estimate_ps(dataset, model):
    """Frequentist success-rate estimate per leaf.

    Each leaf visit is classified by where the run went next: the success
    target counts as a success, the failure target as a failure. Returns
    (estimates, counts); a leaf that was never visited gets nan and 0.
    """
    state_leaf = {q: g for g, q in enumerate(model.leaf_states) if q is not None}
    n_leaves = len(model.leaf_states)
    wins = np.zeros(n_leaves)
    counts = np.zeros(n_leaves, dtype=np.int64)
    for run in dataset.runs:
        states = run.states
        for t in range(len(states) - 1):
            q = states[t]
            if q not in state_leaf:
                continue
            e = model.edges[q]
            if e is None:
                raise ValueError(f"state {q} has no edge labels")
            g = state_leaf[q]
            counts[g] += 1
            if states[t + 1] == e.succ_target:
                wins[g] += 1
            elif states[t + 1] != e.fail_target:
                raise ValueError(
                    f"transition {q} -> {states[t + 1]} matches neither outcome"
                )
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
    rng = np.random.default_rng(spec.seed)
    a = new.hmm.transmat
    for i in range(model.n_states):
        if model.edges[i] is None:
            continue
        r = 1.0 if rng.integers(0, 2) == 1 else -1.0
        cols = np.nonzero(a[i])[0]
        if cols.size != 2:
            continue
        c1, c2 = int(cols[0]), int(cols[1])
        p1 = float(np.clip((1.0 + spec.p_tilde * r) * a[i, c1], 0.05, 0.95))
        a[i, c1] = p1
        a[i, c2] = 1.0 - p1
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


def with_synthetic_emissions(model, ratio, sigma=2.0, n_symbols=None):
    """Swap every emission row for the synthetic family at the given ratio.

    State i takes row i of the family, so neighboring states are exactly
    ratio * sigma apart on the symbol axis.
    """
    rows = synth_emissions(
        SyntheticEmissionSpec(model.n_states, ratio, sigma, n_symbols)
    )
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
        np.asarray(a, dtype=np.int64)[None, :], np.asarray(b, dtype=np.int64)[None, :]
    )[0])


def _sed_batch(a, b):
    """sed over a batch of pairs: a has shape (B, m), b has shape (B, n).

    The dynamic programme runs one row (one symbol of a) at a time,
    vectorized over the batch and along the row.
    """
    n = b.shape[1]
    if n == 0:
        raise ValueError("reference sequence is empty")
    j = np.arange(n + 1)
    row = np.broadcast_to(j, (b.shape[0], n + 1))
    for i in range(a.shape[1]):
        cur = np.empty_like(row)
        cur[:, 0] = i + 1
        np.minimum(row[:, 1:] + 1, row[:, :-1] + (a[:, i, None] != b), out=cur[:, 1:])
        # insertions: cur[k] = min over l <= k of cur[l] + (k - l)
        row = np.minimum.accumulate(cur - j, axis=1) + j
    return row[:, -1] / n


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
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        if "model" not in values:
            raise ValueError("config needs a model=<path> line")
        kwargs["model"] = values["model"]
        if "ratios" in values:
            kwargs["ratios"] = tuple(float(x) for x in values["ratios"].split(","))
        if "perturbations" in values:
            parts = []
            for x in values["perturbations"].split(","):
                x = x.strip()
                parts.append("random" if x == "random" else float(x))
            kwargs["perturbations"] = tuple(parts)
        if "n_sequences" in values:
            kwargs["n_sequences"] = int(values["n_sequences"])
        if "master_seed" in values:
            kwargs["master_seed"] = int(values["master_seed"])
        if "bw_updates" in values:
            if set(values["bw_updates"]) - set("ste"):
                raise ValueError(
                    f"bw_updates must only contain 's', 't', 'e': {values['bw_updates']!r}"
                )
            kwargs["bw_updates"] = values["bw_updates"]
        return cls(**kwargs)


@dataclass(frozen=True)
class MetricRow:
    kind: str
    ratio: float
    perturbation: object
    n_states: int
    n_seqs: int
    seed: int
    logp_per_seq: float = None
    mean_sed: float = None
    rms_error: float = None
    bw_iters: int = None
    final_logp: float = None


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


def sweep_cells(cfg, abt=None):
    """Yield one SweepCell per grid point.

    The dataset and the perturbation signs depend only on the ratio, so
    the perturbation levels within a ratio are directly comparable: they
    scale the same rows in the same directions and are scored on the same
    sequences.
    """
    if abt is None:
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


def run_sweep(cfg, kind, *, abt=None):
    """Evaluate every grid cell and return one MetricRow each.

    kind picks the measurement: "forward" scores the data under the
    drifted model, "viterbi" compares decoded paths against the true
    ones, "bw" refits the drifted model and reports how far it lands
    from the reference.
    """
    if kind not in ("forward", "viterbi", "bw"):
        raise ValueError(f"unknown sweep kind {kind!r}")
    rows = []
    dataset = None
    for cell in sweep_cells(cfg, abt=abt):
        if cell.dataset is not dataset:  # the cells of a ratio share one dataset
            dataset = cell.dataset
            sequences = dataset.observations()
            truths = dataset.state_paths() if kind == "viterbi" else None
        model = cell.start.hmm if isinstance(cell.start, LabeledHMM) else cell.start
        n = len(dataset)
        common = dict(
            kind=kind,
            ratio=cell.ratio,
            perturbation=cell.perturbation,
            n_states=cell.reference.n_states,
            n_seqs=n,
            seed=cell.seed,
        )
        if kind == "forward":
            total = model.score_total(sequences)
            rows.append(MetricRow(logp_per_seq=total / n, **common))
        elif kind == "viterbi":
            _, paths = model.decode_all(sequences)
            dists = np.empty(n)
            for idx in _by_length(truths).values():
                dists[idx] = _sed_batch(
                    np.stack([paths[i] for i in idx]), np.stack([truths[i] for i in idx])
                )
            rows.append(MetricRow(mean_sed=float(np.mean(dists)), **common))
        else:
            fitted = model.copy()
            fitted.updates = cfg.bw_updates
            fitted.fit(sequences)
            rows.append(MetricRow(
                logp_per_seq=fitted.history_[-1] / n,
                rms_error=rms_nonzero(cell.reference.a, fitted.transmat),
                bw_iters=fitted.n_iter_,
                final_logp=fitted.history_[-1],
                **common,
            ))
    return rows


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
            rows.append(MetricRow(
                kind=rec["kind"],
                ratio=float(rec["ratio"]),
                perturbation=(
                    "random" if rec["perturbation"] == "random"
                    else float(rec["perturbation"])
                ),
                n_states=int(rec["n_states"]),
                n_seqs=int(rec["n_seqs"]),
                seed=int(rec["seed"]),
                logp_per_seq=float(rec["logp_per_seq"]) if rec["logp_per_seq"] else None,
                mean_sed=float(rec["mean_sed"]) if rec["mean_sed"] else None,
                rms_error=float(rec["rms_error"]) if rec["rms_error"] else None,
                bw_iters=int(rec["bw_iters"]) if rec["bw_iters"] else None,
                final_logp=float(rec["final_logp"]) if rec["final_logp"] else None,
            ))
    return rows


def write_dataset(dataset, path):
    """One CSV row per run; state and symbol sequences space-joined."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("run", "states", "obs", "outcome"))
        for i, run in enumerate(dataset.runs):
            writer.writerow((
                i,
                " ".join(str(s) for s in run.states),
                " ".join(str(o) for o in run.obs),
                run.outcome,
            ))


def read_dataset(path):
    runs = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            runs.append(Run(
                tuple(int(x) for x in rec["states"].split()),
                tuple(int(x) for x in rec["obs"].split()),
                rec["outcome"],
            ))
    return Dataset(runs)
