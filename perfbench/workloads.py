"""The three benchmark workloads and the checks on their outputs.

A workload is prepared once, outside the timed region, then run as
repeated passes. Each pass (``run_pass``) drives the program's own entry
points on inputs made from the seed, in a fixed list of units (a grid row
of a sweep, a stage of ``simulate``), times each unit, and keeps what they
produced;
``check_pass`` turns that into one pass/fail verdict per operation (a grid
cell or a pipeline stage), and ``oracle_checks`` compares a fixed
subsample against the reference algorithms in ``oracles``. Neither check
is timed.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import time
from pathlib import Path

import numpy as np

import abthmm
from abthmm import cli
from abthmm.simulate import SweepConfig, sweep_cells

from oracles import LogModel, close, edit_distance

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
TREES = HERE / "trees"

# Sequences per grid cell taken by the subsample oracle checks. A smaller
# n_sequences draws the same leading sequences, so these are the first
# sequences of every cell the sweep itself scores.
ORACLE_SEQUENCES = 20

KIND_COLUMNS = {
    "forward": ("logp_per_seq",),
    "viterbi": ("mean_sed",),
}


def _quiet(fn, *args):
    """Call fn with the CLI's progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _verdict(check, *args):
    """True when the check passes; a check that raises counts as failed."""
    try:
        return bool(check(*args))
    except Exception:  # noqa: BLE001 - any raise is this operation's failure
        return False


def _terminals(tree_path):
    model = _compile(tree_path)
    return frozenset((model.o_s, model.o_f))


def _compile(tree_path):
    with open(tree_path, "r", encoding="utf-8") as fh:
        return abthmm.compile_abt(abthmm.parse(fh.read()))


def _predict_sed(hmm, sequences, truths):
    paths = [hmm.predict(o) for o in sequences]
    return paths, [abthmm.sed(p, t) for p, t in zip(paths, truths)]


class SweepWorkload:
    """``abthmm sweep --kind <kind>`` over a config kept in ``configs/``.

    A pass runs the grid one ratio row at a time, one CLI call per row, so
    each row is timed on its own. A row's cells get the same seeds, data
    and perturbations as in a sweep over the whole grid, since the sweep
    derives them from the master seed, the ratio and the perturbation.
    """

    def __init__(self, kind, template, seed, scale, workdir):
        self.kind = kind
        base = SweepConfig.from_file(template)
        n = max(2, round(base.n_sequences * scale))
        self.cfg = dataclasses.replace(base, n_sequences=n, master_seed=seed)
        kept = [
            line for line in template.read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() not in ("n_sequences", "master_seed", "ratios")
        ]
        kept += [f"n_sequences = {n}", f"master_seed = {seed}"]
        self.units = []
        for i, ratio in enumerate(self.cfg.ratios):
            cfg_path = workdir / f"{template.stem}-row{i}.cfg"
            cfg_path.write_text("\n".join(kept + [f"ratios = {ratio!r}"]) + "\n",
                                encoding="utf-8")
            self.units.append((f"ratio={ratio:g}", cfg_path,
                               workdir / f"{template.stem}-row{i}-metrics.csv"))
        self.tree = self.cfg.model
        self.terminals = _terminals(self.tree)
        self.grid = [(float(r), str(p)) for r in self.cfg.ratios for p in self.cfg.perturbations]
        self.digests = []
        self.codes = {}
        self.unit_s = {}

    def run_pass(self):
        self.codes, self.unit_s = {}, {}
        for name, cfg_path, out_path in self.units:
            if out_path.exists():
                os.remove(out_path)
            argv = ["sweep", "--kind", self.kind, "--config", str(cfg_path),
                    "-o", str(out_path)]
            t0 = time.perf_counter()
            self.codes[name] = _quiet(cli.main, argv)
            self.unit_s[name] = time.perf_counter() - t0

    def check_pass(self):
        """One verdict per grid cell: the row exists and its values are finite."""
        recs, digest = [], hashlib.sha256()
        for name, _, out_path in self.units:
            if self.codes.get(name) != 0 or not out_path.is_file():
                return [False] * len(self.grid)
            with open(out_path, "rb") as fh:
                digest.update(fh.read())
            with open(out_path, "r", encoding="utf-8", newline="") as fh:
                recs.extend(csv.DictReader(fh))
        self.digests.append(digest.hexdigest())
        rows = {(float(rec["ratio"]), rec["perturbation"]): rec for rec in recs}
        if len(recs) != len(self.grid) or len(rows) != len(recs):
            return [False] * len(self.grid)
        verdicts = []
        for key in self.grid:
            rec = rows.get(key)
            ok = (
                rec is not None
                and rec["kind"] == self.kind
                and int(rec["n_seqs"]) == self.cfg.n_sequences
                and all(rec[col] and math.isfinite(float(rec[col]))
                        for col in KIND_COLUMNS[self.kind])
            )
            verdicts.append(ok)
        return verdicts

    def oracle_checks(self):
        """One verdict per grid cell on its first ORACLE_SEQUENCES sequences."""
        small = dataclasses.replace(self.cfg, n_sequences=ORACLE_SEQUENCES)
        verdicts = []
        for cell in sweep_cells(small):
            model = getattr(cell.start, "hmm", cell.start)
            verdicts.append(_verdict(self._check_cell, model, cell.dataset))
        return verdicts

    def _check_cell(self, model, dataset):
        ref = LogModel(model)
        obs = dataset.observations()
        if self.kind == "forward":
            return close(model.score_total(obs), math.fsum(ref.forward(o) for o in obs))
        for o, truth in zip(obs, dataset.state_paths()):
            logp, path = model.decode(o)
            best = ref.viterbi(o)
            if not (close(logp, best) and close(ref.path_score(path, o), best)):
                return False
            if abthmm.sed(path, truth) != edit_distance(path, truth) / len(truth):
                return False
        return True

    def details(self):
        return {"metrics_csv_sha256": sorted(set(self.digests)),
                "n_sequences": self.cfg.n_sequences}


class SimulateWorkload:
    """The ``abthmm simulate`` path, then the library quick-start, on the
    parallel plus retry tree in ``trees/``."""

    STAGES = ("simulate", "compile", "read_dataset", "estimate_ps",
              "score_total", "predict_sed", "fit")
    N_RUNS = 1500
    N_DECODE = 50
    FIT_ITERS = 10

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.tree = os.path.relpath(TREES / "parallel_retry.abt")
        self.n_runs = max(2, round(self.N_RUNS * scale))
        self.n_decode = max(1, round(self.N_DECODE * scale))
        self.csv_path = workdir / "simulate-runs.csv"
        self.copy_path = workdir / "simulate-copy.csv"
        self.terminals = _terminals(self.tree)
        self.digests = []
        self.out, self.unit_s = {}, {}

    def run_pass(self):
        """Run the stages in order, timing each; a stage that raises leaves
        its own and the later stages' outputs missing, which fails them."""
        self.out, self.unit_s = {}, {}
        if self.csv_path.exists():
            os.remove(self.csv_path)
        tree, csv_path = self.tree, str(self.csv_path)
        argv = ["simulate", tree, "-n", str(self.n_runs), "--seed", str(self.seed),
                "-o", csv_path]
        self._stage("simulate", _quiet, cli.main, argv)
        model = self._stage("compile", _compile, tree)
        data = self._stage("read_dataset", abthmm.read_dataset, csv_path)
        self._stage("estimate_ps", abthmm.estimate_ps, data, model)
        obs = self._stage("observations", data.observations)
        self._stage("score_total", model.hmm.score_total, obs)
        self._stage("predict_sed", lambda: _predict_sed(
            model.hmm, obs[: self.n_decode], data.state_paths()[: self.n_decode]))
        self._stage("fit", self._fit, model.hmm, obs)

    def _stage(self, name, fn, *args):
        t0 = time.perf_counter()
        self.out[name] = result = fn(*args)
        self.unit_s[name] = time.perf_counter() - t0
        return result

    def _fit(self, hmm, obs):
        fitted = hmm.copy()
        fitted.updates = "t"
        fitted.max_iter = self.FIT_ITERS
        return fitted.fit(obs)

    def check_pass(self):
        out = self.out
        return [
            stage in out and _verdict(getattr(self, "_check_" + stage), out)
            for stage in self.STAGES
        ]

    def _check_simulate(self, out):
        if out["simulate"] != 0:
            return False
        self.digests.append(_sha256(self.csv_path))
        return True

    def _check_compile(self, out):
        m = out["compile"]
        return (
            np.allclose(m.a.sum(axis=1), 1.0) and np.allclose(m.b.sum(axis=1), 1.0)
            and m.a[m.o_s, m.o_s] == 1.0 and m.a[m.o_f, m.o_f] == 1.0
        )

    def _check_read_dataset(self, out):
        """The file holds n valid runs, and writing it back gives the same bytes."""
        data, m = out["read_dataset"], out["compile"]
        if len(data) != self.n_runs:
            return False
        for run in data.runs:
            s = np.asarray(run.states)
            if (len(run.obs) != len(s) or s[-1] not in (m.o_s, m.o_f)
                    or np.any(m.a[s[:-1], s[1:]] <= 0)
                    or max(run.obs) >= m.n_symbols or min(run.obs) < 0):
                return False
        abthmm.write_dataset(data, str(self.copy_path))
        same = _sha256(self.copy_path) == _sha256(self.csv_path)
        os.remove(self.copy_path)
        return same

    def _check_estimate_ps(self, out):
        ps_hat, counts = out["estimate_ps"]
        seen = counts > 0
        return (
            counts.sum() > 0 and np.all(np.isnan(ps_hat[~seen]))
            and np.all((ps_hat[seen] >= 0) & (ps_hat[seen] <= 1))
        )

    def _check_score_total(self, out):
        total = out["score_total"]
        return math.isfinite(total) and total < 0

    def _check_predict_sed(self, out):
        paths, dists = out["predict_sed"]
        obs = out["read_dataset"].observations()
        return (
            len(paths) == self.n_decode
            and all(len(p) == len(o) for p, o in zip(paths, obs))
            and all(math.isfinite(d) and d >= 0 for d in dists)
        )

    def _check_fit(self, out):
        fitted, m = out["fit"], out["compile"]
        h = fitted.history_
        return (
            1 <= fitted.n_iter_ <= self.FIT_ITERS
            and all(b >= a - 1e-9 * abs(a) for a, b in zip(h, h[1:]))
            and np.allclose(fitted.transmat.sum(axis=1), 1.0)
            and np.all(fitted.transmat[m.a == 0] == 0)
        )

    def oracle_checks(self):
        """Round trip against a fresh rollout, then forward, Viterbi and SED
        on the first runs against the reference algorithms."""
        with open(self.tree, "r", encoding="utf-8") as fh:
            abt = abthmm.parse(fh.read())
        model = abthmm.compile_abt(abt)
        fresh = abthmm.rollout_dataset(abt, self.n_runs, self.seed, model=model)
        k = min(self.n_decode, ORACLE_SEQUENCES)
        obs, truths = fresh.observations()[:k], fresh.state_paths()[:k]
        ref = LogModel(model.hmm)
        hmm = model.hmm

        def round_trip():
            return abthmm.read_dataset(str(self.csv_path)).runs == fresh.runs

        def forward():
            return close(hmm.score_total(obs), math.fsum(ref.forward(o) for o in obs))

        def viterbi():
            for o in obs:
                logp, path = hmm.decode(o)
                best = ref.viterbi(o)
                if not (close(logp, best) and close(ref.path_score(path, o), best)):
                    return False
            return True

        def sed():
            paths = [hmm.predict(o) for o in obs]
            return all(
                abthmm.sed(p, t) == edit_distance(p, t) / len(t)
                for p, t in zip(paths, truths)
            )

        return [_verdict(check) for check in (round_trip, forward, viterbi, sed)]

    def details(self):
        return {"dataset_csv_sha256": sorted(set(self.digests)),
                "n_runs": self.n_runs, "n_decode": self.n_decode}


SWEEPS = {"decode": "viterbi", "score": "forward"}


def make(name, seed, scale, workdir):
    if name == "simulate":
        return SimulateWorkload(seed, scale, workdir)
    return SweepWorkload(SWEEPS[name], CONFIGS / f"{name}.cfg", seed, scale, workdir)
