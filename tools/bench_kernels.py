"""Fastest-of-N times of the sampler and the Baum-Welch kernels on fixed inputs.

Times ``hmm._sample_batch``, ``hmm._forward_batch``,
``hmm._backward_batch`` and ``DiscreteHMM._expectation``
(``updates="t"``) on two inputs and prints one JSON document:

- ``simulate_fit``: the batch ``fit`` runs on in the ``simulate`` benchmark
  workload, 1 500 runs of ``perfbench/trees/parallel_retry.abt`` from seed
  12061 with duplicates merged, under the compiled model;
- ``patrol``: the dataset of the default sweep's cell (ratio 0.25,
  perturbation 0): 15 000 runs of ``models/patrol.abt`` under its synthetic
  emissions at ratio 0.25, master seed 12061, duplicates merged, under the
  reference model.

``sample_s`` times drawing the input's runs again from its model, with the
same absorbing states and visit cap as ``rollout_dataset``, each call on
its own generator seeded with the same seed beforehand.

The forward and backward passes are timed over the batch's chunks, with the
emissions gathered beforehand (the backward pass overwrites them, so it
runs on a fresh copy, made outside the timed call); ``_expectation`` is
timed whole.

On ``simulate_fit`` only, ``copy_s`` times ``labeled.hmm.copy()`` and
``fit_peak_mb`` is the ``tracemalloc`` peak of one copy plus a 10-iteration
``updates="t"`` fit of the input's runs: the benchmark's ``fit`` stage.

``cli_call_s`` times the fixed cost of one in-process command line apart
from the kernels: ``cli.main(["count", "-l", "3"])`` with stdout captured,
after one untimed call. ``compile_s`` times ``compile_abt`` of
``perfbench/trees/parallel_retry.abt``, parsed beforehand: one parallel
block of three children, 8 product states and an 85 184-symbol emission
matrix. Run it from anywhere inside the repository:

    python3 tools/bench_kernels.py --repeat 20

``--scale`` multiplies both run counts (a smoke test uses a tiny one).
Uses numpy and the package only.
"""

import argparse
import contextlib
import io
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import abthmm
from abthmm import cli, hmm
from abthmm.tree import VISIT_CAP

SEED = 12061
PARALLEL_RETRY = ROOT / "perfbench" / "trees" / "parallel_retry.abt"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=20, help="timed calls per kernel (default 20)")
    p.add_argument("--scale", type=float, default=1.0, help="run-count multiplier (default 1)")
    args = p.parse_args(argv)
    if args.repeat < 1 or not args.scale > 0:
        p.error("--repeat must be at least 1 and --scale positive")
    return args


def fastest(fn, repeat, setup=None):
    """The shortest of ``repeat`` timed calls of fn, each after an untimed setup()."""
    best = float("inf")
    for _ in range(repeat):
        if setup:
            setup()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def inputs(scale):
    """(name, labeled model, observation sequences) for each fixed input."""
    with open(PARALLEL_RETRY, encoding="utf-8") as fh:
        abt = abthmm.parse(fh.read())
    data = abthmm.rollout_dataset(abt, max(2, round(1500 * scale)), SEED)
    yield "simulate_fit", abthmm.compile_abt(abt), data.observations()

    cfg = abthmm.SweepConfig(model=str(ROOT / "models" / "patrol.abt"), ratios=(0.25,),
                             perturbations=(0.0,), n_sequences=max(2, round(15_000 * scale)),
                             master_seed=SEED)
    cell = next(abthmm.sweep_cells(cfg))
    yield "patrol", cell.reference, cell.dataset.observations()


def time_kernels(labeled, sequences, repeat):
    runs = len(sequences)
    batch = hmm._bucket(hmm._pack(sequences, labeled.n_symbols))
    model = labeled.hmm.copy()
    model.updates = "t"
    subs = model._chunks(batch)
    emis = [hmm._emissions(model, sub.obs) for sub in subs]
    scales = [hmm._forward_batch(model, sub, e)[2] for sub, e in zip(subs, emis)]
    work = [e.copy() for e in emis]

    def forward():
        for sub, e in zip(subs, emis):
            hmm._forward_batch(model, sub, e)

    def fresh():
        for w, e in zip(work, emis):
            np.copyto(w, e)

    def backward():
        for sub, w, s in zip(subs, work, scales):
            hmm._backward_batch(model, sub, w, s)

    rngs = iter([np.random.default_rng(SEED) for _ in range(repeat)])  # a fresh one a call

    def sample():
        hmm._sample_batch(model, runs, next(rngs), (labeled.o_s, labeled.o_f), VISIT_CAP + 1)

    return {
        "runs": runs,
        "rows": len(batch.lengths),
        "positions": len(batch.obs),
        "steps": len(batch.sizes),
        "states": model.n_states,
        "chunks": len(subs),
        "sample_s": fastest(sample, repeat),
        "forward_s": fastest(forward, repeat),
        "backward_s": fastest(backward, repeat, fresh),
        "expectation_s": fastest(lambda: model._expectation(subs), repeat),
    }


def time_copy_fit(labeled, sequences, repeat):
    def copy_fit():
        fitted = labeled.hmm.copy()
        fitted.updates, fitted.max_iter = "t", 10
        fitted.fit(sequences)

    tracemalloc.start()
    try:
        copy_fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"copy_s": fastest(labeled.hmm.copy, repeat), "fit_peak_mb": peak / 1e6}


def time_cli_call(repeat):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["count", "-l", "3"])

    call()
    return fastest(call, repeat)


def time_compile(repeat):
    with open(PARALLEL_RETRY, encoding="utf-8") as fh:
        abt = abthmm.parse(fh.read())
    return fastest(lambda: abthmm.compile_abt(abt), repeat)


def main(argv=None):
    args = parse_args(argv)
    doc = {
        "command": "python3 tools/bench_kernels.py " + " ".join(sys.argv[1:] if argv is None
                                                                else argv),
        "method": "fastest of --repeat calls, time.perf_counter; sample_s draws the input's "
                  "runs on a freshly seeded generator; forward_s and backward_s sum the "
                  "batch's chunks with the emissions gathered beforehand; cli_call_s is an "
                  "in-process cli.main(['count', '-l', '3']) after one untimed call; "
                  "compile_s is compile_abt of an already parsed tree; fit_peak_mb is the "
                  "tracemalloc peak of a copy and a 10-iteration transition fit",
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeat": args.repeat,
        "scale": args.scale,
        "seed": SEED,
        "cli_call_s": time_cli_call(args.repeat),
        "compile_s": time_compile(args.repeat),
        "inputs": {},
    }
    for name, model, sequences in inputs(args.scale):
        entry = doc["inputs"][name] = time_kernels(model, sequences, args.repeat)
        if name == "simulate_fit":
            entry.update(time_copy_fit(model, sequences, args.repeat))
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
