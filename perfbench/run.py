"""Benchmark of abthmm: one workload per run, untraced or traced.

Run it from the root of a source checkout:

    python3 perfbench/run.py --workload decode --seed 12061 --seconds 35 --trace 0

``--workload all`` runs the three workloads one after another, each in a
fresh process. Workloads (see NOTES.md for why each exists):

    decode    abthmm sweep --kind viterbi on models/patrol.abt
    score     abthmm sweep --kind forward on models/pick_place.abt
    simulate  abthmm simulate, then the library quick-start, on
              trees/parallel_retry.abt

The package is imported from ``src/`` of the checkout, after its modules
are byte-compiled. The workload runs in this process as repeated passes
over the same inputs until ``--seconds`` of passes have been measured. A
pass is made of units (a grid row of a sweep, a stage of ``simulate``),
each timed on its own. With ``--trace 0`` the run also times set-up in
fresh interpreters between passes, and reports the end-to-end metrics
declared in BENCHMARK.json. ``wall_s`` adds up each unit's fastest time
over the run's passes, and ``setup_s`` is the fastest set-up: other work
on a shared host only ever adds time, so the fastest of many short
timings is the steadiest estimate of what the program itself costs. With
``--trace 1`` every other pass runs with
spans around the package's public functions (see spans.py) and the run
reports the per-layer metrics, medians over the traced passes, and writes
the spans to ``.bench_work/``. Every pass's outputs are checked, and a
fixed subsample is checked against reference algorithms once per run.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds the environment, the
raw per-pass, per-unit and per-probe values and the output digests.
"""

import argparse
import compileall
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("decode", "score", "simulate")
DEFAULT_SEED = 12061  # the sweep master seed
HELDOUT_SEED = 40213  # kept out of tuning, for confirming a later claim
SETUP_PROBES = 7  # at least, per run
PROBE_ROUNDS = 8  # at most, per run, two probes each, spread over its passes

# One fresh interpreter's set-up: start, import, parse and compile the
# workload's tree. The parent times the whole process; the probe reports
# the import and compile parts.
PROBE = """
import sys, time
t0 = time.perf_counter()
import abthmm
t1 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    abthmm.compile_abt(abthmm.parse(fh.read()))
print(t1 - t0, time.perf_counter() - t1)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}, the sweep master seed; "
                   f"{HELDOUT_SEED} is held out for confirming a claim)")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the workload's input sizes (the smoke test uses a small one)")
    return p.parse_args(argv)


def probe_setup(src, tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PROBE, tree], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    wall = time.perf_counter() - start
    import_s, compile_s = (float(x) for x in done.stdout.split())
    return {"wall_s": wall, "import_s": import_s, "compile_s": compile_s}


def measure(workload, seconds, tracer, probe):
    """Run passes until they add up to ``seconds``.

    Untraced runs make at least three passes, and call ``probe`` twice
    after a pass once every ``seconds / PROBE_ROUNDS`` of passes, so set-up
    is sampled over the same stretch of time however long a pass takes.
    Traced runs alternate an untraced and a traced pass, at least two of
    each, so the tracing overhead is measured under the same machine load.
    Garbage is collected before each pass, so no pass pays for another's.
    """
    min_passes = 3 if tracer is None else 4
    passes, verdicts = [], []
    next_probe = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if traced:
                tracer.call(workload.run_pass)
            else:
                workload.run_pass()
        except Exception:  # noqa: BLE001 - a failed pass fails its operations
            traceback.print_exc()
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.remove()
        passes.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "traced": traced,
                       "units": dict(workload.unit_s)})
        verdicts.extend(workload.check_pass())
        measured = sum(p["wall_s"] for p in passes)
        if tracer is None and measured >= next_probe:
            probe()
            probe()
            next_probe = measured + seconds / PROBE_ROUNDS
        if len(passes) >= min_passes and measured >= seconds:
            return passes, verdicts


def fastest_units(passes):
    """Sum over a pass's units of each unit's fastest time in ``passes``."""
    fastest = {}
    for p in passes:
        for name, seconds in p["units"].items():
            fastest[name] = min(seconds, fastest.get(name, seconds))
    return sum(fastest.values())


def run_all(args):
    """Run every workload in its own process; the worst exit status wins."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", str(args.scale),
        ], check=False)
        status = max(status, done.returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "abthmm" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of an abthmm checkout (src/abthmm and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: src/ does not byte-compile", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import abthmm
    import envinfo
    import spans
    import workloads

    if Path(abthmm.__file__).resolve().parent != (src / "abthmm").resolve():
        print(f"error: imported abthmm from {abthmm.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, args.scale, workdir)
        setup = []
        tracer = spans.Tracer(abthmm, workload.terminals) if args.trace else None
        passes, verdicts = measure(workload, args.seconds, tracer,
                                   lambda: setup.append(probe_setup(src, workload.tree)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(probe_setup(src, workload.tree))
        try:
            oracle = workload.oracle_checks()
        except Exception:  # noqa: BLE001 - counts as one failed operation
            traceback.print_exc()
            oracle = [False]
        details = workload.details()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts) + len(oracle)
    failed = verdicts.count(False) + oracle.count(False)
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        per_pass = tracer.pass_metrics()
        computed = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        computed["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        computed["trace.overhead_frac"] = traced_wall / wall - 1.0
        declared = spec["per_layer"]
        spans_path = root / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
        details["spans_file"] = str(spans_path.relative_to(root))
        details["layers"] = computed
    else:
        computed = {
            "wall_s": fastest_units(plain),
            "setup_s": min(p["wall_s"] for p in setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_ops_frac": 1.0 - failed / attempted,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes in {sum(p['wall_s'] for p in passes):.1f} s, "
          f"untraced pass median {wall:.4g} s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ops_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "env": envinfo.collect(args.seed),
        "passes": passes, "setup": setup,
        "ops": {"pass_verdicts": len(verdicts), "oracle": oracle,
                "failed_ops_frac": failed / attempted},
        "outputs": details,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
