"""Paired benchmark runs of a base commit against the working tree.

Runs ``perfbench/run.py --trace 0`` alternately on a copy of a base commit
and on the working tree, for every workload and seed given, and writes
each end-to-end metric's runs, medians, quartiles and win counts to a JSON
file. Run it from anywhere inside the repository:

    python3 tools/bench_pairs.py --base HEAD --workload decode \\
        --seed 12061 40213 --pairs 10 --out BENCH_packed.json

Pairs run one process at a time; the side that runs first alternates from
pair to pair, so a slow stretch of a shared host falls on both sides. The
base copy is extracted from ``git archive`` into a temporary directory.
Both sides must hold the same ``perfbench/`` and ``BENCHMARK.json``: a
gain is only shown by the same benchmark code measuring both. Each side's
outputs are kept apart (``output_digests``, ``same_outputs``), and a
warning goes to stderr when the change's differ from the base's. Results for
a workload and seed already in the output file are replaced, the others
kept, so one file can gather runs made by several calls. The file is
written again after each workload and seed, so a run that fails late keeps
the results measured before it. Uses the standard library only.
"""

import argparse
import filecmp
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BENCH_FILES = ("perfbench", "BENCHMARK.json")


def perfbench_run(root):
    """perfbench/run.py as a module, for its workload names and seed."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    p.add_argument("--workload", nargs="+", required=True, choices=bench.WORKLOADS)
    p.add_argument("--seed", nargs="+", type=int, default=[bench.DEFAULT_SEED])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="JSON file to write (merged if it exists)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    return args


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, capture_output=True, check=True).stdout


def extract(root, rev, dest):
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def same_tree(cmp):
    """Whether a filecmp.dircmp found no difference at any depth."""
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    return all(same_tree(sub) for sub in cmp.subdirs.values())


def same_benchmark(root, base_dir):
    ignore = filecmp.DEFAULT_IGNORES + [".bench_work"]
    return all(
        same_tree(filecmp.dircmp(root / name, base_dir / name, ignore=ignore))
        if (root / name).is_dir() else filecmp.cmp(root / name, base_dir / name, shallow=False)
        for name in BENCH_FILES
    )


def run_once(cwd, workload, seed):
    """One benchmark run at run.py's default length; returns its detail
    line and its summary line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark run in {cwd} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs, declared):
    """Per metric: each side's runs, median and quartiles, and the pairs
    the change wins and loses (ties count for neither)."""
    out = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [r["summary"]["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        entry = {}
        for side, values in sides.items():
            q1, q3 = quartiles(values)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        pairs = list(zip(sides["parent"], sides["change"]))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        losses = sum((c > p) if lower else (c < p) for p, c in pairs)
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        worse = (change - parent) if lower else (parent - change)
        entry.update({
            "change_wins": wins,
            "change_losses": losses,
            # Bounds in BENCHMARK.json are relative to the parent's median.
            "within_bound": worse <= m["bound"] * abs(parent),
            # A gain shows when the change wins nine tenths of the pairs and
            # the medians differ by more than the parent's quartile spread.
            "gain_shown": (wins >= 0.9 * len(sides["parent"])
                           and -worse > entry["parent"]["q3"] - entry["parent"]["q1"]),
            "parent_runs": sides["parent"],
            "change_runs": sides["change"],
        })
        out[name] = entry
    return out


def output_digests(runs, label):
    """Each side's distinct outputs, as sorted JSON texts, and whether the
    two sides made the same set of outputs; warns on stderr, naming
    ``label``, when they did not."""
    digests = {side: sorted({json.dumps(r["detail"]["outputs"], sort_keys=True) for r in side_runs})
               for side, side_runs in runs.items()}
    same = digests["parent"] == digests["change"]
    if not same:
        print(f"warning: {label}: the change's outputs differ from the base's",
              file=sys.stderr, flush=True)
    return digests, same


def fastest_units(runs):
    """Median over a side's runs of each unit's fastest time in the run."""
    out = {}
    for side, side_runs in runs.items():
        per_run = []
        for r in side_runs:
            fastest = {}
            for p in r["detail"]["passes"]:
                for unit, s in p["units"].items():
                    fastest[unit] = min(s, fastest.get(unit, s))
            per_run.append(fastest)
        for unit in per_run[0]:
            out.setdefault(unit, {})[side] = statistics.median(f[unit] for f in per_run)
    return out


def write(out_path, doc, results, base_commit, machine):
    doc.update({
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "method": "tools/bench_pairs.py: the base commit (a git archive copy) and the working "
                  "tree run one at a time in alternating pairs, the side that runs first "
                  "alternating from pair to pair. Median and quartiles (statistics.quantiles, "
                  "n=4) over each side's runs; change_wins/change_losses count the pairs where "
                  "the change reads better/worse; fastest_unit_s is the median over runs of "
                  "each run's fastest time of the unit.",
        "parent_commit": base_commit,
        "machine": machine,
        "results": [results[k] for k in sorted(results)],
    })
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    args = parse_args(argv, perfbench_run(root))
    base_commit = git(root, "rev-parse", args.base).decode().strip()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
    results = {(r["workload"], r["seed"]): r for r in doc.get("results", [])}
    machine = doc.get("machine")
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_dir = Path(tmp)
        extract(root, base_commit, base_dir)
        if not same_benchmark(root, base_dir):
            print("error: perfbench/ or BENCHMARK.json differ between the base and the "
                  "working tree", file=sys.stderr)
            return 2
        for workload in args.workload:
            for seed in args.seed:
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        cwd = base_dir if side == "parent" else root
                        detail, summary = run_once(cwd, workload, seed)
                        runs[side].append({"detail": detail, "summary": summary})
                        wall = summary["metrics"]["wall_s"]["value"]
                        print(f"{workload} seed {seed} pair {i + 1}/{args.pairs} {side}: "
                              f"wall_s {wall:.4f}", file=sys.stderr, flush=True)
                machine = machine or runs["parent"][0]["detail"]["env"]
                digests, same = output_digests(runs, f"{workload} seed {seed}")
                results[(workload, seed)] = {
                    "workload": workload,
                    "seed": seed,
                    "pairs": args.pairs,
                    "all_correct": all(r["summary"]["correct"] for rs in runs.values() for r in rs),
                    "metrics": summarize(runs, declared),
                    "fastest_unit_s": fastest_units(runs),
                    "output_digests": digests,
                    "same_outputs": same,
                }
                # Written after every workload and seed, so a later failing
                # run keeps the pairs already measured.
                write(out_path, doc, results, base_commit, machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
