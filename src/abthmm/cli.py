"""Command line front end.

Subcommands map one-to-one onto the library: compile and decompile move
between tree files and model files, check reports the transition-matrix
constraints, count and enumerate cover the structure space, simulate
writes rollout datasets, sweep runs an experiment grid from a config
file, and table1 prints the divergence grid for the synthetic emission
family. Exit status is 0 on success, 1 on a domain error (message on
stderr), 2 on a usage error.
"""

import argparse
import csv
import functools
import math
import sys

from . import dsl
from .compiler import (
    check_constraints,
    compile_abt,
    count_bts,
    decompile,
    enumerate_structures,
    load_model,
    save_model,
)
from .divergence import divergence_table
from .simulate import (
    DEFAULT_SEED,
    SweepConfig,
    rollout_dataset,
    run_sweep,
    write_dataset,
    write_metrics,
)
from .tree import SUCCESS


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_compile(args):
    abt = dsl.parse(_read(args.tree))
    model = compile_abt(abt)
    save_model(model, args.output)
    print(
        f"{args.tree}: {abt.n_leaves} leaves -> {model.n_states} states, "
        f"{model.n_symbols} symbols -> {args.output}"
    )
    return 0


def cmd_check(args):
    model = load_model(args.model)
    report = check_constraints(model)
    flags = (
        ("upper diagonal", report.upper_diagonal),
        ("two transitions per row", report.two_nonzero_per_row),
        ("superdiagonal non-zero", report.superdiagonal_nonzero),
    )
    for name, value in flags:
        print(f"{name}: {'ok' if value else 'VIOLATED'}")
    for row, message in report.violations:
        print(f"  row {row}: {message}")
    return 0 if report.ok else 1


def cmd_count(args):
    print(count_bts(args.leaves))
    return 0


def _shape_line(shape):
    return " ".join(f"{orient}{far}" for orient, far in shape.rows)


def cmd_enumerate(args):
    lines = [_shape_line(s) for s in enumerate_structures(args.leaves)]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"{len(lines)} shapes -> {args.output}")
    else:
        for line in lines:
            print(line)
        print(f"total {len(lines)}")
    return 0


def cmd_simulate(args):
    abt = dsl.parse(_read(args.tree))
    dataset = rollout_dataset(abt, args.num, args.seed)
    write_dataset(dataset, args.output)
    wins = dataset.outcomes.count(SUCCESS)
    mean_len = len(dataset.states) / len(dataset)
    print(
        f"{len(dataset)} runs -> {args.output} "
        f"(success rate {wins / len(dataset):.4f}, mean length {mean_len:.2f})"
    )
    return 0


def cmd_sweep(args):
    cfg = SweepConfig.from_file(args.config)
    rows = run_sweep(cfg, args.kind)
    write_metrics(rows, args.output)
    print(f"{len(rows)} grid cells -> {args.output}")
    return 0


def _table_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.4f}"
    return str(value)


def cmd_table1(args):
    sizes = [int(x) for x in args.sizes.split(",")]
    ratios = [float(x) for x in args.ratios.split(",")]
    rows = divergence_table(sizes, ratios)
    header = ("ratio", "n_states", "kld", "jsd", "jsd_all")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        print(f"{len(rows)} rows -> {args.output}")
    print(("{:>8} " * 5).format(*header))
    for row in rows:
        print(("{:>8} " * 5).format(*(_table_cell(v) for v in row)))
    return 0


def cmd_decompile(args):
    model = load_model(args.model)
    abt = decompile(model)
    text = dsl.serialize(abt)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{args.model}: {abt.n_leaves} leaves -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser():
    """The argparse parser for every subcommand, built on the first call in a
    process and shared by every later one.

    Because main reuses it across calls, the parser must hold no per-call
    state: each parse_args returns a new namespace, and set_defaults only
    binds the cmd_* functions. Do not add actions that remember what they
    saw, and do not mutate the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="abthmm",
        description="Compile behavior trees to labeled Markov models and run "
        "decoding and identification experiments on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="tree file to model file")
    p.add_argument("tree")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="report the transition-matrix constraints")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="number of matrix shapes for l leaves")
    p.add_argument("-l", "--leaves", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list every matrix shape for l leaves")
    p.add_argument("-l", "--leaves", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("simulate", help="roll out a tree into a dataset CSV")
    p.add_argument("tree")
    p.add_argument("-n", "--num", type=int, default=15_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run an experiment grid from a config file")
    p.add_argument("--kind", choices=("forward", "viterbi", "bw"), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="divergence grid of the synthetic emissions")
    p.add_argument("--sizes", default="6,16")
    p.add_argument("--ratios", default="0,0.25,1,2.5,5")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("decompile", help="model file back to a tree file")
    p.add_argument("model")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decompile)

    return parser


def main(argv=None):
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit status; a usage error exits with 2 through argparse's SystemExit.
    It may be called any number of times in one process."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
