"""tools/bench_pairs.py: argument checks, the pair summary and partial writes."""

import importlib.util
import json
from types import SimpleNamespace

import pytest

from conftest import REPO


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool()
BENCH = SimpleNamespace(WORKLOADS=("decode", "score"), DEFAULT_SEED=7)
DECLARED = [
    {"name": "wall_s", "better": "lower", "bound": 0.1},
    {"name": "ok_ops_frac", "better": "higher", "bound": 0.001},
]


def runs_of(values):
    """Hand-made runs, one per value: a dict of metric values."""
    return [{"summary": {"metrics": {k: {"value": v} for k, v in vals.items()}}}
            for vals in values]


def test_pairs_below_one_are_a_usage_error(capsys):
    for pairs in ("0", "-2"):
        with pytest.raises(SystemExit) as err:
            bench_pairs.parse_args(["--workload", "score", "--pairs", pairs, "--out", "x"], BENCH)
        assert err.value.code == 2
        assert "--pairs must be at least 1" in capsys.readouterr().err
    args = bench_pairs.parse_args(["--workload", "score", "--pairs", "1", "--out", "x"], BENCH)
    assert args.pairs == 1 and args.seed == [7]


def test_summarize_counts_wins_and_checks_bound_and_gain():
    wall = ([1.0, 1.1, 1.2, 0.9, 1.0], [0.5, 0.6, 1.2, 0.5, 0.6])  # one tie
    ok = ([1.0, 1.0, 0.9, 1.0, 0.8], [1.0, 0.9, 1.0, 1.0, 1.0])  # two ties
    runs = {
        side: runs_of({"wall_s": w, "ok_ops_frac": o} for w, o in zip(wall[i], ok[i]))
        for i, side in enumerate(("parent", "change"))
    }
    out = bench_pairs.summarize(runs, DECLARED)

    w = out["wall_s"]
    assert (w["change_wins"], w["change_losses"]) == (4, 0)
    assert w["parent"]["median"] == 1.0 and w["change"]["median"] == 0.6
    assert (w["parent"]["q1"], w["parent"]["q3"]) == pytest.approx((0.95, 1.15))
    assert w["parent_runs"] == wall[0] and w["change_runs"] == wall[1]
    assert w["within_bound"]
    assert not w["gain_shown"]  # 4 of 5 pairs is under nine tenths

    o = out["ok_ops_frac"]
    assert (o["change_wins"], o["change_losses"]) == (2, 1)
    assert o["within_bound"]  # the medians are equal
    assert not o["gain_shown"]


def test_summarize_shows_a_gain_and_flags_a_bound():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [0.6] * 10
    slower = [1.2] * 9 + [0.5]
    out = bench_pairs.summarize({"parent": runs_of({"wall_s": v} for v in parent),
                                 "change": runs_of({"wall_s": v} for v in faster)}, DECLARED[:1])
    assert out["wall_s"]["change_wins"] == 10 and out["wall_s"]["gain_shown"]
    out = bench_pairs.summarize({"parent": runs_of({"wall_s": v} for v in parent),
                                 "change": runs_of({"wall_s": v} for v in slower)}, DECLARED[:1])
    w = out["wall_s"]
    assert (w["change_wins"], w["change_losses"]) == (1, 9)
    assert not w["within_bound"] and not w["gain_shown"]  # 20 % worse against a 10 % bound
    lower_ok = bench_pairs.summarize(
        {"parent": runs_of({"ok_ops_frac": v} for v in [1.0] * 10),
         "change": runs_of({"ok_ops_frac": v} for v in [0.99] * 10)}, DECLARED[1:])
    assert not lower_ok["ok_ops_frac"]["within_bound"]  # 1 % lower against a 0.1 % bound
    assert lower_ok["ok_ops_frac"]["change_losses"] == 10


def test_output_digests_are_kept_per_side(capsys):
    def runs_with(outputs):
        return [{"detail": {"outputs": out}} for out in outputs]

    same = {"parent": runs_with([{"b": 2, "a": 1}, {"a": 1, "b": 2}]),
            "change": runs_with([{"a": 1, "b": 2}])}
    digests, equal = bench_pairs.output_digests(same, "decode seed 7")
    assert equal
    assert digests == {"parent": ['{"a": 1, "b": 2}'], "change": ['{"a": 1, "b": 2}']}
    assert capsys.readouterr().err == ""

    # One change run made another output: the sides differ, even though
    # the change also made the parent's output.
    changed = {"parent": runs_with([{"a": 1}, {"a": 1}]),
               "change": runs_with([{"a": 1}, {"a": 3}])}
    digests, equal = bench_pairs.output_digests(changed, "decode seed 7")
    assert not equal
    assert digests == {"parent": ['{"a": 1}'], "change": ['{"a": 1}', '{"a": 3}']}
    assert capsys.readouterr().err == (
        "warning: decode seed 7: the change's outputs differ from the base's\n")


def test_each_finished_workload_is_written_before_a_later_run_fails(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    out = tmp_path / "pairs.json"

    def git(root, *args):
        return f"{tmp_path}\n".encode() if "--show-toplevel" in args else b"abc123\n"

    def run_once(cwd, workload, seed):
        if workload == "score":
            raise RuntimeError("benchmark run failed")
        detail = {"env": {"host": "test"}, "outputs": {"a": 1}, "passes": [{"units": {"u": 0.5}}]}
        summary = {"correct": True,
                   "metrics": {"wall_s": {"value": 1.0}, "ok_ops_frac": {"value": 1.0}}}
        return detail, summary

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "perfbench_run", lambda root: BENCH)
    monkeypatch.setattr(bench_pairs, "extract", lambda root, rev, dest: None)
    monkeypatch.setattr(bench_pairs, "same_benchmark", lambda root, base_dir: True)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)

    with pytest.raises(RuntimeError, match="benchmark run failed"):
        bench_pairs.main(["--workload", "decode", "score", "--seed", "1", "2",
                          "--pairs", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert [(r["workload"], r["seed"]) for r in doc["results"]] == [("decode", 1), ("decode", 2)]
    assert doc["parent_commit"] == "abc123" and doc["machine"] == {"host": "test"}
    assert doc["results"][0]["metrics"]["wall_s"]["parent_runs"] == [1.0, 1.0]
