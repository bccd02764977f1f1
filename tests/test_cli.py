import json
import os
import subprocess
import sys

import numpy as np
import pytest

from abthmm import dsl
from abthmm.cli import build_parser, main
from abthmm.compiler import EdgeLabel, compile_abt, load_model, save_model
from abthmm.simulate import read_dataset, read_metrics
from abthmm.tree import SUCCESS

from conftest import MALFORMED_TREES, MODELS, OVERSIZED_TREES, REPO

PICK = str(MODELS / "pick_place.abt")


def test_compile_writes_a_model_file(tmp_path, capsys):
    out = tmp_path / "pick.json"
    assert main(["compile", PICK, "-o", str(out)]) == 0
    said = capsys.readouterr().out
    assert "4 leaves -> 6 states" in said
    model = load_model(out)
    with open(PICK) as fh:
        direct = compile_abt(dsl.parse(fh.read()))
    assert np.array_equal(model.a, direct.a)
    assert model.edges == direct.edges


def test_check_passes_a_plain_model(tmp_path, capsys):
    out = tmp_path / "pick.json"
    main(["compile", PICK, "-o", str(out)])
    capsys.readouterr()
    assert main(["check", str(out)]) == 0
    said = capsys.readouterr().out
    assert said.count("ok") == 3
    assert "VIOLATED" not in said


def test_check_flags_retry_back_edges(tmp_path, capsys):
    source = (
        "(ratio 1.0)\n(sequence (leaf a :ps 0.8 :emit (gauss))\n"
        "  (retry (selector (leaf b :ps 0.6 :emit (gauss)) (leaf c :ps 0.7 :emit (gauss)))))"
    )
    path = tmp_path / "retry.json"
    save_model(compile_abt(dsl.parse(source)), path)
    assert main(["check", str(path)]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_count_prints_the_shape_count(capsys):
    assert main(["count", "-l", "10"]) == 0
    assert capsys.readouterr().out.strip() == "1857945600"


def test_count_rejects_zero_leaves(capsys):
    assert main(["count", "-l", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_enumerate_lists_all_two_leaf_shapes(capsys):
    assert main(["enumerate", "-l", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total 4"
    assert sorted(lines[:-1]) == ["F2 S3", "F3 S3", "S2 S3", "S3 S3"]


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "shapes.txt"
    assert main(["enumerate", "-l", "3", "-o", str(out)]) == 0
    assert "24 shapes ->" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 24


def test_simulate_writes_runs(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert main(["simulate", PICK, "-n", "50", "--seed", "3", "-o", str(out)]) == 0
    said = capsys.readouterr().out
    data = read_dataset(out)
    assert len(data) == 50
    runs = data.runs
    rate = sum(run.outcome == SUCCESS for run in runs) / 50
    mean_len = sum(len(run.states) for run in runs) / 50
    assert f"50 runs -> {out} (success rate {rate:.4f}, mean length {mean_len:.2f})" in said
    assert 0 < rate < 1
    again = tmp_path / "again.csv"
    main(["simulate", PICK, "-n", "50", "--seed", "3", "-o", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_simulate_rejects_zero_runs(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert main(["simulate", PICK, "-n", "0", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least one run" in err
    assert not out.exists()


def test_simulate_reports_a_retry_loop_that_cannot_exit(tmp_path, capsys):
    tree = tmp_path / "stuck.abt"
    tree.write_text("(retry (leaf stuck :ps 0.0 :emit (gauss)))\n")
    out = tmp_path / "runs.csv"
    assert main(["simulate", str(tree), "-n", "3", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "did not finish within 10000 visits" in err
    assert not out.exists()


def test_sweep_rejects_zero_sequences(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"model = {PICK}\nratios = 1\nperturbations = 0\nn_sequences = 0\n")
    out = tmp_path / "metrics.csv"
    assert main(["sweep", "--kind", "forward", "--config", str(cfg), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least one run" in err
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["inf", "nan"])
def test_table1_and_sweep_reject_a_non_finite_ratio(tmp_path, capsys, ratio):
    assert main(["table1", "--ratios", f"1,{ratio}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"ratio must be finite, got {ratio}" in err
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"model = {PICK}\nratios = {ratio}\nperturbations = 0\nn_sequences = 5\n")
    out = tmp_path / "metrics.csv"
    assert main(["sweep", "--kind", "viterbi", "--config", str(cfg), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"ratio must be finite, got {ratio}" in err
    assert not out.exists()


def test_sweep_from_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"model = {PICK}\n"
        "ratios = 0, 1\n"
        "perturbations = 0, 0.25\n"
        "n_sequences = 40\n"
    )
    out = tmp_path / "metrics.csv"
    assert main(["sweep", "--kind", "forward", "--config", str(cfg), "-o", str(out)]) == 0
    assert "4 grid cells ->" in capsys.readouterr().out
    rows = read_metrics(out)
    assert len(rows) == 4
    assert {row.kind for row in rows} == {"forward"}


def test_table1_prints_the_grid(capsys):
    assert main(["table1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["ratio", "n_states", "kld", "jsd", "jsd_all"]
    assert len(lines) == 11  # header plus 2 sizes x 5 ratios
    cells = lines[1].split()
    assert cells[:2] == ["0.0000", "6"]
    assert cells[2:] == ["0.0000", "0.0000", "0.0000"]
    last = lines[-1].split()
    assert last[:2] == ["5.0000", "16"]
    assert float(last[4]) == pytest.approx(3.99999703, abs=5e-4)


def test_table1_csv_output(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--sizes", "6", "--ratios", "0,5", "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,n_states,kld,jsd,jsd_all"
    assert len(lines) == 3
    assert float(lines[2].split(",")[3]) == pytest.approx(0.9999984165812112)


def test_decompile_round_trips_the_model_file(tmp_path, capsys):
    model_path = tmp_path / "pick.json"
    main(["compile", PICK, "-o", str(model_path)])
    tree_path = tmp_path / "back.abt"
    assert main(["decompile", str(model_path), "-o", str(tree_path)]) == 0
    capsys.readouterr()
    with open(tree_path) as fh:
        recovered = dsl.parse(fh.read())
    second = tmp_path / "second.json"
    save_model(compile_abt(recovered), second)
    assert model_path.read_bytes() == second.read_bytes()


def test_decompile_prints_a_tree(tmp_path, capsys):
    model_path = tmp_path / "pick.json"
    main(["compile", PICK, "-o", str(model_path)])
    capsys.readouterr()
    assert main(["decompile", str(model_path)]) == 0
    said = capsys.readouterr().out
    assert "(sequence" in said and "approach" in said


def test_missing_file_is_a_domain_error(capsys):
    assert main(["compile", "no_such_tree.abt", "-o", "x.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_compile_refuses_a_parallel_tree(tmp_path, capsys):
    tree = tmp_path / "par.abt"
    tree.write_text(
        "(ratio 1.0)\n(parallel :threshold 1.0\n"
        "  (leaf p :ps 0.9 :emit (gauss))\n  (leaf q :ps 0.8 :emit (gauss)))\n"
    )
    out = tmp_path / "par.json"
    assert main(["compile", str(tree), "-o", str(out)]) == 1
    assert "parallel blocks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [text for text, _ in MALFORMED_TREES] + OVERSIZED_TREES)
def test_compile_refuses_a_malformed_tree_with_one_error_line(tmp_path, capsys, text):
    tree = tmp_path / "bad.abt"
    tree.write_text(text)
    out = tmp_path / "bad.json"
    assert main(["compile", str(tree), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_table1_refuses_a_ratio_past_the_symbol_cap(capsys):
    assert main(["table1", "--ratios", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "more than the cap of 1048576" in err


def test_bad_model_file_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_sweep_kind_is_validated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "sideways", "--config", "c", "-o", "m"])
    assert exc.value.code == 2


def test_model_files_with_edge_labels_no_tree_makes_are_refused(tmp_path, capsys):
    def model_file(source, name, label_of_state_0):
        path = tmp_path / f"{name}.json"
        save_model(compile_abt(dsl.parse(source)), path)
        doc = json.loads(path.read_text())
        doc["edge_labels"][0] = label_of_state_0
        path.write_text(json.dumps(doc))
        return path

    one_leaf = "(ratio 1.0)\n(leaf a :ps 0.5 :emit (gauss))"
    with open(PICK) as fh:
        pick = fh.read()
    bad = [
        (model_file(one_leaf, "high", "S:7 F:2"), "targets a state outside"),
        (model_file(one_leaf, "negative", "S:1 F:-5"), "targets a state outside"),
        # pick_place's first leaf fails to state 5; a label naming 4 leaves
        # the mass on column 5 unlabelled
        (model_file(pick, "unlabelled", "S:1 F:4"), "mass outside its labeled targets"),
    ]
    for path, message in bad:
        with pytest.raises(ValueError, match=f"state 0 .*{message}"):
            load_model(path)
        for command in ("check", "decompile"):
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "state 0" in err

    # A leaf that always succeeds keeps a zero-probability failure edge.
    sure = model_file(one_leaf.replace("0.5 :emit", "1 :emit"), "sure", "S:1 F:2")
    model = load_model(sure)
    assert model.edges[0] == EdgeLabel(1, 2) and model.a[0, 2] == 0.0


def test_model_files_whose_outputs_are_not_absorbing_are_refused(tmp_path, capsys):
    good = tmp_path / "pick.json"
    with open(PICK) as fh:
        save_model(compile_abt(dsl.parse(fh.read())), good)

    def edited(name, key, state, value):
        doc = json.loads(good.read_text())
        doc[key][state] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    bad = [
        (edited("leaky", "a", 4, [0, 0, 0, 0, 0.5, 0.5]), 4),
        (edited("labelled", "edge_labels", 5, "S:5 F:5"), 5),
    ]
    for path, state in bad:
        with pytest.raises(ValueError, match=f"output state {state} "):
            load_model(path)
        for command in ("check", "decompile"):
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"output state {state} " in err

    lone = tmp_path / "lone.json"
    doc = json.loads(good.read_text())
    doc.update(n_states=1, pi=[1.0], a=[[1.0]], b=doc["b"][4:5], labels=None, edge_labels=[None])
    lone.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="two output states"):
        load_model(lone)


def test_model_files_holding_nan_are_refused(tmp_path, capsys):
    good = tmp_path / "pick.json"
    main(["compile", PICK, "-o", str(good)])
    capsys.readouterr()
    path = tmp_path / "nan.json"
    # JSON null reads as NaN; such a model must not load or pass a check.
    for row_of in (lambda d: d["pi"], lambda d: d["a"][1], lambda d: d["b"][2]):
        bad = json.loads(good.read_text())
        row_of(bad)[0] = None
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="negative or NaN entries"):
            load_model(path)
        for command in ("check", "decompile"):
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "NaN" in err


def test_model_files_of_the_wrong_json_shape_are_refused(tmp_path, capsys):
    good = tmp_path / "pick.json"
    main(["compile", PICK, "-o", str(good)])
    capsys.readouterr()
    doc = json.loads(good.read_text())
    bad = [
        ("3", "not hold a JSON object"),
        ("[1, 2]", "not hold a JSON object"),
        (json.dumps({**doc, "labels": 5}), "'labels'"),
        (json.dumps({**doc, "labels": "abcdef"}), "'labels'"),
        (json.dumps({**doc, "edge_labels": 5}), "'edge_labels'"),
        (json.dumps({**doc, "edge_labels": {"0": "S:1 F:5"}}), "'edge_labels'"),
        (json.dumps({**doc, "pi": {"0": 1}}), "'pi'"),
    ]
    path = tmp_path / "bad.json"
    for text, message in bad:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_model(path)
        for command in ("check", "decompile"):
            assert main([command, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err


def test_decompile_refuses_a_start_off_the_first_leaf(tmp_path, capsys):
    path = tmp_path / "pick.json"
    main(["compile", PICK, "-o", str(path)])
    doc = json.loads(path.read_text())
    doc["pi"] = [0, 1, 0, 0, 0, 0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    # the file still loads, since a fit may move the start vector
    assert load_model(path).pi.tolist() == doc["pi"]
    assert main(["decompile", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pi" in err


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def _run_alone(argv, cwd):
    """(exit code, stdout) of one command line in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-m", "abthmm", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def test_calls_in_one_process_match_calls_alone(tmp_path, capsys, monkeypatch):
    config = f"model = {PICK}\nratios = 1\nperturbations = 0, 0.25\nn_sequences = 30\n"
    commands = [
        ["count", "-l", "3"],
        ["compile", PICK, "-o", "pick.json"],
        ["sweep", "--kind", "viterbi", "--config", "sweep.cfg", "-o", "metrics.csv"],
    ]
    alone, together = tmp_path / "alone", tmp_path / "together"
    for where in (alone, together):
        where.mkdir()
        (where / "sweep.cfg").write_text(config)
    monkeypatch.chdir(together)
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
    assert "invalid choice: 'transmogrify'" in capsys.readouterr().err
    for argv in commands:
        code = main(argv)
        assert (code, capsys.readouterr().out) == _run_alone(argv, alone)
    for name in ("pick.json", "metrics.csv"):
        assert (together / name).read_bytes() == (alone / name).read_bytes()


def test_subcommand_help_after_the_parser_is_built(capsys):
    build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: abthmm sweep")
