import numpy as np
import pytest

from abthmm import dsl
from abthmm.cli import main
from abthmm.compiler import apply_retry, compile_abt, load_model, save_model
from abthmm.simulate import read_dataset, read_metrics

from conftest import MODELS

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


def test_check_flags_retry_back_edges(tmp_path, capsys, pick_place_model):
    path = tmp_path / "retry.json"
    save_model(apply_retry(pick_place_model, 1, 3), path)
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
    assert "50 runs ->" in said and "success rate" in said
    data = read_dataset(out)
    assert len(data) == 50
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
