"""tools/bench_kernels.py at a tiny size: every kernel is timed on both inputs,
copy and the memory of a fit on the simulate input, and one in-process command
line and one compilation are timed."""

import importlib.util
import json

from conftest import REPO


def test_bench_kernels_prints_every_kernel_time(capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", REPO / "tools" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--repeat", "1", "--scale", "0.005"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repeat"] == 1 and set(doc["inputs"]) == {"simulate_fit", "patrol"}
    assert doc["cli_call_s"] > 0
    assert doc["compile_s"] > 0
    for entry in doc["inputs"].values():
        assert entry["runs"] >= entry["rows"] >= 1 and entry["positions"] >= entry["rows"]
        assert entry["chunks"] >= 1
        for kernel in ("sample_s", "forward_s", "backward_s", "expectation_s"):
            assert entry[kernel] > 0
    fit = doc["inputs"]["simulate_fit"]
    assert fit["copy_s"] > 0 and fit["fit_peak_mb"] > 0
