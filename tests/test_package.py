import importlib.util
import json
import sys
from collections import Counter

import abthmm

from conftest import REPO


def test_every_exported_name_resolves_once():
    assert len(abthmm.__all__) == len(set(abthmm.__all__))
    missing = [name for name in abthmm.__all__ if not hasattr(abthmm, name)]
    assert missing == []


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_hook_names_an_exported_callable(monkeypatch):
    # perfbench/spans.py wraps the callables named in __all__; a hook whose
    # name is no longer among them would silently stop counting.
    spans = load_spans(monkeypatch)
    names = {name for name, _, _, _ in spans._targets(abthmm)}
    assert set(spans.HOOKS) <= names


def test_every_benchmarked_layer_metric_is_computed(monkeypatch):
    # run.py reads each per-layer metric of BENCHMARK.json out of
    # spans._metrics; a traced name that leaves __all__ (say hmm.sample or
    # tree.leaves_of) would make a traced run fail with a KeyError.
    spans = load_spans(monkeypatch)
    names = sorted({name for name, _, _, _ in spans._targets(abthmm)})
    root_only = [(spans.ROOT, 0.0, 1.0, -1, True)]
    computed = spans._metrics(root_only, Counter(), names)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    added_by_run = {"process.cpu_s", "trace.overhead_frac"}
    wanted = {m["name"] for m in bench["per_layer"]} - added_by_run
    assert sorted(wanted - set(computed)) == []
