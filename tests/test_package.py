import importlib.util
import sys

import abthmm

from conftest import REPO


def test_every_exported_name_resolves_once():
    assert len(abthmm.__all__) == len(set(abthmm.__all__))
    missing = [name for name in abthmm.__all__ if not hasattr(abthmm, name)]
    assert missing == []


def test_every_traced_hook_names_an_exported_callable(monkeypatch):
    # perfbench/spans.py wraps the callables named in __all__; a hook whose
    # name is no longer among them would silently stop counting.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = {name for name, _, _, _ in spans._targets(abthmm)}
    assert set(spans.HOOKS) <= names
