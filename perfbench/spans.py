"""Spans around calls into the package's public functions.

The tracer wraps each public function of the five layer modules (the
names in ``abthmm.__all__``) and each plain public method of the classes
named there, in every ``abthmm`` namespace that binds it, so calls the
program makes between its own layers are timed as well as the
benchmark's calls. Generator functions are left unwrapped, since a span
around one would time only the creation of the generator; the tree
walker's cost shows in ``simulate.rollout_dataset`` instead.

Spans stay in memory, one list per traced pass, and are written out when
the run ends. A span is ``(name, start, end, parent, ok)``, where parent is
the index of the enclosing span in the same list and index 0 is the
pass's root. A few calls also feed counters, taken from their arguments
and results after the span has closed.
"""

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("dsl", "compiler", "tree", "hmm", "simulate")
ROOT = "workload"


def _targets(package):
    """Yield (span name, owner, attribute, function) for every wrapped callable."""
    public = set(package.__all__)
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(module).items():
            if attr not in public or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                yield f"{layer}.{attr}", None, attr, obj
            elif inspect.isclass(obj):
                for name, fn in vars(obj).items():
                    if (not name.startswith("_") and inspect.isfunction(fn)
                            and not inspect.isgeneratorfunction(fn)):
                        yield f"{layer}.{name}", obj, name, fn


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sequences(count, prefix, sequences):
    count[prefix + ".sequences"] += len(sequences)
    count[prefix + ".distinct"] += len(
        {np.asarray(s, dtype=np.int64).tobytes() for s in sequences}
    )


def _after_predict(tracer, args, kwargs, path):
    """A decoded path is invalid when it is absorbed before its last step
    or ends off a terminal state; neither can come from the generator."""
    states = np.asarray(path).tolist()
    tracer.count["hmm.predict.symbols"] += len(states)
    if states[-1] not in tracer.terminals or not tracer.terminals.isdisjoint(states[:-1]):
        tracer.count["hmm.predict.invalid_paths"] += 1


def _after_score_total(tracer, args, kwargs, result):
    _count_sequences(tracer.count, "hmm.score_total", _arg(args, kwargs, 1, "sequences"))


def _after_fit(tracer, args, kwargs, model):
    tracer.count["hmm.fit.em_iters"] += model.n_iter_
    tracer.count["hmm.fit.unconverged"] += not model.converged_
    _count_sequences(tracer.count, "hmm.fit", _arg(args, kwargs, 1, "sequences"))


def _after_rollout(tracer, args, kwargs, dataset):
    tracer.count["simulate.rollout_dataset.runs"] += len(dataset.runs)
    tracer.count["simulate.rollout_dataset.visits"] += sum(len(r.states) for r in dataset.runs)


def _after_write_dataset(tracer, args, kwargs, result):
    tracer.count["simulate.write_dataset.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_compile(tracer, args, kwargs, model):
    c = tracer.count
    c["compiler.n_states"] = max(c["compiler.n_states"], model.n_states)
    c["compiler.n_symbols"] = max(c["compiler.n_symbols"], model.n_symbols)
    c["compiler.b_bytes"] = max(c["compiler.b_bytes"], model.b.nbytes)


HOOKS = {
    "hmm.predict": _after_predict,
    "hmm.score_total": _after_score_total,
    "hmm.fit": _after_fit,
    "simulate.rollout_dataset": _after_rollout,
    "simulate.write_dataset": _after_write_dataset,
    "compiler.compile_abt": _after_compile,
}

# A hook that cannot read what it expects from a call counts a hook error
# and leaves the call's own result alone.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError)


class Tracer:
    """Records spans and counters for the passes run through ``call``.

    ``terminals`` is the workload's set of absorbing output states, used
    to tell invalid decoded paths from valid ones.
    """

    def __init__(self, package, terminals):
        self.package = package
        self.terminals = frozenset(int(t) for t in terminals)
        self.targets = list(_targets(package))
        self.passes = []
        self.counts = []
        self.spans = None
        self.count = None
        self._stack = None
        self._patches = []

    def install(self):
        """Swap every wrapped callable for its traced version."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == self.package.__name__
                      or name.startswith(self.package.__name__ + ".")]
        for name, owner, attr, fn in self.targets:
            traced = self._wrap(name, fn)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, traced)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, traced)

    def remove(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    def call(self, fn):
        """Run fn() as one traced pass under a root span."""
        self.spans = [None]
        self.count = Counter()
        self._stack = [0]
        self.passes.append(self.spans)
        self.counts.append(self.count)
        ok = False
        start = time.perf_counter()
        try:
            result = fn()
            ok = True
        finally:
            self.spans[0] = (ROOT, start, time.perf_counter(), -1, ok)
        return result

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, False)
                stack.pop()
                raise
            spans[index] = (name, start, clock(), parent, True)
            stack.pop()
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except HOOK_ERRORS:
                    tracer.count["trace.hook_errors"] += 1
            return result

        return traced

    def pass_metrics(self):
        """Per-layer metrics of every traced pass, one dict per pass."""
        names = sorted({name for name, _, _, _ in self.targets})
        return [_metrics(spans, count, names) for spans, count in zip(self.passes, self.counts)]

    def write(self, path, meta):
        """Write every pass's spans, times relative to the pass's root start."""
        passes = []
        for spans in self.passes:
            t0 = spans[0][1]
            passes.append([[n, s - t0, e - t0, p, ok] for n, s, e, p, ok in spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, fields=["name", "start_s", "end_s", "parent", "ok"],
                           passes=passes), fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def _metrics(spans, count, names):
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i in range(1, len(spans)):
        covered[spans[i][3]] += dur[i]
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    errors = Counter()
    layer_self = defaultdict(float)
    for i in range(1, len(spans)):
        name, _, _, parent, ok = spans[i]
        calls[name] += 1
        errors[name] += not ok
        own[name] += dur[i] - covered[i]
        layer_self[name.split(".", 1)[0]] += dur[i] - covered[i]
        # A recursive call's time is already inside its outermost call.
        while parent > 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent <= 0:
            total[name] += dur[i]

    m = {}
    for name in names:
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = own[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.errors"] = errors[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    m["hmm.predict.symbols_per_s"] = _ratio(count["hmm.predict.symbols"], total["hmm.predict"])
    m["hmm.predict.invalid_paths"] = count["hmm.predict.invalid_paths"]
    m["hmm.fit.em_iters"] = count["hmm.fit.em_iters"]
    m["hmm.fit.unconverged"] = count["hmm.fit.unconverged"]
    m["hmm.fit.s_per_iter"] = _ratio(total["hmm.fit"], count["hmm.fit.em_iters"])
    m["hmm.sample.seq_per_s"] = _ratio(calls["hmm.sample"], total["hmm.sample"])
    m["hmm.score_total.seq_per_s"] = _ratio(
        count["hmm.score_total.sequences"], total["hmm.score_total"])
    m["hmm.unique_frac"] = _ratio(
        count["hmm.score_total.distinct"] + count["hmm.fit.distinct"],
        count["hmm.score_total.sequences"] + count["hmm.fit.sequences"])
    runs = count["simulate.rollout_dataset.runs"]
    m["simulate.rollout_dataset.runs_per_s"] = _ratio(runs, total["simulate.rollout_dataset"])
    m["simulate.rollout_dataset.mean_visits"] = _ratio(
        count["simulate.rollout_dataset.visits"], runs)
    m["simulate.write_dataset.bytes"] = count["simulate.write_dataset.bytes"]
    m["simulate.perturb.s"] = total["simulate.perturb_hmm"] + total["simulate.randomize_hmm"]
    for key in ("compiler.n_states", "compiler.n_symbols", "compiler.b_bytes",
                "trace.hook_errors"):
        m[key] = count[key]
    m["trace.root_coverage"] = _ratio(covered[0], dur[0])
    m["trace.spans"] = len(spans)
    return m
