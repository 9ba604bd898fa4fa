"""In-memory spans around the functions `sparsnn` calls between its layers.

`Recorder.install` replaces module attributes (the names the engine looks
up at call time) with wrappers, and `uninstall` puts the originals back.
A traced step wraps every target in `TARGETS`: each call becomes a span
(name, start, end, parent). An untraced step wraps only the targets marked
`activity`, and records no spans.

Each wrapped call is reduced at once, by the recorder's `summarise`, to the
few numbers the benchmark needs (counts per call, never the arrays), so the
harness holds no array longer than the engine does. The reduction's time is
kept out of the step: `Recorder.harness_s` adds it up so the step's time
can exclude it, and on a traced step it is a `harness.summarise` span of its
own, so it counts in no traced function's self time.

Self time is a span's duration minus the time its direct child spans
cover. The benchmark runs one thread, so child spans nest inside their
parent and never overlap one another.

A target that the package no longer has is listed in `Recorder.absent`
as "<module>.<attribute>" and skipped, so a refactor that deletes a
function does not break a run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    module: str  # sparsnn submodule that holds the attribute
    attr: str  # "name" or "Class.name"
    span: str  # "<layer module>.<function>"
    activity: bool = False  # keep call data on untraced steps too


TARGETS = (
    Target("engine", "forward_pass", "engine.forward_pass"),
    Target("engine", "backward_pass", "engine.backward_pass"),
    Target("engine", "softmax_cross_entropy", "engine.softmax_cross_entropy"),
    # The engine imports kernels, encoders and LIF helpers by name, so the
    # wrappers go into its namespace.
    Target("engine", "sparse_forward_current", "kernels.sparse_forward_current"),
    Target("engine", "sparse_weight_grad", "kernels.sparse_weight_grad"),
    Target("engine", "sparse_input_grad", "kernels.sparse_input_grad"),
    Target("engine", "dense_forward_current", "kernels.dense_forward_current"),
    Target("engine", "dense_weight_grad", "kernels.dense_weight_grad"),
    Target("engine", "dense_input_grad", "kernels.dense_input_grad"),
    Target("engine", "encode_sparse", "sparse.encode_sparse", activity=True),
    Target("engine", "encode_binary", "sparse.encode_binary", activity=True),
    Target("engine", "decode_to_dense", "sparse.decode_to_dense"),
    Target("rng", "DropRng.subset", "rng.subset"),
    Target("engine", "membrane_update", "lif.membrane_update"),
    Target("engine", "threshold_spikes_dense", "lif.threshold_spikes_dense", activity=True),
    Target("engine", "surrogate", "lif.surrogate"),
    Target("sparse", "surrogate", "lif.surrogate"),
    # train_step imports optimizer_step from the module at call time.
    Target("optim", "optimizer_step", "optim.optimizer_step"),
)


@dataclass
class Call:
    span: str
    index: int  # index of the call's span in Recorder.spans; -1 when untimed
    data: dict  # what `summarise` kept of the call


def _resolve(target: Target):
    """(owner, attribute name, function), or None if the package lacks it."""
    try:
        owner = importlib.import_module("sparsnn." + target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


class Recorder:
    """Spans and call data of one run; `trace` turns on the spans that
    the benchmark records around its own calls (set-up, simulation).

    `summarise(span, fn, args, kwargs, result)` reduces a wrapped call to a
    dict, or to None when the call needs no data.
    """

    def __init__(self, trace: bool, summarise):
        self.trace = trace
        self.summarise = summarise
        self.spans: list = []  # [name, start, end, parent index]
        self.calls: list = []
        self.harness_s = 0.0  # seconds spent in `summarise` since install
        self._targets = [(t, _resolve(t)) for t in TARGETS]
        self.absent = [f"{t.module}.{t.attr}" for t, found in self._targets if found is None]
        self._stack: list = []
        self._saved: list = []

    def install(self, traced: bool) -> None:
        """Wrap the targets for one step; traced steps record spans."""
        self.harness_s = 0.0
        for target, found in self._targets:
            if found is None or not (traced or target.activity):
                continue
            owner, name, fn = found
            wrapper = self._timed(target.span, fn) if traced else self._kept(target.span, fn)
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take_calls(self) -> list:
        calls = list(self.calls)
        self.calls.clear()
        return calls

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself, when tracing."""
        if not self.trace:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _keep(self, span: str, index: int, fn, args, kwargs, result) -> None:
        start = perf_counter()
        data = self.summarise(span, fn, args, kwargs, result)
        if data is not None:
            self.calls.append(Call(span, index, data))
        self.harness_s += perf_counter() - start

    def _kept(self, span: str, fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._keep(span, -1, fn, args, kwargs, result)
            return result

        return kept

    def _timed(self, span: str, fn):
        def timed(*args, **kwargs):
            index = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            harness = self.begin("harness.summarise")
            self._keep(span, index, fn, args, kwargs, result)
            self.end(harness)
            return result

        return timed


def self_times(spans: list, first: int = 0) -> list:
    """Self time of every span from index `first` on, in span order.

    `first` is the root span of one step, so every later span's parent is
    at or after it.
    """
    cover = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            cover[parent] += end - start
    return [
        (end - start) - cover[first + k]
        for k, (name, start, end, parent) in enumerate(spans[first:])
    ]
