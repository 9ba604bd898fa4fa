"""Train-step benchmark of `sparsnn` on the shd-2944 network.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shd-sparse-capped --seed 1 \\
        --seconds 20 --trace 0

The benchmark imports `sparsnn` from the checkout's `src/` and drives it
only through its public functions; it changes nothing in the package.

Common set-up: the shd-2944 network (700-974-974-974-20), batch 48, 10
timesteps, Adam at lr 1e-3 (the `train` defaults), one thread with BLAS
pinned to one thread before numpy loads. The data is drawn by
`synth_pattern_dataset` from the workload seed, written as ESF files plus
a manifest and read back with `load_dataset`. Steps take successive
minibatches in the order `train_epoch` visits them, with `DropRng`
positioned as `train_epoch` positions it.

The timed steps come in rounds of `ROUND` steps. Every round starts from
the weights and Adam state that the set-up left and replays the same
minibatches, so a faster build times the same network states as a slower
one, only more often; training never drifts into another activity regime
during a run. A round whose losses differ from the first round's fails the
run.

Workloads (why each is here):

shd-sparse-capped  sparse transport, every hidden neuron forced to fire,
    capacity 48 of 974 ids: every hidden row is full and drops ~926 ids,
    so the drop path and the fixed-work sparse kernels carry the step.
    The paper's throughput lower bound.
shd-sparse-live    sparse transport on free-running dynamics (init gain
    20, capacity 242 ids): the hidden layers fire ~39, 26 and 11 times a
    row and never overflow, so work that pays off only on full rows shows
    its cost here. At 194 ids (max_activity 0.2) the fullest rows of some
    seeds need a few more slots than that, hence max_activity 0.25.
shd-dense-live     the same network, data and seed with dense transport:
    the paper's baseline, which bypasses `sparse` and `rng` entirely.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` alternates traced and untraced steps and prints the per-layer
metrics: self seconds and work counts per timed step, from spans recorded
around the functions the engine calls (see `spans.py`). Every seconds
figure in the per-layer set is self time, whether its name ends in `.s`
or `.self_s`; `.self_s` marks functions that call other traced functions.
A `.l<k>` suffix names weight layer k; `activity.l<k>` names hidden
layer k (layer 1 is the first hidden layer).

Every step is checked: it fails if it raises, if its loss or weights are
not finite, or if it misses its workload's regime. A failed step is
counted and never timed. Measured (host) and modeled (tile-machine ledger)
figures are reported in separate sections and never combined; the last
stdout line is the result object, and the full report goes to
`perfbench/out/`.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import copy
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import struct
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from itertools import count, islice
from pathlib import Path
from time import perf_counter

import numpy as np

from counts import Activity, LayerIndex, step_activity, summarise, work_counts
from spans import Recorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

LAYERS = (700, 974, 974, 974, 20)  # the shd-2944 preset
INPUT_CAPACITY = 48  # the shd dataset preset's sparse input size
BATCH = 48
TIMESTEPS = 10
CLASSES = 20
NOISE = 0.01
SAMPLES_PER_CLASS = 48  # 960 samples: 20 minibatches per epoch
OPTIMIZER, LR = "adam", 1e-3
NEURONS_PER_TILE = 2
SETUP_REPS = 5
# Steps in one timed round. Every round replays the same steps from the
# same state, and a run makes at least one whatever the machine's speed, so
# the loss and weight digests and the modeled counts cover exactly these.
ROUND = 4
# Order-RNG key that train_epoch uses for its shuffle.
EPOCH_ORDER_SALT = 0xE90C
SELF_S = ("engine.forward_pass", "engine.backward_pass", "sparse.encode_sparse")


def capped_regime(act) -> str | None:
    if not act.full:
        return "a hidden row holds fewer spikes than its capacity"
    if act.hidden_drops <= 0:
        return "no hidden-layer drops"
    return None


def _silent(act) -> str | None:
    per_row = act.spikes.mean(axis=0)
    if not np.all(per_row > 0):
        return f"silent hidden layer: spikes per row {per_row.tolist()}"
    return None


def live_regime(act) -> str | None:
    if act.hidden_drops:
        return f"{act.hidden_drops} hidden-layer drops"
    return _silent(act)


@dataclass(frozen=True)
class Workload:
    mode: str
    max_activity: float
    weight_gain: float
    force_spikes: bool
    regime: object  # Activity -> failure reason, or None


WORKLOADS = {
    "shd-sparse-capped": Workload("sparse", 0.05, 3.0, True, capped_regime),
    "shd-sparse-live": Workload("sparse", 0.25, 20.0, False, live_regime),
    "shd-dense-live": Workload("dense", 0.25, 20.0, False, _silent),
}

END_TO_END = {
    "samples_per_s": "1/s",
    "step_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_speedup": "ratio",
    "step_ok_ratio": "ratio",
}


def _per_layer() -> dict:
    units = {
        "engine.forward_pass.self_s": "s",
        "engine.backward_pass.self_s": "s",
        "engine.softmax_cross_entropy.s": "s",
    }
    for kind in ("sparse", "dense"):
        for fn, layers in (("forward_current", range(4)), ("weight_grad", ()), ("input_grad", range(1, 4))):
            key = f"kernels.{kind}_{fn}.s"
            units[key] = "s"
            units.update({f"{key}.l{k}": "s" for k in layers})
    for kind in ("sparse", "dense"):
        units[f"kernels.{kind}_forward_current.weight_reads"] = "count"
        units[f"kernels.{kind}_weight_grad.weight_writes"] = "count"
        units[f"kernels.{kind}_input_grad.weight_reads"] = "count"
    units.update({
        "sparse.encode_sparse.self_s": "s",
        "sparse.encode_binary.s": "s",
        "sparse.decode_to_dense.s": "s",
        "sparse.encode_sparse.ids_kept": "count",
        "sparse.encode_sparse.spikes_dropped": "count",
        "sparse.encode_sparse.grads_dropped": "count",
        "sparse.encode_sparse.keep_ratio": "ratio",
        "sparse.encode_binary.spikes_dropped": "count",
        "rng.subset.s": "s",
        "rng.subset.calls": "count",
        "lif.membrane_update.s": "s",
        "lif.threshold_spikes_dense.s": "s",
        "lif.surrogate.s": "s",
        "optim.optimizer_step.s": "s",
        "events.load_dataset.s": "s",
        "events.from_streams.s": "s",
        "model.init_network.s": "s",
        "machine.simulate_batch.s": "s",
        "machine.sparse_cycles.forward": "cycles",
        "machine.sparse_cycles.backward": "cycles",
        "machine.dense_cycles": "cycles",
        "machine.sparse_bytes": "bytes",
    })
    for k in range(1, len(LAYERS) - 1):
        units[f"activity.l{k}.spikes_per_row"] = "count/row"
        units[f"activity.l{k}.grads_per_row"] = "count/row"
    units["trace.self_coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer()


def import_sparsnn():
    """Import the package from this checkout's `src/`, never another copy."""
    src = ROOT / "src"
    if not (src / "sparsnn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sparsnn package under {src}")
    sys.path.insert(0, str(src))
    import sparsnn
    import sparsnn.engine
    import sparsnn.lif
    import sparsnn.optim

    if Path(sparsnn.__file__).resolve().parent != src / "sparsnn":
        raise SystemExit(f"perfbench: imported sparsnn from {sparsnn.__file__}, not {src}")
    return sparsnn


@dataclass
class Step:
    seconds: float
    loss: float
    traced: bool
    failure: str | None
    activity: Activity
    figures: dict | None  # per-layer figures, on traced steps


class Run:
    """One workload's network, optimizer and minibatch stream."""

    def __init__(self, sparsnn, workload: Workload, seed: int, trace: bool):
        self.sparsnn = sparsnn
        self.workload = workload
        self.seed = seed
        self.recorder = Recorder(trace, self._summarise)
        hidden = [sparsnn.sparse_hidden_size(workload.max_activity, n) for n in LAYERS[1:-1]]
        self.spec = sparsnn.lif.NetworkSpec(
            layer_sizes=LAYERS,
            sparse_sizes=[INPUT_CAPACITY] + hidden,
            batch_size=BATCH,
            num_timesteps=TIMESTEPS,
        )

    def _summarise(self, span, fn, args, kwargs, result):
        return summarise(span, fn, args, kwargs, result, self.layer_of)

    def set_up(self, manifest: Path) -> tuple:
        """Load, bin, initialise and take the discarded first step;
        returns (seconds, first step). Then keep the state that every
        timed round starts from."""
        # Free the previous set-up first, so that no two are ever resident
        # together and the peak memory is that of one workload instance.
        self.net = self.opt = self.batches = self.saved = None
        gc.collect()
        s, rec = self.sparsnn, self.recorder
        start = perf_counter()
        with rec.span("events.load_dataset"):
            streams = s.load_dataset(manifest)
        with rec.span("events.from_streams"):
            dataset = s.SpikeDataset.from_streams(streams, TIMESTEPS)
        with rec.span("model.init_network"):
            self.net = s.init_network(self.spec, seed=self.seed, weight_gain=self.workload.weight_gain)
        self.opt = s.optim.make_optimizer(OPTIMIZER, LR)
        self.layer_of = LayerIndex(self.net)
        self.batches = self._minibatches(dataset)
        first = self.step(0, traced=False)
        seconds = perf_counter() - start
        self.saved = ([w.copy() for w in self.net.weight_arrays()], copy.deepcopy(self.opt))
        return seconds, first

    def restore(self) -> None:
        """Put back the weights and optimizer state the set-up left."""
        weights, opt = self.saved
        for w, saved in zip(self.net.weight_arrays(), weights):
            np.copyto(w, saved)
        self.opt = copy.deepcopy(opt)

    def _minibatches(self, dataset) -> list:
        """The first `ROUND` + 1 (frames, labels, DropRng) of epoch 0, in
        train_epoch's order and DropRng positions."""
        order = np.random.default_rng((self.seed, 0, EPOCH_ORDER_SALT))
        stride = self.spec.num_timesteps * self.spec.num_weight_layers
        sparse = self.workload.mode == "sparse"
        return [
            (frames, labels, self.sparsnn.DropRng(self.seed, bi * stride) if sparse else None)
            for bi, (frames, labels) in enumerate(islice(dataset.minibatches(BATCH, order), ROUND + 1))
        ]

    def step(self, batch: int, traced: bool) -> Step:
        """Train on minibatch `batch` (0 is the set-up's)."""
        frames, labels, rng = self.batches[batch]
        rec = self.recorder
        rec.install(traced)
        root = rec.begin("step") if traced else -1
        start = perf_counter()
        try:
            loss, _ = self.sparsnn.engine.train_step(
                self.net, frames, labels, self.opt, self.workload.mode, rng,
                force_spikes=self.workload.force_spikes,
            )
            failure = None
        except Exception as exc:  # a failed step is counted, not fatal
            traceback.print_exc()
            loss, failure = float("nan"), f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start - rec.harness_s
        if traced:
            rec.end(root)
        rec.uninstall()
        calls = rec.take_calls()
        activity = step_activity(calls, self.spec, frames)
        figures = traced_step_figures(rec.spans, root, calls) if traced else None
        if failure is None and not math.isfinite(loss):
            failure = f"non-finite loss {loss}"
        if failure is None:
            bad = [k for k, w in enumerate(self.net.weight_arrays()) if not np.all(np.isfinite(w))]
            if bad:
                failure = f"non-finite weights in layers {bad}"
        if failure is None:
            failure = self.workload.regime(activity)
        return Step(seconds, float(loss), traced, failure, activity, figures)

    def weights_digest(self) -> str:
        h = hashlib.sha256()
        for w in self.net.weight_arrays():
            h.update(np.ascontiguousarray(w, dtype="<f4").tobytes())
        return h.hexdigest()


def losses_digest(losses: list) -> str:
    return hashlib.sha256(b"".join(struct.pack("<d", x) for x in losses)).hexdigest()


def modeled(run: Run, activities: list) -> dict:
    """Tile-machine ledger on the mean per-(t, layer) counts observed."""
    s, spec = run.sparsnn, run.spec
    T, width, hidden = spec.num_timesteps, len(spec.layer_sizes), len(LAYERS) - 2
    act = np.zeros((T, width))
    grad = np.zeros((T, width))
    act[:, 0] = grad[:, 0] = np.mean([a.inputs for a in activities], axis=0)
    spikes = np.mean([a.spikes for a in activities], axis=0)
    act[:, 1 : 1 + hidden] = spikes
    grad[:, 1 : 1 + hidden] = spikes + np.mean([a.grads for a in activities], axis=0)
    machine = s.MachineSpec()
    mapping = s.map_neurons(spec, machine, NEURONS_PER_TILE)
    with run.recorder.span("machine.simulate_batch"):
        sparse = s.simulate_batch(spec, mapping, machine, act, mode="sparse", grad_activity=grad)
    with run.recorder.span("machine.simulate_batch"):
        dense = s.simulate_batch(spec, mapping, machine, None, mode="dense")
    phase = defaultdict(float)
    for step in sparse.supersteps:
        phase[step.phase.split("-")[0]] += step.time_cycles
    return {
        "modeled_speedup": s.acceleration_model(dense, sparse),
        "machine.sparse_cycles.forward": phase["forward"],
        "machine.sparse_cycles.backward": phase["backward"],
        "machine.dense_cycles": dense.total_time_cycles,
        "machine.sparse_bytes": sparse.total_intra_bytes + sparse.total_inter_bytes,
    }


def traced_step_figures(spans: list, root: int, calls: list) -> dict:
    """Self times and work counts of one traced step, whose root span is
    `spans[root]`; `trace.self_coverage` is the share of the step's time
    that the spans below the root account for."""
    selfs = self_times(spans, root)
    by_span = {c.index: c for c in calls if c.index >= 0}
    out = defaultdict(float)
    for k, seconds in enumerate(selfs[1:], start=root + 1):
        name = spans[k][0]
        key = name + (".self_s" if name in SELF_S else ".s")
        out[key] += seconds
        call = by_span.get(k)
        if call is not None and call.data.get("layer") is not None:
            out[f"{key}.l{call.data['layer']}"] += seconds
    out["rng.subset.calls"] = sum(1 for span in spans[root:] if span[0] == "rng.subset")
    out.update(work_counts(calls))
    out["trace.self_coverage"] = sum(selfs[1:]) / (spans[root][2] - spans[root][1])
    return out


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


@dataclass
class Timed:
    """What the timed loop saw."""

    steps: list
    losses: list  # the set-up step's and the first round's, in order
    weights_digest: str  # after the first round
    replay_failures: list  # (round, reason) where a round's losses differ


def timed_steps(run: Run, first: Step, seconds: float, trace: bool) -> Timed:
    """Whole rounds of `ROUND` steps until `seconds` have passed. With
    `trace`, every second step is traced, shifted by one step each round,
    so that traced and untraced steps both cover every state."""
    timed = Timed([], [first.loss], "", [])
    start = perf_counter()
    for r in count():
        if r and perf_counter() - start >= seconds:
            return timed
        if r:
            run.restore()
        losses = []
        for k in range(ROUND):
            step = run.step(1 + k, traced=trace and (r + k) % 2 == 1)
            timed.steps.append(step)
            losses.append(step.loss)
        if r == 0:
            timed.losses += losses
            timed.weights_digest = run.weights_digest()
        elif losses != timed.losses[1:]:
            timed.replay_failures.append((f"round {r}", f"losses {losses} differ from round 0"))


def per_layer(run: Run, timed: Timed, setup_spans: int, model: dict, untraced_p50: float) -> dict:
    """Per-layer figures per timed step; set-up figures per set-up."""
    spans = run.recorder.spans
    traced = [st for st in timed.steps if st.traced]
    layer = defaultdict(float)
    for step in traced:
        for key, value in step.figures.items():
            layer[key] += value / len(traced)
    for name, start, end, parent in spans[:setup_spans]:
        layer[name + ".s"] += (end - start) / SETUP_REPS
    layer["machine.simulate_batch.s"] = sum(
        end - start for name, start, end, parent in spans if name == "machine.simulate_batch"
    )
    layer.update({k: v for k, v in model.items() if k.startswith("machine.")})
    candidates = layer.pop("sparse.encode_sparse.candidates", 0.0)
    if candidates:
        layer["sparse.encode_sparse.keep_ratio"] = layer["sparse.encode_sparse.ids_kept"] / candidates
    ok = [st.activity for st in timed.steps if st.failure is None]
    if ok:
        spikes = np.mean([a.spikes for a in ok], axis=(0, 1))
        grads = np.mean([a.grads for a in ok], axis=(0, 1))
        for k in range(len(spikes)):
            layer[f"activity.l{k + 1}.spikes_per_row"] = float(spikes[k])
            layer[f"activity.l{k + 1}.grads_per_row"] = float(grads[k])
    traced_ok = [st.seconds for st in traced if st.failure is None] or [math.nan]
    layer["trace.overhead_ratio"] = statistics.median(traced_ok) / untraced_p50
    return dict(layer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    s = import_sparsnn()
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(s, WORKLOADS[args.workload], args.seed, bool(args.trace))
    recorder = run.recorder

    setup_times = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        streams = s.synth_pattern_dataset(CLASSES, LAYERS[0], SAMPLES_PER_CLASS, TIMESTEPS, NOISE, args.seed)
        manifest = s.write_dataset(streams, tmp)
        del streams
        for _ in range(SETUP_REPS):
            setup_seconds, first = run.set_up(manifest)
            setup_times.append(setup_seconds)
    setup_spans = len(recorder.spans)

    timed = timed_steps(run, first, args.seconds, bool(args.trace))
    steps = timed.steps
    ok = [st for st in steps if st.failure is None]
    round0 = [st.activity for st in steps[:ROUND] if st.failure is None]
    model = modeled(run, round0) if round0 else {}
    untraced = [st.seconds for st in ok if not st.traced] or [math.nan]
    failures = [(k, st.failure) for k, st in enumerate(steps) if st.failure is not None]
    if first.failure is not None:
        failures.insert(0, ("set-up", first.failure))
    failures += timed.replay_failures

    measured = {
        "steps_attempted": len(steps),
        "steps_failed": len(steps) - len(ok),
        "step_s_p50": statistics.median(untraced),
        "step_s_p50_samples": len(untraced),
        "samples_per_s": BATCH * len(untraced) / sum(untraced),
        "setup_s": statistics.median(setup_times),
        "setup_seconds": setup_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_ok_ratio": len(ok) / len(steps),
        "failures": failures,
        "step_seconds": [st.seconds for st in steps],
        "step_traced": [st.traced for st in steps],
        "hidden_drops": [st.activity.hidden_drops for st in steps],
        "spikes_per_row": [st.activity.spikes.mean(axis=0).tolist() for st in steps],
        "input_drops": [st.activity.input_drops for st in steps],
    }
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "measured": measured,
        "modeled": {"round_steps": ROUND, **model},
        "determinism": {
            "round_steps": ROUND,
            "losses": timed.losses,
            "loss_digest": losses_digest(timed.losses),
            "weights_digest": timed.weights_digest,
        },
        "absent": recorder.absent,
    }

    if args.trace:
        figures = per_layer(run, timed, setup_spans, model, measured["step_s_p50"])
        report["per_layer"] = figures
        if abs(figures["trace.self_coverage"] - 1.0) > 0.10:
            failures.append(("trace", "self times do not sum to the step time within 10%"))
        declared = PER_LAYER
    else:
        figures = {**measured, **model}
        declared = END_TO_END
    values = {name: float(figures.get(name, 0.0 if args.trace else math.nan)) for name in declared}
    finite = all(math.isfinite(v) for v in values.values())
    result = {
        "correct": not failures and bool(model) and finite,
        "attempted": len(steps),
        "failed": len(steps) - len(ok),
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": declared[name]}
            for name, value in values.items()
        },
    }

    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**report, "spans": recorder.spans, "result": result}) + "\n")
    report["measured"] = {k: v for k, v in measured.items() if not isinstance(v, list) or k == "failures"}
    print(json.dumps(report, indent=1))
    print(f"full report: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
