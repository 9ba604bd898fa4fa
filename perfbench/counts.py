"""Layer activity and work counts computed from the engine's calls.

`summarise` reduces one wrapped call's arguments and result to a small dict
of counts as the call returns (see `spans.Recorder`); `step_activity` and
`work_counts` add those dicts up over one step. No count comes from
`sparsnn.kernels.counters`, which is process-wide and not thread-safe.
Layers are identified by the `LayerWeights`, `LifParams` or threshold
array the call received; a call that names none of them has layer None
and counts towards the unsuffixed figures only.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

_SIGNATURES: dict = {}

# Keys of a call summary that add up to the `<span>.<key>` work counts.
COUNTS = ("weight_reads", "weight_writes", "ids_kept", "candidates", "spikes_dropped", "grads_dropped")


def bind(fn, args: tuple, kwargs: dict) -> dict:
    """The call's arguments by parameter name, defaults filled in."""
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class LayerIndex:
    """Weight-layer index of the objects a network hands to the engine."""

    def __init__(self, net):
        self.params = net.params
        self._index = {}
        for k, (w, p) in enumerate(zip(net.weights, net.params)):
            self._index[id(w)] = k
            self._index[id(p)] = k
            self._index[id(p.threshold)] = k

    def __call__(self, obj):
        return self._index.get(id(obj))


def _spikes(batch) -> int:
    return int(batch.num_spikes.sum())


def _retained(batch) -> int:
    return int(batch.num_grads.sum())


# Weight reads and writes are counted per batch row: a sparse kernel
# touches n_post weights per retained id, a dense one n_post per input.


def _sparse_forward(a, result, layer_of):
    return {"layer": layer_of(a["w"]), "weight_reads": _spikes(a["s_in"]) * a["w"].n_post}


def _sparse_weight_grad(a, result, layer_of):
    return {"layer": None, "weight_writes": _spikes(a["s_in"]) * a["dl_dw_acc"].shape[0]}


def _sparse_input_grad(a, result, layer_of):
    return {"layer": layer_of(a["w"]), "weight_reads": _retained(a["s_in"]) * a["w"].n_post}


def _dense_forward(a, result, layer_of):
    return {"layer": layer_of(a["w"]), "weight_reads": np.shape(a["s_in"])[0] * a["w"].w.size}


def _dense_weight_grad(a, result, layer_of):
    return {"layer": None, "weight_writes": np.shape(a["s_in"])[0] * a["dl_dw_acc"].size}


def _dense_input_grad(a, result, layer_of):
    return {"layer": layer_of(a["w"]), "weight_reads": np.shape(a["dl_di"])[0] * a["w"].w.size}


def _encode_sparse(a, batch, layer_of):
    """Kept and candidate spikes and gradient-only entries of one call."""
    u, params = np.asarray(a["u"]), a["params"]
    fires = u >= params.threshold
    band = (u >= params.grad_threshold) & ~fires if a["with_grads"] else np.zeros_like(fires)
    kept_s = batch.num_spikes.astype(np.int64)
    kept_g = batch.num_grads.astype(np.int64) - kept_s
    cand_s, cand_g = int(fires.sum()), int(band.sum())
    return {
        "layer": layer_of(params),
        "spikes": float(kept_s.mean()),
        "grads": float(kept_g.mean()),
        "full": bool(np.all(kept_s == a["n_max"])),
        "ids_kept": int(kept_s.sum() + kept_g.sum()),
        "candidates": cand_s + cand_g,
        "spikes_dropped": cand_s - int(kept_s.sum()),
        "grads_dropped": cand_g - int(kept_g.sum()),
    }


def _threshold_dense(a, result, layer_of):
    layer = layer_of(a["threshold"])
    if layer is None:
        return None
    u = np.asarray(a["u"])
    band = (u >= layer_of.params[layer].grad_threshold) & (u < a["threshold"])
    return {
        "layer": layer,
        "spikes": float(np.asarray(result).sum(axis=1).mean()),
        "grads": float(band.sum(axis=1).mean()),
        "full": False,
    }


def _encode_binary(a, batch, layer_of):
    return {
        "spikes": float(batch.num_spikes.mean()),
        "spikes_dropped": int(np.count_nonzero(a["frame"])) - _spikes(batch),
    }


_SUMMARIES = {
    "kernels.sparse_forward_current": _sparse_forward,
    "kernels.sparse_weight_grad": _sparse_weight_grad,
    "kernels.sparse_input_grad": _sparse_input_grad,
    "kernels.dense_forward_current": _dense_forward,
    "kernels.dense_weight_grad": _dense_weight_grad,
    "kernels.dense_input_grad": _dense_input_grad,
    "sparse.encode_sparse": _encode_sparse,
    "lif.threshold_spikes_dense": _threshold_dense,
    "sparse.encode_binary": _encode_binary,
}


def summarise(span: str, fn, args: tuple, kwargs: dict, result, layer_of: LayerIndex):
    """The counts one call contributes, or None for a call that has none."""
    reduce = _SUMMARIES.get(span)
    return None if reduce is None else reduce(bind(fn, args, kwargs), result, layer_of)


@dataclass
class Activity:
    """What one step's hidden and input layers carried.

    spikes, grads: (T, hidden) mean spikes and gradient-only entries per
        batch row; NaN where the step made no matching call.
    inputs: (T,) mean input spikes per row after the capacity cut.
    hidden_drops, input_drops: candidates the capacity cut removed.
    full: every hidden row's spike segment is at its capacity.
    """

    spikes: np.ndarray
    grads: np.ndarray
    inputs: np.ndarray
    hidden_drops: int
    input_drops: int
    full: bool


def step_activity(calls: list, spec, frames: np.ndarray) -> Activity:
    """Activity from the encoder calls (sparse) or threshold calls (dense).

    Calls of one layer arrive in timestep order, so the k-th call of a
    layer belongs to timestep k.
    """
    T = spec.num_timesteps
    hidden = spec.num_weight_layers - 1
    spikes = np.full((T, hidden), np.nan)
    grads = np.full((T, hidden), np.nan)
    inputs = np.asarray(frames).sum(axis=2).mean(axis=0)
    seen = [0] * spec.num_weight_layers
    hidden_drops = input_drops = sparse_input = 0
    full = True
    for call in calls:
        d = call.data
        if call.span == "sparse.encode_binary":
            input_drops += d["spikes_dropped"]
            if sparse_input < T:
                inputs[sparse_input] = d["spikes"]
            sparse_input += 1
            continue
        if call.span not in ("sparse.encode_sparse", "lif.threshold_spikes_dense"):
            continue
        hidden_drops += d.get("spikes_dropped", 0) + d.get("grads_dropped", 0)
        full = full and d["full"]
        layer = d["layer"]
        if layer is None or layer >= hidden or seen[layer] >= T:
            continue
        spikes[seen[layer], layer] = d["spikes"]
        grads[seen[layer], layer] = d["grads"]
        seen[layer] += 1
    return Activity(spikes, grads, inputs, hidden_drops, input_drops, full)


def work_counts(calls: list) -> dict:
    """Exact work of one step, by metric name."""
    out = {}
    for call in calls:
        for key in COUNTS:
            if key in call.data:
                name = f"{call.span}.{key}"
                out[name] = out.get(name, 0) + call.data[key]
    return out
