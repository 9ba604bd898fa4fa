"""The call contract that outside instrumentation relies on.

`perfbench/` measures layer activity by replacing `encode_sparse`,
`encode_binary` and `threshold_spikes_dense` in the engine module's
namespace and reading their arguments by name. It needs each called once
per (timestep, layer), with the layer's own `LifParams` and threshold
objects, so that it can tell layers apart by identity. The forward pass
runs one layer at a time, so the calls come layer by layer (the input
first), and each layer's calls come in time order:
`perfbench/counts.py::step_activity` gives the k-th call of a layer to
timestep k. It reads the arguments of the engine's kernel calls and of
`simulate_batch` by parameter name too, and passes some arguments of
`train_step`, `init_network` and `NetworkSpec` by keyword, so renaming one
of the names in `BOUND_BY_NAME` makes every benchmark step fail.
"""

import inspect

import numpy as np
import pytest

import sparsnn
from sparsnn import engine
from sparsnn.lif import NetworkSpec
from sparsnn.model import init_network
from sparsnn.optim import SgdState
from sparsnn.rng import DropRng

HOOKED = ("encode_sparse", "encode_binary", "threshold_spikes_dense")
T = 3

# Parameters that outside instrumentation binds by name, per function.
BOUND_BY_NAME = {
    engine.sparse_forward_current: ("w", "s_in"),
    engine.sparse_weight_grad: ("dl_di", "s_in", "dl_dw_acc"),
    engine.sparse_input_grad: ("dl_di", "w", "s_in"),
    engine.dense_forward_current: ("w", "s_in"),
    engine.dense_weight_grad: ("dl_di", "s_in", "dl_dw_acc"),
    engine.dense_input_grad: ("dl_di", "w"),
    engine.encode_sparse: ("u", "params", "n_max", "with_grads"),
    engine.encode_binary: ("frame",),
    engine.threshold_spikes_dense: ("u", "threshold"),
    sparsnn.simulate_batch: ("mode", "grad_activity"),
    engine.train_step: ("force_spikes",),
    sparsnn.init_network: ("seed", "weight_gain"),
    sparsnn.lif.NetworkSpec: ("layer_sizes", "sparse_sizes", "batch_size", "num_timesteps"),
}


@pytest.mark.parametrize("fn", BOUND_BY_NAME, ids=lambda fn: fn.__name__)
def test_parameters_bound_by_name_keep_their_names(fn):
    params = inspect.signature(fn).parameters
    for name in BOUND_BY_NAME[fn]:
        assert name in params, f"{fn.__name__} has no parameter {name!r}"
        keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        assert params[name].kind in keyword, f"{fn.__name__}: {name!r} is positional-only"


@pytest.fixture
def calls(monkeypatch):
    """(name, arguments by parameter name) of every hooked engine call."""
    seen = []
    for name in HOOKED:
        original = getattr(engine, name)
        signature = inspect.signature(original)

        def wrapper(*args, _name=name, _fn=original, _sig=signature, **kwargs):
            seen.append((_name, _sig.bind(*args, **kwargs).arguments))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, wrapper)
    return seen


def tiny_step(mode, calls):
    """One training step; returns the network, the frames and the forward
    trace of its starting weights (whose hooked calls are cleared)."""
    spec = NetworkSpec((8, 10, 12, 3), (8, 10, 12), batch_size=2, num_timesteps=T)
    rng = np.random.default_rng(0)
    frames = (rng.random((2, T, 8)) < 0.5).astype(np.float32)
    ref, _ = engine.forward_pass(
        init_network(spec, seed=1, weight_gain=4.0), frames, mode, DropRng(3)
    )
    calls.clear()
    net = init_network(spec, seed=1, weight_gain=4.0)
    engine.train_step(
        net, frames, np.array([0, 2]), SgdState(lr=1e-2), mode, DropRng(3)
    )
    return net, frames, ref


def layer_of(net, obj):
    hits = [k for k, p in enumerate(net.params) if obj is p or obj is p.threshold]
    assert len(hits) == 1
    return hits[0]


def test_sparse_step_encodes_once_per_step_and_layer(calls):
    net, frames, ref = tiny_step(engine.SPARSE, calls)
    order = []
    for name, args in calls:
        if name == "encode_binary":
            t = order.count("input")
            assert np.array_equal(args["frame"], frames[:, t])
            order.append("input")
        else:
            assert name == "encode_sparse"
            layer = layer_of(net, args["params"])
            t = order.count(layer)
            assert args["n_max"] == net.spec.sparse_sizes[layer + 1]
            assert args["with_grads"] is True
            assert np.array_equal(args["u"], ref.u[layer][t])
            order.append(layer)
    assert order == ["input"] * T + [0] * T + [1] * T


def test_dense_step_thresholds_once_per_step_and_layer(calls):
    net, _, ref = tiny_step(engine.DENSE, calls)
    assert {name for name, _ in calls} == {"threshold_spikes_dense"}
    order = [layer_of(net, args["threshold"]) for _, args in calls]
    assert order == [0] * T + [1] * T
    for k, (layer, (_, args)) in enumerate(zip(order, calls)):
        assert np.array_equal(args["u"], ref.u[layer][k % T])
