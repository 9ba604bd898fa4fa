"""The call contract that outside instrumentation relies on.

`perfbench/` measures layer activity by replacing `encode_sparse`,
`encode_binary` and `threshold_spikes_dense` in the engine module's
namespace and reading their arguments by name. It needs each called once
per (timestep, layer) in time order, with the layer's own `LifParams` and
threshold objects, so that it can tell layers apart by identity.
"""

import inspect

import numpy as np
import pytest

from sparsnn import engine
from sparsnn.lif import NetworkSpec
from sparsnn.model import init_network
from sparsnn.optim import SgdState
from sparsnn.rng import DropRng

HOOKED = ("encode_sparse", "encode_binary", "threshold_spikes_dense")
T = 3


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


def tiny_step(mode):
    spec = NetworkSpec((8, 10, 12, 3), (8, 10, 12), batch_size=2, num_timesteps=T)
    net = init_network(spec, seed=1, weight_gain=4.0)
    rng = np.random.default_rng(0)
    frames = (rng.random((2, T, 8)) < 0.5).astype(np.float32)
    engine.train_step(
        net, frames, np.array([0, 2]), SgdState(lr=1e-2), mode, DropRng(3)
    )
    return net


def layer_of(net, obj):
    hits = [k for k, p in enumerate(net.params) if obj is p or obj is p.threshold]
    assert len(hits) == 1
    return hits[0]


def test_sparse_step_encodes_once_per_step_and_layer(calls):
    net = tiny_step(engine.SPARSE)
    order = []
    for name, args in calls:
        if name == "encode_binary":
            assert args["frame"].shape == (2, 8)
            order.append("input")
        else:
            assert name == "encode_sparse"
            layer = layer_of(net, args["params"])
            assert args["n_max"] == net.spec.sparse_sizes[layer + 1]
            assert args["with_grads"] is True
            assert args["u"].shape == (2, net.spec.layer_sizes[layer + 1])
            order.append(layer)
    assert order == ["input", 0, 1] * T


def test_dense_step_thresholds_once_per_step_and_layer(calls):
    net = tiny_step(engine.DENSE)
    assert {name for name, _ in calls} == {"threshold_spikes_dense"}
    order = [layer_of(net, args["threshold"]) for _, args in calls]
    assert order == [0, 1] * T
    assert all(args["u"].shape == (2, net.spec.layer_sizes[1 + layer])
               for layer, (_, args) in zip(order, calls))
