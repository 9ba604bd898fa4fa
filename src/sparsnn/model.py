"""Network container: per-layer weights and neuron constants, plus a
byte-stable checkpoint format.

Checkpoints are written as a JSON header followed by raw little-endian
array payloads, so saving the same network twice produces identical bytes
(no archive timestamps) and a load/save round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .lif import LayerWeights, LifParams, NetworkSpec

_CKPT_MAGIC = b"SNNCKPT1"


@dataclass
class Network:
    spec: NetworkSpec
    weights: list  # LayerWeights, one per weight layer
    params: list  # LifParams, one per weight layer (post-synaptic side)

    def __post_init__(self):
        if len(self.weights) != self.spec.num_weight_layers or len(self.params) != len(
            self.weights
        ):
            raise ConfigError("weights/params do not match the network spec")
        for k, (w, p) in enumerate(zip(self.weights, self.params)):
            n_post, n_pre = self.spec.layer_sizes[k + 1], self.spec.layer_sizes[k]
            if w.w.shape != (n_post, n_pre):
                raise ConfigError(
                    f"layer {k}: weight shape {w.w.shape} != ({n_post}, {n_pre})"
                )
            if p.size != n_post:
                raise ConfigError(f"layer {k}: params sized {p.size} != {n_post}")

    def weight_arrays(self) -> list:
        return [lw.w for lw in self.weights]


def init_network(
    spec: NetworkSpec,
    seed: int,
    alpha: float = 0.9,
    threshold: float = 1.0,
    grad_threshold: float = 0.75,
    beta: float = 10.0,
    weight_gain: float = 3.0,
) -> Network:
    """Fresh network with N(0, (gain/sqrt(fan_in))^2) float32 weights.

    The gain keeps early-layer activity in a useful range for spiking
    dynamics; it is deliberately larger than classic ANN initializations
    because sub-threshold neurons transmit nothing.
    """
    if not (np.isfinite(weight_gain) and weight_gain >= 0):
        raise ConfigError(f"weight gain must be finite and >= 0, got {weight_gain}")
    rng = np.random.default_rng(seed)
    weights, params = [], []
    for k in range(spec.num_weight_layers):
        n_pre, n_post = spec.layer_sizes[k], spec.layer_sizes[k + 1]
        scale = weight_gain / np.sqrt(n_pre)
        w = rng.normal(0.0, scale, size=(n_post, n_pre)).astype(np.float32)
        weights.append(LayerWeights(w))
        params.append(
            LifParams.uniform(
                n_post,
                alpha=alpha,
                threshold=threshold,
                grad_threshold=grad_threshold,
                beta=beta,
            )
        )
    return Network(spec=spec, weights=weights, params=params)


def _array_entry(name: str, arr: np.ndarray, payloads: list) -> dict:
    arr = np.ascontiguousarray(arr)
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    payloads.append(le.tobytes())
    return {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}


def save_checkpoint(path, net: Network, optimizer_state=None, seed: int = 0) -> None:
    """Write network, optimizer state and RNG seed to `path`."""
    from .optim import optimizer_state_to_dict

    payloads: list = []
    arrays = []
    meta = {
        "spec": asdict(net.spec),
        "seed": int(seed),
        "layers": [],
        "optimizer": None,
    }
    for k, (w, p) in enumerate(zip(net.weights, net.params)):
        arrays.append(_array_entry(f"w{k}", w.w, payloads))
        arrays.append(_array_entry(f"thr{k}", p.threshold, payloads))
        arrays.append(_array_entry(f"gthr{k}", p.grad_threshold, payloads))
        meta["layers"].append(
            {"alpha": p.alpha, "capacitance": p.capacitance, "beta": p.beta}
        )
    if optimizer_state is not None:
        opt_meta, opt_arrays = optimizer_state_to_dict(optimizer_state)
        meta["optimizer"] = opt_meta
        for name, arr in opt_arrays:
            arrays.append(_array_entry(name, arr, payloads))
    meta["arrays"] = arrays
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for blob in payloads:
            f.write(blob)


def load_checkpoint(path):
    """Read a checkpoint; returns (Network, optimizer_state, seed).

    Any malformed file (truncated anywhere, a header that is not UTF-8
    JSON or lacks a key, bytes after the last array) raises
    DataFormatError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[:8]
    if magic != _CKPT_MAGIC:
        raise DataFormatError(f"bad checkpoint magic {magic!r}")
    if len(raw) < 12:
        raise DataFormatError(f"{path}: truncated checkpoint header length")
    (hlen,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + hlen
    if len(raw) < offset:
        raise DataFormatError(f"{path}: truncated checkpoint header")
    try:
        meta = json.loads(raw[12:offset].decode("utf-8"))
        data = {}
        for entry in meta["arrays"]:
            dt = np.dtype(entry["dtype"]).newbyteorder("<")
            shape = entry["shape"]
            if not all(isinstance(d, int) and d >= 0 for d in shape):
                raise DataFormatError(f"{path}: bad array shape {shape!r}")
            count = int(np.prod(shape)) if shape else 1
            if len(raw) < offset + count * dt.itemsize:
                raise DataFormatError(f"{path}: truncated checkpoint payload")
            data[entry["name"]] = (
                np.frombuffer(raw, dtype=dt, count=count, offset=offset)
                .reshape(shape)
                .astype(dt.newbyteorder("="))
            )
            offset += count * dt.itemsize
        if offset != len(raw):
            raise DataFormatError(f"{path}: {len(raw) - offset} bytes after the last array")
        return _restore(meta, data)
    except DataFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint header: {exc!r}") from None


def _restore(meta: dict, data: dict):
    """(Network, optimizer_state, seed) from a parsed checkpoint."""
    from .optim import optimizer_state_from_dict

    spec = NetworkSpec(**meta["spec"])
    weights, params = [], []
    for k, layer in enumerate(meta["layers"]):
        weights.append(LayerWeights(data[f"w{k}"]))
        params.append(
            LifParams(
                alpha=layer["alpha"],
                capacitance=layer["capacitance"],
                threshold=data[f"thr{k}"],
                grad_threshold=data[f"gthr{k}"],
                beta=layer["beta"],
            )
        )
    net = Network(spec=spec, weights=weights, params=params)
    opt_state = None
    if meta["optimizer"] is not None:
        opt_state = optimizer_state_from_dict(meta["optimizer"], data)
    return net, opt_state, meta["seed"]
