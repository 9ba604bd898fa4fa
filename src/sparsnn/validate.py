"""Gradient validation against central finite differences.

The hard-threshold model has no meaningful numeric derivative, so checks
run on the relaxed model (smooth spike, float64): its backward pass is the
exact gradient and must match central differences of its loss. The FD side
only ever calls the forward pass, keeping the two routes independent.
"""

from __future__ import annotations

import numpy as np

from .engine import RELAXED, backward_pass, forward_pass, softmax_cross_entropy
from .errors import ConfigError
from .lif import NetworkSpec
from .model import Network, init_network


def _relaxed_loss(net: Network, inputs: np.ndarray, labels: np.ndarray) -> float:
    _, scores = forward_pass(net, inputs, mode=RELAXED)
    loss, _ = softmax_cross_entropy(scores, labels)
    return loss


def fd_weight_gradients(
    net: Network, inputs: np.ndarray, labels: np.ndarray, eps: float = 1e-3
) -> list:
    """Central differences of the relaxed loss w.r.t. every weight, each
    divided by the step the float32 weight took, not the nominal 2 * eps."""
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be finite and > 0, got {eps}")
    grads = []
    for lw in net.weights:
        w = lw.w
        g = np.zeros(w.shape, dtype=np.float64)
        for k in np.ndindex(w.shape):
            keep = w[k]
            w[k] = keep + eps
            w_hi, hi = float(w[k]), _relaxed_loss(net, inputs, labels)
            w[k] = keep - eps
            w_lo, lo = float(w[k]), _relaxed_loss(net, inputs, labels)
            w[k] = keep
            if w_hi == w_lo:
                raise ConfigError(f"eps {eps} does not move the float32 weight {keep}")
            g[k] = (hi - lo) / (w_hi - w_lo)
        grads.append(g)
    return grads


def check_gradients(
    net: Network, inputs: np.ndarray, labels: np.ndarray, eps: float = 1e-3
) -> float:
    """The worst error of the relaxed model's backward-pass gradients
    against FD, over its weight layers.

    Errors are scale-relative per layer: max|bp - fd| / max(|fd|_inf,
    1e-8), which avoids blowing up on individually tiny entries while
    still demanding three digits of agreement at gradient scale.
    """
    trace, scores = forward_pass(net, inputs, mode=RELAXED)
    _, dl_dscores = softmax_cross_entropy(scores, labels)
    bp = backward_pass(net, trace, dl_dscores)
    fd = fd_weight_gradients(net, inputs, labels, eps)
    return max(
        float(np.abs(g_bp - g_fd).max() / max(np.abs(g_fd).max(), 1e-8))
        for g_bp, g_fd in zip(bp, fd)
    )


def random_tiny_net(seed: int) -> tuple:
    """A small random network (one or two hidden layers; input and hidden
    layers of 2 to 8 neurons) plus matching random inputs/labels.

    The time horizon leaves room for signals to cross every layer (each
    hop costs two steps: current storage, then membrane integration).
    """
    rng = np.random.default_rng(seed)
    hidden = [2 * int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 3)))]
    num_classes = int(rng.integers(2, 5))
    layers = [2 * int(rng.integers(1, 5))] + hidden + [num_classes]
    T = 2 * len(layers) + int(rng.integers(2, 5))
    batch = int(rng.integers(2, 5))
    spec = NetworkSpec(
        layer_sizes=layers,
        sparse_sizes=layers[:-1],
        batch_size=batch,
        num_timesteps=T,
    )
    net = init_network(
        spec,
        seed=int(rng.integers(0, 2**31)),
        alpha=float(rng.uniform(0.5, 0.95)),
        threshold=1.0,
        grad_threshold=0.5,
        beta=5.0,
        weight_gain=2.0,
    )
    inputs = rng.random((batch, T, layers[0])) < 0.4
    labels = rng.integers(0, num_classes, size=batch)
    return net, inputs, labels


def run_gradcheck_suite(num_nets: int = 20, eps: float = 1e-3, seed: int = 42):
    """FD-check `num_nets` random tiny nets; returns (worst, the error of
    each net)."""
    if num_nets < 1:
        raise ConfigError(f"need at least one network to check, got {num_nets}")
    errors = [check_gradients(*random_tiny_net(seed + k), eps) for k in range(num_nets)]
    return max(errors), errors
