"""Leaky integrate-and-fire dynamics, single dense timestep.

Discrete-time model per neuron i with decay alpha, capacitance C,
threshold theta:

    S_i[t]   = step(u_i[t] - theta_i)                    (spike, >= fires)
    u_i[t+1] = alpha * u_i[t] * (1 - S_i[t]) + (1-alpha)/C * I_i[t]
    I_i[t+1] = sum_j w_ij * S_j_in[t]

Note the one-step transmission delay: the current computed from this
step's input spikes only reaches the membrane at the next step. Membranes
and currents are float32; wider intermediates are allowed inside a single
operation but results are rounded back to float32 at the boundary. Spikes
are bool, and become 0.0 and 1.0 only inside an operation, where both are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractViolation


@dataclass(frozen=True)
class LifParams:
    """Per-layer neuron constants.

    alpha: membrane decay in [0, 1), shared by the layer.
    capacitance: divisor applied to the input current, > 0.
    threshold: finite firing threshold per neuron.
    grad_threshold: finite secondary threshold per neuron; neurons between
        it and `threshold` carry gradient information without spiking. Must
        not exceed `threshold`.
    beta: steepness of the surrogate derivative, finite and > 0.
    """

    alpha: float
    capacitance: float
    threshold: np.ndarray
    grad_threshold: np.ndarray
    beta: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if not self.capacitance > 0.0:
            raise ConfigError(f"capacitance must be > 0, got {self.capacitance}")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ConfigError(f"beta must be finite and > 0, got {self.beta}")
        thr = np.asarray(self.threshold, dtype=np.float32)
        gthr = np.asarray(self.grad_threshold, dtype=np.float32)
        if thr.shape != gthr.shape:
            raise ContractViolation("threshold and grad_threshold shapes differ")
        if not (np.isfinite(thr).all() and np.isfinite(gthr).all()):
            raise ConfigError("threshold and grad_threshold must be finite")
        if np.any(gthr > thr):
            raise ConfigError("grad_threshold must be <= threshold elementwise")
        object.__setattr__(self, "threshold", thr)
        object.__setattr__(self, "grad_threshold", gthr)

    @classmethod
    def uniform(
        cls,
        size: int,
        alpha: float = 0.9,
        capacitance: float = 1.0,
        threshold: float = 1.0,
        grad_threshold: float = 0.75,
        beta: float = 10.0,
    ) -> "LifParams":
        """Same constants for every neuron in a layer of `size` neurons."""
        return cls(
            alpha=alpha,
            capacitance=capacitance,
            threshold=np.full(size, threshold, dtype=np.float32),
            grad_threshold=np.full(size, grad_threshold, dtype=np.float32),
            beta=beta,
        )

    @property
    def size(self) -> int:
        return self.threshold.shape[0]

    def step_constants(self, dtype) -> tuple:
        """(alpha, (1 - alpha) / C) in `dtype`: the decay and the input gain
        of one membrane update."""
        dt = np.dtype(dtype).type
        return dt(self.alpha), dt((1.0 - self.alpha) / self.capacitance)


def check_capacity(n_max: int) -> None:
    """The one rule for every spike capacity: even and >= 2."""
    if n_max < 2 or n_max % 2 != 0:
        raise ConfigError(f"spike capacity must be even and >= 2, got {n_max}")


@dataclass
class LayerWeights:
    """Dense weight matrix, rows = post-synaptic, cols = pre-synaptic, stored
    column-major, the one weight layout: each fan-out is contiguous, so the
    transpose of its float64 copy is the C-contiguous Wᵀ the sparse kernels
    gather, with no transposing copy. Write `w` by indexing, not reshape."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asfortranarray(self.w, dtype=np.float32)
        if self.w.ndim != 2:
            raise ContractViolation(f"weights must be 2-D, got shape {self.w.shape}")
        if not np.all(np.isfinite(self.w)):
            raise ContractViolation("weights contain non-finite entries")

    @property
    def n_post(self) -> int:
        return self.w.shape[0]

    @property
    def fan_in(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class NetworkSpec:
    """Static shape of a network and its sparse spike capacities.

    layer_sizes: neuron counts, input first, output last.
    sparse_sizes: spike-tensor capacity per transmitted boundary, i.e. one
        entry per layer that feeds a weight matrix (input plus every hidden
        layer); each must be even, >= 2 and <= the layer size.
    """

    layer_sizes: tuple
    sparse_sizes: tuple
    batch_size: int
    num_timesteps: int

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        object.__setattr__(self, "sparse_sizes", tuple(int(n) for n in self.sparse_sizes))
        if len(self.layer_sizes) < 2:
            raise ConfigError("need at least an input and an output layer")
        if any(n < 1 for n in self.layer_sizes):
            raise ConfigError("layer sizes must be positive")
        if len(self.sparse_sizes) != len(self.layer_sizes) - 1:
            raise ConfigError(
                "expected one sparse size per transmitted layer boundary "
                f"({len(self.layer_sizes) - 1}), got {len(self.sparse_sizes)}"
            )
        for k, n_max in enumerate(self.sparse_sizes):
            check_capacity(n_max)
            if n_max > self.layer_sizes[k]:
                raise ConfigError(
                    f"sparse size {n_max} exceeds layer size {self.layer_sizes[k]}"
                )
        if self.batch_size < 1 or self.num_timesteps < 1:
            raise ConfigError("batch_size and num_timesteps must be >= 1")

    @property
    def num_weight_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    def live_steps(self, l: int) -> int:
        """Weight layer l's `live`: T - 1 at the readout, two fewer at each
        layer below it, down to 0 (the window rule: `engine` docstring)."""
        return max(self.num_timesteps - 1 - 2 * (self.num_weight_layers - 1 - l), 0)

    def windows(self, firsts) -> list:
        """(first, lo, need, live) of each weight layer whose `first`
        `firsts` lists, from layer 0 up: the window rule (`engine`
        docstring). need is live at layer 0, which feeds no sweep."""
        out = []
        for l, first in enumerate(firsts):
            live = self.live_steps(l)
            need = out[-1][1] + 2 if l else live
            lo = min(first, need) if l else first
            out.append((first, lo, need, live))
        return out

    @property
    def receptive_frames(self) -> int:
        """How many input frames reach the loss: frames 0..receptive_frames-1
        do, later ones change no score and no gradient."""
        return self.live_steps(0)

    def made_receptive(self) -> NetworkSpec:
        """This net at T = max(num_timesteps, 2L): 2L is the least T at
        which an input frame reaches the loss (`receptive_frames` 1). The
        scale-up and weak-scaling sweeps price their nets at it."""
        T = max(self.num_timesteps, 2 * self.num_weight_layers)
        return replace(self, num_timesteps=T)


def threshold_spikes_dense(u: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Bool Heaviside spikes: True where u >= threshold (ties fire)."""
    u = np.asarray(u)
    threshold = np.asarray(threshold)
    if u.shape[-1] != threshold.shape[-1]:
        raise ContractViolation(
            f"membrane width {u.shape[-1]} != threshold width {threshold.shape[-1]}"
        )
    return u >= threshold


def membrane_update(
    u: np.ndarray, spikes: np.ndarray, i_syn: np.ndarray, params: LifParams
) -> np.ndarray:
    """u' = alpha * u * (1 - S) + (1 - alpha)/C * I, in the dtype of `u`.
    `spikes` may be bool: 1 - S is formed in the dtype of `u`.

    Shared by the dense and sparse execution paths: the state update is
    dense by nature, only spike transmission differs between them.
    """
    alpha, gain = params.step_constants(u.dtype)
    return alpha * u * (u.dtype.type(1) - spikes) + gain * i_syn


def surrogate(x: np.ndarray, beta: float) -> np.ndarray:
    """Surrogate spike derivative h(x) = 1 / (beta*|x| + 1)^2.

    Even, maximal at x = 0 with h(0) = 1, strictly decreasing in |x|.
    Preserves the floating dtype of `x`. A d that overflows gives the +0.0
    limit exactly, without a warning; a NaN stays NaN.
    """
    if not beta > 0.0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    x = np.asarray(x)
    with np.errstate(over="ignore"):
        d = beta * np.abs(x) + 1.0
        return 1.0 / (d * d)


def relaxed_spike(x: np.ndarray, beta: float) -> np.ndarray:
    """Smooth stand-in for the Heaviside spike, used for gradient checks.

    sigma(x) = (1 + beta*x / (1 + beta*|x|)) / 2 runs from 0 to 1, equals
    1/2 at threshold, and approaches the hard step as beta grows. Its exact
    derivative is (beta/2) * h(x) with h the surrogate above, so a backward
    pass through the relaxed model can be validated by finite differences.
    """
    x = np.asarray(x)
    return 0.5 * (1.0 + beta * x / (1.0 + beta * np.abs(x)))


def relaxed_spike_grad(x: np.ndarray, beta: float) -> np.ndarray:
    """Exact derivative of `relaxed_spike`: (beta/2) / (beta*|x| + 1)^2."""
    x = np.asarray(x)
    with np.errstate(over="ignore"):
        d = beta * np.abs(x) + 1.0
        return 0.5 * beta / (d * d)
