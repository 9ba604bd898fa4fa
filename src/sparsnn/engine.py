"""Training engine: forward through time, backward through time, loss.

Spikes move between layers through a transport, chosen once per call from
`mode`: dense, sparse or relaxed (`DenseTransport`, `SparseTransport`,
`RelaxedTransport`; each class docstring says what it sends). A transport
holds no weights: `send_input` and `send` make each step's payload, `send`
with the spike matrix that resets the membranes; the kernel calls read
sequences of payloads, joined by `stack`, and the layer's weights.
Binary spikes are bool, input frames and spike matrices alike, and become
floats only inside an operation (the reset factor 1 - S, the float64
`stack`), where 0 and 1 are exact; the relaxed transport's smooth spikes
are float64.

Transports return spike slopes and input gradients dense, zero outside
the sent entries, so the backward pass, the literal adjoint of the forward
program swept in reverse time, runs one recurrence for all of them. Every
transport computes the slopes from the membranes the trace records
(`trace.u`); a sparse payload carries ids only, so the sparse transport
computes the slopes of its retained entries only and zeroes the rest:

    du[t] = alpha * (1 - S[t]) * du[t+1] + h[t] * dS[t]

with h the spike slope and dS the gradient from the layer above plus, with
`reset_grad`, the reset term -alpha * u[t] * du[t+1].

Both passes run one layer at a time ("multi-step" propagation). This is
exact because the network is feedforward across layers, and drop
decisions do not depend on the order of the calls (`rng` docstring). The
forward pass encodes all T input payloads, then for each layer makes one
current call on the stacked payloads of its window (the current of step
t + 1 is driven by the payload of step t), then runs the layer's LIF
loop over t. The backward pass sweeps the top layer first, each layer in
reverse time, then makes one input-gradient call for the layer below and
one weight-gradient call; before it sweeps a hidden layer it forms the
spike slopes of the steps it sweeps. Stacked rows are t-major (t
ascending, then b ascending) in both passes: the forward current and the
weight gradient read one stack.

One window per layer, and this is the one statement of its rule. Weight
layer l gets kernel work only inside its window (first, lo, need, live),
which `NetworkSpec.windows` computes from the `first` of each layer:
- live, the reach: a hidden layer adds two steps between a payload it
  reads and one it sends (the payload of step t drives the current of
  step t + 1, and the membrane of step t + 2 integrates it and fires),
  and the readout's payload of step T - 2 drives the last current the scores
  sum. So layer l's payload of step t reaches the loss only if t <
  live(l) = T - 1 - 2(L - 1 - l), clipped at 0 (`NetworkSpec.live_steps`),
  and only input frames 0..live(0)-1 do (`receptive_frames`). The forward
  pass leaves the later currents +0.0: layer l's membranes and spikes of
  steps 0..live+1, all that the layer above and the sweep read, are
  unchanged, and the later ones, of a layer whose input stopped, reach
  nothing.
- first, the head: the first of steps 0..T-2 whose spike matrix, and so
  whose payload, holds a spike (T - 1 if none does), read from the data,
  as forced spikes and thresholds <= 0 fire at step 0 (`_first_spike`). A
  silent payload drives a current of signed zeros, which leaves a +0.0
  membrane +0.0, and adds nothing to the weight gradient.
- The tail, the mirror of the reach: layer l's dL/dI[t] is exactly zero
  after step live(l). The readout's is live on steps 1..T-1, and a hidden
  layer loses two steps: dL/dS[t] comes from the dL/dI[t + 1] above, and
  dL/dI[t] drives the membrane of step t + 1, so it sees only the dL/dS
  of later steps. On the dead steps du starts at +0.0 and stays +0.0 (a
  +0.0 term plus a signed zero is +0.0).
- lo and need, the sweep's head: call the dL/dI row that pairs with the
  payload of step p row p. Layer l's weight gradient reads rows first(l)
  and later; its input gradient turns row p into the dL/dS of step p,
  which the sweep of layer l - 1 reads only to make its row p - 2. So,
  from layer 0 up, need(l) = lo(l - 1) + 2 is the first step whose dL/dS
  the sweep below reads (need(0) = live(0): layer 0 feeds no sweep), and
  the sweep of layer l makes rows lo(l) = min(first(l), need(l)) and
  later (lo(0) = first(0)), forming spike slopes on the steps lo + 2..
  live + 1 it sweeps. Natural firing gives first >= need, so lo = need;
  forced spikes give every first 0, so lo is 0 and need is 2.
So the forward current and the weight gradient read the payloads of
steps first..live-1, the sweep makes rows lo..live-1 (from live-1 down),
the weight gradient reads the rows from first on, and the input gradient
the rows from need on with the payloads of steps need..live-1. A kernel
with an empty window is not called.
This is exact: the head and the tail leave out only zeros that would be
added to sums that start at +0.0, and the reach, lo and need leave out
only rows that nothing reads. One caveat: the dense kernels are BLAS
products, which may cut a long sum over rows into blocks at points set by
the row count, or by the orientation the weight layout gives them (the
weight gradient is formed as S^T @ dL/dI). A few hundred float32 values
sum exactly in float64 unless their magnitudes span more than about 2^20,
so the float32 transports do not see the regrouping; the float64 relaxed
transport may change in the last bit (seen at 48 x 9 rows, never at
gradient-check sizes), which its FD check covers.

Weight gradients are summed over the window in float64 and rounded once
at the end: one call per layer, on the stacked (dL/dI, payload) rows in
time order, which writes its whole float64 buffer (`kernels` docstring).
Every sparse element receives the same adds in the same order as per-step
calls in time order would give it; the dense gradient is one product over
all (live - first) * B rows. Each layer's is formed right after its
input-gradient call, and its buffer and dL/dI are dropped before the layer
below is swept, so no float64 buffer outlives its layer.

Each weight-reading kernel casts `w.w` to float64 in its layout
(`LayerWeights`), the weight gradients' layout too, when it is called, and
drops the copy when it returns: on the float32 transports a step holds one
float64 weight-sized buffer at a time. The cast is exact, so where it
happens changes no byte.

Transports call kernels, encoders and LIF helpers through this module's
names at call time, so wrappers installed on `sparsnn.engine` (profilers,
activity counters) see each call. Kernels are called at most once per
(layer, pass) with the layer's own weights; encoders and thresholds once per
(timestep, layer), with the layer's own params, each layer's calls in
time order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, NonFiniteStep
from .kernels import (
    dense_forward_current,
    dense_input_grad,
    dense_weight_grad,
    sparse_forward_current,
    sparse_input_grad,
    sparse_weight_grad,
)
from .lif import (
    membrane_update,
    relaxed_spike,
    relaxed_spike_grad,
    surrogate,
    threshold_spikes_dense,
)
from .model import Network
from .rng import DropRng
from .sparse import (
    SparseSpikeBatch,
    check_ids,
    decode_to_dense,
    encode_binary,
    encode_sparse,
    scatter_to_dense,
)

DENSE = "dense"
SPARSE = "sparse"
RELAXED = "relaxed"

# Position stride reserved per training step so drop decisions never reuse
# a stream position across batches: one slot per (timestep, boundary).
MAX_BATCHES_PER_EPOCH = 1 << 20


class DenseTransport:
    """Bool spike matrices between layers, float32 state: the reference
    path. The payload `send` returns is its spike matrix, and the input
    payload is the frame itself. The kernels read W, cast to float64 by
    each call (module docstring)."""

    dtype = np.float32
    always_reset_grad = False

    def send_input(self, t, frame):
        """The payload of input frame t: the frame itself, bool from a
        `SpikeDataset`; `stack` casts it with the other payloads."""
        return frame

    def send(self, l, t, u, params):
        """Hidden layer l's (spike matrix, payload) at step t."""
        s = threshold_spikes_dense(u, params.threshold)
        return s, s

    @staticmethod
    def stack(payloads):
        """The rows of a sequence of payloads, in order, as one float64
        matrix: the one cast the dense kernels need."""
        s = np.asarray(payloads, dtype=np.float64)
        return s.reshape(-1, s.shape[-1])

    def current(self, w, payloads):
        """Current of every row of `payloads` (a sequence of per-step
        payloads), one kernel call; rows follow the payloads."""
        return dense_forward_current(w, self.stack(payloads), self.dtype)

    def sent_slopes(self, u, params, payloads):
        """Spike slopes of a hidden layer at a run of steps, (steps, B, n),
        from its membranes and the payloads it sent at those steps; a dense
        payload sends every slope. One step at a time, so that the
        temporaries stay small."""
        slopes = np.empty_like(u)
        for k, u_t in enumerate(u):
            slopes[k] = surrogate(u_t - params.threshold, params.beta)
        return slopes

    def weight_grad(self, dl_di, payloads, dl_dw_acc):
        dense_weight_grad(dl_di, self.stack(payloads), dl_dw_acc)

    def input_grad(self, dl_di, w, payloads):
        """dL/dS of the sending layer for every row of `payloads`, dense
        (rows, n_pre); a dense product needs only dL/dI."""
        return dense_input_grad(dl_di, w, self.dtype)


class RelaxedTransport(DenseTransport):
    """Dense transport with a smooth spike, float64 state, used only to
    validate the backward pass: its forward is differentiable, so central
    differences of its loss are a ground truth. The reset path is part of
    the true derivative, so gradients always take it."""

    dtype = np.float64
    always_reset_grad = True

    def send(self, l, t, u, params):
        s = relaxed_spike(u - params.threshold, params.beta)
        return s, s

    def sent_slopes(self, u, params, payloads):
        return relaxed_spike_grad(u - params.threshold, params.beta)


class SparseTransport(DenseTransport):
    """Fixed-capacity SparseSpikeBatch payloads between layers; gradients
    reach a neuron only through a retained entry. The spike matrix `send`
    returns is the batch's decoded firing segment, so it holds a spike
    exactly when the batch does (every capacity is at least 2). With
    capacities equal to the layer sizes and a very low secondary threshold
    this reproduces dense. The kernels read Wᵀ.

    Drop decisions for step t at boundary k (0 = input) use stream position
    `rng.position + t * num_weight_layers + k`.
    """

    def __init__(self, spec, rng: DropRng):
        self.capacity = spec.sparse_sizes
        self.rng = rng
        self.boundaries = spec.num_weight_layers

    def _rng_at(self, t, boundary):
        return self.rng.at(self.rng.position + t * self.boundaries + boundary)

    def send_input(self, t, frame):
        return encode_binary(frame, self.capacity[0], self._rng_at(t, 0))

    def send(self, l, t, u, params):
        batch = encode_sparse(
            u, params, self.capacity[l + 1], self._rng_at(t, l + 1), with_grads=True
        )
        return decode_to_dense(batch, u.shape[1]), batch

    @staticmethod
    def stack(payloads):
        """One batch holding the rows of a sequence of batches, in order."""
        return SparseSpikeBatch(
            ids=np.concatenate([p.ids for p in payloads]),
            num_spikes=np.concatenate([p.num_spikes for p in payloads]),
            num_grads=np.concatenate([p.num_grads for p in payloads]),
        )

    def current(self, w, payloads):
        return sparse_forward_current(w, self.stack(payloads))

    def sent_slopes(self, u, params, payloads):
        """The dense transport's slopes of the recorded membranes `u` at the
        entries the payloads retained, and +0.0 elsewhere: one gather, one
        surrogate on the gathered membranes and one scatter."""
        s = self.stack(payloads)
        n = u.shape[-1]
        kept = check_ids(s, s.num_grads, n)
        rows, ids = np.nonzero(kept)[0], s.ids[kept]
        u = u.reshape(-1, n)
        slopes = np.zeros_like(u)
        slopes[rows, ids] = surrogate(u[rows, ids] - params.threshold[ids], params.beta)
        return slopes.reshape(len(payloads), -1, n)

    def weight_grad(self, dl_di, payloads, dl_dw_acc):
        sparse_weight_grad(dl_di, self.stack(payloads), dl_dw_acc)

    def input_grad(self, dl_di, w, payloads):
        s = self.stack(payloads)
        ds = sparse_input_grad(dl_di, w, s)
        return scatter_to_dense(s, ds, s.num_grads, w.fan_in)


def _transport(mode: str, spec, rng: DropRng | None, force_spikes: bool):
    """The transport that `mode` names; the one place the engine reads it."""
    if mode == DENSE:
        return DenseTransport()
    if mode == SPARSE:
        if rng is None:
            raise ConfigError("sparse mode needs a DropRng")
        return SparseTransport(spec, rng)
    if mode == RELAXED:
        if force_spikes:
            raise ConfigError("force_spikes is not meaningful in relaxed mode")
        return RelaxedTransport()
    raise ConfigError(f"unknown mode {mode!r}")


@dataclass
class ForwardTrace:
    """Everything the backward sweep needs, recorded per weight layer.

    transport: the transport the forward pass ran.
    u[l][t]: membrane at the start of step t. The synaptic currents are
        not kept: the backward sweep never reads them.
    spikes[l][t]: the (B, n) spike matrix hidden layer l sent at step t,
        one per step, bool (float64 in the relaxed transport); spikes[l]
        is None for the readout layer.
    sent[l][t]: the payload weight layer l read at step t, one per step;
        sent[0] holds the input payloads, which the dense transports take
        as the frames themselves. A dense payload is the spike matrix
        itself: sent[l][t] is spikes[l - 1][t] for l >= 1.
    first[l]: the head of weight layer l's window (module docstring), read
        from the spike matrices that drive its current: the input frames
        for l = 0, spikes[l - 1] above.
    """

    transport: DenseTransport
    u: list
    spikes: list
    sent: list
    first: list


@dataclass
class EpochMetrics:
    mean_loss: float
    accuracy: float


def forward_pass(
    net: Network,
    inputs: np.ndarray,
    mode: str = DENSE,
    rng: DropRng | None = None,
    force_spikes: bool = False,
):
    """Run the network over all timesteps; returns (trace, scores).

    Every weight layer below the top is hidden: its neurons spike and send.
    The last weight layer is a non-spiking integrator, and the scores are
    the sum over steps of its membrane after each update. Each layer's
    current is computed on its window only (module docstring); the LIF
    loops, the sends and the encoders run at every step.

    `inputs` is a (B, T, input_size) binary array, bool or float. In
    sparse mode `rng` supplies drop decisions; its position is advanced
    internally by one slot per (timestep, layer boundary). `force_spikes`
    drives every hidden neuron above threshold each step, saturating spike
    batches at capacity (throughput lower-bound mode).
    """
    spec = net.spec
    inputs = np.asarray(inputs)
    if inputs.ndim != 3 or inputs.shape[1] != spec.num_timesteps or inputs.shape[2] != spec.input_size:
        raise ContractViolation(
            f"inputs shape {inputs.shape} != (B, {spec.num_timesteps}, {spec.input_size})"
        )
    transport = _transport(mode, spec, rng, force_spikes)
    trace = ForwardTrace(transport, [], [], [], [])
    dtype = transport.dtype

    batch = inputs.shape[0]
    T = spec.num_timesteps
    L = spec.num_weight_layers
    scores = np.zeros((batch, spec.output_size), dtype=dtype)

    # What weight layer l reads at each step, and the spike matrices of
    # those payloads: the input frames for l = 0.
    payloads = [transport.send_input(t, inputs[:, t, :]) for t in range(T)]
    spikes = inputs.transpose(1, 0, 2)
    for l in range(L):
        params = net.params[l]
        hidden = l < L - 1
        shape = (T, batch, spec.layer_sizes[l + 1])
        # The current of step t + 1 is driven by the payload of step t.
        trace.first.append(_first_spike(spikes))
        first, _, _, live = spec.windows(trace.first)[l]
        i_syn = np.zeros(shape, dtype=dtype)
        if live > first:
            i_syn[first + 1 : live + 1] = transport.current(
                net.weights[l], payloads[first:live]
            ).reshape((live - first,) + shape[1:])
        u_seen = np.empty(shape, dtype=dtype)
        spikes, sent = ([], []) if hidden else (None, None)

        u = np.zeros(shape[1:], dtype=dtype)
        for t in range(T):
            if hidden and force_spikes:
                u = np.broadcast_to(
                    params.threshold + np.float32(1.0), u.shape
                ).astype(dtype)
            u_seen[t] = u
            if hidden:
                s, payload = transport.send(l, t, u, params)
                spikes.append(s)
                sent.append(payload)
                u = membrane_update(u, s, i_syn[t], params)
            else:
                u = membrane_update(u, np.zeros_like(u), i_syn[t], params)
                scores += u

        trace.u.append(u_seen)
        trace.spikes.append(spikes)
        trace.sent.append(payloads)
        payloads = sent

    return trace, scores


def backward_pass(
    net: Network,
    trace: ForwardTrace,
    dl_dscores: np.ndarray,
    reset_grad: bool = True,
) -> list:
    """Reverse-time sweep over a recorded trace; returns dL/dw of every
    weight layer, in the transport's dtype.

    `reset_grad` routes gradients through the (1 - S) reset factor using
    the spike slope; the relaxed transport always takes the reset path.

    Each layer works only on its window of `trace.first` (module
    docstring); a layer with no weight-gradient call has a zero gradient.
    """
    spec = net.spec
    transport = trace.transport
    dt = transport.dtype
    reset_grad = reset_grad or transport.always_reset_grad
    dl_dscores = np.asarray(dl_dscores, dtype=dt)
    batch = dl_dscores.shape[0]
    L = spec.num_weight_layers

    wins = spec.windows(trace.first)
    grads = [None] * L
    ds = None  # dL/dS of the layer being swept, from the layer above
    for l in range(L - 1, -1, -1):
        first, lo, need, live = wins[l]
        w, sent = net.weights[l], trace.sent[l]
        if live > lo:
            dl_di = _sweep_layer(net, trace, l, lo, live, ds, dl_dscores, reset_grad)
        ds = None  # freed before the next input-grad call allocates
        if live > need:
            ds = transport.input_grad(
                dl_di[(need - lo) * batch :], w, sent[need:live]
            ).reshape(live - need, batch, -1)
        if live > first:
            # Written whole by the kernel (`kernels` docstring).
            acc = np.empty_like(w.w, dtype=np.float64)
            transport.weight_grad(dl_di[(first - lo) * batch :], sent[first:live], acc)
            grads[l] = acc.astype(dt)
        else:
            grads[l] = np.zeros_like(w.w, dtype=dt)
        dl_di = acc = None  # freed before the layer below allocates
    return grads


def _first_spike(spikes) -> int:
    """The first of steps 0..T-2 whose spike matrix holds a spike, T - 1
    if none does."""
    T = len(spikes)
    return next((t for t in range(T - 1) if spikes[t].any()), T - 1)


def _sweep_layer(net, trace, l, lo, live, ds_in, dl_dscores, reset_grad) -> np.ndarray:
    """Reverse-time sweep of weight layer l's neurons over its window's
    rows lo..live-1 (module docstring). Returns dL/dI of steps lo+1..live
    in time order as one float64 ((live - lo)*B, n) matrix, which both of
    the layer's gradient kernels read: row block r pairs with the payload
    of step lo + r.

    One index r, from live - lo - 1 down to 0, names row r and step
    lo + 2 + r, whose membrane, spikes, slopes and dL/dS from above
    (`ds_in[r]`; None for the readout layer) a hidden layer reads; the
    readout adds the scores' gradient of step lo + 1 + r. Iteration r
    leaves du = du[lo + 2 + r], and row r is gain * du = dL/dI[lo + 1 + r].
    du is +0.0 before the first iteration (the tail), so the sweep starts
    there from +0.0, the exact value a sweep from step T - 1 reaches.
    """
    transport = trace.transport
    dt = transport.dtype
    hidden = l < net.spec.num_weight_layers - 1
    params = net.params[l]
    alpha, gain = params.step_constants(dt)
    batch, n = dl_dscores.shape[0], net.spec.layer_sizes[l + 1]
    di = np.empty((live - lo, batch, n))
    du = np.zeros((batch, n), dtype=dt)
    if hidden:
        swept = slice(lo + 2, live + 2)
        u, spikes = trace.u[l][swept], trace.spikes[l][swept]
        slopes = transport.sent_slopes(u, params, trace.sent[l + 1][swept])

    # A diverged step overflows here; `_check_finite` reports it by layer.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(live - lo - 1, -1, -1):
            if hidden:
                ds = ds_in[r]
                if reset_grad:
                    ds = ds + (-alpha) * u[r] * du
                du = alpha * (dt(1) - spikes[r]) * du + slopes[r] * ds
            else:
                du = alpha * du + dl_dscores
            di[r] = gain * du
    return di.reshape(-1, n)


def softmax_cross_entropy(scores: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(scores) against integer labels.

    Returns (loss, dl_dscores) with the gradient in the dtype of `scores`.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    z = scores.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    b = scores.shape[0]
    nll = -np.log(np.maximum(p[np.arange(b), labels], 1e-300))
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return float(nll.mean()), grad.astype(scores.dtype)


def train_step(
    net: Network,
    frames: np.ndarray,
    labels: np.ndarray,
    opt_state,
    mode: str,
    rng: DropRng | None,
    reset_grad: bool = True,
    force_spikes: bool = False,
):
    """forward + loss + backward + optimizer update on one batch.

    Returns (loss, scores). A non-finite loss or gradient raises
    NonFiniteStep before the update (see `_check_finite`).
    """
    from .optim import optimizer_step

    trace, scores = forward_pass(
        net, frames, mode=mode, rng=rng, force_spikes=force_spikes
    )
    loss, dl_dscores = softmax_cross_entropy(scores, labels)
    grads = backward_pass(net, trace, dl_dscores, reset_grad=reset_grad)
    _check_finite(net, loss, grads)
    optimizer_step(net.weight_arrays(), grads, opt_state)
    return loss, scores


def _check_finite(net: Network, loss: float, grads: list) -> None:
    """Raise NonFiniteStep, naming the first weight layer whose gradient or
    weight holds a non-finite entry, if the loss or a gradient or weight
    sum is not finite. A NaN weight need not reach the gradients: a sparse
    run without `reset_grad` never retains the neuron whose membrane it
    makes NaN. The normal path costs one reduction per array; the arrays
    are scanned only after that check fails (a sum can also overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if (
            np.isfinite(loss)
            and all(np.isfinite(g.sum()) for g in grads)
            and all(np.isfinite(w.w.sum()) for w in net.weights)
        ):
            return
    for l, (g, w) in enumerate(zip(grads, net.weights)):
        for name, a in (("gradient", g), ("weight", w.w)):
            if not np.isfinite(a).all():
                raise NonFiniteStep(f"non-finite {name} in weight layer {l}")
    if not np.isfinite(loss):
        raise NonFiniteStep(f"non-finite loss {loss}")


def train_epoch(
    net: Network,
    dataset,
    opt_state,
    mode: str = DENSE,
    drop_seed: int = 0,
    epoch_index: int = 0,
    reset_grad: bool = True,
) -> EpochMetrics:
    """One pass over `dataset` (a SpikeDataset or anything with the same
    minibatches() signature), updating the network in place."""
    spec = net.spec
    order_rng = np.random.default_rng((drop_seed, epoch_index, 0xE90C))
    stride = spec.num_timesteps * spec.num_weight_layers
    losses = []
    correct = 0
    seen = 0
    for bi, (frames, labels) in enumerate(
        dataset.minibatches(spec.batch_size, order_rng)
    ):
        if bi >= MAX_BATCHES_PER_EPOCH:
            raise ConfigError("too many batches per epoch for the drop stream")
        base = (epoch_index * MAX_BATCHES_PER_EPOCH + bi) * stride
        rng = DropRng(drop_seed, base) if mode == SPARSE else None
        try:
            loss, scores = train_step(
                net, frames, labels, opt_state, mode, rng, reset_grad=reset_grad
            )
        except NonFiniteStep as exc:
            raise NonFiniteStep(f"epoch {epoch_index}, batch {bi}: {exc}") from None
        losses.append(loss)
        correct += int((scores.argmax(axis=1) == labels).sum())
        seen += len(labels)
    if not losses:
        raise ConfigError("dataset yielded no batches at this batch size")
    return EpochMetrics(mean_loss=float(np.mean(losses)), accuracy=correct / seen)


def evaluate(
    net: Network,
    dataset,
    mode: str = DENSE,
    drop_seed: int = 0,
) -> float:
    """Classification accuracy of the current weights on `dataset`."""
    spec = net.spec
    stride = spec.num_timesteps * spec.num_weight_layers
    correct = 0
    seen = 0
    for bi, (frames, labels) in enumerate(dataset.minibatches(spec.batch_size, None)):
        base = (1 << 40) + bi * stride
        rng = DropRng(drop_seed, base) if mode == SPARSE else None
        _, scores = forward_pass(net, frames, mode=mode, rng=rng)
        correct += int((scores.argmax(axis=1) == labels).sum())
        seen += len(labels)
    if seen == 0:
        raise ConfigError("dataset yielded no batches at this batch size")
    return correct / seen
