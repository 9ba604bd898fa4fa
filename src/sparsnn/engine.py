"""Training engine: forward through time, backward through time, loss.

Spikes move between layers through a transport, chosen once per call from
`mode`:

dense    binary spike matrices; the reference path.
sparse   fixed-capacity SparseSpikeBatch payloads; gradients reach a neuron
         only through a retained entry. With capacities equal to the layer
         sizes and a very low secondary threshold this reproduces dense.
relaxed  dense with a smooth spike in float64; only used to validate the
         backward pass against finite differences (its forward is
         differentiable, so central differences of its loss are a ground
         truth).

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
decisions are a pure function of (seed, position, row, salt), so they do
not depend on the order of the calls. The forward pass encodes all T input
payloads, then for each layer makes one current call on the stacked
payloads of its window (the current of step t + 1 is driven by the
payload of step t), then runs the layer's LIF loop over t. The backward
pass sweeps the top layer first, each layer in reverse time, and then
makes one input-gradient call for the layer below; before it sweeps a
hidden layer it forms the spike slopes of the steps it sweeps. Stacked
rows are t-major; in the backward pass they are in sweep order (t
descending, then b ascending).

One window per layer. Weight layer l gets kernel work only on payload
steps first(l)..live(l)-1, and `_window` is the one place both passes
read them from.
- The head: `first` is the first of steps 0..T-2 whose payload holds a
  spike (T - 1 if none does), read from the data, not from a rule: a
  hidden layer cannot fire before its input has, but forced spikes and
  thresholds <= 0 fire at step 0. A silent payload drives a current of
  signed zeros, and a +0.0 membrane updated with a signed-zero current
  stays +0.0, so the forward pass computes the currents of steps
  first+1..T-1 only and leaves the earlier ones +0.0. A silent payload
  adds nothing to the weight gradient either.
- The tail: the last step's payload drives nothing, and each layer adds
  a one-step delay, so dL/dI is exactly zero on a tail of steps. Call
  dL/dI[t] of weight layer l live if t <= live(l): the readout's dL/dI is
  live on steps 1..T-1, and a hidden layer has
  live(l) = max(live(l + 1) - 2, 0). One step is lost because dL/dS[t]
  comes from the dL/dI[t + 1] of the layer above, the other because
  dL/dI[t] drives the membrane of step t + 1, so it sees only the dL/dS
  of steps after t. On the dead steps du starts at +0.0 and stays +0.0
  (a +0.0 term plus a signed zero is +0.0), so a dead row is +0.0.
- Rows no sweep reads: the sweep of layer l - 1 stops at step 2, so it
  reads the dL/dS of payload steps 2..live(l)-1 only, and the input
  gradient is not formed for steps 0 and 1.
So the sweep covers steps live..1, the weight gradient gets the first
(live - first) * B of its rows with the payloads of steps live-1..first,
and the input gradient the first (live - 2) * B rows with the payloads of
steps live-1..2; a kernel with an empty window is not called. This is
exact: the head and the tail leave out only zeros that would be added to
sums that start at +0.0, which leaves them unchanged, and the input
gradient leaves out only rows that nothing reads. One caveat: the dense kernels are BLAS products,
which may cut a long sum over rows into blocks at points set by the row
count. A few hundred float32 dL/dI values sum exactly in float64 unless
their magnitudes span more than about 2^20, so the float32 transports do
not see the regrouping; the float64 relaxed transport can change in the
last bit once a layer has more rows than a block (seen at 48 x 9 rows,
never at gradient-check sizes).

Weight gradients accumulate over the window in float64 and are rounded
once at the end: one call per layer, on the stacked (dL/dI, payload) rows
in sweep order. Every sparse element receives the same adds in the same
order as a per-step sweep would give it; the dense gradient is one
product over all (live - first) * B rows. They are accumulated after the
sweep, when the weight copies are gone, one float64 accumulator at a time.

A transport holds one float64 copy of every weight matrix, in the layout
its kernels read: W for dense and relaxed, the C-contiguous transpose Wᵀ
for sparse. `forward_pass` builds it, and `backward_pass` reuses it in
the sweep, dropping each layer's copy after that layer's input-gradient
call, so a training step casts each matrix once. The sparse transport's
weight-gradient accumulators are column-major (order="F"), so the
gradient of one firing id is one contiguous row of an accumulator's
transpose.

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
    transposed64,
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
    """Binary spike matrices between layers, float32 state.

    `w64[l]` is `cast(w)` of weight layer l, held from `load` until the
    backward pass has made layer l's input-gradient call, or `release`;
    `acc_order` is the memory layout of the weight-gradient accumulators.
    """

    dtype = np.float32
    always_reset_grad = False
    acc_order = "C"
    w64 = None

    @staticmethod
    def cast(w):
        return w.w.astype(np.float64)

    def load(self, weights):
        """Cast every weight layer, unless the copies are already held."""
        if self.w64 is None:
            self.w64 = [self.cast(w) for w in weights]

    def release(self):
        self.w64 = None

    def fire(self, u, params):
        """Spikes of a layer's neurons at membrane `u`."""
        return threshold_spikes_dense(u, params.threshold)

    def send_input(self, t, frame):
        return frame.astype(self.dtype)

    def send(self, l, t, u, params):
        """Hidden layer l's spikes at step t: (dense spikes, payload)."""
        s = self.fire(u, params)
        return s, s

    def payloads(self, spikes):
        """Where a trace keeps the payloads of the layer whose (T, B, n)
        spike matrices are `spikes`: a dense payload is the matrix."""
        return spikes

    @staticmethod
    def holds_spike(payload):
        """Whether a payload drives a current that is not all zero."""
        return np.any(payload)

    @staticmethod
    def stack(payloads):
        """The rows of a sequence of payloads, in order, as one float64
        matrix: the one cast the dense kernels need."""
        s = np.asarray(payloads, dtype=np.float64)
        return s.reshape(-1, s.shape[-1])

    def current(self, l, w, payloads):
        """Current of every row of `payloads` (a sequence of per-step
        payloads), one kernel call; rows follow the payloads."""
        return dense_forward_current(w, self.stack(payloads), self.w64[l], self.dtype)

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

    def input_grad(self, l, dl_di, w, payloads):
        """dL/dS of the sending layer for every row of `payloads`, dense
        (rows, n_pre); a dense product needs only dL/dI."""
        return dense_input_grad(dl_di, w, self.w64[l], self.dtype)


class RelaxedTransport(DenseTransport):
    """Dense transport with a smooth spike, float64 state. The reset path
    is part of the true derivative, so gradients always take it."""

    dtype = np.float64
    always_reset_grad = True

    def fire(self, u, params):
        return relaxed_spike(u - params.threshold, params.beta)

    def sent_slopes(self, u, params, payloads):
        return relaxed_spike_grad(u - params.threshold, params.beta)


class SparseTransport(DenseTransport):
    """Fixed-capacity spike batches between layers.

    Drop decisions for step t at boundary k (0 = input) use stream position
    `rng.position + t * num_weight_layers + k`.
    """

    acc_order = "F"
    cast = staticmethod(transposed64)

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

    def payloads(self, spikes):
        return [None] * len(spikes)

    @staticmethod
    def holds_spike(payload):
        return payload.num_spikes.any()

    @staticmethod
    def stack(payloads):
        """One batch holding the rows of a sequence of batches, in order."""
        return SparseSpikeBatch(
            ids=np.concatenate([p.ids for p in payloads]),
            num_spikes=np.concatenate([p.num_spikes for p in payloads]),
            num_grads=np.concatenate([p.num_grads for p in payloads]),
        )

    def current(self, l, w, payloads):
        return sparse_forward_current(w, self.stack(payloads), self.w64[l])

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

    def input_grad(self, l, dl_di, w, payloads):
        s = self.stack(payloads)
        ds = sparse_input_grad(dl_di, w, s, self.w64[l])
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
    spikes[l]: (T, B, n) spike matrices of a hidden layer, None for the
        readout layer.
    sent[l][t]: the payload weight layer l read at step t; sent[0] holds
        the input frames. Dense payloads are spike matrices, so there
        sent[l] is spikes[l - 1] itself for l >= 1.
    """

    transport: DenseTransport
    u: list
    spikes: list
    sent: list
    num_timesteps: int


@dataclass
class EpochMetrics:
    mean_loss: float
    accuracy: float
    batches: int


def forward_pass(
    net: Network,
    inputs: np.ndarray,
    mode: str = DENSE,
    rng: DropRng | None = None,
    force_spikes: bool = False,
    record_trace: bool = True,
):
    """Run the network over all timesteps; returns (trace, scores).

    Every weight layer below the top is hidden: its neurons spike and send.
    The last weight layer is a non-spiking integrator, and the scores are
    the sum over steps of its membrane after each update.

    `inputs` is a (B, T, input_size) binary array. In sparse mode `rng`
    supplies drop decisions; its position is advanced internally by one
    slot per (timestep, layer boundary). `force_spikes` drives every
    hidden neuron above threshold each step, saturating spike batches at
    capacity (throughput lower-bound mode). With `record_trace=False` only
    the scores are computed (evaluation).
    """
    spec = net.spec
    inputs = np.asarray(inputs)
    if inputs.ndim != 3 or inputs.shape[1] != spec.num_timesteps or inputs.shape[2] != spec.input_size:
        raise ContractViolation(
            f"inputs shape {inputs.shape} != (B, {spec.num_timesteps}, {spec.input_size})"
        )
    transport = _transport(mode, spec, rng, force_spikes)
    transport.load(net.weights)
    dtype = transport.dtype

    batch = inputs.shape[0]
    T = spec.num_timesteps
    L = spec.num_weight_layers
    scores = np.zeros((batch, spec.output_size), dtype=dtype)
    trace = ForwardTrace(transport, [], [], [], T) if record_trace else None

    # What weight layer l reads at each step: the input frames for l = 0.
    payloads = [transport.send_input(t, inputs[:, t, :]) for t in range(T)]
    for l in range(L):
        params = net.params[l]
        hidden = l < L - 1
        shape = (T, batch, spec.layer_sizes[l + 1])
        # The current of step t + 1 is driven by the payload of step t;
        # the last step's payload drives nothing, and neither do the silent
        # payloads before the layer's window.
        first, _ = _window(transport, payloads, l, L)
        i_syn = np.zeros(shape, dtype=dtype)
        if first < T - 1:
            i_syn[first + 1 :] = transport.current(
                l, net.weights[l], payloads[first:-1]
            ).reshape((T - 1 - first,) + shape[1:])
        u_seen = np.empty(shape, dtype=dtype) if record_trace else None
        spikes = np.empty(shape, dtype=dtype) if hidden else None
        sent = transport.payloads(spikes) if hidden else None

        u = np.zeros(shape[1:], dtype=dtype)
        for t in range(T):
            if hidden and force_spikes:
                u = np.broadcast_to(
                    params.threshold + np.float32(1.0), u.shape
                ).astype(dtype)
            if record_trace:
                u_seen[t] = u
            if hidden:
                s, sent[t] = transport.send(l, t, u, params)
                spikes[t] = s
                u = membrane_update(u, s, i_syn[t], params)
            else:
                u = membrane_update(u, np.zeros_like(u), i_syn[t], params)
                scores += u

        if record_trace:
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

    Only each layer's window gets work (module docstring): weight layer
    l's dL/dI is swept on steps live..1, with live = T - 1 at the readout
    and two fewer at each layer below it, down to 0; its kernels read the
    rows of steps live..first+1 (weight gradient) and live..3 (input
    gradient). A kernel with an empty window is not called; a layer with
    no weight-gradient call has a zero gradient.
    """
    spec = net.spec
    transport = trace.transport
    dt = transport.dtype
    reset_grad = reset_grad or transport.always_reset_grad
    dl_dscores = np.asarray(dl_dscores, dtype=dt)
    batch = dl_dscores.shape[0]
    T = trace.num_timesteps
    L = spec.num_weight_layers

    transport.load(net.weights)
    dl_di = [None] * L
    windows = [None] * L
    ds = None  # dL/dS of the layer being swept, from the layer above
    for l in range(L - 1, -1, -1):
        windows[l] = first, live = _window(transport, trace.sent[l], l, L)
        if live:
            dl_di[l] = _sweep_layer(net, trace, l, live, ds, dl_dscores, reset_grad)
        ds = None  # freed before the next input-grad call allocates
        if l > 0 and live > 2:
            # The sweep below reads dL/dS of steps 2..live-1 only: the
            # first (live - 2) * B rows and the payloads of steps live-1..2.
            ds = transport.input_grad(
                l, dl_di[l][: (live - 2) * batch], net.weights[l], trace.sent[l][2:live][::-1]
            ).reshape(live - 2, batch, -1)[::-1]
        transport.w64[l] = None  # read by no later call

    transport.release()
    grads = []
    for l, w in enumerate(net.weights):
        first, live = windows[l]
        acc = np.zeros(w.w.shape, order=transport.acc_order)
        if live > first:
            # Payload steps first..live-1 pair with the first rows of dL/dI.
            transport.weight_grad(
                dl_di[l][: (live - first) * batch], trace.sent[l][first:live][::-1], acc
            )
        dl_di[l] = None
        grads.append(acc.astype(dt, order="C"))
    return grads


def _window(transport, sent, l, num_layers):
    """Weight layer l's window (first, live) over its payloads `sent`.

    Payload steps first..live-1 are the ones that get kernel work: `first`
    is the first of steps 0..T-2 whose payload holds a spike (T - 1 if
    none does), and dL/dI is live on steps 1..live, with live = T - 1 at
    the readout and two fewer at each layer below it, down to 0.
    """
    T = len(sent)
    first = next((t for t in range(T - 1) if transport.holds_spike(sent[t])), T - 1)
    return first, max(T - 1 - 2 * (num_layers - 1 - l), 0)


def _sweep_layer(net, trace, l, live, ds_in, dl_dscores, reset_grad) -> np.ndarray:
    """Reverse-time sweep of weight layer l's neurons over its live steps.

    `ds_in[t - 2]` is dL/dS[t] from the layer above for 2 <= t < live + 2
    (None for the readout layer): the sweep reads no other step. Returns
    dL/dI of steps live..1 in sweep order, as one float64 (live*B, n)
    matrix: row block k pairs with the payload of step live-1-k, which
    drove the current of step live-k. It is cast once here because both of
    the layer's gradient kernels read it in float64.

    dL/dI[t] is gain * du[t + 1]. Iteration t of the loop applies what
    step t adds to du and records one row. At the readout du is du[t + 1]
    (the scores sum the membrane after the step-t update) and the row is
    dL/dI[t]. At a hidden layer du is du[t], once dL/dS[t] has arrived, and
    the row is dL/dI[t - 1]; du is +0.0 until dL/dS[live + 1], the last row
    of `ds_in`, so the sweep starts there from +0.0, the exact value a
    sweep from step T - 1 reaches, and stops at step 2, the first row of
    `ds_in`.
    """
    transport = trace.transport
    dt = transport.dtype
    hidden = l < net.spec.num_weight_layers - 1
    params = net.params[l]
    alpha, gain = params.step_constants(dt)
    batch, n = dl_dscores.shape[0], net.spec.layer_sizes[l + 1]
    di = np.empty((live, batch, n))
    du = np.zeros((batch, n), dtype=dt)
    lag = int(hidden)  # steps from an update to the dL/dI it completes
    if hidden:
        swept = slice(2, live + 2)
        slopes = transport.sent_slopes(trace.u[l][swept], params, trace.sent[l + 1][swept])

    for k, t in enumerate(range(live + lag, lag, -1)):
        if hidden:
            u_t = trace.u[l][t]
            ds = ds_in[t - 2]
            if reset_grad:
                ds = ds + (-alpha) * u_t * du
            du = alpha * (dt(1) - trace.spikes[l][t]) * du + slopes[t - 2] * ds
        else:
            du = alpha * du + dl_dscores
        di[k] = gain * du
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
    weight holds a non-finite entry, if the loss or a gradient sum is not
    finite. The normal path costs one reduction per gradient; the arrays
    are scanned only after that check fails (a sum can also overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(loss) and all(np.isfinite(g.sum()) for g in grads):
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
    return EpochMetrics(
        mean_loss=float(np.mean(losses)), accuracy=correct / seen, batches=len(losses)
    )


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
        _, scores = forward_pass(net, frames, mode=mode, rng=rng, record_trace=False)
        correct += int((scores.argmax(axis=1) == labels).sum())
        seen += len(labels)
    if seen == 0:
        raise ConfigError("dataset yielded no batches at this batch size")
    return correct / seen
