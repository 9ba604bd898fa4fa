"""Row-at-a-time reference for the sparse encoders, the drop keys and the
sparse weight gradient, a structural check of spike batches,
full-length reference forward and backward passes, and a dense replay of
a capped sparse run.

These are the loop versions that the batch-vectorized `encode_sparse`,
`encode_binary`, `DropRng.rank_keys` and `DropRng.subset` replaced. They
draw keys from pure-Python integers and pick winners with a stable
argsort, one row and one segment at a time; the vectorized code must give
exactly the same ids and counts. `sparse_weight_grad` is
the row loop that the id-grouped kernel replaced; the kernel must give
every accumulator element the same adds in the same order.
`forward_pass` and `backward_pass` are the passes that the windowed ones
replaced. The forward pass makes every layer's current call on the
payloads of steps 0..T-2, silent ones included. The backward pass sweeps
every timestep: it forms dL/dI of steps 1..T-1 in every layer, dead ones
included, feeds all of them to the kernels in time order, and computes
dL/dS of every payload step. The engine must give the same scores,
membranes and gradients byte for byte. `ReplayTransport` is the dense
program that a sparse run at any capacity computes: a sparse run must
give the scores and gradients of its replay byte for byte.
"""

import numpy as np

from sparsnn.engine import DenseTransport, ForwardTrace, _transport
from sparsnn.errors import CorruptionError
from sparsnn.kernels import dense_forward_current, dense_weight_grad
from sparsnn.lif import check_capacity, membrane_update
from sparsnn.rng import _GOLDEN, _MASK64, _mix64_array, mix64
from sparsnn.sparse import SENTINEL, SparseSpikeBatch, decode_to_dense, scatter_to_dense


def _combine(h, word):
    return mix64(h + _GOLDEN + (word & _MASK64))


def keys(rng, row, count, salt=0):
    h = _combine(_combine(_combine(rng.seed & _MASK64, rng.position), row), salt)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64_array(np.uint64(h) + idx * np.uint64(_GOLDEN))


def subset(rng, row, candidates, keep, salt=0):
    n = len(candidates)
    if keep >= n:
        return np.sort(candidates)
    if keep <= 0:
        return candidates[:0]
    order = np.argsort(keys(rng, row, n, salt), kind="stable")
    return np.sort(candidates[order[:keep]])


def encode_sparse(u, params, n_max, rng, with_grads=True):
    check_capacity(n_max)
    u = np.asarray(u)
    out = SparseSpikeBatch.empty(u.shape[0], n_max)
    spike_mask = u >= params.threshold
    grad_mask = (u >= params.grad_threshold) & ~spike_mask if with_grads else None
    for row in range(u.shape[0]):
        spike_ids = np.flatnonzero(spike_mask[row]).astype(np.int32)
        if len(spike_ids) > n_max:
            spike_ids = subset(rng, row, spike_ids, n_max, salt=0)
        ns = len(spike_ids)
        out.ids[row, :ns] = spike_ids
        ng = ns
        if with_grads:
            grad_ids = np.flatnonzero(grad_mask[row]).astype(np.int32)
            room = n_max - ns
            if len(grad_ids) > room:
                grad_ids = subset(rng, row, grad_ids, room, salt=1)
            ng = ns + len(grad_ids)
            out.ids[row, ns:ng] = grad_ids
        out.num_spikes[row] = ns
        out.num_grads[row] = ng
    return out


def encode_binary(frame, n_max, rng):
    check_capacity(n_max)
    frame = np.asarray(frame)
    out = SparseSpikeBatch.empty(frame.shape[0], n_max)
    for row in range(frame.shape[0]):
        ids = np.flatnonzero(frame[row]).astype(np.int32)
        if len(ids) > n_max:
            ids = subset(rng, row, ids, n_max, salt=0)
        ns = len(ids)
        out.ids[row, :ns] = ids
        out.num_spikes[row] = ns
        out.num_grads[row] = ns
    return out


def validate(batch):
    """Check the structural invariants of a SparseSpikeBatch; raises
    CorruptionError."""
    b, n_max = batch.ids.shape
    if batch.num_spikes.shape != (b,) or batch.num_grads.shape != (b,):
        raise CorruptionError("count vectors do not match batch size")
    for row in range(b):
        ns, ng = int(batch.num_spikes[row]), int(batch.num_grads[row])
        if not 0 <= ns <= ng <= n_max:
            raise CorruptionError(f"row {row}: bad counts ns={ns} ng={ng}")
        spikes = batch.ids[row, :ns]
        grads = batch.ids[row, ns:ng]
        for seg in (spikes, grads):
            if seg.size and (np.any(np.diff(seg) <= 0) or np.any(seg < 0)):
                raise CorruptionError(f"row {row}: segment not strictly ascending")
        if np.intersect1d(spikes, grads).size:
            raise CorruptionError(f"row {row}: duplicate ids across segments")
        if np.any(batch.ids[row, ng:] != SENTINEL):
            raise CorruptionError(f"row {row}: padding is not sentinel")


def sparse_weight_grad(dl_di, s_in, dl_dw_acc):
    dl_di64 = np.asarray(dl_di, dtype=np.float64)
    acc_t = dl_dw_acc.T
    for row in range(s_in.batch_size):
        ns = int(s_in.num_spikes[row])
        if ns:
            acc_t[s_in.ids[row, :ns]] += dl_di64[row]


def forward_pass(net, inputs, mode, rng=None, force_spikes=False):
    spec = net.spec
    transport = _transport(mode, spec, rng, force_spikes)
    dtype = transport.dtype
    batch = inputs.shape[0]
    T = spec.num_timesteps
    L = spec.num_weight_layers
    scores = np.zeros((batch, spec.output_size), dtype=dtype)
    # The full window: every layer's kernels start at payload step 0.
    trace = ForwardTrace(transport, [], [], [], [0] * L)

    payloads = [transport.send_input(t, inputs[:, t, :]) for t in range(T)]
    for l in range(L):
        params = net.params[l]
        hidden = l < L - 1
        shape = (T, batch, spec.layer_sizes[l + 1])
        i_syn = np.zeros(shape, dtype=dtype)
        if T > 1:
            i_syn[1:] = transport.current(net.weights[l], payloads[:-1]).reshape(
                (T - 1,) + shape[1:]
            )
        u_seen = np.empty(shape, dtype=dtype)
        spikes, sent = ([], []) if hidden else (None, None)
        u = np.zeros(shape[1:], dtype=dtype)
        for t in range(T):
            if hidden and force_spikes:
                u = np.broadcast_to(params.threshold + np.float32(1.0), u.shape).astype(dtype)
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


def backward_pass(net, trace, dl_dscores, reset_grad=True):
    spec = net.spec
    transport = trace.transport
    dt = transport.dtype
    reset_grad = reset_grad or transport.always_reset_grad
    dl_dscores = np.asarray(dl_dscores, dtype=dt)
    batch = dl_dscores.shape[0]
    T = net.spec.num_timesteps
    L = spec.num_weight_layers

    dl_di = [None] * L
    ds = None
    for l in range(L - 1, -1, -1):
        dl_di[l] = _sweep_layer(net, trace, l, ds, dl_dscores, reset_grad)
        ds = None
        if l > 0 and T > 1:
            ds = transport.input_grad(
                dl_di[l], net.weights[l], trace.sent[l][: T - 1]
            ).reshape(T - 1, batch, -1)
    grads = []
    for l, w in enumerate(net.weights):
        acc = np.zeros_like(w.w, dtype=np.float64)
        if T > 1:
            transport.weight_grad(dl_di[l], trace.sent[l][: T - 1], acc)
        grads.append(acc.astype(dt))
    return grads


def _sweep_layer(net, trace, l, ds_in, dl_dscores, reset_grad):
    transport = trace.transport
    dt = transport.dtype
    T = net.spec.num_timesteps
    hidden = l < net.spec.num_weight_layers - 1
    params = net.params[l]
    alpha, gain = params.step_constants(dt)
    batch, n = dl_dscores.shape[0], net.spec.layer_sizes[l + 1]
    di = np.empty((T - 1, batch, n))
    du = np.zeros((batch, n), dtype=dt)
    if hidden:
        slopes = transport.sent_slopes(trace.u[l], params, trace.sent[l + 1])

    for t in range(T - 1, -1, -1):
        if not hidden:
            du = du + dl_dscores
        if t:
            di[t - 1] = gain * du

        if hidden:
            u_t = trace.u[l][t]
            ds = ds_in[t] if t < T - 1 else np.zeros_like(u_t)
            if reset_grad:
                ds = ds + (-alpha) * u_t * du
            du = alpha * (dt(1) - trace.spikes[l][t]) * du + slopes[t] * ds
        else:
            du = alpha * du
    return di.reshape(-1, n)


class ReplayTransport(DenseTransport):
    """The dense program that a sparse run at any capacity computes.

    It replays the sets that the sparse run `sent` (a sparse trace's
    `sent`) retained: the kept spikes of every step are the spike matrices,
    which drive the currents and reset the membranes, and a neuron's slope
    is the dense one at its retained entries and +0.0 elsewhere. Currents
    and gradients come from the dense kernels, on the decoded spikes. A
    payload is the sparse run's batch, so that its retained set stays at
    hand for the slopes.
    """

    def __init__(self, sent):
        self.sent = sent

    def send_input(self, t, frame):
        return self.sent[0][t]

    def send(self, l, t, u, params):
        batch = self.sent[l + 1][t]
        return decode_to_dense(batch, u.shape[1]), batch

    @staticmethod
    def decoded(payloads, n):
        """The kept spikes of a sequence of payloads as one float64 matrix."""
        return np.concatenate([decode_to_dense(p, n) for p in payloads]).astype(np.float64)

    def current(self, w, payloads):
        s = self.decoded(payloads, w.fan_in)
        return dense_forward_current(w, s, self.dtype)

    def sent_slopes(self, u, params, payloads):
        slopes = DenseTransport.sent_slopes(self, u, params, payloads)
        n = u.shape[-1]
        for k, p in enumerate(payloads):
            retained = scatter_to_dense(p, np.ones(p.ids.shape, np.float32), p.num_grads, n)
            slopes[k][retained == 0] = 0.0
        return slopes

    def weight_grad(self, dl_di, payloads, dl_dw_acc):
        dense_weight_grad(dl_di, self.decoded(payloads, dl_dw_acc.shape[1]), dl_dw_acc)
