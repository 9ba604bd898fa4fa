"""Row-at-a-time reference for the sparse encoders, the drop keys and the
sparse weight gradient, and a full-length reference backward pass.

These are the loop versions that the batch-vectorized `encode_sparse`,
`encode_binary`, `DropRng.rank_keys` and `DropRng.subset` replaced. They
draw keys from pure-Python integers and pick winners with a stable
argsort, one row and one segment at a time; the vectorized code must give
exactly the same ids, counts and gradient values. `sparse_weight_grad` is
the row loop that the id-grouped kernel replaced; the kernel must give
every accumulator element the same adds in the same order.
`backward_pass` is the sweep over every timestep that the live-step
backward pass replaced: it forms dL/dI of steps T-1..1 in every layer,
dead ones included, and feeds all of them to the kernels; the engine must
give the same gradients byte for byte.
"""

import numpy as np

from sparsnn.lif import surrogate
from sparsnn.rng import _GOLDEN, _MASK64, _mix64_array, mix64
from sparsnn.sparse import SparseSpikeBatch, _check_capacity


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
    _check_capacity(n_max)
    u = np.asarray(u)
    thr = params.threshold
    out = SparseSpikeBatch.empty(u.shape[0], n_max, with_grads)
    spike_mask = u >= thr
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
        if with_grads and ng:
            kept = out.ids[row, :ng]
            out.grad_values[row, :ng] = surrogate(
                u[row, kept].astype(np.float32) - thr[kept], params.beta
            )
    return out


def encode_binary(frame, n_max, rng):
    _check_capacity(n_max)
    frame = np.asarray(frame)
    out = SparseSpikeBatch.empty(frame.shape[0], n_max, with_grads=False)
    for row in range(frame.shape[0]):
        ids = np.flatnonzero(frame[row]).astype(np.int32)
        if len(ids) > n_max:
            ids = subset(rng, row, ids, n_max, salt=0)
        ns = len(ids)
        out.ids[row, :ns] = ids
        out.num_spikes[row] = ns
        out.num_grads[row] = ns
    return out


def sparse_weight_grad(dl_di, s_in, dl_dw_acc):
    dl_di64 = np.asarray(dl_di, dtype=np.float64)
    acc_t = dl_dw_acc.T
    for row in range(s_in.batch_size):
        ns = int(s_in.num_spikes[row])
        if ns:
            acc_t[s_in.ids[row, :ns]] += dl_di64[row]


def backward_pass(net, trace, dl_dscores, reset_grad=True):
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
    ds = None
    for l in range(L - 1, -1, -1):
        dl_di[l] = _sweep_layer(net, trace, l, ds, dl_dscores, reset_grad)
        ds = None
        if l > 0 and T > 1:
            ds = transport.input_grad(
                l, dl_di[l], net.weights[l], trace.sent[l][: T - 1][::-1]
            ).reshape(T - 1, batch, -1)[::-1]
    transport.release()
    grads = []
    for l, w in enumerate(net.weights):
        acc = np.zeros(w.w.shape, order=transport.acc_order)
        if T > 1:
            transport.weight_grad(dl_di[l], trace.sent[l][: T - 1][::-1], acc)
        grads.append(acc.astype(dt, order="C"))
    return grads


def _sweep_layer(net, trace, l, ds_in, dl_dscores, reset_grad):
    transport = trace.transport
    dt = transport.dtype
    T = trace.num_timesteps
    hidden = l < net.spec.num_weight_layers - 1
    params = net.params[l]
    alpha = dt(params.alpha)
    gain = dt((1.0 - params.alpha) / params.capacitance)
    batch, n = dl_dscores.shape[0], net.spec.layer_sizes[l + 1]
    di = np.empty((T - 1, batch, n))
    du = np.zeros((batch, n), dtype=dt)
    if hidden:
        slopes = transport.sent_slopes(trace.u[l], params, trace.sent[l + 1])

    for t in range(T - 1, -1, -1):
        if not hidden:
            du = du + dl_dscores
        if t:
            di[T - 1 - t] = gain * du

        if hidden:
            u_t = trace.u[l][t]
            ds = ds_in[t] if t < T - 1 else np.zeros_like(u_t)
            if reset_grad:
                ds = ds + (-alpha) * u_t * du
            du = alpha * (dt(1) - trace.spikes[l][t]) * du + slopes[t] * ds
        else:
            du = alpha * du
    return di.reshape(-1, n)
