"""Row-at-a-time reference for the sparse encoders, the drop keys and the
sparse weight gradient.

These are the loop versions that the batch-vectorized `encode_sparse`,
`encode_binary`, `DropRng.rank_keys` and `DropRng.subset` replaced. They
draw keys from pure-Python integers and pick winners with a stable
argsort, one row and one segment at a time; the vectorized code must give
exactly the same ids, counts and gradient values. `sparse_weight_grad` is
the row loop that the id-grouped kernel replaced; the kernel must give
every accumulator element the same adds in the same order.
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
