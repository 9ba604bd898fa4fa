"""Forward-current and gradient kernels, dense and sparse.

The dense route is a plain matrix product on W. The sparse route works on
the float64 transpose Wᵀ, a C-contiguous (n_pre, n_post) array, so each id
a row names selects one contiguous row of Wᵀ (one weight column of W):

forward current  out[b] = sum of Wᵀ[ids] over the row's firing ids, added
                 in ascending-id order;
weight grad      dL/dWᵀ[i] += dL/dI[b] for every row b that fires id i,
                 rows in ascending order; the accumulator is (n_post,
                 n_pre) and best allocated order="F", so that its
                 transpose has contiguous rows;
input grad       dL/dS[b, k] = Wᵀ[ids[b, k]] . dL/dI[b] for every
                 retained id.

The forward current and the input gradient make one contiguous numpy
operation per batch row, in a Python loop over rows. The weight gradient
loops over firing ids instead: a stable radix sort groups the kept
(row, id) pairs by id, and each id's dL/dI rows are gathered once and
summed onto its accumulator row by one reduce, which adds them in row
order. This is the outer-product accumulation of Perez-Nieves & Goodman,
"Sparse Spiking Gradient Descent" (NeurIPS 2021). Both routes accumulate
in float64 and round to float32 at the operation boundary, which keeps
them bit-comparable: the float64 results of the same mathematical sum
agree far below float32 resolution.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .lif import LayerWeights
from .sparse import SparseSpikeBatch, check_ids


def transposed64(w: LayerWeights) -> np.ndarray:
    """Wᵀ as the C-contiguous float64 (n_pre, n_post) array the sparse
    kernels read."""
    return np.ascontiguousarray(w.w.T, dtype=np.float64)


def dense_forward_current(
    w: LayerWeights, s_in: np.ndarray, w64: np.ndarray, dtype
) -> np.ndarray:
    """I = S @ W^T for a batch of dense spike rows.

    `w64` is the float64 copy of `w.w`. `dtype` is the boundary precision;
    the float64 gradient-check pipeline passes float64 to avoid rounding
    between timesteps.
    """
    s_in = np.asarray(s_in)
    if s_in.ndim != 2 or s_in.shape[1] != w.fan_in:
        raise ContractViolation(
            f"spike shape {s_in.shape} incompatible with fan-in {w.fan_in}"
        )
    out = np.asarray(s_in, dtype=np.float64) @ w64.T
    return out.astype(dtype)


def sparse_forward_current(
    w: LayerWeights, s_in: SparseSpikeBatch, wt64: np.ndarray
) -> np.ndarray:
    """Sum of the rows of Wᵀ named by each row's firing ids.

    Gradient-only entries contribute nothing. Summation order is fixed
    (ascending id). `wt64` is `transposed64(w)`.
    """
    check_ids(s_in, s_in.num_spikes, w.fan_in)
    out = np.zeros((s_in.batch_size, w.n_post), dtype=np.float32)
    for row in range(s_in.batch_size):
        ns = int(s_in.num_spikes[row])
        if ns:
            out[row] = wt64[s_in.ids[row, :ns]].sum(axis=0)
    return out


def sparse_weight_grad(
    dl_di: np.ndarray, s_in: SparseSpikeBatch, dl_dw_acc: np.ndarray
) -> None:
    """Accumulate dL/dw += sum_b outer(dL/dI[b], spikes[b]) into a float64
    (n_post, n_pre) buffer, touching only the columns named by firing ids.

    Each element receives one add per row that names its column, rows in
    ascending order, in any memory layout; order="F" makes the columns
    contiguous. An id's accumulator row and its first dL/dI row are added
    first (addition commutes), and the reduce starts from -0.0, the one
    float that adds to any value, signed zeros included, without changing it.
    """
    if dl_dw_acc.dtype != np.float64:
        raise ContractViolation("weight-gradient accumulator must be float64")
    if dl_di.shape != (s_in.batch_size, dl_dw_acc.shape[0]):
        raise ContractViolation(
            f"dl_di shape {dl_di.shape} incompatible with accumulator"
        )
    n_post, n_pre = dl_dw_acc.shape
    kept = check_ids(s_in, s_in.num_spikes, n_pre)
    rows, ids = np.nonzero(kept)[0], s_in.ids[kept]
    # Row-major pairs, stably sorted by id: each id's rows stay ascending.
    # A dtype of at most 16 bits makes the stable sort a radix sort.
    order = np.argsort(ids.astype(np.min_scalar_type(n_pre)), kind="stable")
    rows, ids = rows[order], ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    bounds = zip(ids[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), ids.size])
    dl_di64 = np.asarray(dl_di, dtype=np.float64)
    acc_t = dl_dw_acc.T
    for i, lo, hi in bounds:
        g = dl_di64[rows[lo:hi]]
        g[0] += acc_t[i]
        if n_post > 1:
            np.add.reduce(g, axis=0, out=acc_t[i], initial=-0.0)
        else:  # numpy would sum one column pairwise, out of row order
            acc_t[i] = np.add.accumulate(g, axis=0)[-1]


def dense_weight_grad(
    dl_di: np.ndarray, s_in: np.ndarray, dl_dw_acc: np.ndarray
) -> None:
    """Dense counterpart: dL/dw += dL/dI^T @ S."""
    if dl_dw_acc.dtype != np.float64:
        raise ContractViolation("weight-gradient accumulator must be float64")
    dl_dw_acc += np.asarray(dl_di, dtype=np.float64).T @ np.asarray(s_in, dtype=np.float64)


def sparse_input_grad(
    dl_di: np.ndarray,
    w: LayerWeights,
    s_in: SparseSpikeBatch,
    wt64: np.ndarray,
) -> np.ndarray:
    """Gradient w.r.t. every retained entry of `s_in` (both segments):

        dl_dspike[b, k] = sum_i dl_di[b, i] * w[i, ids[b, k]]

    i.e. the transpose product restricted to retained columns. Returns a
    (B, n_max) float32 array aligned with `s_in.ids`. `wt64` is
    `transposed64(w)`.
    """
    if dl_di.shape != (s_in.batch_size, w.n_post):
        raise ContractViolation(
            f"dl_di shape {dl_di.shape} incompatible with weights {w.w.shape}"
        )
    check_ids(s_in, s_in.num_grads, w.fan_in)
    dl_di64 = np.asarray(dl_di, dtype=np.float64)
    out = np.zeros((s_in.batch_size, s_in.n_max), dtype=np.float32)
    for row in range(s_in.batch_size):
        ng = int(s_in.num_grads[row])
        if ng:
            out[row, :ng] = wt64[s_in.ids[row, :ng]] @ dl_di64[row]
    return out


def dense_input_grad(
    dl_di: np.ndarray, w: LayerWeights, w64: np.ndarray, dtype
) -> np.ndarray:
    """Dense counterpart: dL/dS = dL/dI @ W, float64 inside; `w64` is the
    float64 copy of `w.w`."""
    return (np.asarray(dl_di, dtype=np.float64) @ w64).astype(dtype)
