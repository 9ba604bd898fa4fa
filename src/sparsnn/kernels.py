"""Forward-current and gradient kernels, dense and sparse.

The dense route is a plain matrix product; the sparse route gathers only
the weight columns named by spike ids and sums them in ascending-id order.
Both accumulate in float64 and round to float32 at the operation boundary,
which keeps the two routes bit-comparable: the float64 results of the same
mathematical sum agree far below float32 resolution.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, CorruptionError
from .lif import LayerWeights
from .sparse import SparseSpikeBatch


def _check_ids(ids: np.ndarray, fan_in: int, row: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= fan_in):
        raise CorruptionError(f"row {row}: spike id out of range [0, {fan_in})")


def dense_forward_current(
    w: LayerWeights, s_in: np.ndarray, dtype=np.float32
) -> np.ndarray:
    """I = S @ W^T for a batch of dense spike rows.

    `dtype` is the boundary precision; the float64 gradient-check pipeline
    passes float64 to avoid rounding between timesteps.
    """
    s_in = np.asarray(s_in)
    if s_in.ndim != 2 or s_in.shape[1] != w.fan_in:
        raise ContractViolation(
            f"spike shape {s_in.shape} incompatible with fan-in {w.fan_in}"
        )
    out = s_in.astype(np.float64) @ w.w.T.astype(np.float64)
    return out.astype(dtype)


def sparse_forward_current(w: LayerWeights, s_in: SparseSpikeBatch) -> np.ndarray:
    """Read-and-sum of the weight columns named by each row's firing ids.

    Gradient-only entries contribute nothing. Summation order is fixed
    (ascending id).
    """
    out = np.zeros((s_in.batch_size, w.n_post), dtype=np.float32)
    for row in range(s_in.batch_size):
        ns = int(s_in.num_spikes[row])
        if ns == 0:
            continue
        ids = s_in.ids[row, :ns]
        _check_ids(ids, w.fan_in, row)
        out[row] = np.sum(w.w[:, ids], axis=1, dtype=np.float64).astype(np.float32)
    return out


def sparse_weight_grad(
    dl_di: np.ndarray, s_in: SparseSpikeBatch, dl_dw_acc: np.ndarray
) -> None:
    """Accumulate dL/dw += sum_b outer(dL/dI[b], spikes[b]) into a float64
    buffer, touching only the columns named by firing ids."""
    if dl_dw_acc.dtype != np.float64:
        raise ContractViolation("weight-gradient accumulator must be float64")
    if dl_di.shape != (s_in.batch_size, dl_dw_acc.shape[0]):
        raise ContractViolation(
            f"dl_di shape {dl_di.shape} incompatible with accumulator"
        )
    for row in range(s_in.batch_size):
        ns = int(s_in.num_spikes[row])
        if ns == 0:
            continue
        ids = s_in.ids[row, :ns]
        _check_ids(ids, dl_dw_acc.shape[1], row)
        dl_dw_acc[:, ids] += dl_di[row].astype(np.float64)[:, None]


def dense_weight_grad(
    dl_di: np.ndarray, s_in: np.ndarray, dl_dw_acc: np.ndarray
) -> None:
    """Dense counterpart: dL/dw += dL/dI^T @ S."""
    if dl_dw_acc.dtype != np.float64:
        raise ContractViolation("weight-gradient accumulator must be float64")
    dl_dw_acc += dl_di.astype(np.float64).T @ s_in.astype(np.float64)


def sparse_input_grad(
    dl_di: np.ndarray,
    w: LayerWeights,
    s_in: SparseSpikeBatch,
    w64: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient w.r.t. every retained entry of `s_in` (both segments):

        dl_dspike[b, k] = sum_i dl_di[b, i] * w[i, ids[b, k]]

    i.e. the transpose product restricted to retained columns. Returns a
    (B, n_max) float32 array aligned with `s_in.ids`. Pass a cached float64
    copy of the weights as `w64` to skip the per-call upcast.
    """
    if dl_di.shape != (s_in.batch_size, w.n_post):
        raise ContractViolation(
            f"dl_di shape {dl_di.shape} incompatible with weights {w.w.shape}"
        )
    if w64 is None:
        w64 = w.w.astype(np.float64)
    out = np.zeros((s_in.batch_size, s_in.n_max), dtype=np.float32)
    for row in range(s_in.batch_size):
        ng = int(s_in.num_grads[row])
        if ng == 0:
            continue
        ids = s_in.ids[row, :ng]
        _check_ids(ids, w.fan_in, row)
        vals = dl_di[row].astype(np.float64) @ w64[:, ids]
        out[row, :ng] = vals.astype(np.float32)
    return out


def dense_input_grad(
    dl_di: np.ndarray, w: LayerWeights, w64: np.ndarray | None = None,
    dtype=np.float32,
) -> np.ndarray:
    """Dense counterpart: dL/dS = dL/dI @ W, float64 inside."""
    if w64 is None:
        w64 = w.w.astype(np.float64)
    return (dl_di.astype(np.float64) @ w64).astype(dtype)
