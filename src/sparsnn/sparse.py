"""Fixed-capacity sparse spike batches.

A spike tensor of capacity n_max stores, per batch row, the indices of
active neurons in two sorted segments: firing neurons first (membrane at
or above the threshold), then gradient-only neurons (between the secondary
threshold and the threshold). Two counters per row delimit the segments;
unused slots hold the sentinel -1 (all-ones bit pattern) and are never
read. When more neurons fire than fit, a uniform random subset is kept;
firing neurons always win capacity over gradient-only ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptionError
from .lif import LifParams, surrogate
from .rng import DropRng

SENTINEL = np.int32(-1)

_SALT_SPIKES = 0
_SALT_GRADS = 1


@dataclass
class SparseSpikeBatch:
    """ids: (B, n_max) int32, num_spikes/num_grads: (B,) int32,
    grad_values: (B, n_max) float32 or None (forward-only batches).

    Row layout: ids[:num_spikes] = firing neurons ascending,
    ids[num_spikes:num_grads] = gradient-only neurons ascending,
    ids[num_grads:] = SENTINEL. grad_values holds the surrogate value
    h(u - threshold) for every retained entry.
    """

    ids: np.ndarray
    num_spikes: np.ndarray
    num_grads: np.ndarray
    grad_values: np.ndarray | None = None

    @property
    def n_max(self) -> int:
        return self.ids.shape[1]

    @property
    def batch_size(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def empty(cls, batch_size: int, n_max: int, with_grads: bool = False):
        return cls(
            ids=np.full((batch_size, n_max), SENTINEL, dtype=np.int32),
            num_spikes=np.zeros(batch_size, dtype=np.int32),
            num_grads=np.zeros(batch_size, dtype=np.int32),
            grad_values=(
                np.zeros((batch_size, n_max), dtype=np.float32) if with_grads else None
            ),
        )

    def validate(self) -> None:
        """Check the structural invariants; raises CorruptionError."""
        b, n_max = self.ids.shape
        if self.num_spikes.shape != (b,) or self.num_grads.shape != (b,):
            raise CorruptionError("count vectors do not match batch size")
        for row in range(b):
            ns, ng = int(self.num_spikes[row]), int(self.num_grads[row])
            if not 0 <= ns <= ng <= n_max:
                raise CorruptionError(f"row {row}: bad counts ns={ns} ng={ng}")
            spikes = self.ids[row, :ns]
            grads = self.ids[row, ns:ng]
            for seg in (spikes, grads):
                if seg.size and (np.any(np.diff(seg) <= 0) or np.any(seg < 0)):
                    raise CorruptionError(f"row {row}: segment not strictly ascending")
            if np.intersect1d(spikes, grads).size:
                raise CorruptionError(f"row {row}: duplicate ids across segments")
            if np.any(self.ids[row, ng:] != SENTINEL):
                raise CorruptionError(f"row {row}: padding is not sentinel")


def _check_capacity(n_max: int) -> None:
    if n_max < 2 or n_max % 2 != 0:
        raise ConfigError(f"spike capacity must be even and >= 2, got {n_max}")


def encode_sparse(
    u: np.ndarray,
    params: LifParams,
    n_max: int,
    rng: DropRng,
    with_grads: bool = True,
) -> SparseSpikeBatch:
    """Two-threshold sparse encoding of a membrane batch (B, n).

    Firing set: u >= threshold. Gradient-only set: grad_threshold <= u <
    threshold (only when `with_grads`). Over-capacity sets are thinned to a
    uniform random subset, firing entries taking precedence.
    """
    _check_capacity(n_max)
    u = np.asarray(u)
    thr = params.threshold
    out = SparseSpikeBatch.empty(u.shape[0], n_max, with_grads)
    spike_mask = u >= thr
    grad_mask = (u >= params.grad_threshold) & ~spike_mask if with_grads else None

    for row in range(u.shape[0]):
        spike_ids = np.flatnonzero(spike_mask[row]).astype(np.int32)
        if len(spike_ids) > n_max:
            spike_ids = rng.subset(row, spike_ids, n_max, salt=_SALT_SPIKES)
        ns = len(spike_ids)
        out.ids[row, :ns] = spike_ids
        ng = ns
        if with_grads:
            grad_ids = np.flatnonzero(grad_mask[row]).astype(np.int32)
            room = n_max - ns
            if len(grad_ids) > room:
                grad_ids = rng.subset(row, grad_ids, room, salt=_SALT_GRADS)
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


def encode_binary(
    frame: np.ndarray, n_max: int, rng: DropRng
) -> SparseSpikeBatch:
    """Sparse-encode a binary spike frame (B, n); no gradient segment."""
    _check_capacity(n_max)
    frame = np.asarray(frame)
    out = SparseSpikeBatch.empty(frame.shape[0], n_max, with_grads=False)
    for row in range(frame.shape[0]):
        ids = np.flatnonzero(frame[row]).astype(np.int32)
        if len(ids) > n_max:
            ids = rng.subset(row, ids, n_max, salt=_SALT_SPIKES)
        ns = len(ids)
        out.ids[row, :ns] = ids
        out.num_spikes[row] = ns
        out.num_grads[row] = ns
    return out


def decode_to_dense(s: SparseSpikeBatch, n: int) -> np.ndarray:
    """Dense binary (B, n) matrix with ones at the firing ids only."""
    return scatter_to_dense(s, np.broadcast_to(np.float32(1.0), s.ids.shape), s.num_spikes, n)


def scatter_to_dense(
    s: SparseSpikeBatch, values: np.ndarray, counts: np.ndarray, n: int
) -> np.ndarray:
    """Dense (B, n) float32 matrix holding values[b, k] at column ids[b, k]
    for every k < counts[b], and zero elsewhere."""
    kept = np.arange(s.n_max) < counts[:, None]
    rows, ids = np.nonzero(kept)[0], s.ids[kept]
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise CorruptionError(f"row {rows[bad][0]}: spike id out of range [0, {n})")
    out = np.zeros((s.batch_size, n), dtype=np.float32)
    out[rows, ids] = values[kept]
    return out
