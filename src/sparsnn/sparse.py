"""Fixed-capacity sparse spike batches.

A spike tensor of capacity n_max is ids plus two counts per batch row:
the indices of firing neurons (membrane at or above the threshold), then
those of gradient-only neurons (between the secondary threshold and the
threshold), each segment sorted, and the two counts that delimit the
segments. Unused slots hold the sentinel -1 (all-ones bit pattern) and are
never read. A batch carries no values: the spike slope that the backward
pass needs is a function of the sending neuron's own membrane, which the
forward trace records. When more neurons fire than fit, a uniform random
subset is kept; firing neurons always win capacity over gradient-only
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError
from .lif import LifParams, check_capacity
from .rng import DropRng

SENTINEL = np.int32(-1)

_SALT_SPIKES = 0
_SALT_GRADS = 1


@dataclass
class SparseSpikeBatch:
    """ids: (B, n_max) int32, num_spikes/num_grads: (B,) int32.

    Row layout: ids[:num_spikes] = firing neurons ascending,
    ids[num_spikes:num_grads] = gradient-only neurons ascending,
    ids[num_grads:] = SENTINEL.
    """

    ids: np.ndarray
    num_spikes: np.ndarray
    num_grads: np.ndarray

    @property
    def n_max(self) -> int:
        return self.ids.shape[1]

    @property
    def batch_size(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def empty(cls, batch_size: int, n_max: int):
        return cls(
            ids=np.full((batch_size, n_max), SENTINEL, dtype=np.int32),
            num_spikes=np.zeros(batch_size, dtype=np.int32),
            num_grads=np.zeros(batch_size, dtype=np.int32),
        )


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
    uniform random subset, firing entries taking precedence: the
    gradient-only segment gets the room the kept spikes leave.
    """
    check_capacity(n_max)
    u = np.asarray(u)
    fires = u >= params.threshold
    spikes = rng.subset(fires, n_max, salt=_SALT_SPIKES)
    if not with_grads:
        return _place(spikes, None, n_max)
    band = (u >= params.grad_threshold) & ~fires
    grads = rng.subset(band, n_max - spikes.sum(axis=1), salt=_SALT_GRADS)
    return _place(spikes, grads, n_max)


def encode_binary(
    frame: np.ndarray, n_max: int, rng: DropRng
) -> SparseSpikeBatch:
    """Sparse-encode a binary spike frame (B, n); no gradient segment."""
    check_capacity(n_max)
    frame = np.asarray(frame)
    return _place(rng.subset(frame != 0, n_max, salt=_SALT_SPIKES), None, n_max)


def _place(spikes: np.ndarray, grads: np.ndarray | None, n_max: int) -> SparseSpikeBatch:
    """The batch whose rows hold the set columns of `spikes`, then those of
    `grads` (None: no gradient segment), each ascending."""
    batch, n = spikes.shape
    both = spikes if grads is None else np.concatenate([spikes, grads], axis=1)
    rows, cols = np.divmod(np.flatnonzero(both), both.shape[1])
    out = SparseSpikeBatch.empty(batch, n_max)
    out.num_spikes[:] = np.bincount(rows[cols < n], minlength=batch)
    out.num_grads[:] = np.bincount(rows, minlength=batch)
    slots = np.arange(rows.size) - (np.cumsum(out.num_grads) - out.num_grads)[rows]
    out.ids[rows, slots] = cols % n
    return out


def decode_to_dense(s: SparseSpikeBatch, n: int) -> np.ndarray:
    """Dense bool (B, n) spike matrix, True at the firing ids only."""
    return scatter_to_dense(s, np.broadcast_to(True, s.ids.shape), s.num_spikes, n)


def scatter_to_dense(
    s: SparseSpikeBatch, values: np.ndarray, counts: np.ndarray, n: int
) -> np.ndarray:
    """Dense (B, n) matrix, in the dtype of `values`, holding values[b, k]
    at column ids[b, k] for every k < counts[b], and zero elsewhere."""
    kept = check_ids(s, counts, n)
    out = np.zeros((s.batch_size, n), dtype=values.dtype)
    out[np.nonzero(kept)[0], s.ids[kept]] = values[kept]
    return out


def check_ids(s: SparseSpikeBatch, counts: np.ndarray, n: int) -> np.ndarray:
    """Mask of the first counts[b] slots of every row b of `s`. Raises
    CorruptionError naming the first row that keeps an id outside [0, n)."""
    kept = np.arange(s.n_max) < counts[:, None]
    bad = kept & ((s.ids < 0) | (s.ids >= n))
    if bad.any():
        row = np.flatnonzero(bad.any(axis=1))[0]
        raise CorruptionError(f"row {row}: spike id out of range [0, {n})")
    return kept
