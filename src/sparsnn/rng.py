"""Counter-based random number generation for reproducible spike dropping.

Drop decisions must not depend on execution order: two runs with the same
seed, or the same run partitioned differently across threads, have to drop
exactly the same spikes. Instead of a stateful generator we derive every
random draw from a pure integer hash of (seed, stream position, batch row,
salt, draw index), so any (layer, timestep, row) can be evaluated
independently, in any order, with the same result on every platform. The
hash is the splitmix64 finalizer, which is cheap and passes the
statistical bar needed here (uniform subset selection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python ints)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; `z` must be uint64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _combine(h: int, word: int) -> int:
    return mix64(h + _GOLDEN + (word & _MASK64))


def _combine_array(h: np.ndarray, words) -> np.ndarray:
    """`_combine` on uint64 arrays (which wrap silently, where numpy
    scalars warn); `words` must be non-negative."""
    return _mix64_array(h + np.uint64(_GOLDEN) + words)


@dataclass(frozen=True)
class DropRng:
    """Keyed source of drop decisions (module docstring).

    `seed` identifies the experiment, `position` the stream position (the
    caller encodes layer/timestep/batch counters into it). The batch row is
    mixed in at draw time, plus a small `salt` to separate independent
    decisions at the same position (e.g. spike drops vs gradient drops).
    """

    seed: int
    position: int = 0

    def at(self, position: int) -> "DropRng":
        """Return the same keyed stream repositioned at `position`."""
        return DropRng(self.seed, position)

    def rank_keys(self, rows: np.ndarray, ranks: np.ndarray, salt: int = 0) -> np.ndarray:
        """Key number ranks[i, j] (counting from 1) of row rows[i], for every
        (i, j), as one array expression. Key r of a row is a pure function
        of (seed, position, row, salt, r): it does not depend on which other
        keys are drawn."""
        start = np.array([_combine(self.seed & _MASK64, self.position)], dtype=np.uint64)
        base = _combine_array(start, np.asarray(rows, dtype=np.uint64))
        base = _combine_array(base, np.uint64(salt & _MASK64))
        ranks = np.asarray(ranks, dtype=np.uint64)
        return _mix64_array(base[:, None] + ranks * np.uint64(_GOLDEN))

    def subset(self, mask: np.ndarray, keep, salt: int = 0) -> np.ndarray:
        """Thin each row b of the boolean (B, n) `mask` to keep[b] of its set
        entries, chosen uniformly at random; `keep` is an int or a (B,)
        array. Returns a new mask.

        Row b's candidates are its set columns in ascending order, and
        candidate j gets key j of row b (`rank_keys`). A thinned row keeps
        the candidates keyed at or below its keep[b]-th smallest key, so
        every subset is equally likely; rows within their keep, and rows
        that keep nothing, draw no keys. Exactly keep[b] pass, as a row's
        keys never tie: key j is mix64(base + j * GOLDEN) with GOLDEN odd,
        so ranks 1..c give distinct words mod 2^64, and mix64 (xor-shifts
        and odd multiplies) is a bijection. Non-candidates get the all-ones
        key, which at most one candidate shares, so it is not the k-th key
        of a row with more than k candidates.
        """
        out = np.array(mask, dtype=bool)
        counts = out.sum(axis=1)
        keep = np.broadcast_to(keep, counts.shape)
        over = counts > keep
        if not over.any():
            return out
        rows = np.flatnonzero(over & (keep > 0))
        cands = out[rows]
        out[over] = False
        if rows.size == 0:
            return out
        k = keep[rows][:, None]
        table = self.rank_keys(rows, np.cumsum(cands, axis=1, dtype=np.int32), salt)
        table[~cands] = _MASK64
        kth = np.partition(table, np.unique(k) - 1, axis=1)
        kth = np.take_along_axis(kth, k - 1, axis=1)
        out[rows] = cands & (table <= kth)
        return out
