import numpy as np
import pytest

from sparsnn.rng import DropRng, mix64, _mix64_array


def test_mix64_scalar_vector_agree():
    values = [0, 1, 2, 12345, 2**63, 2**64 - 1]
    vec = _mix64_array(np.array(values, dtype=np.uint64))
    for v, expect in zip(values, vec):
        assert mix64(v) == int(expect)


def keys(rng, row, count, salt=0):
    """Keys 1..count of one row."""
    return rng.rank_keys(np.array([row]), np.arange(1, count + 1)[None], salt)[0]


def test_keys_deterministic_and_distinct():
    rng = DropRng(seed=7, position=3)
    a = keys(rng, row=2, count=16)
    b = keys(DropRng(7, 3), row=2, count=16)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == 16
    assert not np.array_equal(a, keys(rng, row=3, count=16))
    assert not np.array_equal(a, keys(rng.at(4), row=2, count=16))
    assert not np.array_equal(a, keys(rng, row=2, count=16, salt=1))


def candidate_mask(rows, n, cands):
    mask = np.zeros((rows, n), dtype=bool)
    mask[:, cands] = True
    return mask


def test_subset_is_sorted_subset():
    rng = DropRng(seed=1, position=0)
    cands = np.array([3, 5, 9, 11, 20], dtype=np.int32)
    out = rng.subset(candidate_mask(4, 24, cands), 3)
    for row in range(4):
        kept = np.flatnonzero(out[row])
        assert len(kept) == 3
        assert np.all(np.diff(kept) > 0)
        assert set(kept).issubset(set(cands.tolist()))


def test_subset_keep_all_or_none():
    rng = DropRng(seed=1)
    mask = candidate_mask(2, 8, [4, 2, 7])
    assert np.array_equal(np.flatnonzero(rng.subset(mask, 5)[0]), [2, 4, 7])
    assert not rng.subset(mask, 0).any()
    per_row = rng.subset(mask, np.array([3, 0]))
    assert np.array_equal(per_row[0], mask[0]) and not per_row[1].any()


def test_subset_uniform_frequencies():
    # Keeping 2 of 3 candidates over many seeds: each candidate should be
    # retained with frequency 2/3.
    counts = np.zeros(3)
    trials = 4000
    for seed in range(trials):
        counts += DropRng(seed).subset(np.ones((1, 3), dtype=bool), 2)[0]
    freq = counts / trials
    assert np.all(np.abs(freq - 2 / 3) < 0.03)


def test_known_reference_values_frozen():
    # Freeze a few outputs so implementation changes are caught loudly:
    # these values define the cross-platform drop behavior.
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(12345) == 17540659726606785873
    assert keys(DropRng(seed=42, position=17), row=5, count=3).tolist() == [
        10710569768720684746,
        17287530993682339813,
        10715316440398950109,
    ]
