"""The batch-vectorized encoders and drop keys against their row-at-a-time
reference (`encode_oracle`): the same ids, counts and keys, bit for
bit."""

import numpy as np

import encode_oracle as oracle
from sparsnn.lif import LifParams
from sparsnn.rng import DropRng
from sparsnn.sparse import encode_binary, encode_sparse


def random_rng(gen):
    return DropRng(int(gen.integers(-(2**62), 2**63)), int(gen.integers(0, 2**40)))


def assert_same_batch(got, want):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.num_spikes, want.num_spikes)
    assert np.array_equal(got.num_grads, want.num_grads)


def test_rank_keys_equal_keys_row_by_row():
    gen = np.random.default_rng(0)
    for _ in range(300):
        rng = random_rng(gen)
        rows = gen.choice(64, size=int(gen.integers(1, 8)), replace=False)
        count = int(gen.integers(1, 20))
        ranks = gen.integers(1, count + 1, size=(rows.size, int(gen.integers(0, 12))))
        salt = int(gen.integers(0, 2))
        got = rng.rank_keys(rows, ranks, salt)
        for i, row in enumerate(rows):
            want = oracle.keys(rng, int(row), count, salt)
            every = rng.rank_keys(np.array([row]), np.arange(1, count + 1)[None], salt)
            assert np.array_equal(every[0], want)
            assert np.array_equal(got[i], want[ranks[i] - 1])


def test_subset_equals_row_at_a_time_subset():
    gen = np.random.default_rng(1)
    thinned = 0
    for _ in range(300):
        rng = random_rng(gen)
        b, n = int(gen.integers(1, 7)), int(gen.integers(1, 30))
        mask = gen.random((b, n)) < gen.random()
        keep = gen.integers(-1, n + 2, size=b)
        salt = int(gen.integers(0, 2))
        got = rng.subset(mask, keep, salt)
        for row in range(b):
            cands = np.flatnonzero(mask[row])
            want = oracle.subset(rng, row, cands, keep[row], salt)
            assert np.array_equal(np.flatnonzero(got[row]), want)
            thinned += bool(0 < keep[row] < cands.size)
    assert thinned > 0


def test_encoders_equal_row_at_a_time_encoders():
    gen = np.random.default_rng(2)
    seen = dict.fromkeys(
        ("spike_overflow", "grad_overflow", "varying_room", "no_room", "no_grads"), 0
    )
    for case in range(1200):
        b, n = int(gen.integers(1, 7)), int(gen.integers(2, 40))
        n_max = 2 * int(gen.integers(1, n // 2 + 3))
        thr = gen.normal(1.0, 0.2, size=n).astype(np.float32)
        gthr = thr - gen.uniform(0.0, 1.5, size=n).astype(np.float32)
        params = LifParams(0.9, 1.0, thr, gthr, beta=float(gen.uniform(1.0, 20.0)))
        u = gen.normal(gen.uniform(0.0, 1.5), gen.uniform(0.1, 1.0), size=(b, n))
        u = u.astype(np.float32)
        with_grads = bool(gen.random() < 0.8)
        rng = random_rng(gen)

        got = encode_sparse(u, params, n_max, rng, with_grads=with_grads)
        assert_same_batch(got, oracle.encode_sparse(u, params, n_max, rng, with_grads))

        frame = (gen.random((b, n)) < gen.random()).astype(np.float32)
        got = encode_binary(frame, n_max, rng)
        assert_same_batch(got, oracle.encode_binary(frame, n_max, rng))

        fires = (u >= thr).sum(axis=1)
        band = ((u >= gthr) & (u < thr)).sum(axis=1)
        room = n_max - np.minimum(fires, n_max)
        seen["spike_overflow"] += bool(np.any(fires > n_max))
        if not with_grads:
            seen["no_grads"] += 1
            continue
        seen["grad_overflow"] += bool(np.any((band > room) & (room > 0)))
        seen["no_room"] += bool(np.any((band > 0) & (room == 0)))
        seen["varying_room"] += bool(np.any(band > room) and np.unique(room).size > 1)
    assert min(seen.values()) >= 50, seen
