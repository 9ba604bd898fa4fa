import numpy as np
import pytest
from scipy import stats

import encode_oracle as oracle

from sparsnn.errors import ConfigError, CorruptionError
from sparsnn.lif import LifParams, threshold_spikes_dense
from sparsnn.rng import DropRng
from sparsnn.sparse import (
    SENTINEL,
    SparseSpikeBatch,
    decode_to_dense,
    encode_binary,
    encode_sparse,
)


def params(n, threshold=1.0, grad_threshold=0.8):
    return LifParams.uniform(n, threshold=threshold, grad_threshold=grad_threshold)


class TestEncode:
    def test_two_threshold_rule(self):
        # u=[1.2, 0.5, 0.9], theta=1.0, theta_grad=0.8, capacity 2:
        # neuron 0 fires, neuron 2 is gradient-only, neuron 1 is silent.
        u = np.array([[1.2, 0.5, 0.9]], dtype=np.float32)
        out = encode_sparse(u, params(3), 2, DropRng(0))
        assert out.ids[0].tolist() == [0, 2]
        assert out.num_spikes[0] == 1
        assert out.num_grads[0] == 2
        oracle.validate(out)

    def test_empty_when_all_below_grad_threshold(self):
        u = np.full((3, 4), 0.1, dtype=np.float32)
        out = encode_sparse(u, params(4), 2, DropRng(0))
        assert not out.num_spikes.any()
        assert not out.num_grads.any()
        assert np.all(out.ids == SENTINEL)

    def test_without_grads(self):
        u = np.array([[1.2, 0.9, 0.85, 0.2]], dtype=np.float32)
        out = encode_sparse(u, params(4), 4, DropRng(0), with_grads=False)
        assert out.num_grads[0] == out.num_spikes[0] == 1

    def test_overflow_keeps_uniform_subset(self):
        u = np.full((1, 3), 2.0, dtype=np.float32)
        counts = np.zeros(3)
        trials = 10000
        for seed in range(trials):
            out = encode_sparse(u, params(3), 2, DropRng(seed))
            assert out.num_spikes[0] == 2
            counts[out.ids[0, :2]] += 1
        np.testing.assert_allclose(counts / trials, 2 / 3, atol=0.02)

    def test_spikes_win_capacity_over_grads(self):
        u = np.array([[1.5, 1.5, 0.9, 0.9]], dtype=np.float32)
        out = encode_sparse(u, params(4), 2, DropRng(3))
        assert out.num_spikes[0] == 2
        assert out.num_grads[0] == 2  # no room left for gradient-only ids

    def test_bad_capacity_rejected(self):
        u = np.zeros((1, 4), dtype=np.float32)
        for n_max in (0, 1, 3):
            with pytest.raises(ConfigError):
                encode_sparse(u, params(4), n_max, DropRng(0))

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(5)
        u = rng.normal(0.9, 0.4, size=(6, 32)).astype(np.float32)
        a = encode_sparse(u, params(32), 8, DropRng(99, 3))
        b = encode_sparse(u, params(32), 8, DropRng(99, 3))
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.num_spikes, b.num_spikes)
        assert np.array_equal(a.num_grads, b.num_grads)

    def test_capacity_law_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            n_max = 2 * int(rng.integers(1, n // 2 + 1))
            u = rng.normal(1.0, 1.0, size=(4, n)).astype(np.float32)
            out = encode_sparse(u, params(n), n_max, DropRng(int(rng.integers(1e9))))
            assert np.all(out.num_grads <= n_max)
            assert np.all(out.num_spikes <= out.num_grads)
            oracle.validate(out)


class TestDecode:
    def test_segment_convention(self):
        batch = SparseSpikeBatch.empty(1, 2)
        batch.ids[0] = [0, 2]
        batch.num_spikes[0] = 1
        batch.num_grads[0] = 2
        out = decode_to_dense(batch, 3)
        assert out.dtype == bool
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])

    def test_empty(self):
        assert not decode_to_dense(SparseSpikeBatch.empty(3, 4), 7).any()

    def test_out_of_range_id(self):
        batch = SparseSpikeBatch.empty(1, 2)
        batch.ids[0, 0] = 5
        batch.num_spikes[0] = batch.num_grads[0] = 1
        with pytest.raises(CorruptionError):
            decode_to_dense(batch, 3)

    def test_round_trip_matches_dense_threshold(self):
        rng = np.random.default_rng(3)
        p = params(24, grad_threshold=1.0)
        for _ in range(20):
            u = rng.normal(0.8, 0.5, size=(5, 24)).astype(np.float32)
            dense = threshold_spikes_dense(u, p.threshold)
            if dense.sum(axis=1).max() > 12:
                continue  # only the no-drop regime round-trips exactly
            enc = encode_sparse(u, p, 12, DropRng(0))
            np.testing.assert_array_equal(decode_to_dense(enc, 24), dense)


class TestEncodeBinary:
    def test_matches_frame(self):
        frame = np.zeros((2, 6), dtype=np.float32)
        frame[0, [1, 4]] = 1
        frame[1, 5] = 1
        enc = encode_binary(frame, 4, DropRng(0))
        np.testing.assert_array_equal(decode_to_dense(enc, 6), frame)

    def test_drops_to_capacity(self):
        frame = np.ones((1, 10), dtype=np.float32)
        enc = encode_binary(frame, 4, DropRng(7))
        assert enc.num_spikes[0] == 4


class TestDropStatistics:
    def test_chi_square_uniformity(self):
        # 8 of 16 always-firing neurons retained; over many seeds the
        # retention counts must be uniform (chi-square p > 0.01).
        n, n_max, trials = 16, 8, 10000
        u = np.full((1, n), 2.0, dtype=np.float32)
        p = params(n)
        counts = np.zeros(n)
        for seed in range(trials):
            out = encode_sparse(u, p, n_max, DropRng(seed))
            counts[out.ids[0, :n_max]] += 1
        expected = trials * n_max / n
        stat = ((counts - expected) ** 2 / expected).sum()
        pvalue = stats.chi2.sf(stat, df=n - 1)
        assert pvalue > 0.01
