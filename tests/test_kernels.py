import numpy as np
import pytest

import encode_oracle as oracle
from sparsnn.engine import SparseTransport
from sparsnn.errors import ContractViolation, CorruptionError
from sparsnn.kernels import (
    dense_forward_current,
    dense_input_grad,
    dense_weight_grad,
    sparse_forward_current,
    sparse_input_grad,
    sparse_weight_grad,
    transposed64,
)
from sparsnn.lif import LayerWeights, LifParams
from sparsnn.rng import DropRng
from sparsnn.sparse import SparseSpikeBatch, decode_to_dense, encode_sparse


def as64(w):
    """The float64 copy of W that the dense kernels read."""
    return w.w.astype(np.float64)


def batch_from(ids_rows, n_max, num_spikes=None):
    b = SparseSpikeBatch.empty(len(ids_rows), n_max)
    for r, ids in enumerate(ids_rows):
        b.ids[r, : len(ids)] = ids
        b.num_spikes[r] = len(ids) if num_spikes is None else num_spikes[r]
        b.num_grads[r] = len(ids)
    return b


def include_everything_batch(rng, b, n):
    """Random membranes encoded with capacity n and a very low secondary
    threshold: every neuron is retained."""
    u = rng.normal(0.5, 1.0, size=(b, n)).astype(np.float32)
    p = LifParams.uniform(n, threshold=1.0, grad_threshold=-1e6)
    return u, p, encode_sparse(u, p, n, DropRng(0))


class TestForwardCurrent:
    def test_dense_one_hot(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = dense_forward_current(w, np.array([[0.0, 1.0]]), as64(w), np.float32)
        assert out.tolist() == [[2.0, 4.0]]

    def test_dense_all_ones_row_sums(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = dense_forward_current(w, np.ones((1, 2)), as64(w), np.float32)
        assert out.tolist() == [[3.0, 7.0]]

    def test_dense_zeros(self):
        w = LayerWeights(np.ones((3, 5)))
        assert not dense_forward_current(w, np.zeros((2, 5)), as64(w), np.float32).any()

    def test_sparse_matches_values(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[1]], 2)
        assert sparse_forward_current(w, s, transposed64(w)).tolist() == [[2.0, 4.0]]
        s2 = batch_from([[0, 1]], 2)
        assert sparse_forward_current(w, s2, transposed64(w)).tolist() == [[3.0, 7.0]]

    def test_sparse_empty(self):
        w = LayerWeights(np.ones((3, 4)))
        assert not sparse_forward_current(w, SparseSpikeBatch.empty(2, 4), transposed64(w)).any()

    def test_grad_only_entries_do_not_transmit(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[0, 1]], 2, num_spikes=[1])
        assert sparse_forward_current(w, s, transposed64(w)).tolist() == [[1.0, 3.0]]

    def test_id_out_of_range(self):
        w = LayerWeights(np.ones((2, 2)))
        s = batch_from([[3]], 4)
        with pytest.raises(CorruptionError):
            sparse_forward_current(w, s, transposed64(w))

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_pre = 2 * int(rng.integers(1, 13))
            n_post = int(rng.integers(1, 24))
            b = int(rng.integers(1, 6))
            w = LayerWeights(rng.normal(size=(n_post, n_pre)).astype(np.float32))
            u, p, s = include_everything_batch(rng, b, n_pre)
            got = sparse_forward_current(w, s, transposed64(w))
            want = dense_forward_current(w, decode_to_dense(s, n_pre), as64(w), np.float32)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_work_proportional_to_activity(self):
        # Each row reads only the weight columns of its firing ids, so its
        # work is num_spikes * n_post: poisoning every other column
        # (gradient-only ids included) leaves the row's current unchanged.
        rng = np.random.default_rng(1)
        w = LayerWeights(rng.normal(size=(7, 16)).astype(np.float32))
        u, p, s = include_everything_batch(rng, 4, 16)
        clean = sparse_forward_current(w, s, transposed64(w))
        for row in range(4):
            assert s.num_spikes[row] < s.num_grads[row]
            poisoned = LayerWeights(w.w.copy())
            unread = np.setdiff1d(np.arange(16), s.ids[row, : s.num_spikes[row]])
            poisoned.w[:, unread] = np.nan
            got = sparse_forward_current(poisoned, s, transposed64(poisoned))
            assert np.array_equal(got[row], clean[row])

    def test_linearity_in_spikes(self):
        rng = np.random.default_rng(3)
        w = LayerWeights(rng.normal(size=(5, 12)).astype(np.float32))
        sa = batch_from([[0, 3, 7]], 12)
        sb = batch_from([[1, 4]], 12)
        su = batch_from([[0, 1, 3, 4, 7]], 12)
        wt64 = transposed64(w)
        got = sparse_forward_current(w, su, wt64)
        parts = sparse_forward_current(w, sa, wt64) + sparse_forward_current(w, sb, wt64)
        np.testing.assert_allclose(got, parts, rtol=1e-6)


class TestWeightGrad:
    def test_single_column_touched(self):
        s = batch_from([[1]], 2)
        acc = np.zeros((2, 2), dtype=np.float64)
        sparse_weight_grad(np.array([[1.0, 1.0]], dtype=np.float32), s, acc)
        assert acc[:, 0].tolist() == [0.0, 0.0]
        assert acc[:, 1].tolist() == [1.0, 1.0]

    def test_empty_spikes_no_update(self):
        acc = np.zeros((2, 3), dtype=np.float64)
        sparse_weight_grad(
            np.ones((2, 2), dtype=np.float32), SparseSpikeBatch.empty(2, 3), acc
        )
        assert not acc.any()

    def test_rows_accumulate(self):
        s = batch_from([[2], [2]], 4)
        acc = np.zeros((1, 4), dtype=np.float64)
        sparse_weight_grad(np.array([[1.0], [2.0]], dtype=np.float32), s, acc)
        assert acc[0, 2] == 3.0

    def test_id_out_of_range(self):
        s = batch_from([[0], [1, 3]], 4)
        acc = np.zeros((2, 2), dtype=np.float64)
        with pytest.raises(CorruptionError, match="row 1"):
            sparse_weight_grad(np.ones((2, 2), dtype=np.float32), s, acc)

    def test_column_and_row_major_accumulators_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_pre, n_post, b = 2 * int(rng.integers(1, 9)), int(rng.integers(2, 16)), 4
            u, p, s = include_everything_batch(rng, b, n_pre)
            start = rng.normal(size=(n_post, n_pre))
            acc_c, acc_f = start.copy(order="C"), start.copy(order="F")
            for _ in range(3):
                dl_di = rng.normal(size=(b, n_post)).astype(np.float32)
                sparse_weight_grad(dl_di, s, acc_c)
                sparse_weight_grad(dl_di, s, acc_f)
            assert np.array_equal(acc_c, acc_f)

    @staticmethod
    def _edge_batches(rng, b=40, n_pre=30):
        """Id 0 fires in every row of the first batch and in every spiking
        row of the second; rows 0, 7, ... of the second fire nothing (some
        keep gradient-only ids); ids 28 and 29 fire once each."""
        batches = []
        for silent in (False, True):
            rows, spikes = [], []
            for r in range(b):
                ids = {0} | {int(i) for i in rng.choice(np.arange(1, 28), int(rng.integers(0, 9)))}
                ids |= {28} if r == 3 else {29} if r == 11 else set()
                ids = [] if silent and r % 7 == 0 else sorted(ids)
                grad_only = [i for i in range(1, 28) if i not in ids][: int(rng.integers(0, 3))]
                rows.append(ids + grad_only)
                spikes.append(len(ids))
            batches.append(batch_from(rows, n_pre, num_spikes=spikes))
        return batches

    @pytest.mark.parametrize("n_post", [1, 2, 7])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_row_loop_byte_for_byte(self, n_post, order):
        # Every accumulator element must get the row loop's adds in the
        # row loop's order; tobytes() also tells -0.0 from 0.0.
        rng = np.random.default_rng(9)
        for silent, s in zip((False, True), self._edge_batches(rng)):
            b, n_pre = s.ids.shape
            fired = np.bincount(s.ids[np.arange(n_pre) < s.num_spikes[:, None]], minlength=n_pre)
            assert fired[0] == np.count_nonzero(s.num_spikes) and fired[28] == fired[29] == 1
            assert (s.num_spikes == 0).any() == silent
            for start in ("zero", "random"):
                acc = np.zeros((n_post, n_pre), order=order)
                if start == "random":
                    acc[:] = rng.normal(size=acc.shape) * 10.0 ** rng.uniform(-12, 12, acc.shape)
                    acc[rng.random(acc.shape) < 0.2] = -0.0
                    acc[:, 28] = -0.0
                want = acc.copy(order="K")
                for _ in range(3):
                    dl_di = rng.normal(size=(b, n_post)) * 10.0 ** rng.uniform(-12, 12, (b, n_post))
                    dl_di[rng.random(dl_di.shape) < 0.3] = -0.0
                    dl_di[3] = -0.0  # the only row that fires id 28
                    dl_di = dl_di.astype(np.float32)
                    sparse_weight_grad(dl_di, s, acc)
                    oracle.sparse_weight_grad(dl_di, s, want)
                    assert acc.tobytes() == want.tobytes()
                # -0.0 + -0.0 stays -0.0; a sum started from 0.0 would not.
                assert np.signbit(acc[:, 28]).all() == (start == "random")

    @pytest.mark.parametrize("n_post", [1, 2, 7])
    @pytest.mark.parametrize("lead", [1, 5, 39])
    def test_leading_zero_rows_change_no_byte(self, n_post, lead):
        # The backward pass drops the dead rows at the head of a sweep:
        # all-zero dL/dI rows, of either sign, that fire ids like any other.
        # Adding them to an accumulator that holds no -0.0 changes nothing.
        rng = np.random.default_rng(lead)
        for s in self._edge_batches(rng):
            b, n_pre = s.ids.shape
            tail = SparseSpikeBatch(
                ids=s.ids[lead:], num_spikes=s.num_spikes[lead:], num_grads=s.num_grads[lead:]
            )
            for start in ("zero", "random"):
                acc = np.zeros((n_post, n_pre), order="F")
                if start == "random":
                    acc[:] = rng.normal(size=acc.shape) * 10.0 ** rng.uniform(-12, 12, acc.shape)
                    acc[rng.random(acc.shape) < 0.2] = 0.0
                want = acc.copy(order="K")
                dl_di = rng.normal(size=(b, n_post)) * 10.0 ** rng.uniform(-12, 12, (b, n_post))
                dl_di[rng.random(dl_di.shape) < 0.3] = -0.0
                dl_di[:lead] = np.where(rng.random((lead, n_post)) < 0.5, 0.0, -0.0)
                dl_di[0, 0] = -0.0
                dl_di = dl_di.astype(np.float32)
                sparse_weight_grad(dl_di, s, acc)
                sparse_weight_grad(dl_di[lead:], tail, want)
                assert acc.tobytes() == want.tobytes()

    def test_matches_dense_outer_product(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_pre = 2 * int(rng.integers(1, 9))
            n_post, b = (int(rng.integers(2, 16)) for _ in range(2))
            u, p, s = include_everything_batch(rng, b, n_pre)
            dl_di = rng.normal(size=(b, n_post)).astype(np.float32)
            acc_s = np.zeros((n_post, n_pre), dtype=np.float64)
            acc_d = np.zeros((n_post, n_pre), dtype=np.float64)
            sparse_weight_grad(dl_di, s, acc_s)
            dense_weight_grad(dl_di, decode_to_dense(s, n_pre), acc_d)
            np.testing.assert_allclose(acc_s, acc_d, rtol=1e-12, atol=1e-12)


class TestInputGrad:
    def test_single_entry(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[1]], 2)
        out = sparse_input_grad(np.array([[1.0, 0.0]], dtype=np.float32), w, s, transposed64(w))
        assert out[0, 0] == 2.0

    def test_zero_upstream(self):
        w = LayerWeights(np.ones((3, 4)))
        s = batch_from([[0, 2]], 4)
        out = sparse_input_grad(np.zeros((1, 3), dtype=np.float32), w, s, transposed64(w))
        assert not out.any()

    def test_gradient_only_entries_receive_gradients(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[0, 1]], 2, num_spikes=[1])  # id 1 is gradient-only
        out = sparse_input_grad(np.array([[1.0, 1.0]], dtype=np.float32), w, s, transposed64(w))
        assert out[0].tolist() == [4.0, 6.0]

    def test_full_coverage_matches_transpose_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_pre = 2 * int(rng.integers(1, 9))
            n_post, b = (int(rng.integers(2, 16)) for _ in range(2))
            w = LayerWeights(rng.normal(size=(n_post, n_pre)).astype(np.float32))
            u, p, s = include_everything_batch(rng, b, n_pre)
            dl_di = rng.normal(size=(b, n_post)).astype(np.float32)
            got = sparse_input_grad(dl_di, w, s, transposed64(w))
            want = dense_input_grad(dl_di, w, as64(w), np.float32)
            for row in range(b):
                ng = int(s.num_grads[row])
                ids = s.ids[row, :ng]
                np.testing.assert_allclose(
                    got[row, :ng], want[row, ids], rtol=1e-6, atol=1e-7
                )

    def test_id_out_of_range(self):
        # Id 5 is gradient-only: the forward kernel never reads it, the
        # input gradient does.
        w = LayerWeights(np.ones((3, 4)))
        s = batch_from([[1], [0, 2], [1, 5]], 4, num_spikes=[1, 2, 1])
        sparse_forward_current(w, s, transposed64(w))
        with pytest.raises(CorruptionError, match="row 2"):
            sparse_input_grad(np.ones((3, 3), dtype=np.float32), w, s, transposed64(w))

    def test_shape_mismatch(self):
        w = LayerWeights(np.ones((3, 4)))
        with pytest.raises(ContractViolation):
            sparse_input_grad(
                np.zeros((1, 2), dtype=np.float32), w, SparseSpikeBatch.empty(1, 4),
                transposed64(w),
            )


class TestStackedBatches:
    """One call on the stacked batches of several timesteps, as the engine
    makes it, against one call per timestep."""

    def _steps(self, seed, steps=4, b=3, n_pre=12, n_post=7, n_max=6):
        rng = np.random.default_rng(seed)
        w = LayerWeights(rng.normal(size=(n_post, n_pre)).astype(np.float32))
        p = LifParams.uniform(n_pre, threshold=1.0, grad_threshold=0.0)
        # Capacity below the layer size: rows overflow and drop, and the
        # counts of both segments vary from row to row and step to step.
        batches = [
            encode_sparse(
                rng.normal(0.6, 1.0, size=(b, n_pre)).astype(np.float32), p, n_max,
                DropRng(seed, t),
            )
            for t in range(steps)
        ]
        # Magnitudes spread over 24 decades, so that float64 sums of these
        # float32 values round, and a change in add order shows.
        dl_di = [
            (rng.normal(size=(b, n_post)) * 10.0 ** rng.uniform(-12, 12, (b, n_post)))
            .astype(np.float32)
            for _ in range(steps)
        ]
        return w, batches, dl_di

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_current_and_input_grad_equal_per_step_calls(self, seed):
        w, batches, dl_di = self._steps(seed)
        stacked = SparseTransport.stack(batches)
        assert stacked.batch_size == sum(s.batch_size for s in batches)
        wt64 = transposed64(w)
        assert np.array_equal(
            sparse_forward_current(w, stacked, wt64),
            np.concatenate([sparse_forward_current(w, s, wt64) for s in batches]),
        )
        assert np.array_equal(
            sparse_input_grad(np.concatenate(dl_di), w, stacked, wt64),
            np.concatenate([sparse_input_grad(g, w, s, wt64) for g, s in zip(dl_di, batches)]),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_grad_equals_per_step_sequence(self, seed):
        w, batches, dl_di = self._steps(seed)
        # Sweep order: the last timestep first.
        sweep = list(zip(dl_di, batches))[::-1]
        per_step = np.zeros(w.w.shape, order="F")
        for g, s in sweep:
            sparse_weight_grad(g, s, per_step)
        stacked = np.zeros(w.w.shape, order="F")
        sparse_weight_grad(
            np.concatenate([g for g, _ in sweep]),
            SparseTransport.stack([s for _, s in sweep]),
            stacked,
        )
        assert np.array_equal(stacked, per_step)
        # The test can tell add orders apart: the forward order differs.
        forward = np.zeros(w.w.shape, order="F")
        sparse_weight_grad(np.concatenate(dl_di), SparseTransport.stack(batches), forward)
        assert not np.array_equal(forward, per_step)
