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
)
from sparsnn.lif import LayerWeights, LifParams
from sparsnn.rng import DropRng
from sparsnn.sparse import SparseSpikeBatch, decode_to_dense, encode_sparse


def batch_from(ids_rows, n_max, num_spikes=None):
    b = SparseSpikeBatch.empty(len(ids_rows), n_max)
    for r, ids in enumerate(ids_rows):
        b.ids[r, : len(ids)] = ids
        b.num_spikes[r] = len(ids) if num_spikes is None else num_spikes[r]
        b.num_grads[r] = len(ids)
    return b


def stale_buffer(rng, shape, order="C"):
    """A float64 weight-gradient buffer holding what a kernel must not read:
    NaN and -0.0. A kernel writes every element, so its bytes must equal
    the oracle's accumulation into `np.zeros`."""
    buf = np.full(shape, np.nan, order=order)
    buf[rng.random(shape) < 0.5] = -0.0
    return buf


def include_everything_batch(rng, b, n):
    """Random membranes encoded with capacity n and a very low secondary
    threshold: every neuron is retained."""
    u = rng.normal(0.5, 1.0, size=(b, n)).astype(np.float32)
    p = LifParams.uniform(n, threshold=1.0, grad_threshold=-1e6)
    return u, p, encode_sparse(u, p, n, DropRng(0))


class TestForwardCurrent:
    def test_dense_one_hot(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = dense_forward_current(w, np.array([[0.0, 1.0]]), np.float32)
        assert out.tolist() == [[2.0, 4.0]]

    def test_dense_all_ones_row_sums(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = dense_forward_current(w, np.ones((1, 2)), np.float32)
        assert out.tolist() == [[3.0, 7.0]]

    def test_dense_zeros(self):
        w = LayerWeights(np.ones((3, 5)))
        assert not dense_forward_current(w, np.zeros((2, 5)), np.float32).any()

    def test_sparse_matches_values(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[1]], 2)
        assert sparse_forward_current(w, s).tolist() == [[2.0, 4.0]]
        s2 = batch_from([[0, 1]], 2)
        assert sparse_forward_current(w, s2).tolist() == [[3.0, 7.0]]

    def test_sparse_empty(self):
        w = LayerWeights(np.ones((3, 4)))
        assert not sparse_forward_current(w, SparseSpikeBatch.empty(2, 4)).any()

    def test_grad_only_entries_do_not_transmit(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[0, 1]], 2, num_spikes=[1])
        assert sparse_forward_current(w, s).tolist() == [[1.0, 3.0]]

    def test_id_out_of_range(self):
        w = LayerWeights(np.ones((2, 2)))
        s = batch_from([[3]], 4)
        with pytest.raises(CorruptionError):
            sparse_forward_current(w, s)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_pre = 2 * int(rng.integers(1, 13))
            n_post = int(rng.integers(1, 24))
            b = int(rng.integers(1, 6))
            w = LayerWeights(rng.normal(size=(n_post, n_pre)).astype(np.float32))
            u, p, s = include_everything_batch(rng, b, n_pre)
            got = sparse_forward_current(w, s)
            want = dense_forward_current(w, decode_to_dense(s, n_pre), np.float32)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_work_proportional_to_activity(self):
        # Each row reads only the weight columns of its firing ids, so its
        # work is num_spikes * n_post: poisoning every other column
        # (gradient-only ids included) leaves the row's current unchanged.
        rng = np.random.default_rng(1)
        w = LayerWeights(rng.normal(size=(7, 16)).astype(np.float32))
        u, p, s = include_everything_batch(rng, 4, 16)
        clean = sparse_forward_current(w, s)
        for row in range(4):
            assert s.num_spikes[row] < s.num_grads[row]
            poisoned = LayerWeights(w.w.copy())
            unread = np.setdiff1d(np.arange(16), s.ids[row, : s.num_spikes[row]])
            poisoned.w[:, unread] = np.nan
            got = sparse_forward_current(poisoned, s)
            assert np.array_equal(got[row], clean[row])

    def test_linearity_in_spikes(self):
        rng = np.random.default_rng(3)
        w = LayerWeights(rng.normal(size=(5, 12)).astype(np.float32))
        sa = batch_from([[0, 3, 7]], 12)
        sb = batch_from([[1, 4]], 12)
        su = batch_from([[0, 1, 3, 4, 7]], 12)
        got = sparse_forward_current(w, su)
        parts = sparse_forward_current(w, sa) + sparse_forward_current(w, sb)
        np.testing.assert_allclose(got, parts, rtol=1e-6)


class TestWeightGrad:
    def test_single_column_touched(self):
        s = batch_from([[1]], 2)
        acc = np.zeros((2, 2), dtype=np.float64)
        sparse_weight_grad(np.array([[1.0, 1.0]], dtype=np.float32), s, acc)
        assert acc[:, 0].tolist() == [0.0, 0.0]
        assert acc[:, 1].tolist() == [1.0, 1.0]

    def test_empty_spikes_no_update(self):
        acc = stale_buffer(np.random.default_rng(0), (2, 3))
        sparse_weight_grad(
            np.ones((2, 2), dtype=np.float32), SparseSpikeBatch.empty(2, 3), acc
        )
        assert not acc.any() and not np.signbit(acc).any()

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
            for _ in range(3):
                dl_di = rng.normal(size=(b, n_post)).astype(np.float32)
                acc_c = stale_buffer(rng, (n_post, n_pre), "C")
                acc_f = stale_buffer(rng, (n_post, n_pre), "F")
                want = np.zeros((n_post, n_pre))
                sparse_weight_grad(dl_di, s, acc_c)
                sparse_weight_grad(dl_di, s, acc_f)
                oracle.sparse_weight_grad(dl_di, s, want)
                assert acc_c.tobytes() == want.tobytes()
                assert acc_f.tobytes(order="C") == want.tobytes()

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
        # Every buffer element must get the row loop's adds in the row
        # loop's order, from the +0.0 of `np.zeros`, whatever the buffer
        # held; tobytes() also tells -0.0 from 0.0.
        rng = np.random.default_rng(9)
        for silent, s in zip((False, True), self._edge_batches(rng)):
            b, n_pre = s.ids.shape
            fired = np.bincount(s.ids[np.arange(n_pre) < s.num_spikes[:, None]], minlength=n_pre)
            assert fired[0] == np.count_nonzero(s.num_spikes) and fired[28] == fired[29] == 1
            assert (s.num_spikes == 0).any() == silent
            for _ in range(3):
                acc = stale_buffer(rng, (n_post, n_pre), order)
                acc[:, 28] = -0.0
                want = np.zeros((n_post, n_pre), order=order)
                dl_di = rng.normal(size=(b, n_post)) * 10.0 ** rng.uniform(-12, 12, (b, n_post))
                dl_di[rng.random(dl_di.shape) < 0.3] = -0.0
                dl_di[3] = -0.0  # the only row that fires id 28
                dl_di = dl_di.astype(np.float32)
                sparse_weight_grad(dl_di, s, acc)
                oracle.sparse_weight_grad(dl_di, s, want)
                assert acc.tobytes() == want.tobytes()
                # +0.0 + -0.0 is +0.0: neither the buffer's -0.0 nor the
                # row's survives, and no column that nothing fires keeps
                # the buffer's NaN or -0.0.
                assert not np.signbit(acc[:, 28]).any()
                assert not np.signbit(acc[:, fired == 0]).any()

    @pytest.mark.parametrize("n_post", [1, 2, 7])
    @pytest.mark.parametrize("lead", [1, 5, 39])
    def test_leading_zero_rows_change_no_byte(self, n_post, lead):
        # The backward pass drops the dead rows at the head of a sweep:
        # all-zero dL/dI rows, of either sign, that fire ids like any other.
        # Adding them to a sum that starts from +0.0 changes nothing.
        rng = np.random.default_rng(lead)
        for s in self._edge_batches(rng):
            b, n_pre = s.ids.shape
            tail = SparseSpikeBatch(
                ids=s.ids[lead:], num_spikes=s.num_spikes[lead:], num_grads=s.num_grads[lead:]
            )
            for _ in range(2):
                acc = stale_buffer(rng, (n_post, n_pre), "F")
                want = np.zeros((n_post, n_pre), order="F")
                dl_di = rng.normal(size=(b, n_post)) * 10.0 ** rng.uniform(-12, 12, (b, n_post))
                dl_di[rng.random(dl_di.shape) < 0.3] = -0.0
                dl_di[:lead] = np.where(rng.random((lead, n_post)) < 0.5, 0.0, -0.0)
                dl_di[0, 0] = -0.0
                dl_di = dl_di.astype(np.float32)
                sparse_weight_grad(dl_di, s, acc)
                oracle.sparse_weight_grad(dl_di[lead:], tail, want)
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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_writes_the_accumulation_from_zeros(self, order):
        # Spike columns that never fire, and dL/dI with -0.0 entries and
        # whole -0.0 rows: the product's sums start from +0.0, so the
        # written buffer holds the bytes of `np.zeros` += the product, with
        # +0.0 and never -0.0 where every term is a signed zero.
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_pre, n_post, b = 12, int(rng.integers(1, 9)), int(rng.integers(1, 40))
            s = (rng.random((b, n_pre)) < 0.4).astype(np.float32)
            s[:, :3] = 0.0
            dl_di = rng.normal(size=(b, n_post)) * 10.0 ** rng.uniform(-12, 12, (b, n_post))
            dl_di[rng.random(dl_di.shape) < 0.3] = -0.0
            dl_di[0] = -0.0
            s[:, 3] = 0.0
            s[0, 3] = 1.0  # fired only by the -0.0 row
            dl_di = dl_di.astype(np.float32)
            acc = stale_buffer(rng, (n_post, n_pre), order)
            want = np.zeros((n_post, n_pre))
            want += dl_di.astype(np.float64).T @ s.astype(np.float64)
            dense_weight_grad(dl_di, s, acc)
            assert acc.tobytes(order="C") == want.tobytes()
            assert not acc[:, :4].any() and not np.signbit(acc[:, :4]).any()


class TestOrientation:
    """The weight layout sets the orientation in which the dense kernels
    hand their products to BLAS. On float32-valued operands at the
    engine's shapes (shd-2944 hidden layers and its 20-output readout,
    binary spikes), either orientation rounds to the same float32 bytes."""

    @pytest.mark.parametrize("rows, n_pre, n_post", [(144, 974, 974), (432, 974, 20)])
    def test_dense_kernels_equal_for_c_and_f_order(self, rows, n_pre, n_post):
        rng = np.random.default_rng(n_post)
        w = LayerWeights(rng.normal(0.0, 20 / np.sqrt(n_pre), (n_post, n_pre)))
        s = (rng.random((rows, n_pre)) < 0.05).astype(np.float32)
        dl_di = rng.normal(size=(rows, n_post)) * 10.0 ** rng.uniform(-6, 0, (rows, n_post))
        dl_di[: rows // 3] = 0.0  # dead rows, as at the head of a sweep
        dl_di = dl_di.astype(np.float32)
        got = {}
        for order in "CF":
            acc = stale_buffer(rng, (n_post, n_pre), order)
            dense_weight_grad(dl_di, s, acc)
            got[order] = [acc.astype(np.float32)]
        # The kernels cast W in its one layout, column-major; the products
        # on a C-ordered float64 W are formed here.
        got["F"] += [
            dense_forward_current(w, s, np.float32),
            dense_input_grad(dl_di, w, np.float32),
        ]
        w_c = np.ascontiguousarray(w.w, dtype=np.float64)
        got["C"] += [
            (s.astype(np.float64) @ w_c.T).astype(np.float32),
            (dl_di.astype(np.float64) @ w_c).astype(np.float32),
        ]
        for c, f in zip(got["C"], got["F"]):
            assert c.dtype == np.float32 and c.tobytes() == f.tobytes()


class TestInputGrad:
    def test_single_entry(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[1]], 2)
        out = sparse_input_grad(np.array([[1.0, 0.0]], dtype=np.float32), w, s)
        assert out[0, 0] == 2.0

    def test_zero_upstream(self):
        w = LayerWeights(np.ones((3, 4)))
        s = batch_from([[0, 2]], 4)
        out = sparse_input_grad(np.zeros((1, 3), dtype=np.float32), w, s)
        assert not out.any()

    def test_gradient_only_entries_receive_gradients(self):
        w = LayerWeights(np.array([[1.0, 2.0], [3.0, 4.0]]))
        s = batch_from([[0, 1]], 2, num_spikes=[1])  # id 1 is gradient-only
        out = sparse_input_grad(np.array([[1.0, 1.0]], dtype=np.float32), w, s)
        assert out[0].tolist() == [4.0, 6.0]

    def test_full_coverage_matches_transpose_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_pre = 2 * int(rng.integers(1, 9))
            n_post, b = (int(rng.integers(2, 16)) for _ in range(2))
            w = LayerWeights(rng.normal(size=(n_post, n_pre)).astype(np.float32))
            u, p, s = include_everything_batch(rng, b, n_pre)
            dl_di = rng.normal(size=(b, n_post)).astype(np.float32)
            got = sparse_input_grad(dl_di, w, s)
            want = dense_input_grad(dl_di, w, np.float32)
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
        sparse_forward_current(w, s)
        with pytest.raises(CorruptionError, match="row 2"):
            sparse_input_grad(np.ones((3, 3), dtype=np.float32), w, s)

    def test_shape_mismatch(self):
        w = LayerWeights(np.ones((3, 4)))
        with pytest.raises(ContractViolation):
            sparse_input_grad(np.zeros((1, 2), dtype=np.float32), w, SparseSpikeBatch.empty(1, 4))


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
        assert np.array_equal(
            sparse_forward_current(w, stacked),
            np.concatenate([sparse_forward_current(w, s) for s in batches]),
        )
        assert np.array_equal(
            sparse_input_grad(np.concatenate(dl_di), w, stacked),
            np.concatenate([sparse_input_grad(g, w, s) for g, s in zip(dl_di, batches)]),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_grad_equals_per_step_sequence(self, seed):
        w, batches, dl_di = self._steps(seed)
        # Time order: the first timestep first. The row loop accumulates
        # step after step into `np.zeros`; the kernel writes the whole
        # sum in one call on the stacked batches, over NaN and -0.0.
        rng = np.random.default_rng(seed)
        per_step = np.zeros(w.w.shape, order="F")
        for g, s in zip(dl_di, batches):
            oracle.sparse_weight_grad(g, s, per_step)
        stacked = stale_buffer(rng, w.w.shape, "F")
        sparse_weight_grad(np.concatenate(dl_di), SparseTransport.stack(batches), stacked)
        assert stacked.tobytes() == per_step.tobytes()
        # The test can tell add orders apart: the reversed order differs.
        reverse = stale_buffer(rng, w.w.shape, "F")
        sparse_weight_grad(
            np.concatenate(dl_di[::-1]), SparseTransport.stack(batches[::-1]), reverse
        )
        assert not np.array_equal(reverse, per_step)
