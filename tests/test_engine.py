from dataclasses import replace

import numpy as np
import pytest

import encode_oracle as oracle
from sparsnn import engine
from sparsnn.engine import (
    DENSE,
    RELAXED,
    SPARSE,
    backward_pass,
    evaluate,
    forward_pass,
    softmax_cross_entropy,
    train_epoch,
)
from sparsnn.errors import ConfigError, NonFiniteStep
from sparsnn.events import SpikeDataset
from sparsnn.lif import LayerWeights, NetworkSpec, membrane_update, surrogate
from sparsnn.model import Network, init_network
from sparsnn.optim import AdamState, SgdState
from sparsnn.rng import DropRng
from sparsnn.sparse import decode_to_dense
from sparsnn.validate import check_gradients, random_tiny_net


def exactness_net(seed, layers, T, batch):
    """Network in the include-everything regime: capacities equal to layer
    sizes, secondary threshold low enough to retain every neuron."""
    spec = NetworkSpec(
        layer_sizes=layers,
        sparse_sizes=layers[:-1],
        batch_size=batch,
        num_timesteps=T,
    )
    return init_network(
        spec, seed=seed, alpha=0.85, threshold=1.0, grad_threshold=-1e6, beta=10.0,
        weight_gain=2.5,
    )


def random_inputs(rng, batch, T, n, density=0.3):
    return (rng.random((batch, T, n)) < density).astype(np.float32)


class TestForward:
    def test_zero_input_zero_everything(self):
        net = exactness_net(0, [4, 6, 3], T=5, batch=2)
        inputs = np.zeros((2, 5, 4), dtype=np.float32)
        trace, scores = forward_pass(net, inputs)
        assert not scores.any()
        for l in range(2):
            assert not trace.u[l].any()

    def test_dense_sparse_identical_spikes_and_scores(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            net = exactness_net(seed, [8, 12, 4], T=8, batch=3)
            inputs = random_inputs(rng, 3, 8, 8)
            td, sd = forward_pass(net, inputs, mode=DENSE)
            ts, ss = forward_pass(net, inputs, mode=SPARSE, rng=DropRng(seed))
            assert np.array_equal(sd, ss)
            for t in range(8):
                dec = decode_to_dense(ts.sent[1][t], 12)
                assert np.array_equal(td.spikes[0][t], dec)

    def test_force_spikes_saturates_capacity(self):
        spec = NetworkSpec((8, 12, 4), (8, 6), batch_size=3, num_timesteps=4)
        net = init_network(spec, seed=0)
        inputs = np.zeros((3, 4, 8), dtype=np.float32)
        trace, _ = forward_pass(
            net, inputs, mode=SPARSE, rng=DropRng(0), force_spikes=True
        )
        for t in range(4):
            assert np.all(trace.sent[1][t].num_spikes == 6)

    def test_input_shape_validated(self):
        net = exactness_net(0, [4, 6, 3], T=5, batch=2)
        with pytest.raises(Exception):
            forward_pass(net, np.zeros((2, 4, 4), dtype=np.float32))

    def test_sparse_needs_rng(self):
        net = exactness_net(0, [4, 6, 3], T=5, batch=2)
        with pytest.raises(ConfigError):
            forward_pass(net, np.zeros((2, 5, 4), dtype=np.float32), mode=SPARSE)


def scalar_chain_rule_oracle(w1, w2, x, alpha, capacitance, theta, beta, T):
    """Independent BPTT for a 1-input/1-hidden/1-output chain, loss = sum
    of output membranes. Forward mimics float32 stepping; the backward
    recurrences below were derived by hand from the update equations."""
    f32 = np.float32
    a, g = f32(alpha), f32((1.0 - alpha) / capacitance)
    u_h = [f32(0.0)]
    i_h = [f32(0.0)]
    u_o = [f32(0.0)]
    i_o = [f32(0.0)]
    s_h = []
    for t in range(T):
        s = f32(1.0 if u_h[t] >= theta else 0.0)
        s_h.append(s)
        u_h.append(f32(a * u_h[t] * (f32(1) - s) + g * i_h[t]))
        i_h.append(f32(f32(w1) * f32(x[t])))
        u_o.append(f32(a * u_o[t] + g * i_o[t]))
        i_o.append(f32(f32(w2) * s))

    h = [1.0 / (beta * abs(float(u_h[t]) - theta) + 1.0) ** 2 for t in range(T)]

    # dL/du_o[t] = 1 (score term) + a * dL/du_o[t+1]
    d_uo = [0.0] * (T + 2)
    for t in range(T, 0, -1):
        d_uo[t] = 1.0 + alpha * d_uo[t + 1]
    # dL/dI_o[k] = g * dL/du_o[k+1]  (k <= T-1), dL/dw2 over I_o[k]=w2*S[k-1]
    d_io = [0.0] * (T + 1)
    for k in range(T):
        d_io[k] = float(g) * d_uo[k + 1]
    dw2 = sum(d_io[k] * float(s_h[k - 1]) for k in range(1, T))

    # Hidden adjoints: transmission through w2, reset through -a*u*du.
    d_uh = [0.0] * (T + 2)
    for t in range(T - 1, -1, -1):
        ds = w2 * d_io[t + 1] if t + 1 <= T else 0.0
        ds += -alpha * float(u_h[t]) * d_uh[t + 1]
        d_uh[t] = alpha * (1.0 - float(s_h[t])) * d_uh[t + 1] + h[t] * ds
    d_ih = [0.0] * (T + 1)
    for k in range(T):
        d_ih[k] = float(g) * d_uh[k + 1]
    dw1 = sum(d_ih[k] * float(x[k - 1]) for k in range(1, T))
    return dw1, dw2


class TestBackward:
    def _chain_net(self, w1, w2, T, alpha=0.8, theta=0.6, beta=5.0):
        spec = NetworkSpec((2, 2, 1), (2, 2), batch_size=1, num_timesteps=T)
        net = init_network(spec, seed=0, alpha=alpha, threshold=theta,
                           grad_threshold=-1e6, beta=beta)
        # Collapse to an effective 1-in/1-hidden/1-out chain: the second
        # input channel and hidden neuron are disconnected and silent.
        net.weights[0].w[:] = [[w1, 0.0], [0.0, 0.0]]
        net.weights[1].w[:] = [[w2, 0.0]]
        return net

    @pytest.mark.parametrize("T", [3, 6, 9])
    def test_matches_hand_chain_rule(self, T):
        w1, w2, alpha, theta, beta = 1.4, 0.9, 0.8, 0.6, 5.0
        x = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0][:T]
        net = self._chain_net(w1, w2, T, alpha, theta, beta)
        inputs = np.zeros((1, T, 2), dtype=np.float32)
        inputs[0, :, 0] = x
        trace, scores = forward_pass(net, inputs)
        grads = backward_pass(net, trace, np.ones((1, 1), dtype=np.float32))
        dw1, dw2 = scalar_chain_rule_oracle(
            w1, w2, x, alpha, 1.0, theta, beta, T
        )
        assert grads[0][0, 0] == pytest.approx(dw1, rel=1e-6, abs=1e-9)
        assert grads[1][0, 0] == pytest.approx(dw2, rel=1e-6, abs=1e-9)
        if T == 3:
            # Too short for any input to reach the readout: zero gradients.
            assert dw1 == 0.0 and dw2 == 0.0

    def test_zero_upstream_zero_grads(self):
        net = exactness_net(2, [4, 6, 3], T=6, batch=2)
        rng = np.random.default_rng(2)
        inputs = random_inputs(rng, 2, 6, 4)
        trace, _ = forward_pass(net, inputs)
        grads = backward_pass(net, trace, np.zeros((2, 3), dtype=np.float32))
        for g in grads:
            assert not g.any()

    def test_linear_in_upstream(self):
        net = exactness_net(3, [4, 6, 3], T=6, batch=2)
        rng = np.random.default_rng(3)
        inputs = random_inputs(rng, 2, 6, 4)
        trace, _ = forward_pass(net, inputs)
        ga = np.asarray(rng.normal(size=(2, 3)), dtype=np.float32)
        gb = np.asarray(rng.normal(size=(2, 3)), dtype=np.float32)
        g_sum = backward_pass(net, trace, ga + gb)
        g_a = backward_pass(net, trace, ga)
        g_b = backward_pass(net, trace, gb)
        for s, a, b in zip(g_sum, g_a, g_b):
            np.testing.assert_allclose(s, a + b, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("mode", [DENSE, SPARSE, RELAXED])
    def test_gradients_row_major_and_cache_released(self, mode):
        net = exactness_net(4, [6, 8, 3], T=5, batch=2)
        inputs = random_inputs(np.random.default_rng(4), 2, 5, 6)
        trace, scores = forward_pass(net, inputs, mode=mode, rng=DropRng(4))
        assert len(trace.transport.w64) == 2
        grads = backward_pass(net, trace, np.ones_like(scores))
        assert trace.transport.w64 is None
        for g, w in zip(grads, net.weights):
            assert g.shape == w.w.shape and g.flags.c_contiguous
            assert g.dtype == trace.transport.dtype

    @pytest.mark.parametrize("mode", [DENSE, SPARSE, RELAXED])
    def test_backward_twice_bit_identical(self, mode):
        # The first call releases the float64 weight copies; the second
        # rebuilds them.
        spec = NetworkSpec((6, 8, 10, 3), (6, 8, 10), batch_size=3, num_timesteps=8)
        net = init_network(spec, seed=0, alpha=0.85, grad_threshold=-1e6, weight_gain=8.0)
        inputs = random_inputs(np.random.default_rng(0), 3, 8, 6, density=0.6)
        trace, scores = forward_pass(net, inputs, mode=mode, rng=DropRng(6))
        upstream = np.asarray(np.random.default_rng(7).normal(size=scores.shape), scores.dtype)
        first = backward_pass(net, trace, upstream)
        second = backward_pass(net, trace, upstream)
        assert all(g.any() for g in first)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    # Live steps per weight layer of a [6, 8, 10, 3] net: T - 1 at the
    # readout, two fewer at each layer below, down to 0. At T = 10 and 6
    # every layer is live; at T = 4 layer 0 is not; at T = 3 only the
    # readout is.
    LIVE = {10: [5, 7, 9], 6: [1, 3, 5], 4: [0, 1, 3], 3: [0, 0, 2]}

    @staticmethod
    def _spiking_net(T, B):
        """A [6, 8, 10, 3] net at full capacity whose hidden layers first
        fire at steps 2 and 4 or later, and inputs for it."""
        spec = NetworkSpec((6, 8, 10, 3), (6, 8, 10), batch_size=B, num_timesteps=T)
        net = init_network(spec, seed=0, alpha=0.85, grad_threshold=-1e6, weight_gain=8.0)
        return net, random_inputs(np.random.default_rng(0), B, T, 6, density=0.5)

    @staticmethod
    def _first(trace, inputs, l):
        """The first of steps 0..T-2 at which weight layer l's input holds
        a spike, or T - 1 if none does."""
        spikes = inputs.transpose(1, 0, 2) if l == 0 else trace.spikes[l - 1]
        T = len(spikes)
        return next((t for t in range(T - 1) if spikes[t].any()), T - 1)

    @staticmethod
    def _record_sweeps(monkeypatch):
        """{layer: dL/dI rows} of every `_sweep_layer` call."""
        swept = {}
        original = engine._sweep_layer

        def record(net, trace, l, *args):
            swept[l] = original(net, trace, l, *args)
            return swept[l]

        monkeypatch.setattr(engine, "_sweep_layer", record)
        return swept

    @pytest.mark.parametrize("mode", [DENSE, SPARSE])
    def test_weight_grads_accumulate_per_layer_in_sweep_order(self, mode, monkeypatch):
        name = "sparse_weight_grad" if mode == SPARSE else "dense_weight_grad"
        original = getattr(engine, name)
        calls = []

        def record(dl_di, s_in, dl_dw_acc):
            calls.append((dl_di, s_in, trace.transport.w64))
            original(dl_di, s_in, dl_dw_acc)

        monkeypatch.setattr(engine, name, record)
        swept = self._record_sweeps(monkeypatch)
        B = 2
        late_starts = empty_windows = 0
        for T, live in self.LIVE.items():
            net, inputs = self._spiking_net(T, B)
            trace, scores = forward_pass(net, inputs, mode=mode, rng=DropRng(5))
            calls.clear()
            swept.clear()
            backward_pass(net, trace, np.ones_like(scores))
            # One call per layer whose window (first, live) is not empty,
            # after the weight copies are dropped. Its rows are the first
            # (live - first) * B rows of the sweep, dL/dI of steps
            # live..first+1, and its payloads those of steps live-1..first:
            # never the dead tail's, nor the silent head's.
            first = [self._first(trace, inputs, l) for l in range(3)]
            windowed = [l for l in range(3) if live[l] > first[l]]
            assert len(calls) == len(windowed)
            late_starts += sum(first[l] > 0 for l in windowed)
            empty_windows += sum(0 < live[l] <= first[l] for l in range(3))
            for l, (dl_di, s_in, w64) in zip(windowed, calls):
                assert w64 is None
                rows = (live[l] - first[l]) * B
                assert dl_di.shape == (rows, net.spec.layer_sizes[l + 1])
                assert np.shares_memory(dl_di, swept[l])
                assert np.array_equal(dl_di, swept[l][:rows])
                steps = [trace.sent[l][t] for t in range(live[l] - 1, first[l] - 1, -1)]
                if mode == SPARSE:
                    for key in ("ids", "num_spikes", "num_grads"):
                        assert np.array_equal(
                            getattr(s_in, key), np.concatenate([getattr(p, key) for p in steps])
                        )
                else:
                    assert np.array_equal(s_in, np.concatenate(steps))
        assert late_starts > 0 and empty_windows > 0

    @pytest.mark.parametrize("mode", [DENSE, SPARSE])
    def test_one_kernel_call_per_layer_and_pass(self, mode, monkeypatch):
        B = 2
        prefix = "sparse_" if mode == SPARSE else "dense_"
        calls = {"forward_current": [], "input_grad": []}
        for kind, seen in calls.items():
            original = getattr(engine, prefix + kind)

            def record(*args, _fn=original, _seen=seen, **kwargs):
                out = _fn(*args, **kwargs)
                _seen.append((args, out))
                return out

            monkeypatch.setattr(engine, prefix + kind, record)
        swept = self._record_sweeps(monkeypatch)
        late_starts = silent_layers = 0
        for T, live in self.LIVE.items():
            net, inputs = self._spiking_net(T, B)
            for seen in calls.values():
                seen.clear()
            trace, scores = forward_pass(net, inputs, mode=mode, rng=DropRng(5))
            # One current call per layer whose input spikes before the last
            # step, on the stacked payloads of steps first..T-2: they drive
            # the currents of steps first+1..T-1, and u[t+1] integrates the
            # current out[t-1-first]. Before that the membrane stays +0.0.
            first = [self._first(trace, inputs, l) for l in range(3)]
            driven = [l for l in range(3) if first[l] < T - 1]
            late_starts += sum(first[l] > 0 for l in driven)
            silent_layers += 3 - len(driven)
            forward = calls["forward_current"]
            assert len(forward) == len(driven)
            for l, ((w, s_in, *_), out) in zip(driven, forward):
                assert w is net.weights[l]
                sent = trace.sent[l][first[l] : T - 1]
                if mode == SPARSE:
                    assert np.array_equal(s_in.ids, np.concatenate([p.ids for p in sent]))
                else:
                    assert np.array_equal(s_in, np.concatenate(sent))
                steps = T - 1 - first[l]
                assert out.shape == (steps * B, net.spec.layer_sizes[l + 1])
                u = trace.u[l]
                s = trace.spikes[l] if trace.spikes[l] is not None else np.zeros_like(u)
                out = out.reshape(steps, B, -1).astype(u.dtype)
                for t in range(first[l] + 1, T - 1):
                    assert np.array_equal(
                        membrane_update(u[t], s[t], out[t - 1 - first[l]], net.params[l]),
                        u[t + 1],
                    )
            for l in range(3):
                head = trace.u[l][: first[l] + 1]
                assert not head.any() and not np.signbit(head).any()
            swept.clear()
            backward_pass(net, trace, np.ones_like(scores))
            # One input-grad call per layer above the first whose sweep
            # reaches step 3, top layer first. The sweep below reads dL/dS
            # of steps 2..live-1 only, so the call gets the first
            # (live - 2) * B rows of dL/dI and the payloads of steps
            # live-1..2.
            grads = calls["input_grad"]
            fed = [l for l in (2, 1) if live[l] > 2]
            assert len(grads) == len(fed)
            for (args, _), l in zip(grads, fed):
                rows = (live[l] - 2) * B
                assert args[1] is net.weights[l]
                assert args[0].shape == (rows, net.spec.layer_sizes[l + 1])
                assert np.array_equal(args[0], swept[l][:rows])
                if mode == SPARSE:
                    steps = [trace.sent[l][t] for t in range(live[l] - 1, 1, -1)]
                    assert np.array_equal(args[2].ids, np.concatenate([p.ids for p in steps]))
        assert late_starts > 0 and silent_layers > 0

    @pytest.mark.parametrize("mode", [DENSE, SPARSE, RELAXED])
    def test_single_timestep_gives_zero_scores_and_gradients(self, mode):
        # With T = 1 no payload drives a current.
        net = exactness_net(7, [6, 8, 3], T=1, batch=2)
        trace, scores = forward_pass(net, np.ones((2, 1, 6), np.float32), mode=mode,
                                     rng=DropRng(7))
        assert not scores.any()
        for g in backward_pass(net, trace, np.ones_like(scores)):
            assert not g.any()

    def test_input_weight_grad_additive_over_time(self):
        # Freeze the trace and split the input spikes by timestep: the
        # first layer's weight gradient is the sum of per-step pieces.
        net = exactness_net(4, [4, 6, 3], T=5, batch=2)
        rng = np.random.default_rng(4)
        inputs = random_inputs(rng, 2, 5, 4)
        trace, _ = forward_pass(net, inputs)
        upstream = np.asarray(rng.normal(size=(2, 3)), dtype=np.float32)
        total = backward_pass(net, trace, upstream)[0]
        acc = np.zeros_like(total)
        for t in range(5):
            only_t = np.zeros_like(inputs)
            only_t[:, t] = inputs[:, t]
            trace.sent[0] = list(only_t.transpose(1, 0, 2))
            acc += backward_pass(net, trace, upstream)[0]
        np.testing.assert_allclose(total, acc, rtol=1e-5, atol=1e-7)

    def test_detach_reset_changes_gradients(self):
        net = exactness_net(5, [6, 8, 3], T=8, batch=2)
        rng = np.random.default_rng(5)
        inputs = random_inputs(rng, 2, 8, 6, density=0.6)
        trace, scores = forward_pass(net, inputs)
        _, dl = softmax_cross_entropy(scores, np.array([0, 1]))
        with_reset = backward_pass(net, trace, dl, reset_grad=True)
        detached = backward_pass(net, trace, dl, reset_grad=False)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(with_reset, detached)
        )


class TestGradientChecks:
    def test_fd_agreement_membrane_sum(self):
        worst = max(check_gradients(*random_tiny_net(seed)) for seed in range(6))
        assert worst < 1e-3

    def test_relaxed_recovers_hard_scores_at_large_beta(self):
        net, inputs, labels = random_tiny_net(7)
        for p in net.params:
            object.__setattr__(p, "beta", 1e7)
        _, hard = forward_pass(net, inputs, mode=DENSE)
        _, soft = forward_pass(net, inputs, mode=RELAXED)
        np.testing.assert_allclose(hard, soft, atol=1e-3)

    def test_relaxed_zero_input_zero_scores(self):
        net, inputs, labels = random_tiny_net(8)
        _, scores = forward_pass(net, np.zeros_like(inputs), mode=RELAXED)
        # With zero input the soft spikes are the constant relaxed_spike(-theta),
        # so scores are equal across the batch (not necessarily zero).
        assert np.allclose(scores, scores[0])


class TestExactnessRegime:
    def test_sparse_equals_dense_spikes_and_gradients(self):
        rng = np.random.default_rng(9)
        for seed in range(8):
            layers = [
                2 * int(rng.integers(2, 8)),
                2 * int(rng.integers(2, 8)),
                int(rng.integers(2, 6)),
            ]
            T = int(rng.integers(6, 12))
            b = int(rng.integers(2, 5))
            net = exactness_net(seed, layers, T=T, batch=b)
            inputs = random_inputs(rng, b, T, layers[0], density=0.4)
            labels = rng.integers(0, layers[-1], size=b)

            td, sd = forward_pass(net, inputs, mode=DENSE)
            ts, ss = forward_pass(net, inputs, mode=SPARSE, rng=DropRng(seed))
            assert np.array_equal(sd, ss)
            _, dl = softmax_cross_entropy(sd, labels)
            gd = backward_pass(net, td, dl)
            gs = backward_pass(net, ts, dl)
            for a, b_ in zip(gd, gs):
                denom = max(np.abs(a).max(), 1e-12)
                assert np.abs(a - b_).max() / denom < 1e-6


class ResetsDroppedSpikes(engine.SparseTransport):
    """Mutant: every firing neuron resets, the dropped ones included."""

    def send(self, l, t, u, params):
        _, batch = super().send(l, t, u, params)
        return engine.threshold_spikes_dense(u, params.threshold), batch


class SlopesThroughDroppedEntries(engine.SparseTransport):
    """Mutant: every candidate entry gets its slope, the dropped ones
    included."""

    def sent_slopes(self, u, params, payloads):
        slopes = engine.DenseTransport.sent_slopes(self, u, params, payloads)
        return np.where(u >= params.grad_threshold, slopes, np.float32(0.0))


class TestCappedRegimeOracle:
    """At any capacity, a sparse run computes the dense program on the sets
    it retained: `oracle.ReplayTransport` runs that program, and the scores
    and gradients agree byte for byte (signed zeros included)."""

    @staticmethod
    def _cases():
        """`random_tiny_net` draws, weights tripled so that hidden layers
        fire and drop in free runs too, at every even capacity from 2 to
        full (capped at each layer's size)."""
        for seed in range(20):
            net, inputs, labels = random_tiny_net(seed)
            weights = [LayerWeights(3 * w.w) for w in net.weights]
            sizes = net.spec.layer_sizes[:-1]
            for cap in range(2, max(sizes) + 1, 2):
                spec = replace(net.spec, sparse_sizes=[min(cap, n) for n in sizes])
                yield Network(spec, weights, net.params), inputs, labels

    @staticmethod
    def _run(net, inputs, labels, force_spikes, reset_grad, transport=None):
        """(trace, scores, gradients) of a sparse run, or of a run of
        `transport` in place of the dense one."""
        mode = SPARSE if transport is None else DENSE
        with pytest.MonkeyPatch.context() as mp:
            if transport is not None:
                mp.setattr(engine, "_transport", lambda *args: transport)
            trace, scores = forward_pass(net, inputs, mode=mode, rng=DropRng(11),
                                         force_spikes=force_spikes)
        _, dl = softmax_cross_entropy(scores, labels)
        return trace, scores, backward_pass(net, trace, dl, reset_grad=reset_grad)

    def _mismatches(self, force_spikes, reset_grad):
        """Cases whose sparse run differs from its replay in any byte, and
        cases whose hidden layers dropped a spike."""
        differ = dropped = 0
        for net, inputs, labels in self._cases():
            trace, scores, grads = self._run(net, inputs, labels, force_spikes, reset_grad)
            replay = oracle.ReplayTransport(trace.sent)
            _, r_scores, r_grads = self._run(
                net, inputs, labels, force_spikes, reset_grad, replay
            )
            same = scores.tobytes() == r_scores.tobytes() and all(
                g.dtype == r.dtype and g.tobytes() == r.tobytes() for g, r in zip(grads, r_grads)
            )
            differ += not same
            hidden = range(net.spec.num_weight_layers - 1)
            fired = sum(int((trace.u[l] >= net.params[l].threshold).sum()) for l in hidden)
            kept = sum(int(b.num_spikes.sum()) for l in hidden for b in trace.sent[l + 1])
            dropped += fired > kept
        return differ, dropped

    @pytest.mark.parametrize("reset_grad", [True, False])
    @pytest.mark.parametrize("force_spikes", [False, True])
    def test_sparse_equals_replay_of_its_retained_sets(self, force_spikes, reset_grad):
        differ, dropped = self._mismatches(force_spikes, reset_grad)
        assert differ == 0
        assert dropped > 0

    @pytest.mark.parametrize("mutant", [ResetsDroppedSpikes, SlopesThroughDroppedEntries])
    def test_mutants_differ_from_replay(self, mutant, monkeypatch):
        monkeypatch.setattr(engine, "SparseTransport", mutant)
        for force_spikes in (False, True):
            differ, _ = self._mismatches(force_spikes, reset_grad=True)
            assert differ > 0


class TestSparseSlopes:
    @pytest.mark.parametrize("force_spikes", [False, True])
    def test_slopes_are_surrogate_at_retained_entries_only(self, force_spikes):
        # Capacity 4 of 10 and 12 ids: rows overflow and drop, and free
        # dynamics also retain gradient-only entries. A batch carries ids
        # only; the slope of every retained entry comes from the recorded
        # membrane, and every other entry is +0.0.
        spec = NetworkSpec((8, 10, 12, 3), (8, 4, 4), batch_size=3, num_timesteps=8)
        net = init_network(spec, seed=2, grad_threshold=0.25, weight_gain=8.0)
        inputs = random_inputs(np.random.default_rng(2), 3, 8, 8, density=0.6)
        trace, _ = forward_pass(net, inputs, mode=SPARSE, rng=DropRng(2),
                                force_spikes=force_spikes)
        seen = {"dropped": 0, "gradient_only": 0}
        for l in range(2):
            params, u, sent = net.params[l], trace.u[l], trace.sent[l + 1]
            got = trace.transport.sent_slopes(u, params, sent)
            want = np.zeros_like(u)
            for t, batch in enumerate(sent):
                for b in range(spec.batch_size):
                    ids = batch.ids[b, : batch.num_grads[b]]
                    want[t, b, ids] = surrogate(u[t, b, ids] - params.threshold[ids], params.beta)
                    seen["gradient_only"] += int(batch.num_grads[b] - batch.num_spikes[b])
                kept = batch.num_grads.sum()
                seen["dropped"] += int((u[t] >= params.grad_threshold).sum() - kept)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert seen["dropped"] > 0
        assert (seen["gradient_only"] > 0) == (not force_spikes)


class TestLiveSteps:
    """The backward pass that skips the dead tail gives the full-length
    sweep's gradients byte for byte."""

    @staticmethod
    def _draw(seed, T, capped):
        """A `random_tiny_net` draw run at T steps, its weights tripled so
        that more layers spike; `capped` cuts every capacity to 2 ids, so
        that rows overflow and drop."""
        net, _, _ = random_tiny_net(seed)
        weights = [LayerWeights(3 * w.w) for w in net.weights]
        spec = net.spec
        sizes = (2,) * len(spec.sparse_sizes) if capped else spec.sparse_sizes
        spec = replace(spec, num_timesteps=T, sparse_sizes=sizes)
        rng = np.random.default_rng((seed, T))
        inputs = (rng.random((spec.batch_size, T, spec.input_size)) < 0.6).astype(np.float32)
        upstream = rng.normal(size=(spec.batch_size, spec.output_size))
        return Network(spec, weights, net.params), inputs, upstream

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("case", ["dense", "sparse", "sparse_capped", "relaxed"])
    def test_gradients_equal_full_sweep_byte_for_byte(self, case, T):
        mode = case.split("_")[0]
        dead_layers = 0
        for seed in range(8):
            net, inputs, upstream = self._draw(seed, T, capped=case == "sparse_capped")
            trace, scores = forward_pass(net, inputs, mode=mode, rng=DropRng(seed))
            upstream = upstream.astype(scores.dtype)
            for reset_grad in (True, False):
                got = backward_pass(net, trace, upstream, reset_grad=reset_grad)
                want = oracle.backward_pass(net, trace, upstream, reset_grad=reset_grad)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            L = net.spec.num_weight_layers
            dead_layers += sum(T - 1 - 2 * (L - 1 - l) <= 0 for l in range(L))
        # Every T but 10 leaves some draw's lower layers with no live step.
        assert (dead_layers > 0) == (T < 10)


class TestWindows:
    """The passes that give each layer work only in its window give the
    full-window passes' scores, membranes and gradients byte for byte."""

    # None keeps the draw's threshold of 1.0; a threshold <= 0 fires at
    # step 0 from the +0.0 start, so no hidden-fed window starts late.
    THRESHOLDS = (None, 0.0, -0.5)

    @staticmethod
    def _draw(seed, T, capped, threshold):
        """A `TestLiveSteps` draw whose first `seed % 3` input steps are
        silent, so that layer 0's window starts late too, at `threshold`."""
        net, inputs, upstream = TestLiveSteps._draw(seed, T, capped)
        inputs[:, : seed % 3] = 0
        if threshold is not None:
            params = [
                replace(
                    p,
                    threshold=np.full_like(p.threshold, threshold),
                    grad_threshold=np.full_like(p.grad_threshold, threshold - 0.5),
                )
                for p in net.params
            ]
            net = Network(net.spec, net.weights, params)
        return net, inputs, upstream

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize(
        "case",
        ["dense", "dense_forced", "relaxed", "sparse", "sparse_forced",
         "sparse_capped", "sparse_capped_forced"],
    )
    def test_equal_full_window_passes_byte_for_byte(self, case, T):
        mode = case.split("_")[0]
        forced = case.endswith("_forced")
        late_starts = 0
        for seed in range(6):
            for threshold in self.THRESHOLDS:
                net, inputs, upstream = self._draw(seed, T, "_capped" in case, threshold)
                got_trace, got = forward_pass(
                    net, inputs, mode=mode, rng=DropRng(seed), force_spikes=forced
                )
                want_trace, want = oracle.forward_pass(
                    net, inputs, mode, rng=DropRng(seed), force_spikes=forced
                )
                pairs = [(got, want), *zip(got_trace.u, want_trace.u)]
                upstream = upstream.astype(got.dtype)
                for reset_grad in (True, False):
                    pairs += zip(
                        backward_pass(net, got_trace, upstream, reset_grad=reset_grad),
                        oracle.backward_pass(net, want_trace, upstream, reset_grad=reset_grad),
                    )
                for g, w in pairs:
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                L = net.spec.num_weight_layers
                first = [
                    engine._window(got_trace.transport, got_trace.sent[l], l, L)[0]
                    for l in range(L)
                ]
                late_starts += sum(f > 0 for f in first)
                if threshold is not None and T > 1:
                    assert not any(first[1:])
        # Silent leading inputs start some layer-0 window late at every T > 1.
        assert (late_starts > 0) == (T > 1)


class TestLoss:
    def test_probabilities_and_gradient(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(5, 7)).astype(np.float32)
        labels = rng.integers(0, 7, size=5)
        loss, grad = softmax_cross_entropy(scores, labels)
        assert loss > 0
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-7)
        # perfect scores give tiny loss
        sure = np.full((3, 4), -50.0, dtype=np.float32)
        sure[np.arange(3), [0, 1, 2]] = 50.0
        loss2, _ = softmax_cross_entropy(sure, np.array([0, 1, 2]))
        assert loss2 < 1e-6


def toy_dataset(rng, n_in, T, n_samples, num_classes):
    frames = np.zeros((n_samples, T, n_in), dtype=np.float32)
    labels = rng.integers(0, num_classes, size=n_samples)
    for k in range(n_samples):
        cls = labels[k]
        chans = np.arange(cls, n_in, num_classes)
        frames[k][:, chans] = (rng.random((T, len(chans))) < 0.8)
    return SpikeDataset(frames=frames, labels=labels)


class TestTraining:
    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(0)
        net = exactness_net(0, [6, 8, 3], T=6, batch=4)
        before = [w.w.copy() for w in net.weights]
        ds = toy_dataset(rng, 6, 6, 8, 3)
        with pytest.raises(ConfigError):
            train_epoch(net, ds, SgdState(lr=0.0))
        # smallest legal lr barely moves weights
        train_epoch(net, ds, SgdState(lr=1e-30))
        for b, w in zip(before, net.weights):
            np.testing.assert_array_equal(b, w.w)

    def test_dense_and_sparse_identical_metrics_at_full_capacity(self):
        rng = np.random.default_rng(1)
        ds = toy_dataset(rng, 8, 6, 16, 3)
        m = []
        for mode in (DENSE, SPARSE):
            net = exactness_net(7, [8, 10, 3], T=6, batch=8)
            opt = AdamState(lr=1e-3)
            metrics = [
                train_epoch(net, ds, opt, mode=mode, drop_seed=3, epoch_index=e)
                for e in range(2)
            ]
            m.append([(em.mean_loss, em.accuracy) for em in metrics])
        assert m[0] == m[1]

    def test_training_reduces_loss_linearly_separable(self):
        rng = np.random.default_rng(2)
        ds = toy_dataset(rng, 10, 8, 32, 2)
        spec = NetworkSpec((10, 12, 2), (10, 12), batch_size=8, num_timesteps=8)
        net = init_network(spec, seed=4, alpha=0.8, grad_threshold=0.0,
                           weight_gain=2.0)
        opt = AdamState(lr=5e-3)
        first = train_epoch(net, ds, opt, drop_seed=0, epoch_index=0)
        acc = 0.0
        for e in range(1, 50):
            metrics = train_epoch(net, ds, opt, drop_seed=0, epoch_index=e)
            acc = metrics.accuracy
            if acc == 1.0:
                break
        assert acc == 1.0
        assert metrics.mean_loss < first.mean_loss

    def test_nan_weight_mid_run_names_epoch_batch_and_layer(self):
        rng = np.random.default_rng(5)
        ds = toy_dataset(rng, 6, 8, 16, 3)
        net = exactness_net(0, [6, 8, 3], T=8, batch=4)
        opt = AdamState(lr=1e-3)
        train_epoch(net, ds, opt, epoch_index=0)

        class Poisoned:
            """The dataset's batches, with a NaN put into a weight of layer 0
            after the first two have trained."""

            def minibatches(self, batch_size, order):
                for k, batch in enumerate(ds.minibatches(batch_size, order)):
                    if k == 2:
                        net.weights[0].w[0, 0] = np.nan
                    yield batch

        message = r"^epoch 1, batch 2: non-finite gradient in weight layer 0$"
        with pytest.raises(NonFiniteStep, match=message):
            train_epoch(net, Poisoned(), opt, epoch_index=1)
        # The failed step made no update: the NaN is still the only one.
        assert np.count_nonzero(np.isnan(net.weights[0].w)) == 1
        assert np.isfinite(net.weights[1].w).all()

    def test_overflowing_gradient_sum_is_not_an_error(self):
        net = exactness_net(0, [6, 8, 3], T=8, batch=4)
        grads = [np.full(w.w.shape, 3e38, dtype=np.float32) for w in net.weights]
        engine._check_finite(net, 1.0, grads)
        grads[1][2, 1] = np.inf
        with pytest.raises(NonFiniteStep, match="^non-finite gradient in weight layer 1$"):
            engine._check_finite(net, 1.0, grads)

    def test_evaluate_runs(self):
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng, 6, 6, 8, 3)
        net = exactness_net(0, [6, 8, 3], T=6, batch=4)
        acc = evaluate(net, ds, mode=DENSE)
        assert 0.0 <= acc <= 1.0
