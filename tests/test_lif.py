from dataclasses import replace

import numpy as np
import pytest

from sparsnn.bench import ARCH_PRESETS, network_spec_for
from sparsnn.engine import forward_pass
from sparsnn.errors import ConfigError, ContractViolation
from sparsnn.lif import (
    LifParams,
    NetworkSpec,
    membrane_update,
    relaxed_spike,
    relaxed_spike_grad,
    surrogate,
    threshold_spikes_dense,
)
from sparsnn.model import init_network


def params1(alpha=0.8, capacitance=1.0, threshold=1.0, grad_threshold=0.5, n=1):
    return LifParams.uniform(
        n, alpha=alpha, capacitance=capacitance,
        threshold=threshold, grad_threshold=grad_threshold,
    )


def lif_step(u, i_syn, params):
    """One LIF step as the engine runs it: spikes from the incoming membrane,
    then the membrane update with the stored current. Returns (u', spikes)."""
    u = np.asarray(u, dtype=np.float32)
    spikes = threshold_spikes_dense(u, params.threshold)
    return membrane_update(u, spikes, np.asarray(i_syn, dtype=np.float32), params), spikes


class TestLifStep:
    def test_subthreshold_decay_and_integration(self):
        # alpha=0.8, C=1, theta=1: u=0.5, I=1.0 -> no spike, u'=0.6
        u, spikes = lif_step([[0.5]], [[1.0]], params1())
        assert spikes[0, 0] == 0.0
        assert u[0, 0] == pytest.approx(0.8 * 0.5 + 0.2 * 1.0)

    def test_reset_kills_decay_term(self):
        u, spikes = lif_step([[1.2]], [[0.0]], params1())
        assert spikes[0, 0] == 1.0
        assert u[0, 0] == 0.0

    def test_zero_fixed_point(self):
        u, spikes = lif_step(np.zeros((2, 3)), np.zeros((2, 3)), params1(n=3))
        assert not spikes.any()
        assert not u.any()

    def test_new_current_stored_with_one_step_delay(self):
        # One input spike at t=0 through weight 2.5: its current is the
        # current of step 1, so the membrane holds it only from step 2 on.
        spec = NetworkSpec((2, 2), (2,), batch_size=1, num_timesteps=3)
        net = init_network(spec, seed=0, alpha=0.8, threshold=1.0, grad_threshold=0.5)
        net.weights[0].w[:] = [[2.5, 0.0], [0.0, 0.0]]
        inputs = np.zeros((1, 3, 2), dtype=np.float32)
        inputs[0, 0, 0] = 1.0
        trace, _ = forward_pass(net, inputs)
        assert trace.u[0][:2, 0, 0].tolist() == [0.0, 0.0]
        assert trace.u[0][2, 0, 0] == pytest.approx(0.2 * 2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            lif_step(np.zeros((1, 3)), np.zeros((1, 3)), params1(n=2))

    def test_geometric_convergence_to_i_over_c(self):
        # Spikes suppressed: u approaches I/C geometrically at rate alpha.
        p = LifParams.uniform(1, alpha=0.7, capacitance=2.0,
                              threshold=1e9, grad_threshold=1e9)
        target = 3.0 / 2.0
        u = np.array([[5.0]])
        u0_err = abs(5.0 - target)
        for t in range(1, 30):
            u, spikes = lif_step(u, [[3.0]], p)
            assert not spikes.any()
            assert abs(u[0, 0] - target) <= 0.7**t * u0_err + 1e-6


class TestThreshold:
    def test_tie_fires(self):
        u = np.array([[0.9, 1.0, 1.1]])
        out = threshold_spikes_dense(u, np.ones(3))
        assert out.dtype == bool
        assert out.tolist() == [[0.0, 1.0, 1.0]]

    def test_all_below(self):
        assert not threshold_spikes_dense(np.full((2, 4), -1.0), np.ones(4)).any()

    def test_saturation(self):
        assert threshold_spikes_dense(np.zeros((2, 4)), np.full(4, -1e30)).all()


class TestSurrogate:
    def test_peak_at_zero(self):
        assert surrogate(np.array(0.0), 7.0) == 1.0

    def test_direct_value(self):
        assert surrogate(np.array(0.1), 10.0) == pytest.approx(0.25)
        assert surrogate(np.array(-0.1), 10.0) == pytest.approx(0.25)

    def test_even_decreasing_bounded(self):
        x = np.linspace(0.0, 5.0, 200)
        h = surrogate(x, 3.0)
        assert np.array_equal(h, surrogate(-x, 3.0))
        assert np.all(np.diff(h) < 0)
        assert np.all((h > 0) & (h <= 1))

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            surrogate(np.array(0.0), 0.0)

    def test_overflow_is_the_zero_limit(self):
        # Under the suite's error::RuntimeWarning filter: a d beyond float32's
        # range gives exactly +0.0 and no warning; a NaN input stays NaN.
        for h in (surrogate, relaxed_spike_grad):
            out = h(np.float32([3e38, -1e30]), 10.0)
            assert out.dtype == np.float32
            assert out.tobytes() == np.float32([0.0, 0.0]).tobytes()
            assert np.isnan(h(np.float32([np.nan]), 10.0)).all()


class TestRelaxedSpike:
    def test_limits_and_midpoint(self):
        assert relaxed_spike(np.array(0.0), 10.0) == 0.5
        assert relaxed_spike(np.array(5.0), 1e6) == pytest.approx(1.0, abs=1e-5)
        assert relaxed_spike(np.array(-5.0), 1e6) == pytest.approx(0.0, abs=1e-5)

    def test_grad_is_true_derivative(self):
        # Central differences of the relaxed spike equal the closed form.
        x = np.linspace(-2, 2, 41)
        eps = 1e-6
        fd = (relaxed_spike(x + eps, 8.0) - relaxed_spike(x - eps, 8.0)) / (2 * eps)
        np.testing.assert_allclose(fd, relaxed_spike_grad(x, 8.0), rtol=1e-5)


class TestParams:
    def test_grad_threshold_above_threshold_rejected(self):
        with pytest.raises(ConfigError):
            LifParams.uniform(3, threshold=1.0, grad_threshold=1.5)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ConfigError):
            LifParams.uniform(2, alpha=alpha)


class TestNetworkSpec:
    def test_sparse_sizes_validated(self):
        with pytest.raises(ConfigError):
            NetworkSpec((10, 10, 2), (10, 3), batch_size=1, num_timesteps=1)
        with pytest.raises(ConfigError):
            NetworkSpec((10, 10, 2), (12, 4), batch_size=1, num_timesteps=1)
        spec = NetworkSpec((10, 10, 2), (10, 4), batch_size=2, num_timesteps=3)
        assert spec.num_weight_layers == 2

    @pytest.mark.parametrize("preset, frames", [("tiny", 5), ("shd-2944", 3)])
    def test_receptive_frames_of_the_presets(self, preset, frames):
        # T = 10; each of the L - 1 hidden layers costs two steps of reach.
        spec = network_spec_for(ARCH_PRESETS[preset], 0.05, 48, 10)
        assert spec.num_timesteps == 10
        assert spec.receptive_frames == frames == spec.live_steps(0)

    def test_receptive_frames_floor_at_zero(self):
        spec = NetworkSpec((4,) * 7, (4,) * 6, batch_size=1, num_timesteps=10)
        assert [spec.live_steps(l) for l in range(6)] == [0, 1, 3, 5, 7, 9]
        assert spec.receptive_frames == 0
        assert replace(spec, num_timesteps=12).receptive_frames == 1

    @pytest.mark.parametrize("T, want", [(1, 12), (11, 12), (12, 12), (13, 13)])
    def test_made_receptive_raises_t_to_2l(self, T, want):
        # 6 weight layers: T = 12 = 2L is the least at which a frame
        # reaches the loss (T = 10 reaches none, above).
        spec = NetworkSpec((4,) * 7, (4,) * 6, batch_size=1, num_timesteps=T)
        made = spec.made_receptive()
        assert made == replace(spec, num_timesteps=want)
        assert made.receptive_frames == want - 11

    def test_current_linearity(self):
        # Eq-level property: current from a union of disjoint spike sets is
        # the sum of the separate currents.
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 10)).astype(np.float32)
        a = np.zeros((1, 10), dtype=np.float32)
        b = np.zeros((1, 10), dtype=np.float32)
        a[0, [1, 3, 5]] = 1
        b[0, [0, 2, 8]] = 1
        ia = a @ w.T
        ib = b @ w.T
        iu = (a + b) @ w.T
        np.testing.assert_allclose(iu, ia + ib, rtol=1e-6)
