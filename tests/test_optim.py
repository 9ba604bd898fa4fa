import numpy as np
import pytest

from sparsnn.errors import ConfigError
from sparsnn.optim import AdamState, SgdState, adam_step, make_optimizer, sgd_step


class TestSgd:
    def test_basic_step(self):
        p = [np.array([1.0], dtype=np.float32)]
        sgd_step(p, [np.array([0.5], dtype=np.float32)], lr=0.1)
        assert p[0][0] == pytest.approx(0.95)

    def test_zero_grad_no_move(self):
        p = [np.full((3,), 2.0, dtype=np.float32)]
        sgd_step(p, [np.zeros(3, dtype=np.float32)], lr=0.1)
        assert np.all(p[0] == 2.0)

    def test_two_steps_equal_one_at_double_lr_for_constant_grad(self):
        g = [np.array([0.25], dtype=np.float32)]
        a = [np.array([1.0], dtype=np.float32)]
        b = [np.array([1.0], dtype=np.float32)]
        sgd_step(a, g, 0.1)
        sgd_step(a, g, 0.1)
        sgd_step(b, g, 0.2)
        assert a[0][0] == pytest.approx(b[0][0])

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            sgd_step([np.zeros(1)], [np.zeros(1)], lr=0.0)


class TestAdam:
    @pytest.mark.parametrize("lr", [0.0, -1.0])
    def test_bad_lr(self, lr):
        # Checked at construction, as for SGD: a negative rate climbs the loss.
        with pytest.raises(ConfigError):
            AdamState(lr=lr)
        with pytest.raises(ConfigError):
            make_optimizer("adam", lr)

    def test_zero_grads_keep_params(self):
        p = [np.full((2,), 3.0, dtype=np.float32)]
        state = AdamState(lr=1e-2)
        for _ in range(5):
            adam_step(p, [np.zeros(2, dtype=np.float32)], state)
        assert np.all(p[0] == 3.0)

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_first_step_magnitude_is_lr(self, scale):
        # t=1: m_hat = g, v_hat = g^2 -> step = lr * g/(|g|+eps) ~ lr*sign(g)
        p = [np.array([0.0], dtype=np.float32)]
        g = [np.array([scale], dtype=np.float32)]
        state = AdamState(lr=1e-3)
        adam_step(p, g, state)
        assert abs(p[0][0]) == pytest.approx(1e-3, rel=1e-3)
        assert p[0][0] < 0

    def test_moments_decay_after_grads_cease(self):
        p = [np.array([0.0], dtype=np.float32)]
        state = AdamState(lr=1e-3)
        adam_step(p, [np.array([1.0], dtype=np.float32)], state)
        m1 = abs(state.m[0][0])
        for _ in range(50):
            adam_step(p, [np.zeros(1, dtype=np.float32)], state)
        assert abs(state.m[0][0]) < 1e-2 * m1
        # recurrence check at step 2: m = b1*g (from step1) decayed once
        fresh = AdamState(lr=1e-3)
        adam_step([np.array([0.0], dtype=np.float32)],
                  [np.array([2.0], dtype=np.float32)], fresh)
        adam_step([np.array([0.0], dtype=np.float32)],
                  [np.array([0.0], dtype=np.float32)], fresh)
        assert fresh.m[0][0] == pytest.approx(0.9 * (1 - 0.9) * 2.0)

    def test_defaults(self):
        state = make_optimizer("adam", 1e-3)
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError):
            make_optimizer("rmsprop", 1e-3)
