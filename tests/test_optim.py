import numpy as np
import pytest

from sparsnn.errors import ConfigError
from sparsnn.optim import (
    ADAM_BLOCK,
    AdamState,
    SgdState,
    _blocks,
    adam_step,
    make_optimizer,
    sgd_step,
)


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

    @pytest.mark.parametrize("shape", [(974, 700), (ADAM_BLOCK + 1,), (3,)])
    def test_blocked_step_equals_whole_array_expressions(self, shape):
        def reference(p, g, m, v, state):
            # The unblocked update: every expression over the whole array.
            b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
            c1 = 1.0 - state.beta1 ** state.step
            c2 = 1.0 - state.beta2 ** state.step
            m *= b1
            m += (np.float32(1) - b1) * g
            v *= b2
            v += (np.float32(1) - b2) * g * g
            m_hat = m / np.float32(c1)
            v_hat = v / np.float32(c2)
            p -= np.float32(state.lr) * m_hat / (np.sqrt(v_hat) + np.float32(state.eps))

        # Memory orders of (params, grads, moments given to the state):
        # shared C or Fortran, mixed (the whole-array fallback), and moments
        # restored C-ordered for column-major weights.
        layouts = [("C", "C", None), ("F", "F", None), ("F", "C", None), ("C", "F", None),
                   ("F", "F", "C")]
        for p_order, g_order, m_order in layouts:
            gen = np.random.default_rng(11)
            p = np.asarray(gen.normal(size=shape), dtype=np.float32, order=p_order)
            want_p, want_m, want_v = p.copy(), np.zeros_like(p), np.zeros_like(p)
            state = AdamState(lr=1e-3)
            if m_order:
                state.m = [np.zeros(shape, dtype=np.float32, order=m_order)]
                state.v = [np.zeros(shape, dtype=np.float32, order=m_order)]
            for step in range(1, 4):
                g = gen.normal(size=shape) * 10.0 ** gen.uniform(-6, 2, shape)
                g = np.asarray(g, dtype=np.float32, order=g_order)
                adam_step([p], [g], state)
                assert state.step == step
                reference(want_p, g, want_m, want_v, state)
                assert p.tobytes() == want_p.tobytes()
                assert state.m[0].tobytes() == want_m.tobytes()
                assert state.v[0].tobytes() == want_v.tobytes()
                # The moments take the parameter's layout; then the update is
                # blocked unless the gradient's layout differs.
                m, v = state.m[0], state.v[0]
                assert m.strides == v.strides == p.strides
                blocks = len(list(_blocks(p, g, m, v)))
                shared = p.flags.c_contiguous == g.flags.c_contiguous
                assert blocks == (-(-p.size // ADAM_BLOCK) if shared else 1)

    def test_non_contiguous_params_are_updated_in_place(self):
        # A view that no flat view can cover: flattening it would copy.
        base = np.ones((4, 6), dtype=np.float32)
        p = base[:, :3]
        adam_step([p], [np.ones_like(p)], AdamState(lr=1e-3))
        assert np.all(base[:, :3] < 1) and np.all(base[:, 3:] == 1)

    def test_defaults(self):
        state = make_optimizer("adam", 1e-3)
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError):
            make_optimizer("rmsprop", 1e-3)
