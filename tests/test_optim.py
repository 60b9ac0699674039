import numpy as np
import pytest

from fusionscreen.optim import Optimizer, OptimizerConfig


def reference_adam(w, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=None):
    """Independent loop oracle for (bias-corrected) adam / adamw."""
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        # adamw decays the pre-update weight (decoupled decay)
        decay = lr * wd * w if wd is not None else 0.0
        w = w - lr * mhat / (np.sqrt(vhat) + eps) - decay
    return w


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", 0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig("adam", 0.0)

    def test_coefficient_defaults(self):
        cfg = OptimizerConfig("adam", 0.1)
        assert cfg.coeff("beta1") == 0.9
        assert cfg.coeff("beta2") == 0.999

    def test_coefficient_override(self):
        cfg = OptimizerConfig("rmsprop", 0.1, {"rho": 0.8})
        assert cfg.coeff("rho") == 0.8


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with zero state, mhat = g and vhat = g^2 so the step is
        # lr * g / (|g| + eps) ~= lr * sign(g)
        opt = Optimizer(OptimizerConfig("adam", 0.1))
        out = opt.step({"w": np.array([1.0])}, {"w": np.array([0.5])})
        assert out["w"][0] == pytest.approx(0.9, abs=1e-7)

    def test_matches_reference_over_steps(self, rng):
        w = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(7)]
        opt = Optimizer(OptimizerConfig("adam", 0.01))
        got = w
        for g in grads:
            got = opt.step({"w": got}, {"w": g})["w"]
        assert np.allclose(got, reference_adam(w, grads, 0.01), atol=1e-14)


class TestAdamW:
    def test_decoupled_weight_decay(self, rng):
        w = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(5)]
        opt = Optimizer(OptimizerConfig("adamw", 0.01))
        got = w
        for g in grads:
            got = opt.step({"w": got}, {"w": g})["w"]
        assert np.allclose(got, reference_adam(w, grads, 0.01, wd=0.01),
                           atol=1e-14)

    def test_decay_even_with_zero_gradient(self):
        opt = Optimizer(OptimizerConfig("adamw", 0.1))
        out = opt.step({"w": np.array([2.0])}, {"w": np.array([0.0])})
        assert out["w"][0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)


class TestRmsprop:
    def test_matches_reference(self, rng):
        w = rng.normal(size=5)
        grads = [rng.normal(size=5) for _ in range(6)]
        opt = Optimizer(OptimizerConfig("rmsprop", 0.005))
        got = w
        for g in grads:
            got = opt.step({"w": got}, {"w": g})["w"]
        v = np.zeros_like(w)
        ref = w
        for g in grads:
            v = 0.9 * v + 0.1 * g * g
            ref = ref - 0.005 * g / (np.sqrt(v) + 1e-8)
        assert np.allclose(got, ref, atol=1e-14)


class TestAdadelta:
    def test_matches_reference(self, rng):
        w = rng.normal(size=5)
        grads = [rng.normal(size=5) for _ in range(6)]
        opt = Optimizer(OptimizerConfig("adadelta", 1.0))
        got = w
        for g in grads:
            got = opt.step({"w": got}, {"w": g})["w"]
        eg = np.zeros_like(w)
        ed = np.zeros_like(w)
        ref = w
        for g in grads:
            eg = 0.95 * eg + 0.05 * g * g
            delta = np.sqrt(ed + 1e-6) / np.sqrt(eg + 1e-6) * g
            ed = 0.95 * ed + 0.05 * delta * delta
            ref = ref - delta
        assert np.allclose(got, ref, atol=1e-14)


@pytest.mark.parametrize("kind,lr,steps", [("adam", 0.1, 200),
                                           ("adamw", 0.1, 200),
                                           ("rmsprop", 0.05, 200),
                                           ("adadelta", 1.0, 2000)])
def test_quadratic_convergence(kind, lr, steps):
    # f(w) = (w - 3)^2 from w = 0; adadelta's accumulators warm up slowly
    w = np.array([0.0])
    opt = Optimizer(OptimizerConfig(kind, lr))
    first = (w[0] - 3.0) ** 2
    for _ in range(steps):
        w = opt.step({"w": w}, {"w": 2 * (w - 3.0)})["w"]
    assert (w[0] - 3.0) ** 2 < 0.1 * first


class TestPlumbing:
    def test_missing_gradient_rejected(self):
        opt = Optimizer(OptimizerConfig("adam", 0.1))
        with pytest.raises(ValueError, match="missing gradients"):
            opt.step({"a": np.zeros(2), "b": np.zeros(2)},
                     {"a": np.zeros(2)})

    def test_state_roundtrip_bitwise(self, rng):
        opt = Optimizer(OptimizerConfig("adam", 0.01))
        w = {"w": rng.normal(size=3)}
        for _ in range(4):
            w = opt.step(w, {"w": rng.normal(size=3)})
        clone = Optimizer(opt.cfg)
        clone.load_state_arrays(opt.state_arrays(), opt.step_count)
        g = rng.normal(size=3)
        a = opt.step(dict(w), {"w": g})["w"]
        b = clone.step(dict(w), {"w": g})["w"]
        assert np.array_equal(a, b)
