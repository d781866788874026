"""AdamW semantics: bias correction, decoupled decay, identity edge cases."""

import numpy as np

from pcq.nn import Module, Parameter
from pcq.optim import AdamW


class One(Module):
    """A module holding the single parameter p."""

    def __init__(self, value):
        super().__init__()
        self.p = Parameter(np.asarray(value, dtype=np.float64))


def reference_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent plain-Adam trace, written straight from the update formulas."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def step_once(value, grad, **kw):
    one = One(value)
    one.p.grad = np.asarray(grad, dtype=np.float64)
    opt = AdamW(one, **kw)
    opt.step()
    return one.p.data, opt


def test_zero_grad_zero_decay_is_identity():
    data, opt = step_once([1.0, -2.0], [0.0, 0.0], lr=1e-3, weight_decay=0.0)
    np.testing.assert_array_equal(data, [1.0, -2.0])
    assert opt.t == 1


def test_single_step_hand_value():
    # t=1: mhat = g, vhat = g^2 -> theta - lr * 1/(1 + eps)
    data, _ = step_once([1.0], [1.0], lr=1e-5, weight_decay=0.0)
    expected = 1.0 - 1e-5 * 1.0 / (1.0 + 1e-8)
    assert abs(data[0] - expected) < 1e-12
    assert abs(data[0] - 0.99999) < 1e-9


def test_decoupled_decay_scales_exactly():
    data, _ = step_once([4.0, -4.0], [0.0, 0.0], lr=1e-2, weight_decay=0.01)
    np.testing.assert_allclose(data, np.array([4.0, -4.0]) * (1 - 1e-2 * 0.01), rtol=1e-15)


def test_wd_zero_matches_plain_adam_over_many_steps():
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=7)
    grads = [rng.normal(size=7) for _ in range(25)]
    one = One(theta0.copy())
    opt = AdamW(one, lr=1e-3, weight_decay=0.0)
    for g in grads:
        one.p.grad = g
        opt.step()
    np.testing.assert_allclose(one.p.data, reference_adam(theta0, grads, lr=1e-3), atol=1e-12)


def test_lr_zero_is_identity():
    rng = np.random.default_rng(1)
    theta0 = rng.normal(size=5)
    data, _ = step_once(theta0, rng.normal(size=5), lr=0.0, weight_decay=0.5)
    np.testing.assert_array_equal(data, theta0)


def test_moment_buffers_match_param_shapes():
    class Toy(Module):
        def __init__(self):
            super().__init__()
            self.a = Parameter(np.zeros((3, 4), dtype=np.float32))
            self.b = Parameter(np.zeros(2, dtype=np.float32))

    toy = Toy()
    for p in toy.parameters():
        p.grad = np.ones_like(p.data)
    opt = AdamW(toy, lr=1e-3)
    opt.step()
    assert opt.m["a"].shape == (3, 4)
    assert opt.v["b"].shape == (2,)
    assert opt.t == 1
