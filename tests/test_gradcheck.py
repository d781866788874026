"""Finite-difference verification of every op's backward pass (float64, step 1e-3)."""

import numpy as np
import pytest

from pcq import ops
from pcq.gradcheck import grad_check
from pcq.tensor import Tensor

SEEDS = [0, 1, 2]
EPS = 1e-3
TOL = 1e-4


def t64(rng, shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True, dtype=np.float64)


def weighted_sum(rng, out: Tensor) -> Tensor:
    """Reduce to a scalar through fixed random weights so every output coord matters."""
    w = Tensor(rng.normal(size=out.shape), dtype=np.float64)
    return ops.scale(_sum_all(ops.mul(out, w)), 1.0)


def _sum_all(x: Tensor) -> Tensor:
    flat = ops.reshape(x, (x.size,))
    ones = Tensor(np.ones((1, x.size)), dtype=np.float64)
    return ops.reshape(ops.linear(flat, ones), ())


def check(fn, inputs, seed=0, **kw):
    report = grad_check(fn, inputs, epsilon=EPS, tol=TOL, seed=seed, **kw)
    assert report.passed, report.summary()
    return report


@pytest.mark.parametrize("seed", SEEDS)
class TestOpGradients:
    def test_conv2d_dense(self, seed):
        rng = np.random.default_rng(seed)
        x, w = t64(rng, (3, 7, 6)), t64(rng, (4, 3, 3, 3), 0.5)
        check(lambda: weighted_sum(rng2(seed), ops.conv2d(x, w, padding=1)), [("x", x), ("w", w)])

    def test_conv2d_dilation7(self, seed):
        rng = np.random.default_rng(seed)
        x, w = t64(rng, (2, 16, 16)), t64(rng, (2, 2, 3, 3), 0.5)
        check(lambda: weighted_sum(rng2(seed), ops.conv2d(x, w, padding=7, dilation=7)), [("x", x), ("w", w)])

    def test_depthwise_conv(self, seed):
        rng = np.random.default_rng(seed)
        x, w = t64(rng, (3, 8, 8)), t64(rng, (3, 1, 3, 3), 0.5)
        check(lambda: weighted_sum(rng2(seed), ops.conv2d(x, w, padding=2, dilation=2, groups=3)), [("x", x), ("w", w)])

    def test_conv1d(self, seed):
        rng = np.random.default_rng(seed)
        # time-major; the last 2 of 32 samples fill no window of 5
        x, w = t64(rng, (32, 2)), t64(rng, (3, 2, 5), 0.5)
        check(lambda: weighted_sum(rng2(seed), ops.conv1d(x, w)), [("x", x), ("w", w)])

    def test_bilinear_resize(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (2, 5, 7))
        check(lambda: weighted_sum(rng2(seed), ops.bilinear_resize(x, 9, 4)), [("x", x)])

    def test_adaptive_avg_pool(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (2, 7, 5))
        check(lambda: weighted_sum(rng2(seed), ops.adaptive_avg_pool(x, 3, 2)), [("x", x)])

    def test_global_avg_pool(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (3, 4, 5))
        check(lambda: weighted_sum(rng2(seed), ops.global_avg_pool(x)), [("x", x)])

    def test_max_pool(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (2, 6, 6))
        check(lambda: weighted_sum(rng2(seed), ops.max_pool2x2(x)), [("x", x)])

    def test_linear_vec(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = t64(rng, (8,)), t64(rng, (5, 8), 0.5), t64(rng, (5,))
        check(lambda: weighted_sum(rng2(seed), ops.linear(x, w, b)), [("x", x), ("w", w), ("b", b)])

    def test_linear_rows(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = t64(rng, (6, 4)), t64(rng, (3, 4), 0.5), t64(rng, (3,))
        check(lambda: weighted_sum(rng2(seed), ops.linear(x, w, b)), [("x", x), ("w", w), ("b", b)])

    def test_sigmoid(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (10,))
        check(lambda: weighted_sum(rng2(seed), ops.sigmoid(x)), [("x", x)])

    def test_relu_away_from_kink(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(np.sign(rng.normal(size=12)) * (0.5 + rng.random(12)), requires_grad=True, dtype=np.float64)
        check(lambda: weighted_sum(rng2(seed), ops.relu(x)), [("x", x)])

    def test_mul_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        a, b = t64(rng, (3, 4, 4)), t64(rng, (1, 4, 4))
        check(lambda: weighted_sum(rng2(seed), ops.mul(a, b)), [("a", a), ("b", b)])

    def test_concat_mean_slice(self, seed):
        rng = np.random.default_rng(seed)
        a, b = t64(rng, (2, 3, 3)), t64(rng, (4, 3, 3))

        def fn():
            cat = ops.concat([a, ops.mean_channels(b)])
            return weighted_sum(rng2(seed), ops.slice_channels(cat, 0, 3))

        check(fn, [("a", a), ("b", b)])

    def test_softmax_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (6,), 2.0)
        check(lambda: ops.softmax_cross_entropy(x, seed % 6), [("logits", x)])

    def test_transpose_reshape(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng, (4, 6))
        check(lambda: weighted_sum(rng2(seed), ops.reshape(ops.transpose2d(x), (1, 6, 4))), [("x", x)])


def rng2(seed):
    # separate stream for reduction weights so inputs and weights are independent
    return np.random.default_rng(10_000 + seed)


def test_reuse_accumulates_fanout():
    # y = x*x + x used twice: checks gradient accumulation across fan-out
    rng = np.random.default_rng(0)
    x = t64(rng, (5,))

    def fn():
        prod = ops.mul(x, x)
        cat = ops.concat([prod, x])
        return _sum_all(cat)

    report = grad_check(fn, [("x", x)], epsilon=EPS, tol=TOL)
    assert report.passed, report.summary()
    # analytic gradient is 2x + 1
    fn().backward()


def test_max_coords_sampling_limits_work():
    rng = np.random.default_rng(0)
    x = t64(rng, (4, 8, 8))
    report = grad_check(lambda: weighted_sum(rng2(0), ops.adaptive_avg_pool(x, 2, 2)),
                        [("x", x)], epsilon=EPS, tol=TOL, max_coords=17)
    assert report.per_input[0].checked == 17
    assert report.passed
