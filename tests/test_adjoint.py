"""Adjoint (dot-product) tests: each linear op's backward is the exact transpose of its forward.

For an op A that is linear in an input x, the backward closure fed a cotangent
v must return A^T v, so <A x, v> == <x, A^T v> up to float64 rounding
(Claerbout's dot-product test). Unlike finite differences this is exact and
needs no step size. Bilinear ops (convolutions) are linear in the input and in
the weight separately, so both pairings must equal <A x, v>. Shapes are drawn
from the seed.
"""

import numpy as np
import pytest

from pcq import ops
from pcq.tensor import Tensor

SEEDS = (0, 1, 2)
RTOL = 1e-12


def _t(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


def _pairings(fn, inputs, seed):
    """<fn(), v>, [<x, grad_x> for x in inputs] and |fn()|*|v| for a random cotangent v."""
    out = fn()
    v = np.random.default_rng(10_000 + seed).normal(size=out.size)
    loss = ops.linear(ops.reshape(out, (out.size,)), Tensor(v.reshape(1, -1), dtype=np.float64))
    loss.backward()
    scale = np.linalg.norm(out.data) * np.linalg.norm(v)
    return float(loss.data[0]), [float(np.vdot(x.data, x.grad)) for x in inputs], scale


def assert_adjoint(fn, inputs, seed, jointly=False):
    """Each input alone (or, if jointly, all inputs summed) pairs to <A x, v>."""
    lhs, rhs, scale = _pairings(fn, inputs, seed)
    for r in ([sum(rhs)] if jointly else rhs):
        assert abs(lhs - r) <= RTOL * scale, (lhs, r)


def _size(rng, lo, hi):
    return int(rng.integers(lo, hi + 1))


@pytest.mark.parametrize("seed", SEEDS)
class TestConvolutions:
    def test_conv2d_1x1(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = _size(rng, 1, 5), _size(rng, 1, 5)
        x, w = _t(rng, (c_in, _size(rng, 2, 12), _size(rng, 2, 12))), _t(rng, (c_out, c_in, 1, 1))
        assert_adjoint(lambda: ops.conv2d(x, w), [x, w], seed)

    def test_conv2d_3x3_pad1_odd_map(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = _size(rng, 1, 4), _size(rng, 1, 4)
        h, wd = 2 * _size(rng, 1, 6) + 1, 2 * _size(rng, 1, 6) + 1
        x, w = _t(rng, (c_in, h, wd)), _t(rng, (c_out, c_in, 3, 3))
        assert_adjoint(lambda: ops.conv2d(x, w, padding=1), [x, w], seed)

    def test_conv2d_3x3_dilation7(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = _size(rng, 1, 3), _size(rng, 1, 3)
        x, w = _t(rng, (c_in, _size(rng, 8, 20), _size(rng, 8, 20))), _t(rng, (c_out, c_in, 3, 3))
        assert_adjoint(lambda: ops.conv2d(x, w, padding=7, dilation=7), [x, w], seed)

    def test_depthwise_small(self, seed):
        rng = np.random.default_rng(seed)
        c = _size(rng, 1, 6)
        x, w = _t(rng, (c, _size(rng, 4, 12), _size(rng, 4, 12))), _t(rng, (c, 1, 3, 3))
        assert_adjoint(lambda: ops.conv2d(x, w, padding=2, dilation=2, groups=c), [x, w], seed)

    def test_conv1d_kernel_equals_stride(self, seed):
        # time-major input, once a whole number of windows long and once with
        # trailing samples that fill no window
        rng = np.random.default_rng(seed)
        c_in, c_out, k = _size(rng, 1, 4), _size(rng, 1, 4), _size(rng, 2, 5)
        lo = _size(rng, 1, 8)
        w = _t(rng, (c_out, c_in, k))
        for length in (lo * k, lo * k + _size(rng, 1, k - 1)):
            x = _t(rng, (length, c_in))
            assert_adjoint(lambda: ops.conv1d(x, w), [x, w], seed)
            w.grad = None


@pytest.mark.parametrize("c_in, c_out, h, w, dilation", [
    (1, 4, 40, 32, 1),    # mlcnn.layers.0.trans: one input channel
    (3, 3, 5, 4, 7),      # a CSQ branch at miniature scale: the border is wider than the map
    (3, 2, 37, 25, 1),    # the odd 37x25 output of mlcnn.layers.2, input to layers.3
])
def test_dense_conv2d_layout_edges(c_in, c_out, h, w, dilation):
    rng = np.random.default_rng(h)
    x, k = _t(rng, (c_in, h, w)), _t(rng, (c_out, c_in, 3, 3))
    assert_adjoint(lambda: ops.conv2d(x, k, padding=dilation, dilation=dilation), [x, k], h)


def test_depthwise_split_into_channel_blocks():
    # the tap loop runs over 126x128 planes (the map plus its one-column border
    # on each side); in float64 that is 126 KB, so the 256 KB blocks hold two
    # channels: five channels run as blocks of 2, 2 and a short last block of 1
    rng = np.random.default_rng(3)
    x, w = _t(rng, (5, 126, 126)), _t(rng, (5, 1, 3, 3))
    assert len(ops._channel_blocks(5, 126 * 128 * 8)) == 3
    assert_adjoint(lambda: ops.conv2d(x, w, padding=1, groups=5), [x, w], 3)


@pytest.mark.parametrize("dilation", (1, 2, 5))
@pytest.mark.parametrize("c, h, w", [(3, 9, 7), (2, 37, 25)])
def test_depthwise_flipped_kernel_input_gradient(dilation, c, h, w):
    # backward runs the forward tap loop over gy in a zero border with the
    # kernel flipped; odd map sizes such as 37x25 (mlcnn.layers.2 output) and
    # dilations wider than the map's border exercise every edge of that border
    rng = np.random.default_rng(40 + dilation)
    x, k = _t(rng, (c, h, w)), _t(rng, (c, 1, 3, 3))
    assert_adjoint(lambda: ops.conv2d(x, k, padding=dilation, dilation=dilation, groups=c),
                   [x, k], dilation)


@pytest.mark.parametrize("padding", (0, 1, 4))
def test_depthwise_padding_other_than_dilation(padding):
    # the zero border is dilation*(k-1) - padding wide: positive, zero or
    # (padding 4 at dilation 1) negative, which crops gy instead
    rng = np.random.default_rng(60 + padding)
    x, k = _t(rng, (2, 11, 8)), _t(rng, (2, 1, 3, 3))
    assert_adjoint(lambda: ops.conv2d(x, k, padding=padding, groups=2), [x, k], padding)


def test_depthwise_multi_block_odd_map_dilation5():
    # 181x181 float64 planes are 262 KB, one channel per 256 KB block: three
    # single-channel blocks
    rng = np.random.default_rng(8)
    x, k = _t(rng, (3, 181, 181)), _t(rng, (3, 1, 3, 3))
    assert len(ops._channel_blocks(3, 181 * 181 * 8)) == 3
    assert_adjoint(lambda: ops.conv2d(x, k, padding=5, dilation=5, groups=3), [x, k], 8)


def test_depthwise_rejects_stride_2():
    # conv2d is stride 1 only and takes no stride argument
    x, k = Tensor(np.ones((4, 8, 8))), Tensor(np.ones((4, 1, 3, 3)))
    with pytest.raises(TypeError, match="stride"):
        ops.conv2d(x, k, stride=2, padding=1, groups=4)


@pytest.mark.parametrize("seed", SEEDS)
class TestResamplingAndShape:
    def test_bilinear_upsample(self, seed):
        rng = np.random.default_rng(seed)
        h, w = _size(rng, 2, 8), _size(rng, 2, 8)
        x = _t(rng, (_size(rng, 1, 3), h, w))
        assert_adjoint(lambda: ops.bilinear_resize(x, h + _size(rng, 1, 9), w + _size(rng, 1, 9)),
                       [x], seed)

    def test_bilinear_downsample(self, seed):
        rng = np.random.default_rng(seed)
        h, w = _size(rng, 6, 16), _size(rng, 6, 16)
        x = _t(rng, (_size(rng, 1, 3), h, w))
        assert_adjoint(lambda: ops.bilinear_resize(x, _size(rng, 1, h - 1), _size(rng, 1, w - 1)),
                       [x], seed)

    def test_adaptive_avg_pool(self, seed):
        rng = np.random.default_rng(seed)
        h, w = _size(rng, 3, 15), _size(rng, 3, 15)
        x = _t(rng, (_size(rng, 1, 3), h, w))
        assert_adjoint(lambda: ops.adaptive_avg_pool(x, _size(rng, 1, h), _size(rng, 1, w)), [x], seed)

    def test_global_avg_pool(self, seed):
        rng = np.random.default_rng(seed)
        x = _t(rng, (_size(rng, 1, 4), _size(rng, 1, 9), _size(rng, 1, 9)))
        assert_adjoint(lambda: ops.global_avg_pool(x), [x], seed)

    def test_concat(self, seed):
        rng = np.random.default_rng(seed)
        h, w = _size(rng, 1, 6), _size(rng, 1, 6)
        xs = [_t(rng, (_size(rng, 1, 4), h, w)) for _ in range(_size(rng, 2, 4))]
        assert_adjoint(lambda: ops.concat(xs), xs, seed, jointly=True)

    def test_slice_channels(self, seed):
        rng = np.random.default_rng(seed)
        c = _size(rng, 2, 8)
        start = _size(rng, 0, c - 1)
        x = _t(rng, (c, _size(rng, 1, 5), _size(rng, 1, 5)))
        assert_adjoint(lambda: ops.slice_channels(x, start, _size(rng, start + 1, c)), [x], seed)

    def test_reshape(self, seed):
        rng = np.random.default_rng(seed)
        c, h, w = _size(rng, 1, 4), _size(rng, 1, 6), _size(rng, 1, 6)
        x = _t(rng, (c, h, w))
        assert_adjoint(lambda: ops.reshape(x, (h, c * w)), [x], seed)


def _vjp(op, x, params, v):
    """op(x) and the gradients of <op(x), v> with respect to x and each of params."""
    for t in [x] + params:
        t.zero_grad()
    out = op(x)
    ops.linear(ops.reshape(out, (out.size,)), Tensor(v.reshape(1, -1), dtype=np.float64)).backward()
    return out.data, x.grad, [p.grad for p in params]


def _assert_batch_axis(op, x, params, seed):
    """op over an [N, ...] input is adjoint-exact and equals op on each sample alone.

    Forward: row n of the batched output is the output for sample n alone.
    Backward: row n of the input gradient is sample n's, and each parameter's
    gradient is the sum of the samples' gradients.
    """
    for t in params:
        t.zero_grad()   # a parameter shared between calls keeps the last call's gradient
    assert_adjoint(lambda: op(x), [x] + params, seed)
    v = np.random.default_rng(20_000 + seed).normal(size=op(x).shape)
    batched, gx, gparams = _vjp(op, x, params, v)
    summed = [np.zeros_like(g) for g in gparams]
    for n in range(x.shape[0]):
        xn = Tensor(x.data[n], requires_grad=True, dtype=np.float64)
        alone, gxn, gparams_n = _vjp(op, xn, params, v[n])
        np.testing.assert_allclose(batched[n], alone, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx[n], gxn, rtol=1e-12, atol=1e-12)
        for acc, g in zip(summed, gparams_n):
            acc += g
    for g, acc in zip(gparams, summed):
        np.testing.assert_allclose(g, acc, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
class TestBatchAxis:
    def test_conv2d_dense_3x3(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out, n = _size(rng, 1, 4), _size(rng, 1, 4), _size(rng, 2, 4)
        x, w = _t(rng, (n, c_in, _size(rng, 3, 11), _size(rng, 3, 11))), _t(rng, (c_out, c_in, 3, 3))
        _assert_batch_axis(lambda t: ops.conv2d(t, w, padding=1), x, [w], seed)
        # one sample: [C, H, W] against [1, C, H, W]
        _assert_batch_axis(lambda t: ops.conv2d(t, w, padding=1), _t(rng, (1,) + x.shape[1:]), [w], seed)

    def test_conv2d_dense_border_wider_than_map(self, seed):
        # a CSQ branch at miniature scale: 5x4 maps, dilation 7, stacked end to end
        rng = np.random.default_rng(seed)
        x, w = _t(rng, (_size(rng, 2, 4), 3, 5, 4)), _t(rng, (3, 3, 3, 3))
        _assert_batch_axis(lambda t: ops.conv2d(t, w, padding=7, dilation=7), x, [w], seed)

    def test_conv2d_1x1(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = _size(rng, 1, 5), _size(rng, 1, 5)
        x, w = _t(rng, (_size(rng, 2, 4), c_in, _size(rng, 2, 9), _size(rng, 2, 9))), _t(rng, (c_out, c_in, 1, 1))
        _assert_batch_axis(lambda t: ops.conv2d(t, w), x, [w], seed)

    def test_conv2d_depthwise(self, seed):
        rng = np.random.default_rng(seed)
        c, d = _size(rng, 1, 6), _size(rng, 1, 3)
        x, w = _t(rng, (_size(rng, 2, 4), c, _size(rng, 4, 12), _size(rng, 4, 12))), _t(rng, (c, 1, 3, 3))
        _assert_batch_axis(lambda t: ops.conv2d(t, w, padding=d, dilation=d, groups=c), x, [w], seed)

    def test_conv1d(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out, k = _size(rng, 1, 4), _size(rng, 1, 4), _size(rng, 2, 5)
        w = _t(rng, (c_out, c_in, k))
        length = _size(rng, 1, 8) * k + _size(rng, 0, k - 1)
        x = _t(rng, (_size(rng, 2, 4), length, c_in))
        _assert_batch_axis(lambda t: ops.conv1d(t, w), x, [w], seed)

    def test_bilinear_resize(self, seed):
        rng = np.random.default_rng(seed)
        x = _t(rng, (_size(rng, 2, 4), _size(rng, 1, 3), _size(rng, 2, 9), _size(rng, 2, 9)))
        out_h, out_w = _size(rng, 1, 12), _size(rng, 1, 12)
        _assert_batch_axis(lambda t: ops.bilinear_resize(t, out_h, out_w), x, [], seed)

    def test_max_pool2x2(self, seed):
        rng = np.random.default_rng(seed)
        x = _t(rng, (_size(rng, 2, 4), _size(rng, 1, 3), _size(rng, 2, 9), _size(rng, 2, 9)))
        _assert_batch_axis(ops.max_pool2x2, x, [], seed)

    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        f, m = _size(rng, 1, 9), _size(rng, 1, 6)
        w = _t(rng, (m, f))   # no bias: the adjoint pairing needs a map linear in x
        for n in (1, _size(rng, 2, 4)):   # n = 1: [F] against row 0 of [1, F]
            _assert_batch_axis(lambda t: ops.linear(t, w), _t(rng, (n, f)), [w], seed)


def _pool_grad(x: np.ndarray) -> np.ndarray:
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    out = ops.max_pool2x2(t)
    ops.linear(ops.reshape(out, (out.size,)), Tensor(np.ones((1, out.size)), dtype=np.float64)).backward()
    return t.grad


class TestMaxPoolTies:
    def test_all_equal_window_routes_to_top_left(self):
        g = _pool_grad(np.full((2, 4, 4), 3.0))
        expected = np.zeros((2, 4, 4))
        expected[:, 0::2, 0::2] = 1.0
        np.testing.assert_array_equal(g, expected)

    @pytest.mark.parametrize("first, second", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    def test_tie_goes_to_first_corner_in_row_major_order(self, first, second):
        x = np.zeros((1, 2, 2))
        for corner in (first, second):
            x[0, corner // 2, corner % 2] = 5.0
        g = _pool_grad(x)
        expected = np.zeros((1, 2, 2))
        expected[0, first // 2, first % 2] = 1.0
        np.testing.assert_array_equal(g, expected)
