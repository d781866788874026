"""Forward-semantics tests for the array ops, against brute-force oracles."""

import numpy as np
import pytest

from pcq import ops
from pcq.errors import InvalidInput, ShapeError
from pcq.tensor import Tensor


def naive_conv2d(x, w, stride=1, padding=0, dilation=1, groups=1):
    """O(n^4) reference convolution: explicit loops over every output element."""
    c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((c_out, ho, wo), dtype=x.dtype)
    cpg_out = c_out // groups
    for o in range(c_out):
        g = o // cpg_out
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(c_in_g):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += (w[o, ci, di, dj]
                                    * xp[g * c_in_g + ci, i * stride + di * dilation, j * stride + dj * dilation])
                out[o, i, j] = acc
    return out


class TestConv2d:
    def test_identity_1x1_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = ops.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_5x5_counts_window(self):
        x = Tensor(np.ones((1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w)
        assert out.shape == (1, 3, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 9.0, dtype=np.float32))

    def test_dilation_7_receptive_field_15(self):
        # effective kernel extent 1 + 2*7 = 15 exactly covers the map
        x = Tensor(np.ones((1, 15, 15)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w, dilation=7)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 9.0
        oracle = naive_conv2d(np.ones((1, 15, 15)), np.ones((1, 1, 3, 3)), dilation=7)
        np.testing.assert_allclose(out.data, oracle)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_loop_float64(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 16, 16))
        w = rng.normal(size=(5, 4, 3, 3))
        out = ops.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), padding=1)
        assert np.abs(out.data - naive_conv2d(x, w, padding=1)).max() < 1e-5

    def test_strided_and_dilated_vs_naive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 17, 13))
        w = rng.normal(size=(2, 3, 3, 3))
        for padding, dilation in [(1, 1), (2, 2), (3, 3)]:
            out = ops.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                             padding=padding, dilation=dilation)
            oracle = naive_conv2d(x, w, padding=padding, dilation=dilation)
            np.testing.assert_allclose(out.data, oracle, atol=1e-10)

    @pytest.mark.parametrize("c_in, c_out, groups", [(4, 6, 2), (4, 8, 4)])
    def test_grouped_rejected(self, c_in, c_out, groups):
        # only dense (groups=1) and depthwise (groups == C_in == C_out) are supported;
        # the second case is depthwise with a channel multiplier of 2
        x = Tensor(np.ones((c_in, 8, 8)))
        w = Tensor(np.ones((c_out, c_in // groups, 3, 3)))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, padding=1, groups=groups)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 2, 3, 3))))


class TestDepthwise:
    def test_identity_kernels(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6, 6)))
        w = np.zeros((3, 1, 3, 3), dtype=np.float32)
        w[:, 0, 1, 1] = 1.0
        out = ops.depthwise_conv3x3(x, Tensor(w))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_kernel_zeroes_its_channel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5, 5)))
        w = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
        w[1] = 0.0
        out = ops.depthwise_conv3x3(x, Tensor(w))
        assert np.all(out.data[1] == 0.0)
        assert np.any(out.data[0] != 0.0)

    def test_matches_per_channel_loop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 16, 16))
        w = rng.normal(size=(3, 1, 3, 3))
        out = ops.depthwise_conv3x3(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
        # per-channel 2-D correlation oracle
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        oracle = np.zeros_like(x)
        for c in range(3):
            for i in range(16):
                for j in range(16):
                    oracle[c, i, j] = np.sum(xp[c, i:i + 3, j:j + 3] * w[c, 0])
        assert np.abs(out.data - oracle).max() < 1e-6

    def test_channel_blocks_match_dense_block_diagonal_conv(self):
        # large enough planes that the tap loop runs over several channel blocks
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 128, 128))
        w = rng.normal(size=(5, 1, 3, 3))
        dense = np.zeros((5, 5, 3, 3))
        dense[np.arange(5), np.arange(5)] = w[:, 0]
        out = ops.depthwise_conv3x3(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), dilation=2)
        oracle = ops.conv2d(Tensor(x, dtype=np.float64), Tensor(dense, dtype=np.float64),
                            padding=2, dilation=2)
        np.testing.assert_allclose(out.data, oracle.data, atol=1e-12)


class TestConv1d:
    def test_matches_naive_loop(self):
        # time-major input; 23 samples fill four windows of 5 and leave 3 over
        rng = np.random.default_rng(0)
        x = rng.normal(size=(23, 2))
        w = rng.normal(size=(3, 2, 5))
        out = ops.conv1d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
        oracle = np.zeros((4, 3))
        for i in range(4):
            for o in range(3):
                oracle[i, o] = np.sum(x[i * 5:i * 5 + 5].T * w[o])
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_kernel_equals_stride_partitions_input(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(12, 1))
        w = Tensor(np.ones((1, 1, 4), dtype=np.float32))
        out = ops.conv1d(x, w)
        np.testing.assert_array_equal(out.data, [[0 + 1 + 2 + 3], [4 + 5 + 6 + 7], [8 + 9 + 10 + 11]])


class TestBilinearResize:
    def test_same_size_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 7, 5)))
        out = ops.bilinear_resize(x, 7, 5)
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    def test_constant_stays_constant(self):
        x = Tensor(np.full((3, 4, 6), 7.0, dtype=np.float32))
        out = ops.bilinear_resize(x, 9, 5)
        np.testing.assert_allclose(out.data, 7.0, atol=1e-6)

    def test_2x2_to_4x4_hand_formula(self):
        # frozen from the scalar half-pixel-center formula evaluated by hand
        x = Tensor(np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=np.float32))
        out = ops.bilinear_resize(x, 4, 4)
        expected = np.array([[0.0, 0.25, 0.75, 1.0],
                             [0.5, 0.75, 1.25, 1.5],
                             [1.5, 1.75, 2.25, 2.5],
                             [2.0, 2.25, 2.75, 3.0]], dtype=np.float32)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)


class TestPooling:
    def test_gap_2x2_example(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_allclose(ops.global_avg_pool(x).data, [2.5])

    def test_gap_constant(self):
        x = Tensor(np.full((4, 3, 9), -5.5, dtype=np.float32))
        np.testing.assert_allclose(ops.global_avg_pool(x).data, -5.5, rtol=1e-7)

    def test_gap_matches_double_precision_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5, 7)).astype(np.float32)
        got = ops.global_avg_pool(Tensor(x)).data
        want = x.astype(np.float64).sum(axis=(1, 2)) / 35.0
        assert np.abs((got - want) / want).max() < 1e-6

    def test_adaptive_identity_when_same_size(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 5, 4)))
        out = ops.adaptive_avg_pool(x, 5, 4)
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    def test_adaptive_ones_4x4_to_2x2(self):
        out = ops.adaptive_avg_pool(Tensor(np.ones((1, 4, 4))), 2, 2)
        np.testing.assert_array_equal(out.data, np.ones((1, 2, 2), dtype=np.float32))

    def test_adaptive_5x5_ramp_vs_per_bin_mean(self):
        x = np.arange(25, dtype=np.float64).reshape(1, 5, 5)
        out = ops.adaptive_avg_pool(Tensor(x, dtype=np.float64), 2, 2)
        oracle = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                r0, r1 = (i * 5) // 2, -((-(i + 1) * 5) // 2)
                c0, c1 = (j * 5) // 2, -((-(j + 1) * 5) // 2)
                oracle[i, j] = x[0, r0:r1, c0:c1].mean()
        np.testing.assert_allclose(out.data[0], oracle, atol=1e-12)
        np.testing.assert_allclose(out.data[0], [[6.0, 8.0], [16.0, 18.0]], atol=1e-12)

    def test_adaptive_upsample_rejected(self):
        with pytest.raises(ShapeError):
            ops.adaptive_avg_pool(Tensor(np.ones((1, 2, 2))), 3, 3)

    def test_max_pool_basic_and_floor(self):
        x = np.arange(30, dtype=np.float32).reshape(1, 5, 6)
        out = ops.max_pool2x2(Tensor(x))
        assert out.shape == (1, 2, 3)
        np.testing.assert_array_equal(out.data[0], [[7, 9, 11], [19, 21, 23]])


class TestDenseAndActivations:
    def test_linear_identity(self):
        x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32))
        out = ops.linear(x, Tensor(np.eye(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_linear_rowwise(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
        out = ops.linear(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-12)

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(Tensor(np.zeros(1))).data[0] == 0.5

    def test_sigmoid_extremes_finite(self):
        out = ops.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_relu(self):
        out = ops.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_cross_entropy_uniform_logits(self):
        for label in range(4):
            loss = ops.softmax_cross_entropy(Tensor(np.zeros(4)), label)
            np.testing.assert_allclose(loss.data, np.log(4.0), rtol=1e-6)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(InvalidInput):
            ops.softmax_cross_entropy(Tensor(np.zeros(4)), 4)

    def test_mul_broadcasts_channel_weights(self):
        x = Tensor(np.ones((2, 3, 3), dtype=np.float32))
        w = Tensor(np.array([2.0, 3.0], dtype=np.float32).reshape(2, 1, 1))
        out = ops.mul(x, w)
        assert np.all(out.data[0] == 2.0) and np.all(out.data[1] == 3.0)

    def test_concat_and_slice_roundtrip(self):
        a = Tensor(np.random.default_rng(8).normal(size=(2, 4, 4)))
        b = Tensor(np.random.default_rng(9).normal(size=(3, 4, 4)))
        cat = ops.concat([a, b])
        assert cat.shape == (5, 4, 4)
        np.testing.assert_array_equal(ops.slice_channels(cat, 2, 5).data, b.data)

    def test_mean_channels(self):
        x = Tensor(np.stack([np.full((2, 2), 1.0), np.full((2, 2), 3.0)]).astype(np.float32))
        out = ops.mean_channels(x)
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out.data, 2.0)

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones(100))
        out = ops.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_dropout_train_scales_survivors(self):
        x = Tensor(np.ones(10000, dtype=np.float32))
        out = ops.dropout(x, 0.25, training=True, rng=np.random.default_rng(0))
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-6)
        assert abs(survivors.size / 10000 - 0.75) < 0.03
