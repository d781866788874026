"""Full-model wiring: shapes, fusion arithmetic, ablations, determinism, gradients."""

import numpy as np
import pytest

from pcq import ops
from pcq.dsp import Segment
from pcq.errors import ConfigError
from pcq.network import PcqConfig, PcqNetwork, clip_prediction, miniature_config
from pcq.tensor import Tensor

# parameters whose FD probe window stays clear of large rectifier fan-out;
# early-layer weights are covered by op/block-level checks instead
FD_CHECKED_PARAMS = [
    "encoder.convs.3.weight", "qproj.proj.weight", "qproj.proj.bias",
    "csq.0.merge.weight", "csq.1.branches.0.weight", "csq.2.align_conv.weight",
    "mlcnn.layers.3.block.pw2.weight", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
]


def rand_segment(seed=0, parent_id="seg", index=0, scale=0.3):
    samples = (np.random.default_rng(seed).normal(size=48000) * scale).astype(np.float32)
    return Segment(samples=samples, parent_id=parent_id, index=index)


def rand_spec(shape, seed=0):
    return np.abs(np.random.default_rng(seed).normal(size=(1, *shape))).astype(np.float32)


class TestConfig:
    def test_defaults_resolve_iemocap_classes(self):
        cfg = PcqConfig()
        assert cfg.resolved_num_classes == 4
        assert cfg.channel_plan == (16, 32, 48, 64)

    def test_emodb_taxonomy_gives_7(self):
        assert PcqConfig(taxonomy="emodb7").resolved_num_classes == 7

    def test_dict_roundtrip(self):
        cfg = miniature_config(num_classes=3, fusion_q="q1")
        again = PcqConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PcqConfig.from_dict({"nope": 1})

    def test_bad_fusion_q_rejected(self):
        with pytest.raises(ConfigError):
            PcqConfig(fusion_q="q2")

    def test_precomputed_requires_emb_dir(self):
        with pytest.raises(ConfigError):
            PcqConfig(encoder_backend="precomputed")

    def test_csq_grouping_constrains_plan(self):
        with pytest.raises(ConfigError):
            PcqConfig(channel_plan=(6, 12, 18, 24))
        PcqConfig(channel_plan=(6, 12, 18, 24), use_csq=False)  # fine without grouping


class TestForwardShapes:
    def test_full_scale_logits_and_fusion_width(self):
        net = PcqNetwork(PcqConfig(seed=0)).eval()
        fusion = net.fusion_vector(rand_spec((300, 200)), rand_segment())
        assert fusion.shape == (224,)  # 16+32+48+64 + 64
        logits = net(rand_spec((300, 200)), rand_segment())
        assert logits.shape == (4,)
        assert np.all(np.isfinite(logits.data))

    def test_without_csq_fusion_is_128(self):
        net = PcqNetwork(PcqConfig(use_csq=False, seed=0)).eval()
        assert net.fusion_dim == 128  # Gap(x4) + Gap(Q4)
        logits = net(rand_spec((300, 200)), rand_segment())
        assert logits.shape == (4,)

    def test_fusion_q1_width(self):
        net = PcqNetwork(PcqConfig(fusion_q="q1", seed=0))
        assert net.fusion_dim == 161  # 16+32+48+64 + 1

    def test_miniature_widths(self):
        net = PcqNetwork(miniature_config()).eval()
        assert net.fusion_dim == 4 + 8 + 12 + 16 + 16
        logits = net(rand_spec((40, 32)), rand_segment())
        assert logits.shape == (4,)

    def test_three_layer_plan(self):
        cfg = miniature_config(channel_plan=(4, 8, 12), input_hw=(40, 32))
        net = PcqNetwork(cfg).eval()
        assert net.fusion_dim == 4 + 8 + 12 + 12
        assert net(rand_spec((40, 32)), rand_segment()).shape == (4,)

    def test_wrong_input_shape_rejected(self):
        from pcq.errors import ShapeError
        net = PcqNetwork(miniature_config())
        with pytest.raises(ShapeError):
            net(rand_spec((300, 200)), rand_segment())


class TestQ4:
    def test_q4_is_elementwise_product_of_x4_and_pooled_q1(self):
        net = PcqNetwork(miniature_config()).eval()
        spec, seg = rand_spec((40, 32), seed=1), rand_segment(seed=2)
        outs = net.mlcnn(Tensor(spec))
        tokens = net.query_tokens(seg)
        _, h4, w4 = net.sizes[-1]
        q1_small = ops.adaptive_avg_pool(tokens.q1, h4, w4)
        manual_gap_q4 = (outs[-1].data * q1_small.data).mean(axis=(1, 2))
        fusion = net.fusion_vector(spec, seg)
        np.testing.assert_allclose(fusion.data[-16:], manual_gap_q4, rtol=1e-4, atol=1e-6)

    def test_zero_query_zeroes_q4_block(self):
        net = PcqNetwork(miniature_config(use_csq=False)).eval()
        net.qproj.proj.weight.data[:] = 0.0
        net.qproj.proj.bias.data[:] = 0.0
        fusion = net.fusion_vector(rand_spec((40, 32), seed=3), rand_segment(seed=4))
        assert np.all(fusion.data[-16:] == 0.0)       # Gap(Q4) block
        assert np.any(fusion.data[:16] != 0.0)        # Gap(x4) untouched


class TestDeterminismAndPrediction:
    def test_frozen_eval_forward_is_bitwise_deterministic(self):
        net = PcqNetwork(miniature_config()).eval()
        spec, seg = rand_spec((40, 32), seed=5), rand_segment(seed=6)
        a = net(spec, seg).data
        b = net(spec, seg).data
        assert np.array_equal(a, b)

    def test_same_seed_same_init(self):
        a = PcqNetwork(miniature_config())
        b = PcqNetwork(miniature_config())
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_parameter_enumeration_stable(self):
        net = PcqNetwork(miniature_config())
        names1 = [n for n, _ in net.named_parameters()]
        names2 = [n for n, _ in net.named_parameters()]
        assert names1 == names2
        assert len(names1) == len(set(names1))

    def test_predict_returns_consistent_label(self):
        net = PcqNetwork(miniature_config()).train()
        pred = net.predict(rand_spec((40, 32), seed=7), rand_segment(seed=8))
        assert pred.label == int(np.argmax(pred.probs))
        np.testing.assert_allclose(pred.probs.sum(), 1.0, atol=1e-6)
        assert net.training  # predict restores mode

    def test_predict_equals_one_row_batch_bitwise(self):
        # one segment runs the batched code path with N = 1, so evaluation (and
        # cv_report.json) does not depend on the layout a segment comes in. Rows
        # of a larger batch agree only to rounding: a GEMM over N stacked
        # samples does not give the same bits as N one-sample GEMMs.
        net = PcqNetwork(miniature_config()).eval()
        specs = np.concatenate([rand_spec((40, 32), seed=20 + i)[None] for i in range(3)])
        segs = [rand_segment(seed=30 + i, index=i) for i in range(3)]
        batched = net(specs, segs).data
        for i in range(3):
            logits = net.predict(specs[i], segs[i]).logits
            assert np.array_equal(logits, net(specs[i:i + 1], segs[i:i + 1]).data[0])
            np.testing.assert_allclose(logits, batched[i], rtol=1e-4, atol=1e-5)

    def test_clip_prediction_single_segment(self):
        label, mean = clip_prediction([np.array([0.1, 0.7, 0.2])])
        assert label == 1

    def test_clip_prediction_averages(self):
        label, mean = clip_prediction([np.array([0.6, 0.4]), np.array([0.2, 0.8])])
        np.testing.assert_allclose(mean, [0.4, 0.6])
        assert label == 1

    def test_clip_prediction_tie_breaks_low(self):
        label, _ = clip_prediction([np.array([0.5, 0.5])])
        assert label == 0


class TestParamArithmetic:
    def test_breakdown_sums_to_total(self):
        net = PcqNetwork(PcqConfig(seed=0))
        parts = net.param_breakdown()
        assert parts["total"] == net.param_count()
        assert parts["mlcnn"] == 89_872

    def test_disabling_pdc_increases_mlcnn_params(self):
        with_pdc = PcqNetwork(PcqConfig(seed=0)).param_breakdown()
        without = PcqNetwork(PcqConfig(use_pdc=False, seed=0)).param_breakdown()
        assert without["mlcnn"] > with_pdc["mlcnn"]

    def test_disabling_csq_removes_its_params_and_shrinks_classifier(self):
        base = PcqNetwork(PcqConfig(seed=0))
        ablated = PcqNetwork(PcqConfig(use_csq=False, seed=0))
        assert base.param_breakdown()["csq"] > 0
        assert ablated.param_breakdown()["csq"] == 0
        assert ablated.fc1.param_count() == (128 * 128 + 128)
        assert base.fc1.param_count() == (224 * 128 + 128)

    def test_standin_encoder_total_under_1m(self):
        assert PcqNetwork(PcqConfig(seed=0)).param_breakdown()["encoder"] < 1_000_000


class TestGradients:
    def test_gradient_reaches_every_parameter(self):
        # seed with no dead units (the width-1 squeeze layer of the C=4 block
        # can otherwise start with a dead ReLU and starve its two tensors)
        net = PcqNetwork(miniature_config(dropout=0.0, seed=0)).train()
        spec, seg = rand_spec((40, 32), seed=9), rand_segment(seed=10)
        loss = ops.softmax_cross_entropy(net(spec, seg), 2)
        loss.backward()
        dead = [n for n, p in net.named_parameters()
                if p.grad is None or not np.any(p.grad)]
        assert dead == [], f"no gradient reached: {dead}"

    # seeds frozen for kink clearance at the 1e-3 probe; see FD_CHECKED_PARAMS note
    @pytest.mark.parametrize("seed", [0, 4, 5])
    def test_full_model_gradcheck_miniature(self, seed):
        from pcq.gradcheck import grad_check

        net = PcqNetwork(miniature_config(seed=seed, dropout=0.0)).astype(np.float64).eval()
        rng = np.random.default_rng(500 + seed)
        spec = Tensor(np.abs(rng.normal(size=(1, 40, 32))) * 2.0, requires_grad=True,
                      dtype=np.float64)
        seg = Segment(samples=(rng.normal(size=48000) * 0.3).astype(np.float32),
                      parent_id="g", index=0)

        def loss():
            net.zero_grad()
            return ops.softmax_cross_entropy(net(spec, seg), seed % 4)

        named = dict(net.named_parameters())
        inputs = [("spec", spec)] + [(n, named[n]) for n in FD_CHECKED_PARAMS]
        report = grad_check(loss, inputs, epsilon=1e-3, tol=1e-4, max_coords=30, seed=seed)
        assert report.passed, report.summary()


class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        from pcq.nn import load_checkpoint, save_checkpoint
        net = PcqNetwork(miniature_config(seed=3)).eval()
        spec, seg = rand_spec((40, 32), seed=11), rand_segment(seed=12)
        want = net(spec, seg).data
        save_checkpoint(tmp_path / "m.ckpt", net)
        other = PcqNetwork(miniature_config(seed=99)).eval()
        assert not np.array_equal(other(spec, seg).data, want)
        load_checkpoint(tmp_path / "m.ckpt", other)
        np.testing.assert_array_equal(other(spec, seg).data, want)
