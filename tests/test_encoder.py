"""Encoder backends and query-token construction."""

import numpy as np
import pytest

from pcq import ops
from pcq.dsp import Segment
from pcq.encoder import (PrecomputedEncoder, QueryProjector, StandinEncoder,
                         load_embedding, save_embedding)
from pcq.errors import ConfigError, InvalidInput, MissingEmbedding, ShapeError
from pcq.tensor import Tensor

FULL_SIZES = [(150, 100), (75, 50), (37, 25)]


def segment(samples=None, parent_id="clip", index=0, seed=0):
    if samples is None:
        samples = np.random.default_rng(seed).normal(size=48000).astype(np.float32) * 0.1
    return Segment(samples=samples, parent_id=parent_id, index=index)


class TestStandinEncoder:
    def test_zero_audio_gives_finite_150x64(self):
        enc = StandinEncoder(np.random.default_rng(0), dim=64)
        out = enc(segment(np.zeros(48000, dtype=np.float32)))
        assert out.shape == (150, 64)
        assert np.all(np.isfinite(out.data))

    def test_stride_product_320_sets_frame_count(self):
        enc = StandinEncoder(np.random.default_rng(0), dim=16)
        assert enc(segment()).shape == (150, 16)

    def test_deterministic_across_calls(self):
        enc = StandinEncoder(np.random.default_rng(1), dim=16)
        a = enc(segment(seed=3)).data
        b = enc(segment(seed=3)).data
        assert np.array_equal(a, b)

    def test_param_budget_under_1m(self):
        assert StandinEncoder(np.random.default_rng(0), dim=64).param_count() < 1_000_000

    def test_wrong_segment_length_rejected(self):
        enc = StandinEncoder(np.random.default_rng(0), dim=16)
        with pytest.raises(Exception):
            enc(segment(np.zeros(100, dtype=np.float32)))


class TestPrecomputedEncoder:
    def test_roundtrip_and_passthrough(self, tmp_path):
        frames = np.random.default_rng(0).normal(size=(149, 768)).astype(np.float32)
        save_embedding(tmp_path / "clip__0.emb", frames)
        np.testing.assert_array_equal(load_embedding(tmp_path / "clip__0.emb"), frames)
        enc = PrecomputedEncoder(tmp_path, dim=768)
        out = enc(segment(parent_id="clip", index=0))
        assert out.shape == (149, 768)
        np.testing.assert_array_equal(out.data, frames)

    def test_missing_file_raises(self, tmp_path):
        enc = PrecomputedEncoder(tmp_path, dim=64)
        with pytest.raises(MissingEmbedding):
            enc(segment(parent_id="absent", index=2))

    def test_width_mismatch_raises(self, tmp_path):
        save_embedding(tmp_path / "c__0.emb", np.zeros((10, 32), dtype=np.float32))
        enc = PrecomputedEncoder(tmp_path, dim=64)
        with pytest.raises(ShapeError):
            enc(segment(parent_id="c", index=0))

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            PrecomputedEncoder(tmp_path / "nope", dim=64)


class TestEmbeddingHeader:
    """Every malformed header is InvalidInput (CLI exit 3), never a raw exception."""

    def _load(self, tmp_path, header: bytes, blob: bytes = b"\0" * 64):
        path = tmp_path / "c__0.emb"
        path.write_bytes(header + b"\n" + blob)
        return load_embedding(path)

    def test_non_json_header(self, tmp_path):
        with pytest.raises(InvalidInput, match="no valid JSON header"):
            self._load(tmp_path, b"T=4 D=4")

    def test_non_utf8_header(self, tmp_path):
        with pytest.raises(InvalidInput, match="no valid JSON header"):
            self._load(tmp_path, b"\xff\xfe")

    def test_missing_d(self, tmp_path):
        with pytest.raises(InvalidInput, match="no valid JSON header"):
            self._load(tmp_path, b'{"T": 4}')

    def test_missing_t(self, tmp_path):
        with pytest.raises(InvalidInput, match="no valid JSON header"):
            self._load(tmp_path, b'{"D": 4}')

    def test_list_header(self, tmp_path):
        with pytest.raises(InvalidInput, match="no valid JSON header"):
            self._load(tmp_path, b"[4, 4]")

    def test_negative_sizes(self, tmp_path):
        with pytest.raises(InvalidInput, match="integers >= 1"):
            self._load(tmp_path, b'{"T": -1, "D": -4}')

    def test_zero_frames(self, tmp_path):
        with pytest.raises(InvalidInput, match="integers >= 1"):
            self._load(tmp_path, b'{"T": 0, "D": 4}')

    @pytest.mark.parametrize("header", [b'{"T": 2.0, "D": 4}', b'{"T": 2, "D": "4"}',
                                        b'{"T": true, "D": 4}', b'{"T": 2, "D": null}'])
    def test_non_integer_sizes(self, tmp_path, header):
        with pytest.raises(InvalidInput, match="integers >= 1"):
            self._load(tmp_path, header)

    def test_truncated_blob(self, tmp_path):
        with pytest.raises(InvalidInput, match="truncated"):
            self._load(tmp_path, b'{"T": 5, "D": 4}', b"\0" * 79)

    def test_valid_header_reads_blob(self, tmp_path):
        assert self._load(tmp_path, b'{"T": 4, "D": 4}').shape == (4, 4)

    def test_cli_maps_malformed_header_to_exit_3(self, tmp_path, corpus40, capsys):
        from pcq.cli import main
        emb = tmp_path / "emb"
        emb.mkdir()
        for cached in corpus40["features"].glob("*.f32"):
            (emb / f"{cached.stem}.emb").write_bytes(b'{"T": 0, "D": 16}\n')
        rc = main(["train", "--manifest", str(corpus40["manifest"]), "--features", str(corpus40["features"]),
                   "--channel-plan", "4,8,12,16", "--input-hw", "40,32", "--hidden", "32",
                   "--encoder", "precomputed", "--emb-dir", str(emb), "--encoder-dim", "16",
                   "--max-epochs", "1", "--out", str(tmp_path / "run"), "--val-fold", "0"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert "integers >= 1" in err and len(err.strip().splitlines()) == 1


class TestQueryTokens:
    def _tokens(self, frames, sizes=FULL_SIZES, dim=None, seed=0):
        dim = dim or frames.shape[1]
        proj = QueryProjector(np.random.default_rng(seed), dim, q1_width=sizes[0][1])
        return proj, proj(Tensor(frames), sizes)

    def test_full_scale_shapes(self):
        frames = np.random.default_rng(0).normal(size=(150, 64)).astype(np.float32)
        _, tokens = self._tokens(frames)
        assert tokens.q1.shape == (1, 150, 100)
        assert tokens.q2.shape == (1, 75, 50)
        assert tokens.q3.shape == (1, 37, 25)

    def test_wavlm_width_sequence_supported(self):
        frames = np.random.default_rng(0).normal(size=(149, 768)).astype(np.float32)
        _, tokens = self._tokens(frames)
        assert tokens.q1.shape == (1, 150, 100)

    def test_q2_q3_are_exact_pool_reductions(self):
        frames = np.random.default_rng(1).normal(size=(150, 64)).astype(np.float32)
        _, tokens = self._tokens(frames)
        q2 = ops.adaptive_avg_pool(tokens.q1, 75, 50)
        q3 = ops.adaptive_avg_pool(tokens.q2, 37, 25)
        np.testing.assert_array_equal(tokens.q2.data, q2.data)
        np.testing.assert_array_equal(tokens.q3.data, q3.data)

    def test_pooling_adds_no_parameters(self):
        frames = np.random.default_rng(0).normal(size=(150, 16)).astype(np.float32)
        proj, _ = self._tokens(frames, sizes=[(20, 16), (10, 8), (5, 4)])
        assert proj.param_count() == 16 * 16 + 16  # projection weight + bias only

    def test_constant_frames_give_time_constant_tokens(self):
        # identical frames all map to the same projected row, so every token is
        # constant along its time axis (the projection output itself varies by column)
        frames = np.full((150, 64), 2.0, dtype=np.float32)
        _, tokens = self._tokens(frames)
        for q in tokens.as_list():
            np.testing.assert_allclose(q.data, np.broadcast_to(q.data[:, :1, :], q.shape),
                                       atol=1e-5)

    def test_channel_dim_always_one(self):
        frames = np.random.default_rng(2).normal(size=(37, 8)).astype(np.float32)
        _, tokens = self._tokens(frames, sizes=[(20, 16), (10, 8)])
        assert tokens.q1.shape[0] == 1
        assert tokens.q2.shape[0] == 1
        assert tokens.q3 is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck_projection_path(self, seed):
        # linear + bilinear + adaptive pooling: smooth everywhere, any seed works
        from pcq.gradcheck import model_grad_check

        rng = np.random.default_rng(seed)
        proj = QueryProjector(rng, 8, q1_width=10).astype(np.float64).eval()
        frames = Tensor(np.random.default_rng(100 + seed).normal(size=(12, 8)),
                        requires_grad=True, dtype=np.float64)
        w = np.random.default_rng(200 + seed).normal(size=(1, 3))

        def loss():
            tokens = proj(frames, [(14, 10), (7, 5), (3, 2)])
            gaps = ops.concat([ops.global_avg_pool(q) for q in tokens.as_list()])
            return ops.linear(gaps, Tensor(w, dtype=np.float64))

        report = model_grad_check(proj, loss, data_inputs=[("frames", frames)],
                                  max_coords_per_param=None)
        assert report.passed, report.summary()

    def test_backend_swap_keeps_downstream_shapes(self, tmp_path):
        standin = StandinEncoder(np.random.default_rng(0), dim=16)
        save_embedding(tmp_path / "c__0.emb", np.random.default_rng(1).normal(size=(149, 32)).astype(np.float32))
        pre = PrecomputedEncoder(tmp_path, dim=32)
        for enc, dim in [(standin, 16), (pre, 32)]:
            out = enc(segment(parent_id="c", index=0))
            proj = QueryProjector(np.random.default_rng(2), dim, q1_width=100)
            tokens = proj(out, FULL_SIZES)
            assert tokens.q1.shape == (1, 150, 100)
            assert tokens.q3.shape == (1, 37, 25)
