"""Frontend tests: segmentation arithmetic, spectrogram oracle, cache behavior."""

import numpy as np
import pytest

from pcq import dsp
from pcq.errors import InvalidInput


def make_clip(n, value=0.0, source_id="clip"):
    return dsp.AudioClip(samples=np.full(n, value, dtype=np.float32),
                         sample_rate_hz=16000, source_id=source_id)


def tone_segment(freq_hz=1000.0, amplitude=1.0):
    t = np.arange(dsp.SEGMENT_SAMPLES) / dsp.SAMPLE_RATE
    return dsp.Segment(samples=(amplitude * np.sin(2 * np.pi * freq_hz * t)).astype(np.float32),
                       parent_id="tone", index=0)


class TestSegmentClip:
    def test_exact_fit_one_segment(self):
        segs = dsp.segment_clip(make_clip(48000, 0.5))
        assert len(segs) == 1
        assert segs[0].samples.shape == (48000,)
        assert np.all(segs[0].samples == 0.5)

    def test_50000_samples_pads_second_segment(self):
        segs = dsp.segment_clip(make_clip(50000, 1.0))
        assert len(segs) == 2
        assert np.all(segs[0].samples == 1.0)
        assert np.all(segs[1].samples[:2000] == 1.0)
        assert np.all(segs[1].samples[2000:] == 0.0)
        assert segs[1].samples[2000:].size == 46000

    def test_three_second_multiples(self):
        assert len(dsp.segment_clip(make_clip(144000))) == 3

    def test_indices_and_parent(self):
        segs = dsp.segment_clip(make_clip(100000, source_id="abc"))
        assert [s.index for s in segs] == [0, 1, 2]
        assert all(s.parent_id == "abc" for s in segs)

    def test_empty_clip_rejected(self):
        with pytest.raises(InvalidInput):
            dsp.segment_clip(make_clip(0))

    def test_wrong_rate_rejected(self):
        clip = dsp.AudioClip(samples=np.ones(100, dtype=np.float32), sample_rate_hz=22050, source_id="x")
        with pytest.raises(InvalidInput):
            dsp.segment_clip(clip)


class TestSpectrogram:
    def test_zero_segment_all_zero(self):
        seg = dsp.Segment(samples=np.zeros(48000, dtype=np.float32), parent_id="z", index=0)
        spec = dsp.spectrogram(seg)
        assert spec.values.shape == (300, 200)
        assert np.all(spec.values == 0.0)

    def test_output_shape_300x200(self):
        spec = dsp.spectrogram(tone_segment())
        assert spec.values.shape == (300, 200)
        assert spec.values.dtype == np.float32
        assert np.all(spec.values >= 0.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInput):
            dsp.spectrogram(dsp.Segment(samples=np.zeros(47999, dtype=np.float32), parent_id="x", index=0))

    def test_1khz_tone_peaks_at_bin_50(self):
        # bin spacing 16000/800 = 20 Hz -> 1000 Hz lands exactly on bin 50,
        # including the tail frames that read into the zero padding
        spec = dsp.spectrogram(tone_segment(1000.0))
        assert np.all(spec.values.argmax(axis=1) == 50)

    def test_frame_row_matches_naive_dft(self):
        # O(N^2) direct DFT of one windowed frame as the independent oracle
        seg = tone_segment(777.0)
        frame_idx = 13
        start = frame_idx * dsp.HOP
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(640) / 639)
        frame = seg.samples[start:start + 640].astype(np.float64) * window
        n = np.arange(800)
        padded = np.concatenate([frame, np.zeros(160)])
        oracle = np.array([np.hypot(np.sum(padded * np.cos(-2 * np.pi * k * n / 800)),
                                    np.sum(padded * np.sin(-2 * np.pi * k * n / 800)))
                           for k in range(200)])
        got = dsp.spectrogram(seg).values[frame_idx].astype(np.float64)
        np.testing.assert_allclose(got, oracle, rtol=1e-4, atol=1e-3)

    def test_parseval_on_full_spectrum(self):
        # sum over all 800 bins of |X|^2 == 800 * sum of squared windowed samples
        rng = np.random.default_rng(0)
        seg = dsp.Segment(samples=rng.normal(size=48000).astype(np.float32) * 0.3,
                          parent_id="r", index=0)
        for frame_idx in [0, 123, 299]:
            mags = dsp.frame_spectrum_full(seg, frame_idx)
            window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(640) / 639)
            start = frame_idx * dsp.HOP
            padded = np.concatenate([seg.samples.astype(np.float64), np.zeros((300 - 1) * 160 + 640 - 48000)])
            windowed = padded[start:start + 640] * window
            lhs = np.sum(mags ** 2)
            rhs = 800.0 * np.sum(windowed ** 2)
            assert abs(lhs - rhs) / rhs < 1e-9

    def test_magnitude_homogeneity(self):
        seg1 = tone_segment(500.0, amplitude=0.25)
        seg3 = dsp.Segment(samples=3.0 * seg1.samples, parent_id="tone", index=0)
        np.testing.assert_allclose(dsp.spectrogram(seg3).values,
                                   3.0 * dsp.spectrogram(seg1).values, rtol=2e-5, atol=1e-4)

    def test_determinism_bitwise(self):
        seg = tone_segment(1234.5)
        a = dsp.spectrogram(seg).values
        b = dsp.spectrogram(dsp.Segment(samples=seg.samples.copy(), parent_id="tone", index=0)).values
        assert np.array_equal(a, b)


class TestBatchFeatures:
    def _rows(self, tmp_path, lengths):
        from pcq.data import ManifestRow, write_wav
        rows = []
        rng = np.random.default_rng(0)
        for i, n in enumerate(lengths):
            p = tmp_path / f"c{i}.wav"
            write_wav(p, rng.uniform(-0.5, 0.5, size=n))
            rows.append(ManifestRow(clip_id=f"c{i}", path=p, label="angry", speaker="s0", fold=0))
        return rows

    def test_two_clips_three_spectrograms(self, tmp_path):
        rows = self._rows(tmp_path, [48000, 80000])  # 3 s and 5 s
        report = dsp.batch_features(rows, tmp_path / "feat")
        assert report.written == 3
        assert not report.errors
        files = sorted(p.name for p in (tmp_path / "feat").glob("*.f32"))
        assert files == ["c0__0.f32", "c1__0.f32", "c1__1.f32"]
        arr = dsp.read_feature(tmp_path / "feat" / "c1__1.f32")
        assert arr.shape == (300, 200)

    def test_empty_manifest_is_success(self, tmp_path):
        report = dsp.batch_features([], tmp_path / "feat")
        assert report.written == 0
        assert not report.errors
        assert (tmp_path / "feat" / "index.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        rows = self._rows(tmp_path, [48000, 60000])
        dsp.batch_features(rows, tmp_path / "feat")
        first = dsp.cache_digest(tmp_path / "feat")
        dsp.batch_features(rows, tmp_path / "feat")
        assert dsp.cache_digest(tmp_path / "feat") == first

    def test_unreadable_row_recorded_and_skipped(self, tmp_path):
        from pcq.data import ManifestRow
        rows = self._rows(tmp_path, [48000])
        rows.append(ManifestRow(clip_id="missing", path=tmp_path / "nope.wav",
                                label="angry", speaker="s0", fold=0))
        report = dsp.batch_features(rows, tmp_path / "feat")
        assert report.written == 1
        assert len(report.errors) == 1
        assert report.errors[0]["clip_id"] == "missing"

    def test_wav_cut_inside_header_recorded_and_skipped(self, tmp_path):
        from pcq.data import ManifestRow
        rows = self._rows(tmp_path, [48000, 48000])
        cut = tmp_path / "cut.wav"
        cut.write_bytes(rows[0].path.read_bytes()[:30])
        rows.insert(1, ManifestRow(clip_id="cut", path=cut, label="angry", speaker="s0", fold=0))
        report = dsp.batch_features(rows, tmp_path / "feat")
        assert report.written == 2
        assert [e["clip_id"] for e in report.errors] == ["cut"]
        assert "cannot read WAV" in report.errors[0]["error"]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only data and I/O errors are recorded per row; a bug stops the batch
        def broken(seg):
            raise TypeError("bug")
        monkeypatch.setattr(dsp, "spectrogram", broken)
        with pytest.raises(TypeError, match="bug"):
            dsp.batch_features(self._rows(tmp_path, [48000]), tmp_path / "feat")
