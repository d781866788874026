"""Manifest, taxonomy, WAV round-trip, and synthetic-corpus tests."""

import numpy as np
import pytest

from pcq import data
from pcq.errors import ConfigError, DataError, InvalidInput


class TestTaxonomy:
    def test_iemocap4_merges_excited_into_happy(self):
        tax = data.get_taxonomy("iemocap4")
        assert tax.canonical("excited") == "happy"
        assert tax.index("excited") == tax.index("happy")
        assert tax.num_classes == 4

    def test_emodb7_has_seven_classes(self):
        assert data.get_taxonomy("emodb7").num_classes == 7

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            data.get_taxonomy("iemocap4").canonical("bored")

    def test_unknown_taxonomy_rejected(self):
        with pytest.raises(ConfigError):
            data.get_taxonomy("nope")


class TestManifest:
    def test_roundtrip(self, tmp_path):
        rows = [data.ManifestRow(f"c{i}", tmp_path / f"c{i}.wav", "happy", f"s{i%2}", i % 10)
                for i in range(12)]
        path = data.save_manifest(tmp_path / "manifest.csv", rows)
        loaded = data.load_manifest(path, data.get_taxonomy("iemocap4"))
        assert [r.clip_id for r in loaded] == [r.clip_id for r in rows]
        assert [r.fold for r in loaded] == [r.fold for r in rows]
        assert all(r.path.parent == tmp_path for r in loaded)

    def test_merge_applied_at_load(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "clip_id,path,label,speaker,fold\na,x.wav,excited,s0,0\n")
        rows = data.load_manifest(tmp_path / "m.csv", data.get_taxonomy("iemocap4"))
        assert rows[0].label == "happy"

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("clip,path,label,speaker,fold\n")
        with pytest.raises(DataError):
            data.load_manifest(tmp_path / "m.csv")

    def test_bad_fold_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("clip_id,path,label,speaker,fold\na,x.wav,happy,s0,11\n")
        with pytest.raises(DataError):
            data.load_manifest(tmp_path / "m.csv")

    def test_duplicate_clip_ids_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "clip_id,path,label,speaker,fold\na,x.wav,happy,s0,0\na,y.wav,sad,s1,1\n")
        with pytest.raises(DataError):
            data.load_manifest(tmp_path / "m.csv")


class TestWavIO:
    def test_pcm16_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.8, 0.8, size=16000)
        data.write_wav(tmp_path / "x.wav", x)
        clip = data.read_wav(tmp_path / "x.wav")
        assert clip.sample_rate_hz == 16000
        assert clip.samples.dtype == np.float32
        # half-step quantization plus the 32767-write/32768-read scale offset
        np.testing.assert_allclose(clip.samples, x, atol=1.5 / 32768)

    def test_wrong_rate_rejected(self, tmp_path):
        data.write_wav(tmp_path / "x.wav", np.zeros(100), rate=8000)
        with pytest.raises(InvalidInput):
            data.read_wav(tmp_path / "x.wav")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            data.read_wav(tmp_path / "nope.wav")


class TestAssignFolds:
    def _rows(self, n, speakers=4):
        return [data.ManifestRow(f"c{i}", f"c{i}.wav", "happy", f"s{i % speakers}", 0)
                for i in range(n)]

    def test_random_balances_rows(self):
        rows = data.assign_folds(self._rows(40), by="random", folds=10, seed=1)
        counts = np.bincount([r.fold for r in rows], minlength=10)
        assert np.all(counts == 4)

    def test_speaker_mode_keeps_speakers_whole(self):
        rows = data.assign_folds(self._rows(40, speakers=10), by="speaker", folds=10, seed=1)
        for s in {r.speaker for r in rows}:
            folds = {r.fold for r in rows if r.speaker == s}
            assert len(folds) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            data.assign_folds(self._rows(4), by="magic")

    @pytest.mark.parametrize("folds", [0, data.MAX_FOLDS + 1])
    def test_fold_count_outside_range_rejected(self, folds):
        with pytest.raises(ConfigError):
            data.assign_folds(self._rows(40), folds=folds)

    def test_max_folds_round_trip_through_manifest(self, tmp_path):
        rows = data.assign_folds(self._rows(40), folds=data.MAX_FOLDS)
        loaded = data.load_manifest(data.save_manifest(tmp_path / "m.csv", rows))
        assert {r.fold for r in loaded} == set(range(data.MAX_FOLDS))


class TestSynthCorpus:
    def test_counts_and_balanced_folds(self, tmp_path):
        tax = data.get_taxonomy("iemocap4")
        manifest = data.synth_corpus(tmp_path, tax, n_per_class=10, seed=0)
        rows = data.load_manifest(manifest, tax)
        assert len(rows) == 40
        assert len(list(tmp_path.glob("*.wav"))) == 40
        for fold in range(10):
            held = [r for r in rows if r.fold == fold]
            assert len(held) == 4
            assert {r.label for r in held} == set(tax.classes)

    def test_clip_durations_in_range(self, tmp_path):
        tax = data.get_taxonomy("iemocap4")
        manifest = data.synth_corpus(tmp_path, tax, n_per_class=10, seed=3)
        for row in data.load_manifest(manifest, tax)[:8]:
            clip = data.read_wav(row.path)
            assert 3 * 16000 <= clip.samples.size <= 6 * 16000

    def test_seeds_change_audio_not_structure(self, tmp_path):
        tax = data.get_taxonomy("iemocap4")
        m1 = data.synth_corpus(tmp_path / "a", tax, n_per_class=10, seed=0)
        m2 = data.synth_corpus(tmp_path / "b", tax, n_per_class=10, seed=1)
        rows1 = data.load_manifest(m1, tax)
        rows2 = data.load_manifest(m2, tax)
        assert [(r.clip_id, r.label, r.fold) for r in rows1] == [(r.clip_id, r.label, r.fold) for r in rows2]
        a = data.read_wav(rows1[0].path).samples
        b = data.read_wav(rows2[0].path).samples
        assert a.size != b.size or not np.array_equal(a, b)

    def test_too_few_clips_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            data.synth_corpus(tmp_path, data.get_taxonomy("iemocap4"), n_per_class=5)

    def test_class_energy_lands_in_its_band(self, tmp_path):
        # spectrogram energy for class k concentrates in class_band(k)
        from pcq import dsp
        tax = data.get_taxonomy("iemocap4")
        manifest = data.synth_corpus(tmp_path, tax, n_per_class=10, seed=0)
        rows = data.load_manifest(manifest, tax)
        for k, cls in enumerate(tax.classes):
            row = next(r for r in rows if r.label == cls)
            seg = dsp.segment_clip(data.read_wav(row.path))[0]
            spec = dsp.spectrogram(seg).values
            band_energy = spec.sum(axis=0)  # per-bin
            lo, hi = data.class_band(k)
            in_band = band_energy[int(lo / 20):int(hi / 20) + 1].sum()
            assert in_band / band_energy.sum() > 0.5
