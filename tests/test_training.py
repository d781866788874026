"""Harness mechanics: folds, early stopping, loss descent, determinism, export."""

import numpy as np
import pytest

from pcq import ops
from pcq.errors import ConfigError
from pcq.network import PcqNetwork, miniature_config
from pcq.optim import AdamW
from pcq.training import (EarlyStopper, TrainConfig, build_dataset,
                          export_fusion_features, run_cv, run_fold)


@pytest.fixture(scope="module")
def dataset(corpus40):
    return build_dataset(corpus40["rows"], corpus40["features"],
                         corpus40["taxonomy"], input_hw=(40, 32))


def quick_train_cfg(**kw):
    base = dict(batch_size=16, lr=1e-3, max_epochs=2, patience=20, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestEarlyStopper:
    def test_improvement_resets_patience(self):
        s = EarlyStopper(patience=3)
        assert s.update(0.5, 0)
        assert not s.update(0.5, 1)  # ties are not improvements
        assert s.update(0.6, 2)
        assert s.best_epoch == 2
        assert not s.should_stop

    def test_stops_after_patience_and_keeps_best(self):
        s = EarlyStopper(patience=20)
        values = [0.3, 0.7] + [0.6] * 30
        stopped_at = None
        for epoch, v in enumerate(values):
            s.update(v, epoch)
            if s.should_stop:
                stopped_at = epoch
                break
        assert stopped_at == 21
        assert s.best_epoch == 1
        assert s.best_epoch <= stopped_at - 20
        assert s.best == 0.7  # never a value lower than any seen maximum


class TestFoldMechanics:
    def test_partition_covers_every_clip_once(self, dataset):
        held_out = [c.clip_id for fold in range(10) for c in dataset if c.fold == fold]
        assert sorted(held_out) == sorted(c.clip_id for c in dataset)
        assert len(held_out) == len(dataset)

    def test_balanced_folds_hold_out_constant_count(self, dataset):
        for fold in range(10):
            assert sum(1 for c in dataset if c.fold == fold) == 4

    def test_fold_report_counts_held_out_clips(self, dataset):
        report, _ = run_fold(3, dataset, miniature_config(), quick_train_cfg(max_epochs=1))
        assert int(np.sum(report.confusion)) == 4
        assert report.fold_id == 3
        assert 0.0 <= report.wa <= 1.0 and 0.0 <= report.ua <= 1.0

    def test_folds_key_rejected(self):
        with pytest.raises(ConfigError, match="folds"):
            TrainConfig.from_dict({"batch_size": 16, "folds": 10})

    def test_missing_fold_rejected(self, dataset):
        with pytest.raises(ConfigError):
            run_fold(7777, dataset, miniature_config(), quick_train_cfg())

    def test_fixed_seed_runs_are_identical(self, dataset):
        cfg = miniature_config()
        r1, _ = run_fold(0, dataset, cfg, quick_train_cfg(max_epochs=2))
        r2, _ = run_fold(0, dataset, cfg, quick_train_cfg(max_epochs=2))
        assert r1.to_dict() == r2.to_dict()


class TestLossDescent:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_single_batch_step_decreases_loss(self, dataset, seed):
        model = PcqNetwork(miniature_config(seed=seed, dropout=0.0)).train()
        opt = AdamW(model, lr=1e-4, weight_decay=0.0)
        batch = [s for c in dataset[:4] for s in c.segments][:6]

        def batch_loss():
            vals = []
            for s in batch:
                logits = model(s.features, s.segment)
                vals.append(ops.softmax_cross_entropy(logits, s.label_index))
            return vals

        before = sum(float(v.data) for v in batch_loss()) / len(batch)
        opt.zero_grad()
        for v in batch_loss():
            ops.scale(v, 1.0 / len(batch)).backward()
        opt.step()
        model.eval()
        after = sum(float(v.data) for v in batch_loss()) / len(batch)
        assert after < before


class TestCv:
    def test_pooled_confusion_is_sum_and_stats_match(self, dataset):
        summary = run_cv(dataset, miniature_config(), quick_train_cfg(max_epochs=1),
                         folds=[0, 1, 2])
        pooled = np.sum([np.asarray(r.confusion) for r in summary.fold_reports], axis=0)
        np.testing.assert_array_equal(pooled, summary.pooled_confusion)
        was = [r.wa for r in summary.fold_reports]
        assert summary.mean_wa == pytest.approx(np.mean(was), abs=1e-8)
        assert summary.std_wa == pytest.approx(np.std(was), abs=1e-8)
        assert int(pooled.sum()) == 12  # 3 folds x 4 clips

    def test_report_json_stable_against_rerun(self, dataset):
        cfg = miniature_config()
        s1 = run_cv(dataset, cfg, quick_train_cfg(max_epochs=1), folds=[0, 1])
        s2 = run_cv(dataset, cfg, quick_train_cfg(max_epochs=1), folds=[0, 1])
        assert s1.to_json() == s2.to_json()


class TestBuildDataset:
    def test_downsampled_inputs_for_miniature(self, dataset):
        for clip in dataset[:3]:
            for s in clip.segments:
                assert s.features.shape == (1, 40, 32)
                assert s.segment.samples.shape == (48000,)

    def test_full_resolution_without_pooling(self, corpus40):
        clips = build_dataset(corpus40["rows"][:2], corpus40["features"],
                              corpus40["taxonomy"], input_hw=(300, 200))
        assert clips[0].segments[0].features.shape == (1, 300, 200)

    def test_missing_cache_computed_on_the_fly(self, corpus40, tmp_path):
        clips = build_dataset(corpus40["rows"][:1], tmp_path / "empty",
                              corpus40["taxonomy"], input_hw=(40, 32))
        assert clips[0].segments[0].features.shape == (1, 40, 32)


class TestExport:
    def test_fusion_rows_and_width(self, dataset, tmp_path):
        model = PcqNetwork(miniature_config())
        out = tmp_path / "fusion.csv"
        n = export_fusion_features(model, dataset[:5], out)
        assert n == 5
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        header = lines[0].split(",")
        assert len(header) == 2 + model.fusion_dim
        assert header[:2] == ["clip_id", "label_index"]

    def test_export_deterministic(self, dataset, tmp_path):
        model = PcqNetwork(miniature_config())
        export_fusion_features(model, dataset[:3], tmp_path / "a.csv")
        export_fusion_features(model, dataset[:3], tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_no_csq_narrows_rows(self, dataset, tmp_path):
        model = PcqNetwork(miniature_config(use_csq=False))
        export_fusion_features(model, dataset[:2], tmp_path / "c.csv")
        header = (tmp_path / "c.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 32  # Gap(x4) + Gap(Q4) at miniature widths

    def test_full_scale_widths_224_and_128(self, corpus40, tmp_path):
        from pcq.network import PcqConfig
        clips = build_dataset(corpus40["rows"][:2], corpus40["features"],
                              corpus40["taxonomy"], input_hw=(300, 200))
        for cfg, width in [(PcqConfig(seed=0), 224), (PcqConfig(use_csq=False, seed=0), 128)]:
            out = tmp_path / f"w{width}.csv"
            n = export_fusion_features(PcqNetwork(cfg), clips, out)
            assert n == 2
            header = out.read_text().splitlines()[0].split(",")
            assert len(header) == 2 + width


class TestCacheTransform:
    """build_dataset reads the transform from the cache's index.json."""

    @pytest.fixture(scope="class")
    def log1p_cache(self, corpus40, tmp_path_factory):
        from pcq import dsp
        root = tmp_path_factory.mktemp("log1p")
        dsp.batch_features(corpus40["rows"][:3], root, log1p=True)
        return root

    @pytest.mark.parametrize("hw", [(300, 200), (40, 32)])
    def test_missing_entry_recomputed_with_the_cache_transform(self, corpus40, log1p_cache, tmp_path, hw):
        import shutil
        rows = corpus40["rows"][:3]
        partial = tmp_path / "partial"
        shutil.copytree(log1p_cache, partial)
        (partial / f"{rows[1].clip_id}__0.f32").unlink()
        full = build_dataset(rows, log1p_cache, corpus40["taxonomy"], input_hw=hw)
        cut = build_dataset(rows, partial, corpus40["taxonomy"], input_hw=hw)
        for a, b in zip(full, cut):
            for sa, sb in zip(a.segments, b.segments):
                np.testing.assert_array_equal(sa.features, sb.features)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"entries": []}', '{"log1p": "yes"}'])
    def test_malformed_index_is_data_error(self, corpus40, log1p_cache, tmp_path, text):
        import shutil
        from pcq.errors import DataError
        bad = tmp_path / "bad"
        shutil.copytree(log1p_cache, bad)
        (bad / "index.json").write_text(text)
        with pytest.raises(DataError, match="index"):
            build_dataset(corpus40["rows"][:1], bad, corpus40["taxonomy"], input_hw=(40, 32))
