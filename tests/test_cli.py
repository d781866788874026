"""End-to-end CLI runs on a small corpus, including exit codes."""

import json
from dataclasses import replace

import pytest

from pcq.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth-data", "--out", str(root / "data"), "--per-class", "10",
                 "--seed", "1"]) == 0
    assert main(["features", "--manifest", str(root / "data" / "manifest.csv"),
                 "--out", str(root / "feat")]) == 0
    (root / "mini.json").write_text(json.dumps({
        "model": {"channel_plan": [4, 8, 12, 16], "input_hw": [40, 32],
                  "encoder_dim": 16, "hidden": 32, "seed": 0},
        "train": {"batch_size": 16, "lr": 1e-3, "max_epochs": 2, "patience": 20, "seed": 0},
    }))
    return root


def manifest(workdir):
    return str(workdir / "data" / "manifest.csv")


class TestDataCommands:
    def test_synth_data_wrote_corpus(self, workdir):
        wavs = list((workdir / "data").glob("*.wav"))
        assert len(wavs) == 40

    def test_features_cached(self, workdir):
        assert (workdir / "feat" / "index.json").exists()
        assert len(list((workdir / "feat").glob("*.f32"))) >= 40

    def test_make_folds_rewrites_fold_column(self, workdir):
        from pcq.data import load_manifest
        out = workdir / "refolded.csv"
        rc = main(["make-folds", "--manifest", manifest(workdir), "--by", "speaker",
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        rows = load_manifest(out)
        for speaker in {r.speaker for r in rows}:
            assert len({r.fold for r in rows if r.speaker == speaker}) == 1

    def test_missing_manifest_is_data_error(self, workdir):
        assert main(["features", "--manifest", str(workdir / "nope.csv"),
                     "--out", str(workdir / "x")]) == 3

    def test_relative_out_dir_round_trips(self, tmp_path, monkeypatch):
        # the README walkthrough: relative paths from the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["synth-data", "--out", "data", "--per-class", "10", "--seed", "2"]) == 0
        assert main(["features", "--manifest", "data/manifest.csv", "--out", "feat"]) == 0
        assert len(list((tmp_path / "feat").glob("*.f32"))) >= 40

    def test_train_on_wav_cut_inside_header_is_data_error(self, workdir, tmp_path, capsys):
        # 30 bytes end inside the 16-byte fmt chunk that follows the RIFF header
        from pcq.data import load_manifest, save_manifest
        rows = load_manifest(manifest(workdir))
        cut = tmp_path / "cut.wav"
        cut.write_bytes(rows[0].path.read_bytes()[:30])
        save_manifest(tmp_path / "manifest.csv", [replace(rows[0], path=cut)] + rows[1:])
        rc = main(["train", "--manifest", str(tmp_path / "manifest.csv"), "--features",
                   str(tmp_path / "feat"), "--config", str(workdir / "mini.json"),
                   "--out", str(tmp_path / "run"), "--val-fold", "0"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert len(err.strip().splitlines()) == 1, err
        assert "cannot read WAV" in err

    def test_train_on_non_json_feature_index_is_data_error(self, workdir, tmp_path, capsys):
        import shutil
        feat = tmp_path / "feat"
        shutil.copytree(workdir / "feat", feat)
        (feat / "index.json").write_text("{not json")
        rc = main(["train", "--manifest", manifest(workdir), "--features", str(feat),
                   "--config", str(workdir / "mini.json"), "--out", str(tmp_path / "run"),
                   "--val-fold", "0"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert len(err.strip().splitlines()) == 1, err
        assert "index.json" in err

    def test_synth_data_too_many_folds_is_config_error(self, tmp_path, capsys):
        rc = main(["synth-data", "--out", str(tmp_path / "d"), "--per-class", "12",
                   "--folds", "12"])
        assert rc == 2
        assert "fold count" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_make_folds_too_many_folds_is_config_error(self, workdir, tmp_path):
        rc = main(["make-folds", "--manifest", manifest(workdir), "--folds", "12",
                   "--out", str(tmp_path / "refolded.csv")])
        assert rc == 2
        assert not (tmp_path / "refolded.csv").exists()


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "run"
    rc = main(["train", "--manifest", manifest(workdir), "--features",
               str(workdir / "feat"), "--config", str(workdir / "mini.json"),
               "--out", str(out), "--val-fold", "0"])
    assert rc == 0
    return out


class TestTrainEvalExport:
    def test_train_outputs(self, trained):
        assert (trained / "best.ckpt").exists()
        assert (trained / "config.json").exists()
        report = json.loads((trained / "report.json").read_text())
        assert report["fold_id"] == 0
        assert len(report["epochs"]) == 2

    def test_eval_writes_predictions(self, workdir, trained):
        out = workdir / "preds.csv"
        rc = main(["eval", "--ckpt", str(trained / "best.ckpt"), "--manifest",
                   manifest(workdir), "--features", str(workdir / "feat"),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 41  # header + 40 clips
        assert lines[0].startswith("clip_id,true_label,pred_label,p_")

    def test_export_features_width(self, workdir, trained):
        out = workdir / "fusion.csv"
        rc = main(["export-features", "--ckpt", str(trained / "best.ckpt"),
                   "--manifest", manifest(workdir), "--features", str(workdir / "feat"),
                   "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 2 + (4 + 8 + 12 + 16 + 16)

    def test_eval_without_config_is_config_error(self, workdir, tmp_path):
        ckpt = tmp_path / "floating.ckpt"
        ckpt.write_bytes(b"[]\n")
        rc = main(["eval", "--ckpt", str(ckpt), "--manifest", manifest(workdir),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2


class TestCheckpointReadErrors:
    """Every unreadable checkpoint exits 3 with a one-line message."""

    def _eval(self, workdir, trained, tmp_path, ckpt_bytes, capsys):
        ckpt = tmp_path / "bad.ckpt"
        if ckpt_bytes is not None:
            ckpt.write_bytes(ckpt_bytes)
        rc = main(["eval", "--ckpt", str(ckpt), "--config", str(trained / "config.json"),
                   "--manifest", manifest(workdir), "--features", str(workdir / "feat"),
                   "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert len(err.strip().splitlines()) == 1, err
        assert not (tmp_path / "p.csv").exists()
        return err

    @staticmethod
    def _good(trained) -> bytes:
        return (trained / "best.ckpt").read_bytes()

    @staticmethod
    def _rewrite(raw: bytes, edit) -> bytes:
        header, _, blob = raw.partition(b"\n")
        entries = json.loads(header)
        edit(entries)
        return json.dumps(entries).encode() + b"\n" + blob

    def test_missing_file(self, workdir, trained, tmp_path, capsys):
        assert "cannot read checkpoint" in self._eval(workdir, trained, tmp_path, None, capsys)

    def test_header_not_json(self, workdir, trained, tmp_path, capsys):
        raw = b"{not json\n" + self._good(trained).partition(b"\n")[2]
        assert "no valid JSON header" in self._eval(workdir, trained, tmp_path, raw, capsys)

    def test_truncated_blob(self, workdir, trained, tmp_path, capsys):
        raw = self._good(trained)
        assert "truncated" in self._eval(workdir, trained, tmp_path, raw[: len(raw) // 2], capsys)

    def test_missing_tensor(self, workdir, trained, tmp_path, capsys):
        raw = self._rewrite(self._good(trained), lambda entries: entries.pop())
        err = self._eval(workdir, trained, tmp_path, raw, capsys)
        assert "missing [fc2.bias]" in err and "extra []" in err

    def test_extra_tensor(self, workdir, trained, tmp_path, capsys):
        def add(entries):
            entries.append(dict(entries[0], name="stray.weight"))
        err = self._eval(workdir, trained, tmp_path, self._rewrite(self._good(trained), add), capsys)
        assert "missing []" in err and "extra [stray.weight]" in err


class TestCvAndParams:
    def test_cv_short_run_writes_reports(self, workdir):
        out = workdir / "cv"
        rc = main(["cv", "--manifest", manifest(workdir), "--features", str(workdir / "feat"),
                   "--config", str(workdir / "mini.json"), "--max-epochs", "1",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "cv_report.json").read_text())
        assert len(report["folds"]) == 10
        assert (out / "cv_report.txt").exists()

    def test_params_pdc_table(self, capsys):
        assert main(["params", "--block", "pdc", "--channels", "48"]) == 0
        out = capsys.readouterr().out
        assert "13152" in out and "20736" in out

    def test_params_mlcnn_breakdown(self, capsys):
        assert main(["params", "--model", "mlcnn"]) == 0
        out = capsys.readouterr().out
        assert "mlcnn total: 89872" in out

    def test_flag_overrides_config_key(self, workdir, capsys):
        assert main(["params", "--model", "pcq", "--config", str(workdir / "mini.json"),
                     "--no-csq"]) == 0
        counts = {}
        for line in capsys.readouterr().out.splitlines():
            name, _, value = line.partition(":")
            counts[name.strip()] = int(value)
        assert counts["csq"] == 0
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    def test_bad_config_json_is_config_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cv", "--manifest", manifest(workdir), "--config", str(bad)]) == 2

    def test_unknown_config_key_is_config_error(self, workdir, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"model": {"bogus_key": 1}}))
        assert main(["cv", "--manifest", manifest(workdir), "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["cv", "train"])
    def test_folds_flag_removed_from_train_and_cv(self, workdir, tmp_path, command, capsys):
        # cv runs every fold in the manifest, so a fold count would be a knob nothing reads
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", manifest(workdir), "--out", str(tmp_path / "run"),
                  "--folds", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --folds" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["gradcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all 33 gradient checks passed" in out
        assert "[FAIL]" not in out
