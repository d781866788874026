"""Each output checker rejects a corrupted output; generated inputs repeat per seed.

    python3 -m pytest -q bench/test_checks.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from pcq import dsp, ops  # noqa: E402
from pcq.network import miniature_config  # noqa: E402
from pcq.tensor import Tensor  # noqa: E402
from pcq.training import SegmentSample  # noqa: E402


def _segment(seed=3):
    rng = np.random.default_rng(seed)
    return (0.3 * rng.normal(size=checks.SEGMENT_SAMPLES) + checks.tone(40)).astype(np.float32)


def test_spectrogram_check_rejects_a_shifted_bin():
    samples = _segment()
    values = dsp.spectrogram(dsp.Segment(samples=samples, parent_id="x", index=0)).values
    ref = checks.dft_spectrogram(samples.astype(np.float64))
    checks.check_spectrogram(values, ref, "program")
    with pytest.raises(CheckFailed):
        checks.check_spectrogram(np.roll(values, 1, axis=1), ref, "shifted")
    shifted = values.copy()
    shifted[:, 40] = values[:, 41]
    with pytest.raises(CheckFailed):
        checks.check_spectrogram(shifted, ref, "one bin replaced by its neighbour")


def test_tone_check_rejects_a_shifted_peak():
    values = dsp.spectrogram(dsp.Segment(samples=checks.tone(64), parent_id="t", index=0)).values
    checks.check_tone_peak(values, 64)
    with pytest.raises(CheckFailed):
        checks.check_tone_peak(np.roll(values, 1, axis=1), 64)


def test_read_back_check_rejects_one_changed_value():
    values = np.arange(12, dtype="<f4").reshape(3, 4)
    checks.check_equal(values, values.copy(), "same")
    changed = values.copy()
    changed[1, 2] = np.nextafter(changed[1, 2], np.float32(100))
    with pytest.raises(CheckFailed):
        checks.check_equal(values, changed, "changed")


def _fold(conf, epochs=4):
    wa, ua = checks.wa_ua(conf)
    return {"fold_id": 0, "confusion": conf.tolist(), "wa": wa, "ua": ua,
            "epochs": [{}] * epochs, "stop_reason": "max_epochs"}


def test_fold_check_rejects_a_moved_confusion_count():
    conf = np.array([[2, 0, 0, 0], [0, 1, 1, 0], [0, 0, 2, 0], [1, 0, 0, 1]])
    counts = conf.sum(axis=1)
    fold = _fold(conf)
    checks.check_fold(fold, counts, 4)
    within_row = conf.copy()
    within_row[0, 0], within_row[0, 1] = 1, 1
    with pytest.raises(CheckFailed, match="WA/UA"):
        checks.check_fold(dict(fold, confusion=within_row.tolist()), counts, 4)
    across_rows = conf.copy()
    across_rows[0, 0], across_rows[1, 0] = 1, 1
    with pytest.raises(CheckFailed, match="class counts"):
        checks.check_fold(dict(fold, confusion=across_rows.tolist()), counts, 4)
    with pytest.raises(CheckFailed, match="epochs"):
        checks.check_fold(fold, counts, 5)


def test_clip_confusion_check_rejects_a_moved_count():
    probs = [[[0.7, 0.1, 0.1, 0.1], [0.2, 0.5, 0.2, 0.1]], [[0.1, 0.1, 0.1, 0.7]], [[0.25] * 4]]
    pred = [checks.clip_label(p) for p in probs]
    assert pred == [0, 3, 0]
    expected = checks.confusion([0, 3, 1], pred, 4)
    checks.check_confusion(expected.copy(), expected, "same")
    moved = expected.copy()
    moved[1, 0], moved[1, 1] = 0, 1
    with pytest.raises(CheckFailed):
        checks.check_confusion(moved, expected, "moved")
    with pytest.raises(CheckFailed):
        checks.check_probabilities(np.array([0.5, 0.6, -0.1, 0.0]), "negative")
    with pytest.raises(CheckFailed):
        checks.check_probabilities(np.array([0.5, 0.6, 0.0, 0.0]), "sum")


def test_gradient_check_rejects_a_gradient_scaled_by_1_01():
    cfg = miniature_config()
    samples = _segment(5)
    spec = dsp.spectrogram(dsp.Segment(samples=samples, parent_id="g", index=0)).values
    features = ops.adaptive_avg_pool(Tensor(spec[None]), *cfg.input_hw).data
    sample = SegmentSample(segment=dsp.Segment(samples=samples, parent_id="g", index=0),
                           features=features, label_index=2)
    names, analytic, numeric = workloads.gradient_coordinates(cfg, sample)
    checks.check_gradients(names, analytic, numeric)
    for i in range(len(names)):
        scaled = list(analytic)
        scaled[i] *= 1.01
        with pytest.raises(CheckFailed):
            checks.check_gradients(names, scaled, numeric)


def _digests(directory: Path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.glob("*.wav"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    w = workloads.WORKLOADS[name]
    first = workloads.make_corpus(w, tmp_path / "a", seed=11)
    second = workloads.make_corpus(w, tmp_path / "b", seed=11)
    other = workloads.make_corpus(w, tmp_path / "c", seed=12)
    assert _digests(first.parent) == _digests(second.parent)
    assert _digests(first.parent) != _digests(other.parent)
    rows = [workloads.read_manifest(m) for m in (first, second)]
    assert [(c, p.name, lab, f) for c, p, lab, f in rows[0]] == [(c, p.name, lab, f) for c, p, lab, f in rows[1]]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
