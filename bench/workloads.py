"""The three workloads: corpus generation, timed rounds, output checks, metrics.

Every workload runs the same five phases in each round, on its own inputs and
model scale, so that each end-to-end metric is measured on each workload:

  features  dsp.batch_features, WAV -> feature cache
  load      training.build_dataset, reading that cache
  train     training.train_epoch passes over a fixed set of segments
  predict   training.evaluate_clips (PcqNetwork.predict per segment)
  cv        training.run_cv over fixed folds for a fixed number of epochs

Work is fixed: patience exceeds the epoch count, so nothing stops on a quality
target. A round repeats each phase a fixed number of times; rounds repeat
until the run's seconds are spent. One untimed warm-up round comes first, and
gc.collect() runs before every timed pass. Metrics are medians over passes of
times at reference speed (see speed.py).
"""

import csv
import gc
import resource
import shutil
import statistics
import time
import wave
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import tracing
from speed import MarkPoints, SpeedClock
from pcq import dsp, ops, training
from pcq.data import get_taxonomy, load_manifest, synth_corpus
from pcq.network import PcqConfig, PcqNetwork, miniature_config
from pcq.optim import AdamW

CLASSES = ("angry", "sad", "happy", "neutral")   # iemocap4 order
PHASES = ("features", "load", "train", "predict", "cv")
CV_EPOCHS = 1   # epochs per fold of a timed run_cv pass
END_TO_END = (("setup_s", "s"), ("cv_s", "s"), ("train_segments_per_s", "segments/s"),
              ("predict_segments_per_s", "segments/s"), ("features_segments_per_s", "segments/s"),
              ("load_segments_per_s", "segments/s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    name: str
    full_scale: bool            # default 300x200 config, else the miniature one
    durations_s: tuple          # clip lengths of the generated corpus; () = acceptance corpus
    repeats: dict               # timed passes of each phase per round
    train_clips: int            # the train phase uses the first N clips' segments
    cv_clips: int               # run_cv sees the first N clips
    cv_folds: tuple
    warmup_cv_epochs: int       # epochs of the warm-up run_cv pass
    wa_floor: float | None      # mean validation WA the warm-up run_cv must reach


WORKLOADS = {w.name: w for w in (
    # 40 clips x 2 segments, miniature: ~20 ms of small op calls per segment,
    # so per-call overhead and the optimizer dominate; two folds, so fold-level
    # parallelism can show
    Workload("smoke-cv", False, (), dict(features=3, load=4, train=1, predict=2, cv=1),
             train_clips=40, cv_clips=40, cv_folds=(0, 1), warmup_cv_epochs=4, wa_floor=0.5),
    # 4 one-segment clips at 300x200: convolution arithmetic dominates
    Workload("full-scale", True, (2.8, 2.9, 2.7, 2.95), dict(features=12, load=48, train=2, predict=3, cv=2),
             train_clips=4, cv_clips=4, cv_folds=(0,), warmup_cv_epochs=1, wa_floor=None),
    # 16 clips of 9-16.5 s (76 segments), miniature: frontend and forward path;
    # training and CV touch only a few clips
    Workload("long-clips", False, tuple(9.0 + 2.0 * (i % 4) + 0.1 * i for i in range(16)),
             dict(features=3, load=6, train=4, predict=2, cv=3),
             train_clips=2, cv_clips=4, cv_folds=(0,), warmup_cv_epochs=1, wa_floor=None),
)}


def write_corpus(out_dir: Path, seed: int, durations_s) -> Path:
    """Seeded PCM16 clips, one frequency band per label, with a manifest of absolute paths.

    Class k holds three tones in 320+500k .. 630+500k Hz over white noise,
    amplitude-modulated at 2(k+1) Hz. Clip i has label i mod 4 and fold i mod 2.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for i, dur in enumerate(durations_s):
        k = i % len(CLASSES)
        n = int(round(dur * checks.SAMPLE_RATE))
        t = np.arange(n) / checks.SAMPLE_RATE
        lo = 300.0 + 500.0 * k
        x = 0.05 * rng.normal(size=n)
        for f in rng.uniform(lo + 20.0, lo + 330.0, size=3):
            x += 0.3 * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
        x *= 1.0 + 0.8 * np.sin(2.0 * np.pi * 2.0 * (k + 1) * t)
        pcm = np.round(0.9 * x / np.abs(x).max() * 32767.0).astype("<i2")
        path = out_dir / f"{CLASSES[k]}_{i:03d}.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(checks.SAMPLE_RATE)
            fh.writeframes(pcm.tobytes())
        rows.append([path.stem, str(path), CLASSES[k], f"s{i % 5}", i % 2])
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "path", "label", "speaker", "fold"])
        writer.writerows(rows)
    return manifest


def make_corpus(w: Workload, out_dir: Path, seed: int) -> Path:
    if not w.durations_s:
        # the acceptance smoke test's corpus: 10 clips of 3-6 s per class
        return synth_corpus(out_dir, get_taxonomy("iemocap4"), n_per_class=10, seed=seed)
    return write_corpus(out_dir, seed, w.durations_s)


def read_manifest(path: Path):
    """(clip_id, absolute WAV path, class index, fold) per row, read without pcq."""
    with open(path, newline="") as fh:
        return [(r["clip_id"], (path.parent / r["path"]).resolve(), CLASSES.index(r["label"]), int(r["fold"]))
                for r in csv.DictReader(fh)]


class Run:
    """One workload's inputs, models and counters inside a work directory."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.taxonomy = get_taxonomy("iemocap4")
        self.manifest = make_corpus(w, work / "corpus", seed)
        self.rows = load_manifest(self.manifest, self.taxonomy)
        self.feature_dir = work / "features"
        self.model_cfg = PcqConfig(seed=seed) if w.full_scale else miniature_config(seed=seed)
        self.train_cfg = training.TrainConfig(batch_size=16, lr=1e-5 if w.full_scale else 1e-3,
                                              max_epochs=CV_EPOCHS, patience=w.warmup_cv_epochs + 1, seed=seed)
        self.model = PcqNetwork(self.model_cfg)
        self.optimizer = AdamW(self.model, lr=self.train_cfg.lr, betas=self.train_cfg.betas,
                               eps=self.train_cfg.eps, weight_decay=self.train_cfg.weight_decay)
        self.rng = np.random.default_rng(seed + 1)
        self.clips = None
        self.clock = SpeedClock()
        self.counts = dict(clips_featurized=0, segments_loaded=0, training_steps=0,
                           segments_predicted=0, folds_completed=0)
        self.losses, self.cv_reports, self.feature_reports, self.confusions = [], [], [], []

    # -- phases: each returns the number of segments it processed ------------

    def features(self) -> int:
        report = dsp.batch_features(self.rows, self.feature_dir)
        self.feature_reports.append(report)
        self.counts["clips_featurized"] += len(self.rows)
        return report.written

    def load(self) -> int:
        self.clips = training.build_dataset(self.rows, self.feature_dir, self.taxonomy,
                                            input_hw=self.model_cfg.input_hw)
        n = sum(len(c.segments) for c in self.clips)
        self.counts["segments_loaded"] += n
        return n

    def train(self) -> int:
        samples = [s for c in self.clips[:self.w.train_clips] for s in c.segments]
        self.losses.append(training.train_epoch(self.model, self.optimizer, samples,
                                                self.train_cfg.batch_size, self.rng))
        self.counts["training_steps"] += -(-len(samples) // self.train_cfg.batch_size)
        return len(samples)

    def predict(self) -> int:
        self.confusions.append(training.evaluate_clips(self.model, self.clips))
        n = sum(len(c.segments) for c in self.clips)
        self.counts["segments_predicted"] += n
        return n

    def cv(self, epochs: int) -> int:
        summary = training.run_cv(self.clips[:self.w.cv_clips], self.model_cfg,
                                  replace(self.train_cfg, max_epochs=epochs), folds=self.w.cv_folds)
        self.cv_reports.append((epochs, summary.to_dict()))
        self.counts["folds_completed"] += len(self.w.cv_folds)
        return 1

    def round(self, timings=None, warmup=False):
        """One pass of every phase, each repeated per the workload.

        Appends (wall seconds, segments, seconds at reference speed) per pass.
        """
        for phase in PHASES:
            for _ in range(1 if warmup else self.w.repeats[phase]):
                gc.collect()
                self.clock.start()
                if phase == "cv":
                    n = self.cv(self.w.warmup_cv_epochs if warmup else CV_EPOCHS)
                else:
                    n = getattr(self, phase)()
                wall, reference = self.clock.stop()
                if timings is not None:
                    timings[phase].append((wall, n, reference))

    # -- output checks ---------------------------------------------------------

    def verify(self):
        """Raise checks.CheckFailed on the first output that disagrees with its reference."""
        table = read_manifest(self.manifest)
        n_segments = checks.expected_segments(checks.wav_frame_count(path) for _, path, _, _ in table)
        for report in self.feature_reports:
            checks.check_count(report.written, n_segments, "segments featurized")
            checks.check_count(len(report.errors), 0, "feature errors")
        checks.check_count(sum(len(c.segments) for c in self.clips), n_segments, "segments loaded")
        self._verify_features(table)
        self._verify_predictions(table)
        self._verify_cv(table)
        checks.check_finite(self.losses, "training losses")
        self._verify_gradients()

    def _verify_features(self, table):
        rng = np.random.default_rng(len(table))
        for cid, path, _, _ in [table[i] for i in rng.choice(len(table), size=3, replace=False)]:
            samples = checks.read_wav_samples(path)
            index = int(rng.integers(0, checks.expected_segments([samples.size])))
            raw = np.fromfile(self.feature_dir / f"{cid}__{index}.f32", dtype="<f4")
            cached = raw.reshape(checks.N_FRAMES, checks.N_BINS)
            ref = checks.dft_spectrogram(checks.segment_samples(samples, index))
            checks.check_spectrogram(cached, ref, f"cache {cid}__{index}")
            seg = dsp.Segment(samples=checks.segment_samples(samples, index).astype(np.float32),
                              parent_id=cid, index=index)
            checks.check_equal(cached, dsp.spectrogram(seg).values.astype("<f4"),
                               f"cache {cid}__{index} read back")
            if self.w.full_scale:
                loaded = next(c for c in self.clips if c.clip_id == cid).segments[index].features
                checks.check_equal(loaded[0], cached.astype(loaded.dtype), f"loaded {cid}__{index}")
        for k in (7, 64, 151):
            values = dsp.spectrogram(dsp.Segment(samples=checks.tone(k), parent_id="tone", index=0)).values
            checks.check_tone_peak(values, k)
            checks.check_spectrogram(values, checks.dft_spectrogram(checks.tone(k).astype(np.float64)),
                                     f"tone {k}")

    def _verify_predictions(self, table):
        labels = {cid: label for cid, _, label, _ in table}
        made = []
        real_make_node = ops.make_node

        def recording(data, parents, backward):
            node = real_make_node(data, parents, backward)
            made.append(node._backward is not None)
            return node

        ops.make_node = recording
        try:
            probs = [[self.model.predict(s.features, s.segment).probs for s in c.segments] for c in self.clips]
        finally:
            ops.make_node = real_make_node
        if not made or any(made):
            raise checks.CheckFailed(f"prediction recorded {sum(made)} backward nodes of {len(made)}")
        for clip, clip_probs in zip(self.clips, probs):
            for p in clip_probs:
                checks.check_probabilities(p, clip.clip_id)
        true = [labels[c.clip_id] for c in self.clips]
        expected = checks.confusion(true, [checks.clip_label(p) for p in probs], len(CLASSES))
        checks.check_confusion(self.confusions[-1], expected, "evaluate_clips")

    def _verify_cv(self, table):
        cv_table = table[:self.w.cv_clips]
        for epochs, summary in self.cv_reports:
            for fold in summary["folds"]:
                counts = np.bincount([label for _, _, label, f in cv_table if f == fold["fold_id"]],
                                     minlength=len(CLASSES))
                checks.check_fold(fold, counts, epochs)
        if self.w.wa_floor is not None:
            epochs, summary = self.cv_reports[0]   # the warm-up pass
            checks.check_floor(float(np.mean([f["wa"] for f in summary["folds"]])), self.w.wa_floor,
                               f"mean validation WA after {epochs} epochs")

    def _verify_gradients(self):
        checks.check_gradients(*gradient_coordinates(self.model_cfg, self.clips[0].segments[0]))


GRADIENT_PARAMS = ("mlcnn.layers.0.trans.weight", "encoder.convs.0.weight", "csq.0.merge.weight",
                   "fc1.weight", "fc2.bias")


def gradient_coordinates(model_cfg: PcqConfig, sample, h: float = 1e-7):
    """(names, analytic, central-difference) gradients of one segment's loss in float64.

    A fresh model in eval mode, so dropout is off. From each parameter in
    GRADIENT_PARAMS, eight seeded coordinates are drawn and the one with the
    largest analytic gradient is kept, so that a scaled gradient shows. The
    step is small because a first-layer weight at 300x200 moves ~10^6
    activations, some of which cross a ReLU or max-pool kink: at h = 1e-6 that
    put one full-scale seed 1.5e-4 off; at 1e-7 the worst seen was 1.8e-5,
    with rounding error near 1e-7.
    """
    model = PcqNetwork(model_cfg).astype(np.float64).eval()

    def loss():
        return ops.softmax_cross_entropy(model(sample.features, sample.segment), sample.label_index)

    model.zero_grad()
    loss().backward()
    params = dict(model.named_parameters())
    rng = np.random.default_rng(17)
    names, analytic, numeric = [], [], []
    for name in GRADIENT_PARAMS:
        p = params[name]
        candidates = rng.choice(p.size, size=min(8, p.size), replace=False)
        i = int(candidates[np.argmax(np.abs(p.grad.flat[candidates]))])
        saved = p.data.flat[i]
        p.data.flat[i] = saved + h
        up = float(loss().data)
        p.data.flat[i] = saved - h
        down = float(loss().data)
        p.data.flat[i] = saved
        names.append(f"{name}[{i}]")
        analytic.append(float(p.grad.flat[i]))
        numeric.append((up - down) / (2.0 * h))
    return names, analytic, numeric


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # ru_maxrss is in KiB on Linux


def run(name: str, seed: int, seconds: float, trace: bool, work_root: Path, setup_clock):
    """Run one workload.

    Returns (details, result): details holds the operation counts and every
    timed pass as (wall seconds, segments, seconds at reference speed);
    result is the object run.py prints last.
    """
    w = WORKLOADS[name]
    work = work_root / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        state = Run(w, seed, work)
        setup_s = setup_clock()
        state.round(warmup=True)
        timings = {p: [] for p in PHASES}
        if trace:
            metrics = _traced_rounds(state, seconds, work_root / f"trace-{name}-s{seed}.json", seed)
        else:
            marks = MarkPoints(state.clock)
            marks.install()
            try:
                start = time.perf_counter()
                while time.perf_counter() - start < seconds:
                    state.round(timings)
            finally:
                marks.uninstall()
            rates = {p: statistics.median(n / ref for _, n, ref in timings[p]) for p in PHASES}
            values = {
                "setup_s": setup_s,
                "cv_s": statistics.median(ref for *_, ref in timings["cv"]),
                "train_segments_per_s": rates["train"],
                "predict_segments_per_s": rates["predict"],
                "features_segments_per_s": rates["features"],
                "load_segments_per_s": rates["load"],
                "peak_rss_mb": _peak_rss_mb(),
            }
            metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}
        try:
            state.verify()
            correct = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", flush=True)
            correct = False
        details = {"counts": state.counts, "passes": timings}
        result = {"correct": correct, "attempted": sum(state.counts.values()), "failed": 0, "metrics": metrics}
        return details, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced_rounds(state: Run, seconds: float, trace_path: Path, seed: int) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics come from the traced ones.

    The overhead ratio compares the rounds' summed pass times at reference speed.
    """
    tracer = tracing.Tracer()
    rounds = {False: [], True: []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not rounds[True]:
        for traced in (False, True):
            timings = {p: [] for p in PHASES}
            if traced:
                tracer.install()
            try:
                state.round(timings)
            finally:
                tracer.uninstall()
            rounds[traced].append(sum(ref for passes in timings.values() for *_, ref in passes))
    overhead = statistics.median(rounds[True]) / statistics.median(rounds[False])
    tracer.write(trace_path, {"workload": state.w.name, "seed": seed,
                              "round_reference_s": {"untraced": rounds[False], "traced": rounds[True]}})
    return tracer.metrics(overhead)
