"""Training loop, early stopping, k-fold cross-validation, feature export.

Training operates on segments (labels inherited from their clip); evaluation
aggregates segment softmax scores per clip before scoring. A mini-batch runs as
chunks of segments, each chunk one batched forward and backward pass, as many
segments per chunk as fit CHUNK_BYTES. Each fold trains a
freshly seeded model on all other folds and early-stops on the held-out fold's
weighted accuracy.
"""

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dsp, ops
from .data import ManifestRow, Taxonomy, read_wav
from .errors import ConfigError, DataError, NumericalError
from .metrics import compute_wa_ua, confusion_matrix
from .network import PcqConfig, PcqNetwork, clip_prediction, segment_graph_bytes
from .optim import AdamW
from .tensor import Tensor


# activation memory one training chunk's graph may hold: about six segments
# at miniature scale, one at full scale (see network.segment_graph_bytes)
CHUNK_BYTES = 10 * 1024 * 1024


def chunk_size(config: PcqConfig) -> int:
    """Segments per forward/backward chunk: as many as fit CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // segment_graph_bytes(config))


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-5
    weight_decay: float = 0.01
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    patience: int = 20
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(self.betas))
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown train config keys: {sorted(extra)}")
        return cls(**d)


@dataclass
class SegmentSample:
    segment: dsp.Segment
    features: np.ndarray  # model input map [1, H, W]
    label_index: int


@dataclass
class ClipData:
    clip_id: str
    label_index: int
    fold: int
    segments: list


def _input_map(values: np.ndarray, input_hw) -> np.ndarray:
    """Cached 300x200 spectrogram -> model input, pooled down for small configs."""
    if tuple(input_hw) == values.shape:
        return values[None, :, :]
    pooled = ops.adaptive_avg_pool(Tensor(values[None, :, :]), input_hw[0], input_hw[1])
    return pooled.data


def build_dataset(rows, features_dir, taxonomy: Taxonomy, input_hw=(300, 200)) -> list:
    """Load cached spectrograms plus raw segments for every clip in the manifest.

    Missing cache entries are computed on the fly (and not written back) with
    the transform the cache's index.json records; a malformed index raises
    DataError.
    """
    features_dir = Path(features_dir) if features_dir is not None else None
    log1p = dsp.cache_log1p(features_dir) if features_dir is not None else False
    clips = []
    for row in rows:
        clip = read_wav(row.path, source_id=row.clip_id)
        label_index = taxonomy.index(row.label)
        samples = []
        for seg in dsp.segment_clip(clip):
            fpath = features_dir / f"{dsp.feature_key(row.clip_id, seg.index)}.f32" if features_dir else None
            if fpath is not None and fpath.exists():
                values = dsp.read_feature(fpath)
            else:
                values = dsp.segment_features(seg, log1p)
            samples.append(SegmentSample(segment=seg, features=_input_map(values, input_hw),
                                         label_index=label_index))
        clips.append(ClipData(clip_id=row.clip_id, label_index=label_index,
                              fold=row.fold, segments=samples))
    return clips


class EarlyStopper:
    """Stop after `patience` epochs without a strictly better metric."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = -1
        self.stale = 0

    def update(self, value: float, epoch: int) -> bool:
        if value > self.best:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience


@dataclass
class FoldReport:
    fold_id: int
    confusion: list
    wa: float
    ua: float
    best_epoch: int
    stop_reason: str
    epochs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_clips(model: PcqNetwork, clips) -> np.ndarray:
    """Clip-level confusion matrix from averaged segment softmax scores."""
    true, pred = [], []
    for clip in clips:
        probs = [model.predict(s.features, s.segment).probs for s in clip.segments]
        label, _ = clip_prediction(probs)
        true.append(clip.label_index)
        pred.append(label)
    return confusion_matrix(true, pred, model.config.resolved_num_classes)


def train_epoch(model: PcqNetwork, optimizer: AdamW, samples, batch_size: int,
                rng: np.random.Generator) -> float:
    """One pass over the training segments in shuffled mini-batches; mean loss.

    Each sample's loss is scaled by 1 / len(batch) and the optimizer steps once
    per batch. A batch runs as the fewest equal chunks of at most
    chunk_size(model.config) segments, in order, so dropout draws its masks in
    sample order.
    """
    model.train()
    order = rng.permutation(len(samples))
    limit = chunk_size(model.config)
    total = 0.0
    for start in range(0, len(order), batch_size):
        batch = [samples[int(i)] for i in order[start:start + batch_size]]
        chunks = -(-len(batch) // limit)   # the fewest chunks of at most `limit` segments
        step = -(-len(batch) // chunks)
        optimizer.zero_grad()
        for c0 in range(0, len(batch), step):
            chunk = batch[c0:c0 + step]
            logits = model(np.stack([s.features for s in chunk]), [s.segment for s in chunk])
            loss = ops.scale(ops.softmax_cross_entropy(logits, [s.label_index for s in chunk]),
                             1.0 / len(batch))
            loss.backward()
            total += float(loss.data)
        if not np.isfinite(total):
            raise NumericalError("non-finite training loss")
        optimizer.step()
    return total / max(1, -(-len(order) // batch_size))


def run_fold(fold_id: int, clips, model_cfg: PcqConfig, train_cfg: TrainConfig):
    """Train on all folds except fold_id, early-stop on it; returns (report, model)."""
    train_clips = [c for c in clips if c.fold != fold_id]
    val_clips = [c for c in clips if c.fold == fold_id]
    if not train_clips or not val_clips:
        raise ConfigError(f"fold {fold_id} leaves an empty train or validation set")
    samples = [s for c in train_clips for s in c.segments]

    model = PcqNetwork(replace(model_cfg, seed=model_cfg.seed + 1000 * fold_id))
    optimizer = AdamW(model, lr=train_cfg.lr, betas=train_cfg.betas, eps=train_cfg.eps,
                      weight_decay=train_cfg.weight_decay)
    rng = np.random.default_rng(train_cfg.seed + 101 * fold_id + 1)
    stopper = EarlyStopper(train_cfg.patience)
    best_state = model.state_dict()
    best_confusion = evaluate_clips(model, val_clips)
    trace = []
    stop_reason = "max_epochs"
    for epoch in range(train_cfg.max_epochs):
        mean_loss = train_epoch(model, optimizer, samples, train_cfg.batch_size, rng)
        confusion = evaluate_clips(model, val_clips)
        wa, _ = compute_wa_ua(confusion)
        trace.append({"epoch": epoch, "train_loss": round(mean_loss, 8), "val_wa": round(wa, 8)})
        if stopper.update(wa, epoch):
            best_state = model.state_dict()
            best_confusion = confusion
        if stopper.should_stop:
            stop_reason = "early_stop"
            break
    model.load_state_dict(best_state)
    wa, ua = compute_wa_ua(best_confusion)
    report = FoldReport(fold_id=fold_id, confusion=best_confusion.tolist(),
                        wa=wa, ua=ua, best_epoch=stopper.best_epoch,
                        stop_reason=stop_reason, epochs=trace)
    return report, model


@dataclass
class CvSummary:
    fold_reports: list
    mean_wa: float
    std_wa: float
    mean_ua: float
    std_ua: float
    pooled_confusion: list

    def to_dict(self) -> dict:
        return {
            "folds": [r.to_dict() for r in self.fold_reports],
            "mean_wa": self.mean_wa, "std_wa": self.std_wa,
            "mean_ua": self.mean_ua, "std_ua": self.std_ua,
            "pooled_confusion": self.pooled_confusion,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_cv(clips, model_cfg: PcqConfig, train_cfg: TrainConfig, folds=None) -> CvSummary:
    """Cross-validate over every fold present (default: all of 0..folds-1)."""
    fold_ids = sorted({c.fold for c in clips}) if folds is None else list(folds)
    if not fold_ids:
        raise DataError("no folds present in the dataset")
    reports = []
    for fold_id in fold_ids:
        report, _ = run_fold(fold_id, clips, model_cfg, train_cfg)
        reports.append(report)
    was = np.array([r.wa for r in reports])
    uas = np.array([r.ua for r in reports])
    pooled = np.sum([np.asarray(r.confusion) for r in reports], axis=0)
    return CvSummary(fold_reports=reports,
                     mean_wa=round(float(was.mean()), 8), std_wa=round(float(was.std()), 8),
                     mean_ua=round(float(uas.mean()), 8), std_ua=round(float(uas.std()), 8),
                     pooled_confusion=pooled.tolist())


def summary_table(summary: CvSummary, class_names) -> str:
    from .metrics import format_confusion
    lines = ["fold   wa       ua       best_epoch  stop"]
    for r in summary.fold_reports:
        lines.append(f"{r.fold_id:>4}   {r.wa:.4f}   {r.ua:.4f}   {r.best_epoch:>10}  {r.stop_reason}")
    lines.append(f"mean   {summary.mean_wa:.4f}   {summary.mean_ua:.4f}")
    lines.append(f"std    {summary.std_wa:.4f}   {summary.std_ua:.4f}")
    lines.append("")
    lines.append("pooled confusion (rows = true):")
    lines.append(format_confusion(summary.pooled_confusion, class_names))
    return "\n".join(lines)


def export_fusion_features(model: PcqNetwork, clips, out_path) -> int:
    """Per clip: label + segment-averaged fusion vector, as CSV. Returns row count."""
    model.eval()
    out_path = Path(out_path)
    rows = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "label_index"] + [f"f{i}" for i in range(model.fusion_dim)])
        for clip in clips:
            from .tensor import no_grad
            with no_grad():
                vecs = [model.fusion_vector(s.features, s.segment).data for s in clip.segments]
            mean = np.mean(vecs, axis=0)
            writer.writerow([clip.clip_id, clip.label_index] + [f"{v:.7g}" for v in mean])
            rows += 1
    return rows
