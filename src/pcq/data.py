"""Dataset plumbing: label taxonomies, CSV manifests, WAV I/O, synthetic corpus.

Manifest schema: CSV with header ``clip_id,path,label,speaker,fold`` where fold
is an integer 0 to MAX_FOLDS - 1 and path is resolved relative to the
manifest's directory.
"""

import csv
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import SAMPLE_RATE, AudioClip
from .errors import ConfigError, DataError, InvalidInput

MANIFEST_HEADER = ["clip_id", "path", "label", "speaker", "fold"]
MAX_FOLDS = 10  # fold ids run 0 .. MAX_FOLDS - 1


@dataclass(frozen=True)
class Taxonomy:
    """Class-name list plus label merges applied when a manifest is loaded."""

    name: str
    classes: tuple
    merges: dict

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def canonical(self, label: str) -> str:
        label = label.strip().lower()
        label = self.merges.get(label, label)
        if label not in self.classes:
            raise DataError(f"label '{label}' not in taxonomy '{self.name}' {list(self.classes)}")
        return label

    def index(self, label: str) -> int:
        return self.classes.index(self.canonical(label))


TAXONOMIES = {
    "iemocap4": Taxonomy("iemocap4", ("angry", "sad", "happy", "neutral"),
                         {"excited": "happy", "anger": "angry", "sadness": "sad",
                          "happiness": "happy", "neutrality": "neutral"}),
    "emodb7": Taxonomy("emodb7", ("anger", "disgust", "fear", "happiness", "sadness",
                                  "surprise", "neutral"), {"neutrality": "neutral"}),
}


def get_taxonomy(name: str) -> Taxonomy:
    try:
        return TAXONOMIES[name]
    except KeyError:
        raise ConfigError(f"unknown taxonomy '{name}'; available: {sorted(TAXONOMIES)}") from None


@dataclass
class ManifestRow:
    clip_id: str
    path: Path
    label: str
    speaker: str
    fold: int


def load_manifest(path, taxonomy: Taxonomy | None = None) -> list[ManifestRow]:
    """Read and validate a manifest CSV; labels are canonicalized if a taxonomy is given."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise DataError(f"manifest header must be {','.join(MANIFEST_HEADER)}, got {header}")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(rec)}")
            clip_id, rel, label, speaker, fold = rec
            try:
                fold_i = int(fold)
            except ValueError:
                raise DataError(f"{path}:{lineno}: fold '{fold}' is not an integer") from None
            if not 0 <= fold_i < MAX_FOLDS:
                raise DataError(f"{path}:{lineno}: fold {fold_i} outside 0-{MAX_FOLDS - 1}")
            if taxonomy is not None:
                label = taxonomy.canonical(label)
            rows.append(ManifestRow(clip_id=clip_id, path=(path.parent / rel),
                                    label=label, speaker=speaker, fold=fold_i))
    ids = [r.clip_id for r in rows]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate clip_id values in {path}")
    return rows


def save_manifest(path, rows):
    """Write rows as a manifest; paths are stored relative to its directory when inside it."""
    path = Path(path)
    base = path.parent.resolve()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in rows:
            clip = Path(r.path).resolve()
            try:
                clip = clip.relative_to(base)
            except ValueError:
                pass   # outside the manifest's directory: keep the absolute path
            writer.writerow([r.clip_id, str(clip), r.label, r.speaker, r.fold])
    return path


def read_wav(path, source_id: str | None = None) -> AudioClip:
    """Load a mono 16 kHz WAV (PCM16 or float32) into an AudioClip."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"audio file not found: {path}")
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:   # struct.error: a file cut inside its header
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    if data.ndim != 1:
        raise InvalidInput(f"{path}: expected mono audio, got shape {data.shape}")
    if data.dtype == np.int16:
        samples = data.astype(np.float32) / 32768.0
    elif data.dtype == np.float32:
        samples = data
    else:
        raise InvalidInput(f"{path}: unsupported sample format {data.dtype}; use PCM16 or float32")
    return AudioClip(samples=samples, sample_rate_hz=int(rate),
                     source_id=source_id or path.stem).validate()


def write_wav(path, samples: np.ndarray, rate: int = SAMPLE_RATE):
    pcm = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    wavfile.write(path, rate, np.round(pcm * 32767.0).astype(np.int16))


def _check_fold_count(folds: int):
    if not 1 <= folds <= MAX_FOLDS:
        raise ConfigError(f"fold count must be in 1-{MAX_FOLDS}, got {folds}")


def assign_folds(rows, by: str = "random", folds: int = 10, seed: int = 0) -> list[ManifestRow]:
    """Reassign the fold column: 'random' balances rows, 'speaker' keeps speakers intact."""
    _check_fold_count(folds)
    if by == "random":
        order = np.random.default_rng(seed).permutation(len(rows))
        return [replace(rows[int(i)], fold=int(pos % folds)) for pos, i in enumerate(order)]
    if by == "speaker":
        speakers = sorted({r.speaker for r in rows})
        order = np.random.default_rng(seed).permutation(len(speakers))
        fold_of = {speakers[int(i)]: int(pos % folds) for pos, i in enumerate(order)}
        return [replace(r, fold=fold_of[r.speaker]) for r in rows]
    raise ConfigError(f"fold assignment must be 'random' or 'speaker', got '{by}'")


# ---------------------------------------------------------------------------
# synthetic corpus

_BAND_BASE_HZ = 300.0
_BAND_STEP_HZ = 500.0
_BAND_WIDTH_HZ = 350.0


def class_band(class_index: int) -> tuple[float, float]:
    """Disjoint frequency band for one class, kept under the 4 kHz feature ceiling."""
    lo = _BAND_BASE_HZ + class_index * _BAND_STEP_HZ
    return lo, lo + _BAND_WIDTH_HZ


def _band_noise(rng, n: int, lo: float, hi: float) -> np.ndarray:
    spec = np.fft.rfft(rng.normal(size=n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    x = np.fft.irfft(spec, n=n)
    peak = np.abs(x).max()
    return x / peak if peak > 0 else x


def synth_corpus(out_dir, taxonomy: Taxonomy, n_per_class: int, seed: int = 0,
                 folds: int = 10) -> Path:
    """Generate a separable corpus: per class, tones + band noise in a private band.

    Clips are 3-6 s PCM16 WAVs; folds are assigned round-robin within each
    class so every fold sees every class. Returns the manifest path.
    """
    _check_fold_count(folds)
    if n_per_class < folds:
        raise ConfigError(f"need n_per_class >= folds ({folds}), got {n_per_class}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for k, cls in enumerate(taxonomy.classes):
        lo, hi = class_band(k)
        am_rate = 2.0 * (k + 1)  # class-specific amplitude-modulation rate, Hz
        for i in range(n_per_class):
            dur = float(rng.uniform(3.0, 6.0))
            n = int(round(dur * SAMPLE_RATE))
            t = np.arange(n) / SAMPLE_RATE
            x = 0.35 * _band_noise(rng, n, lo, hi)
            for _ in range(3):
                f = float(rng.uniform(lo + 20.0, hi - 20.0))
                x = x + 0.18 * np.sin(2.0 * np.pi * f * t + float(rng.uniform(0, 2 * np.pi)))
            x = x * (1.0 + 0.8 * np.sin(2.0 * np.pi * am_rate * t)) / 1.8
            x = x + 0.01 * rng.normal(size=n)
            x = 0.9 * x / np.abs(x).max()
            clip_id = f"{cls}_{i:03d}"
            write_wav(out_dir / f"{clip_id}.wav", x)
            rows.append(ManifestRow(clip_id=clip_id, path=out_dir / f"{clip_id}.wav",
                                    label=cls, speaker=f"s{i % 5}", fold=i % folds))
    return save_manifest(out_dir / "manifest.csv", rows)
