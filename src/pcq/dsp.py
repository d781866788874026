"""Audio frontend: 16 kHz mono clips -> 3 s segments -> 300x200 magnitude spectrograms.

Framing: 40 ms Hamming windows every 10 ms, each window zero-padded to an
800-point DFT; magnitudes of the first 200 bins are kept (20 Hz per bin up to
4 kHz). A 3 s segment yields exactly 300 frames; windows that overrun the
segment tail read zeros.

Feature cache: one raw little-endian float32 [300, 200] file per segment,
named by ``feature_path`` (``<clip_id>__<segment_index>.f32``), plus an
``index.json`` that lists the entries and records the transform (raw
magnitudes or their log1p).
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidInput, PcqError

SAMPLE_RATE = 16_000
SEGMENT_SECONDS = 3
SEGMENT_SAMPLES = SEGMENT_SECONDS * SAMPLE_RATE  # 48000
FRAME_LEN = 640   # 40 ms
HOP = 160         # 10 ms
DFT_SIZE = 800
N_FRAMES = 300
N_BINS = 200

# 0.54 - 0.46*cos(2*pi*n/(N-1)), n = 0..639
_WINDOW = (0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / (FRAME_LEN - 1))).astype(np.float64)


@dataclass
class AudioClip:
    """Mono PCM audio at exactly 16 kHz."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str

    def validate(self):
        if self.samples.size == 0:
            raise InvalidInput(f"clip '{self.source_id}' is empty")
        if self.sample_rate_hz != SAMPLE_RATE:
            raise InvalidInput(
                f"clip '{self.source_id}' is {self.sample_rate_hz} Hz; only {SAMPLE_RATE} Hz input is supported "
                "(resample offline)")
        return self


@dataclass
class Segment:
    """Exactly 3 s of audio; the tail of a clip's final segment is zero-padded."""

    samples: np.ndarray
    parent_id: str
    index: int


@dataclass
class Spectrogram:
    """300 frames x 200 magnitude bins."""

    values: np.ndarray


def segment_clip(clip: AudioClip) -> list[Segment]:
    """Split a clip into 3 s segments; the last one is zero-padded to full length."""
    clip.validate()
    x = np.asarray(clip.samples, dtype=np.float32)
    n_segments = -(-x.size // SEGMENT_SAMPLES)  # ceil
    segments = []
    for i in range(n_segments):
        chunk = x[i * SEGMENT_SAMPLES:(i + 1) * SEGMENT_SAMPLES]
        if chunk.size < SEGMENT_SAMPLES:
            chunk = np.concatenate([chunk, np.zeros(SEGMENT_SAMPLES - chunk.size, dtype=np.float32)])
        segments.append(Segment(samples=chunk, parent_id=clip.source_id, index=i))
    return segments


def _frames(seg_samples: np.ndarray) -> np.ndarray:
    """Window the segment into 300 Hamming frames of 640 samples (tail zero-padded)."""
    tail = (N_FRAMES - 1) * HOP + FRAME_LEN - SEGMENT_SAMPLES
    padded = np.concatenate([seg_samples.astype(np.float64), np.zeros(tail)])
    idx = np.arange(N_FRAMES)[:, None] * HOP + np.arange(FRAME_LEN)[None, :]
    return padded[idx] * _WINDOW[None, :]


def spectrogram(seg: Segment) -> Spectrogram:
    """Magnitude spectrogram of one segment, shape (300, 200)."""
    if seg.samples.shape != (SEGMENT_SAMPLES,):
        raise InvalidInput(f"segment must hold exactly {SEGMENT_SAMPLES} samples, got {seg.samples.shape}")
    frames = _frames(seg.samples)
    spectrum = np.fft.rfft(frames, n=DFT_SIZE, axis=1)
    return Spectrogram(values=np.abs(spectrum[:, :N_BINS]).astype(np.float32))


def segment_features(seg: Segment, log1p: bool = False) -> np.ndarray:
    """The cached feature map of one segment: spectrogram magnitudes, or their log1p."""
    values = spectrogram(seg).values
    return np.log1p(values) if log1p else values


def feature_key(clip_id: str, segment_index: int) -> str:
    return f"{clip_id}__{segment_index}"


def feature_path(out_dir, clip_id: str, segment_index: int) -> Path:
    return Path(out_dir) / f"{feature_key(clip_id, segment_index)}.f32"


def write_feature(path, values: np.ndarray):
    Path(path).write_bytes(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_feature(path) -> np.ndarray:
    """One cached [300, 200] feature map; a file of any other size raises InvalidInput."""
    raw = Path(path).read_bytes()
    expected = N_FRAMES * N_BINS * 4
    if len(raw) != expected:
        raise InvalidInput(f"feature file {path} holds {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f4").reshape(N_FRAMES, N_BINS).copy()


@dataclass
class FeatureReport:
    written: int = 0
    errors: list = field(default_factory=list)


def batch_features(rows, out_dir, log1p: bool = False) -> FeatureReport:
    """Compute and cache one spectrogram file per segment for every manifest row.

    Unreadable rows are recorded and skipped. Re-runs rewrite byte-identical
    files and index.
    """
    from .data import read_wav   # pcq.data imports this module
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = FeatureReport()
    entries = []
    for row in rows:
        try:
            clip = read_wav(row.path, source_id=row.clip_id)
            for seg in segment_clip(clip):
                path = feature_path(out_dir, row.clip_id, seg.index)
                write_feature(path, segment_features(seg, log1p))
                entries.append({
                    "key": feature_key(row.clip_id, seg.index),
                    "clip_id": row.clip_id,
                    "segment_index": seg.index,
                    "file": path.name,
                    "shape": [N_FRAMES, N_BINS],
                })
                report.written += 1
        except (PcqError, OSError) as exc:  # a bad row must not stop the batch; a bug must
            report.errors.append({"clip_id": row.clip_id, "error": str(exc)})
    entries.sort(key=lambda e: (e["clip_id"], e["segment_index"]))
    index = {"log1p": bool(log1p), "entries": entries}
    (out_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return report


def cache_log1p(out_dir) -> bool:
    """The transform recorded in a cache's index.json: True for log1p, False for raw or no index.

    An index that is not a JSON object with a boolean "log1p" raises DataError.
    """
    path = Path(out_dir) / "index.json"
    if not path.exists():
        return False
    try:
        index = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise DataError(f"feature index {path} is not readable JSON") from exc
    log1p = index.get("log1p") if isinstance(index, dict) else None
    if not isinstance(log1p, bool):
        raise DataError(f"feature index {path} has no boolean 'log1p' entry")
    return log1p


def cache_digest(out_dir) -> str:
    """SHA-256 over the sorted cache contents; equal digests mean byte-identical caches."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.f32")) + [out_dir / "index.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
