"""Output checks computed apart from the program.

Every reference here is built with numpy alone: an explicit float64 DFT for
the spectrogram frontend, a WAV-header segment count, the WA/UA formulas, and
clip labels from averaged segment probabilities. Each checker raises
CheckFailed with a one-line reason; test_checks.py feeds them corrupted
outputs.
"""

import wave

import numpy as np

SAMPLE_RATE = 16_000
SEGMENT_SAMPLES = 48_000       # 3 s
FRAME_LEN = 640                # 40 ms
HOP = 160                      # 10 ms
DFT_SIZE = 800
N_FRAMES = 300
N_BINS = 200


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own reference."""


def read_wav_samples(path) -> np.ndarray:
    """PCM16 mono WAV -> float32 in [-1, 1), scaled by 1/32768."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2 or fh.getframerate() != SAMPLE_RATE:
            raise CheckFailed(f"{path}: expected 16 kHz mono PCM16")
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0


def wav_frame_count(path) -> int:
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes()


def segment_samples(samples: np.ndarray, index: int) -> np.ndarray:
    """The index-th 3 s segment of a clip, zero-padded at the tail."""
    seg = np.zeros(SEGMENT_SAMPLES, dtype=np.float64)
    chunk = samples[index * SEGMENT_SAMPLES:(index + 1) * SEGMENT_SAMPLES]
    seg[:chunk.size] = chunk
    return seg


def dft_spectrogram(segment: np.ndarray) -> np.ndarray:
    """300x200 magnitudes by an explicit DFT: 40 ms Hamming frames, 10 ms hop, 800 points."""
    n = np.arange(FRAME_LEN)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (FRAME_LEN - 1))
    padded = np.zeros((N_FRAMES - 1) * HOP + FRAME_LEN)
    padded[:SEGMENT_SAMPLES] = segment
    frames = np.stack([padded[t * HOP:t * HOP + FRAME_LEN] for t in range(N_FRAMES)]) * window
    # only the first FRAME_LEN of the DFT_SIZE inputs are non-zero
    basis = np.exp(-2j * np.pi * np.outer(n, np.arange(N_BINS)) / DFT_SIZE)
    return np.abs(frames @ basis)


def check_spectrogram(values: np.ndarray, reference: np.ndarray, what: str):
    """float32 magnitudes against the float64 reference, relative to its peak."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != reference.shape:
        raise CheckFailed(f"{what}: shape {values.shape}, expected {reference.shape}")
    err = np.max(np.abs(values - reference))
    if not err <= 1e-5 * max(np.max(reference), 1e-12):
        raise CheckFailed(f"{what}: spectrogram differs from the explicit DFT by {err:.3g}")


def tone(bin_index: int) -> np.ndarray:
    """A 3 s sine at bin_index * 20 Hz, the centre frequency of that DFT bin."""
    t = np.arange(SEGMENT_SAMPLES) / SAMPLE_RATE
    return (0.5 * np.sin(2.0 * np.pi * 20.0 * bin_index * t)).astype(np.float32)


def check_tone_peak(values: np.ndarray, bin_index: int):
    """Every frame lying wholly inside the segment peaks at the tone's bin."""
    full = (SEGMENT_SAMPLES - FRAME_LEN) // HOP + 1
    peaks = np.argmax(np.asarray(values)[:full], axis=1)
    wrong = np.flatnonzero(peaks != bin_index)
    if wrong.size:
        raise CheckFailed(f"tone at bin {bin_index}: frame {wrong[0]} peaks at bin {peaks[wrong[0]]}")


def check_equal(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b):
        raise CheckFailed(f"{what}: arrays differ")


def expected_segments(frame_counts) -> int:
    """Sum over clips of ceil(samples / 48000)."""
    return sum(-(-int(n) // SEGMENT_SAMPLES) for n in frame_counts)


def check_count(got: int, expected: int, what: str):
    if got != expected:
        raise CheckFailed(f"{what}: {got}, expected {expected}")


def check_probabilities(probs: np.ndarray, what: str):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or np.any(~np.isfinite(probs)) or np.any(probs < 0.0):
        raise CheckFailed(f"{what}: probabilities not a finite non-negative vector: {probs}")
    if abs(probs.sum() - 1.0) > 1e-5:
        raise CheckFailed(f"{what}: probabilities sum to {probs.sum():.8f}")


def clip_label(segment_probs) -> int:
    """argmax of the mean segment probabilities; ties go to the lower class."""
    return int(np.argmax(np.mean(np.asarray(segment_probs, dtype=np.float64), axis=0)))


def confusion(true_labels, pred_labels, num_classes: int) -> np.ndarray:
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        conf[t, p] += 1
    return conf


def check_confusion(got, expected: np.ndarray, what: str):
    got = np.asarray(got)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        raise CheckFailed(f"{what}: confusion {got.tolist()}, expected {expected.tolist()}")


def wa_ua(conf) -> tuple:
    """WA = correct / total; UA = mean recall over classes present in the rows."""
    conf = np.asarray(conf, dtype=np.float64)
    support = conf.sum(axis=1)
    present = support > 0
    return float(np.trace(conf) / conf.sum()), float(np.mean(np.diag(conf)[present] / support[present]))


def check_fold(fold: dict, class_counts: np.ndarray, epochs: int):
    """One fold report of run_cv: row sums, WA/UA, and the fixed epoch count."""
    name = f"fold {fold['fold_id']}"
    conf = np.asarray(fold["confusion"])
    if conf.shape != (len(class_counts),) * 2 or not np.array_equal(conf.sum(axis=1), class_counts):
        raise CheckFailed(f"{name}: confusion rows {conf.tolist()} do not sum to class counts "
                          f"{class_counts.tolist()}")
    wa, ua = wa_ua(conf)
    if not (np.isclose(wa, fold["wa"], rtol=1e-12, atol=0) and np.isclose(ua, fold["ua"], rtol=1e-12, atol=0)):
        raise CheckFailed(f"{name}: reported WA/UA {fold['wa']}/{fold['ua']}, confusion gives {wa}/{ua}")
    if len(fold["epochs"]) != epochs or fold["stop_reason"] != "max_epochs":
        raise CheckFailed(f"{name}: ran {len(fold['epochs'])} epochs ({fold['stop_reason']}), expected {epochs}")


def check_floor(value: float, floor: float, what: str):
    if not value >= floor:
        raise CheckFailed(f"{what}: {value} below the floor {floor}")


def check_finite(values, what: str):
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        raise CheckFailed(f"{what}: non-finite value in {list(values)}")


def check_gradients(names, analytic, numeric, rtol: float = 1e-4, atol: float = 1e-6):
    """Analytic gradient coordinates against float64 central differences."""
    for name, a, n in zip(names, analytic, numeric, strict=True):
        if not abs(a - n) <= atol + rtol * max(abs(a), abs(n)):
            raise CheckFailed(f"gradient {name}: analytic {a:.10g}, central difference {n:.10g}")
