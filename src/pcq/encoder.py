"""Speech-side encoder branch and its single-channel query tokens.

Two interchangeable backends produce a [T, D] frame sequence from a 3 s
segment: a small trainable stack of 1-D convolutions, or a loader for
embeddings exported offline by a pretrained model (e.g. 768-wide final-layer
features). The stand-in runs time-major: the samples enter as a [48000, 1]
sequence, and each layer's window equals its stride (5, 4, 4, 4; product 320),
so every layer maps [L, C] to [L / k, D] and the last one gives the 150
frames [T, D] directly. Both backends take one segment or a list of N
segments and return the frames tensor itself: [T, D] for one segment,
[N, T, D] for a list, and the query tokens follow with a leading N axis. A
learned projection turns the frames into the first query token Q1; Q2 and Q3
are parameter-free adaptive-pool reductions of Q1.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .dsp import SEGMENT_SAMPLES, Segment
from .errors import ConfigError, InvalidInput, MissingEmbedding, ShapeError
from .nn import Conv1d, Linear, Module, ModuleList
from .tensor import Tensor

STANDIN_STRIDES = (5, 4, 4, 4)  # product 320: 48000 samples -> 150 frames


def _segment_list(segment):
    """(segments, batched): a list of segments as given, one segment as a list of one."""
    if isinstance(segment, (list, tuple)):
        return list(segment), True
    return [segment], False


class StandinEncoder(Module):
    """Trainable stand-in: time-major 1-D convs with window == stride per layer."""

    def __init__(self, rng, dim: int = 64):
        super().__init__()
        self.dim = dim
        chans = (1,) + (dim,) * len(STANDIN_STRIDES)
        self.convs = ModuleList(
            Conv1d(rng, c_in, c_out, k=s)
            for c_in, c_out, s in zip(chans[:-1], chans[1:], STANDIN_STRIDES))

    def forward(self, segment, dtype=None) -> Tensor:
        """Frames [T, D] of one segment, or [N, T, D] of a list of N segments.

        A list runs segment by segment and stacks the frames. One segment's
        sequence (9600 x D after the first layer) stays in cache from one op
        to the next; a batch N times as long does not, and at miniature scale
        the batched stand-in took about 30 % more time per segment.
        """
        segments, batched = _segment_list(segment)
        frames = [self._frames(s) for s in segments]
        if not batched:
            return frames[0]
        return ops.concat([ops.reshape(f, (1,) + f.shape) for f in frames])

    def _frames(self, segment: Segment) -> Tensor:
        if segment.samples.shape != (SEGMENT_SAMPLES,):
            raise InvalidInput(f"segment must hold {SEGMENT_SAMPLES} samples, got {segment.samples.shape}")
        # trainable path: the audio tensor must match the parameter dtype so
        # gradients flow in one precision; the dtype argument only matters for
        # the parameter-free precomputed backend
        x = Tensor(segment.samples.reshape(-1, 1), dtype=self.convs[0].weight.dtype)
        for i, conv in enumerate(self.convs):
            x = conv(x)
            if i + 1 < len(self.convs):
                x = ops.relu(x, inplace=True)
        return x


class PrecomputedEncoder(Module):
    """Loads per-segment embedding files keyed '<clip_id>__<segment_index>.emb'."""

    def __init__(self, emb_dir, dim: int = 768):
        super().__init__()
        self.dim = dim
        self.emb_dir = Path(emb_dir)
        if not self.emb_dir.is_dir():
            raise ConfigError(f"embedding directory not found: {self.emb_dir}")

    def forward(self, segment, dtype=np.float32) -> Tensor:
        segments, batched = _segment_list(segment)
        frames = [self._load(s) for s in segments]
        if len({f.shape for f in frames}) != 1:
            raise ShapeError(f"embeddings of one batch differ in length: {[f.shape for f in frames]}")
        return Tensor(np.stack(frames) if batched else frames[0], dtype=dtype)

    def _load(self, segment: Segment) -> np.ndarray:
        path = self.emb_dir / f"{segment.parent_id}__{segment.index}.emb"
        if not path.exists():
            raise MissingEmbedding(f"no embedding file {path}")
        arr = load_embedding(path)
        if arr.shape[1] != self.dim:
            raise ShapeError(f"{path}: embedding width {arr.shape[1]} != configured {self.dim}")
        return arr


def save_embedding(path, frames: np.ndarray):
    """Write a [T, D] float32 embedding file: one JSON header line + LE blob."""
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2:
        raise ShapeError(f"embeddings must be [T, D], got {frames.shape}")
    header = json.dumps({"T": frames.shape[0], "D": frames.shape[1]}).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.tobytes())


def load_embedding(path) -> np.ndarray:
    """Read a save_embedding file; a malformed header or a short blob raises InvalidInput."""
    with open(path, "rb") as fh:
        try:
            meta = json.loads(fh.readline().decode())
            t, d = meta["T"], meta["D"]
        except (UnicodeDecodeError, ValueError, TypeError, KeyError) as exc:
            raise InvalidInput(f"embedding file {path} has no valid JSON header with T and D") from exc
        if not all(type(n) is int and n >= 1 for n in (t, d)):
            raise InvalidInput(f"embedding file {path}: T and D must be integers >= 1, got T={t!r}, D={d!r}")
        raw = fh.read(t * d * 4)
    if len(raw) != t * d * 4:
        raise InvalidInput(f"embedding file {path} truncated")
    return np.frombuffer(raw, dtype="<f4").reshape(t, d).copy()


@dataclass
class QueryTokens:
    """Single-channel query maps [(N,) 1, H, W] sized to match x1, x2, x3."""

    q1: Tensor
    q2: Tensor
    q3: Tensor | None = None

    def as_list(self) -> list:
        return [q for q in (self.q1, self.q2, self.q3) if q is not None]


class QueryProjector(Module):
    """Learned frame projection -> Q1 map; Q2, Q3 by parameter-free pooling."""

    def __init__(self, rng, dim: int, q1_width: int):
        super().__init__()
        self.proj = Linear(rng, dim, q1_width)

    def forward(self, frames: Tensor, sizes: list) -> QueryTokens:
        """Tokens from encoder frames [(N,) T, D]; sizes: spatial (H, W) of x1..x3 (or fewer for shallow ablations)."""
        h1, w1 = sizes[0]
        rows = self.proj(frames)                          # [(N,) T, W1]
        q = ops.reshape(rows, rows.shape[:-2] + (1,) + rows.shape[-2:])
        tokens = [ops.bilinear_resize(q, h1, w1)]
        for h, w in sizes[1:]:
            tokens.append(ops.adaptive_avg_pool(tokens[-1], h, w))
        padded = tokens + [None] * (3 - len(tokens))
        return QueryTokens(q1=padded[0], q2=padded[1], q3=padded[2])
