"""The full model: CNN branch + encoder branch fused by progressive channel queries.

Per segment: the spectrogram runs through the CNN branch giving x_1..x_n; the
raw audio runs through the encoder giving query tokens Q_1..Q_{n-1}; each
adjacent pair (x_m, x_{m+1}) is fused with Q_m by a channel-query module into
z_m. The deepest map x_n also gates a pooled copy of Q_1 elementwise (Q_4).
Global average pools of the z_m, x_n and Q_4 concatenate into the fusion
vector feeding a two-layer classifier.

The forward pass also takes a batch: an [N, 1, H, W] stack of spectrograms
with a list of N segments runs as one graph with a leading N axis and gives
[N, K] logits. Training runs mini-batches that way, in chunks that fit
``training.CHUNK_BYTES`` (see ``segment_graph_bytes``); prediction runs one
segment at a time.
"""

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import ops
from .csq import CsqModule
from .data import get_taxonomy
from .dsp import SEGMENT_SAMPLES, Segment
from .encoder import STANDIN_STRIDES, PrecomputedEncoder, QueryProjector, StandinEncoder
from .errors import ConfigError, ShapeError
from .mlcnn import DEFAULT_CHANNEL_PLAN, MlcnnBranch, MlcnnConfig, adjacent_pairs
from .nn import Linear, Module, ModuleList
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class PcqConfig:
    """Architecture hyperparameters; the single source of structural truth."""

    taxonomy: str = "iemocap4"
    num_classes: Optional[int] = None  # defaults to the taxonomy's class count
    channel_plan: tuple = DEFAULT_CHANNEL_PLAN
    input_hw: tuple = (300, 200)
    use_pdc: bool = True
    use_csq: bool = True
    encoder_backend: str = "standin"   # or "precomputed"
    encoder_dim: int = 64
    emb_dir: Optional[str] = None
    fusion_q: str = "q4"               # or "q1"
    hidden: int = 128
    dropout: float = 0.3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channel_plan", tuple(self.channel_plan))
        object.__setattr__(self, "input_hw", tuple(self.input_hw))
        if self.fusion_q not in ("q4", "q1"):
            raise ConfigError(f"fusion_q must be 'q4' or 'q1', got '{self.fusion_q}'")
        if self.encoder_backend not in ("standin", "precomputed"):
            raise ConfigError(f"encoder_backend must be 'standin' or 'precomputed', got '{self.encoder_backend}'")
        if self.encoder_backend == "precomputed" and not self.emb_dir:
            raise ConfigError("encoder_backend 'precomputed' requires emb_dir")
        if self.use_csq and any(c % 4 for c in self.channel_plan[:-1]):
            raise ConfigError(f"channel-query grouping needs shallow channel counts divisible by 4, "
                              f"got {self.channel_plan}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.resolved_num_classes < 2:
            raise ConfigError("need at least 2 classes")

    @property
    def resolved_num_classes(self) -> int:
        if self.num_classes is not None:
            return int(self.num_classes)
        return get_taxonomy(self.taxonomy).num_classes

    def to_dict(self) -> dict:
        d = asdict(self)
        d["channel_plan"] = list(self.channel_plan)
        d["input_hw"] = list(self.input_hw)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PcqConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown model config keys: {sorted(extra)}")
        return cls(**d)


def miniature_config(**overrides) -> PcqConfig:
    """Small configuration used for gradient checks and training smoke tests."""
    base = PcqConfig(channel_plan=(4, 8, 12, 16), input_hw=(40, 32),
                     encoder_dim=16, hidden=32, seed=0)
    return replace(base, **overrides) if overrides else base


# float32 maps one segment's training graph holds per MLCNN layer, in units of
# that layer's output channels at its input resolution: the trans and PDC
# outputs (their ReLUs run in place), the two bordered conv inputs, the 2C-wide
# expanded, depthwise and gated maps, the pooled output, and the CSQ stage at
# that resolution
GRAPH_MAPS_PER_LAYER = 13
# node bookkeeping and the small maps of the CSQ borders and the classifier
GRAPH_FIXED_BYTES = 256 * 1024


def segment_graph_bytes(config: PcqConfig) -> int:
    """Estimated bytes one segment's float32 training graph holds at the end of forward.

    The MLCNN maps dominate at full scale (about 87 MB at 300x200), the
    stand-in encoder's frames at miniature scale (about 0.8 MB of 1.5 MB at
    40x32). The frames are counted for the stand-in encoder, which holds more
    than a precomputed embedding.
    """
    h, w = config.input_hw
    maps = 0
    for c in config.channel_plan:
        maps += c * h * w
        h, w = h // 2, w // 2
    frames, length = 0, SEGMENT_SAMPLES
    for k in STANDIN_STRIDES:
        length //= k
        frames += length * config.encoder_dim
    return 4 * (GRAPH_MAPS_PER_LAYER * maps + frames) + GRAPH_FIXED_BYTES


@dataclass
class Prediction:
    logits: np.ndarray
    probs: np.ndarray
    label: int


class PcqNetwork(Module):
    def __init__(self, config: PcqConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        plan = config.channel_plan
        self.mlcnn = MlcnnBranch(rng, MlcnnConfig(channel_plan=plan, use_pdc=config.use_pdc))
        self.sizes = self.mlcnn.output_sizes(config.input_hw)
        if any(h < 1 or w < 1 for _, h, w in self.sizes):
            raise ConfigError(f"input {config.input_hw} too small for {len(plan)} pooling stages")
        self.n_stages = len(plan) - 1

        if config.encoder_backend == "standin":
            self.encoder = StandinEncoder(rng, dim=config.encoder_dim)
        else:
            self.encoder = PrecomputedEncoder(config.emb_dir, dim=config.encoder_dim)
        self.qproj = QueryProjector(rng, config.encoder_dim, q1_width=self.sizes[0][2])

        if config.use_csq:
            self.csq = ModuleList(CsqModule(rng, plan[m], plan[m + 1]) for m in range(self.n_stages))
        else:
            self.csq = None

        self.fusion_dim = self._fusion_dim()
        self.fc1 = Linear(rng, self.fusion_dim, config.hidden)
        self.fc2 = Linear(rng, config.hidden, config.resolved_num_classes)
        self._dropout_rng = np.random.default_rng(config.seed + 7919)

    def _fusion_dim(self) -> int:
        plan = self.config.channel_plan
        dim = sum(plan[:self.n_stages]) if self.config.use_csq else 0
        dim += plan[-1]                                            # Gap(x_last)
        dim += plan[-1] if self.config.fusion_q == "q4" else 1     # Gap(Q4) or Gap(Q1)
        return dim

    def _param_dtype(self):
        return self.fc1.weight.dtype

    def query_tokens(self, segment):
        enc = self.encoder(segment, dtype=self._param_dtype())
        q_sizes = [(h, w) for _, h, w in self.sizes[:self.n_stages]]
        return self.qproj(enc, q_sizes)

    def fusion_vector(self, spec, segment) -> Tensor:
        """Concatenated global-average-pooled branch features, before the classifier.

        spec [1, H, W] with one segment gives [F]; spec [N, 1, H, W] with a
        list of N segments gives [N, F].
        """
        if not isinstance(spec, Tensor):
            spec = Tensor(np.asarray(spec), dtype=self._param_dtype())
        h, w = self.config.input_hw
        if spec.ndim not in (3, 4) or spec.shape[-3:] != (1, h, w):
            raise ShapeError(f"expected spectrogram tensor (1, {h}, {w}) or (N, 1, {h}, {w}), got {spec.shape}")
        batched = isinstance(segment, (list, tuple))
        if batched != (spec.ndim == 4) or (batched and len(segment) != spec.shape[0]):
            raise ShapeError(f"spectrogram tensor {spec.shape} needs "
                             f"{'a list of that many segments' if spec.ndim == 4 else 'one segment'}")
        outs = self.mlcnn(spec)
        tokens = self.query_tokens(segment)
        gaps = []
        if self.csq is not None:
            for m, (f_low, f_high) in enumerate(adjacent_pairs(outs)):
                z = self.csq[m](f_low, f_high, tokens.as_list()[m])
                gaps.append(ops.global_avg_pool(z))
        x_last = outs[-1]
        gaps.append(ops.global_avg_pool(x_last))
        if self.config.fusion_q == "q4":
            _, h_last, w_last = self.sizes[-1]
            q1_small = ops.adaptive_avg_pool(tokens.q1, h_last, w_last)
            q4 = ops.mul(x_last, q1_small)
            gaps.append(ops.global_avg_pool(q4))
        else:
            gaps.append(ops.global_avg_pool(tokens.q1))
        return ops.concat(gaps, axis=-1)

    def forward(self, spec, segment) -> Tensor:
        """Segment-level class logits: [K] for one segment, [N, K] for a batch (see fusion_vector)."""
        fusion = self.fusion_vector(spec, segment)
        h = ops.relu(self.fc1(fusion), inplace=True)
        h = ops.dropout(h, self.config.dropout, self.training, self._dropout_rng)
        return self.fc2(h)

    def predict(self, spec, segment: Segment) -> Prediction:
        with no_grad():
            was_training = self.training
            self.eval()
            logits = self.forward(spec, segment).data.copy()
            self.train(was_training)
        probs = ops.softmax_probs(logits)
        return Prediction(logits=logits, probs=probs, label=int(np.argmax(probs)))

    def param_breakdown(self) -> dict:
        parts = {
            "mlcnn": self.mlcnn.param_count(),
            "encoder": self.encoder.param_count(),
            "query_projector": self.qproj.param_count(),
            "csq": self.csq.param_count() if self.csq is not None else 0,
            "classifier": self.fc1.param_count() + self.fc2.param_count(),
        }
        parts["total"] = sum(parts.values())
        return parts


def clip_prediction(segment_probs) -> tuple[int, np.ndarray]:
    """Average segment softmax scores; argmax with ties going to the lower index."""
    probs = np.asarray(list(segment_probs), dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ShapeError("need at least one segment probability vector")
    mean = probs.mean(axis=0)
    return int(np.argmax(mean)), mean
