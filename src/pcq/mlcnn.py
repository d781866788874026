"""Four-layer lightweight CNN over the spectrogram, emitting every layer's output.

Each layer: 3x3 channel-transition conv, ReLU, a PDC block (or a plain 3x3
conv for the ablation), then 2x2 max pooling. The default channel plan
{16, 32, 48, 64} halves a 300x200 input down the chain 150x100 -> 75x50 ->
37x25 -> 18x12.
"""

from dataclasses import dataclass

from . import ops
from .errors import ConfigError, ShapeError
from .nn import Conv2d, Module, ModuleList
from .pdc import PdcBlock

DEFAULT_CHANNEL_PLAN = (16, 32, 48, 64)


@dataclass(frozen=True)
class MlcnnConfig:
    channel_plan: tuple = DEFAULT_CHANNEL_PLAN
    use_pdc: bool = True

    def __post_init__(self):
        if len(self.channel_plan) not in (2, 3, 4):
            raise ConfigError(f"channel plan must have 2-4 layers, got {self.channel_plan}")
        if any(c < 1 for c in self.channel_plan):
            raise ConfigError(f"channel plan entries must be positive, got {self.channel_plan}")


class MlcnnLayer(Module):
    def __init__(self, rng, c_in: int, c_out: int, use_pdc: bool):
        super().__init__()
        self.trans = Conv2d(rng, c_in, c_out, 3, padding=1)
        if use_pdc:
            self.block = PdcBlock(rng, c_out)
        else:
            self.block = Conv2d(rng, c_out, c_out, 3, padding=1)

    def forward(self, x):
        x = ops.relu(self.trans(x), inplace=True)
        x = self.block(x)
        return ops.max_pool2x2(x)


class MlcnnBranch(Module):
    """Stack of layers whose per-layer outputs x_1..x_n are all kept."""

    def __init__(self, rng, config: MlcnnConfig = MlcnnConfig()):
        super().__init__()
        self.config = config
        plan = config.channel_plan
        self.layers = ModuleList(
            MlcnnLayer(rng, c_in, c_out, config.use_pdc)
            for c_in, c_out in zip((1,) + plan[:-1], plan))

    def forward(self, spec) -> list:
        """[(N,) 1, H, W] spectrogram -> [x_1, ..., x_n], one output per layer."""
        if spec.ndim not in (3, 4) or spec.shape[-3] != 1:
            raise ShapeError(f"expected a [1, H, W] or [N, 1, H, W] spectrogram tensor, got {spec.shape}")
        outs = []
        x = spec
        for layer in self.layers:
            x = layer(x)
            outs.append(x)
        return outs

    def output_sizes(self, input_hw) -> list:
        """(C, H, W) of each x_i for a given input size, by the halving chain."""
        h, w = input_hw
        sizes = []
        for c in self.config.channel_plan:
            h, w = h // 2, w // 2
            sizes.append((c, h, w))
        return sizes


def adjacent_pairs(outs: list) -> list:
    """Pairs f_m = (x_m, x_{m+1}); the tensors are aliased, not copied."""
    return [(outs[m], outs[m + 1]) for m in range(len(outs) - 1)]
