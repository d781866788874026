"""Channel semantic query: fuse an adjacent feature pair under a query token.

The deeper feature is matched to the shallow one (1x1 conv to C_l channels,
bilinear resize to H_l x W_l). Channels of both maps are split into four
contiguous groups; each group of each map is averaged down to a single channel
and stacked with the query token into a 3-channel block. Each block goes
through its own 3x3 conv with dilation 7, 5, 2 or 1 (padding == dilation keeps
the size), and a final 1x1 conv merges the 12 concatenated channels back to
C_l. Until that merge the four branches are fully independent.
"""

from . import ops
from .errors import ConfigError, ShapeError
from .nn import Conv2d, Module, ModuleList

GROUP_COUNT = 4
DILATIONS = (7, 5, 2, 1)
BLOCK_CHANNELS = GROUP_COUNT // 2 + 1  # shallow slice + deep slice + query


class CsqModule(Module):
    def __init__(self, rng, c_low: int, c_high: int):
        super().__init__()
        if c_low % GROUP_COUNT != 0:
            raise ConfigError(f"shallow channel count {c_low} must be divisible by {GROUP_COUNT}")
        self.c_low, self.c_high = c_low, c_high
        self.align_conv = Conv2d(rng, c_high, c_low, 1)
        self.branches = ModuleList(
            Conv2d(rng, BLOCK_CHANNELS, BLOCK_CHANNELS, 3, padding=d, dilation=d)
            for d in DILATIONS)
        self.merge = Conv2d(rng, GROUP_COUNT * BLOCK_CHANNELS, c_low, 1)

    def align(self, x_high, out_hw):
        """Match the deep feature to the shallow frame: channels first, then size."""
        if x_high.shape[-3] != self.c_high:
            raise ShapeError(f"deep input has {x_high.shape[-3]} channels, expected {self.c_high}")
        return ops.bilinear_resize(self.align_conv(x_high), out_hw[0], out_hw[1])

    def group_blocks(self, x_low, x_high_aligned, query) -> list:
        """Eq-style grouping: per group, mean shallow slice + mean deep slice + query."""
        if x_low.shape[-3] != self.c_low or x_high_aligned.shape[-3] != self.c_low:
            raise ShapeError(f"both grouped inputs need {self.c_low} channels, got "
                             f"{x_low.shape[-3]} and {x_high_aligned.shape[-3]}")
        if query.shape[-3] != 1 or query.shape[-2:] != x_low.shape[-2:]:
            raise ShapeError(f"query must be [(N,) 1, {x_low.shape[-2]}, {x_low.shape[-1]}], got {query.shape}")
        per_group = self.c_low // GROUP_COUNT
        blocks = []
        for i in range(GROUP_COUNT):
            lo, hi = i * per_group, (i + 1) * per_group
            blocks.append(ops.concat([
                ops.mean_channels(ops.slice_channels(x_low, lo, hi)),
                ops.mean_channels(ops.slice_channels(x_high_aligned, lo, hi)),
                query,
            ], axis=-3))
        return blocks

    def branch_outputs(self, x_low, x_high_aligned, query) -> list:
        """Pre-merge dilated-conv outputs, one per channel group (block-diagonal)."""
        return [conv(block) for conv, block
                in zip(self.branches, self.group_blocks(x_low, x_high_aligned, query))]

    def forward(self, x_low, x_high, query):
        aligned = self.align(x_high, x_low.shape[-2:])
        etas = self.branch_outputs(x_low, aligned, query)
        return self.merge(ops.concat(etas, axis=-3))
