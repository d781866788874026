"""Parameter-efficient depth-convolution block with channel attention.

Pipeline for C channels: pointwise expand C->2C, depthwise 3x3 on 2C, channel
attention (global average pool -> 2C->C/3 -> C/3->2C -> sigmoid -> rescale),
pointwise project 2C->C. Everything is bias-free, which is what makes the
parameter count come out to (16/3)C^2 + 18C whenever 3 divides C; a plain 3x3
convolution with equal channels costs 9C^2, so the block is cheaper for C >= 5.
"""

from . import ops
from .errors import ShapeError
from .nn import Conv2d, Linear, Module

EXPANSION = 2
SE_REDUCTION = 3  # hidden width floor(C/3), minimum 1


def se_hidden_width(channels: int) -> int:
    return max(1, channels // SE_REDUCTION)


def pdc_param_count(channels: int) -> int:
    """Exact parameter count of the constructed block for C channels."""
    c = channels
    h = se_hidden_width(c)
    width = EXPANSION * c
    return (c * width          # pointwise expand
            + 9 * width        # depthwise 3x3
            + 2 * width * h    # the two attention maps
            + width * c)       # pointwise project


def pdc_param_law(channels: int) -> float:
    """Closed-form count (16/3)C^2 + 18C; exact for the built block when 3 | C."""
    return (16.0 / 3.0) * channels ** 2 + 18.0 * channels


def conv3x3_param_count(channels: int) -> int:
    """Bias-free 3x3 conv with equal in/out channels: the ablation reference block."""
    return 9 * channels * channels


class PdcBlock(Module):
    """Channel-preserving block: expand, depthwise, gate channels, project."""

    def __init__(self, rng, channels: int, dilation: int = 1):
        super().__init__()
        if channels < 1:
            raise ShapeError(f"channels must be >= 1, got {channels}")
        self.channels = channels
        width = EXPANSION * channels
        hidden = se_hidden_width(channels)
        self.pw1 = Conv2d(rng, channels, width, 1)
        self.dw = Conv2d(rng, width, width, 3, padding=dilation, dilation=dilation, groups=width)
        self.se1 = Linear(rng, width, hidden, bias=False)
        self.se2 = Linear(rng, hidden, width, bias=False)
        self.pw2 = Conv2d(rng, width, channels, 1)

    def channel_weights(self, t):
        """Attention gate in (0,1) for each of the 2C intermediate channels."""
        squeezed = ops.global_avg_pool(t)
        return ops.sigmoid(self.se2(ops.relu(self.se1(squeezed))))

    def forward(self, x):
        if x.ndim not in (3, 4) or x.shape[-3] != self.channels:
            raise ShapeError(f"expected [(N,) {self.channels}, H, W] input, got {x.shape}")
        t = ops.relu(self.pw1(x), inplace=True)
        t = self.dw(t)
        gate = self.channel_weights(t)
        t = ops.mul(t, ops.reshape(gate, gate.shape + (1, 1)))
        return self.pw2(t)
