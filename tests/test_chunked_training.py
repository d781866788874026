"""Chunked training: a batch of N segments through one graph matches N one-segment graphs.

train_epoch runs each mini-batch as chunks of up to training.chunk_size
segments. These tests pin what that must keep: the same logits and summed
parameter gradients as per-segment passes (float32 tolerance, fixed here
before any measurement), correct float64 gradients through a chunk, the same
parameters after an epoch as the per-segment loop, dropout masks drawn in
sample order, and a chunk's graph inside the byte budget.
"""

import tracemalloc

import numpy as np
import pytest

from pcq import ops, training
from pcq.dsp import Segment
from pcq.gradcheck import grad_check
from pcq.network import PcqConfig, PcqNetwork, miniature_config, segment_graph_bytes
from pcq.optim import AdamW
from pcq.tensor import Tensor
from pcq.training import SegmentSample, chunk_size, train_epoch
from pcq.verify import MODEL_CHECKED_PARAMS

RTOL, ATOL = 1e-5, 1e-6


def _sample(seed, label, hw=(40, 32)):
    rng = np.random.default_rng(seed)
    segment = Segment(samples=(rng.normal(size=48000) * 0.3).astype(np.float32),
                      parent_id=f"s{seed}", index=0)
    features = np.abs(rng.normal(size=(1, *hw))).astype(np.float32)
    return SegmentSample(segment=segment, features=features, label_index=label)


def _chunk(samples):
    return (np.stack([s.features for s in samples]), [s.segment for s in samples],
            [s.label_index for s in samples])


def _grads(net):
    return {name: p.grad.copy() for name, p in net.named_parameters()}


def test_batch_of_four_matches_four_single_segment_passes():
    samples = [_sample(10 + i, i % 4) for i in range(4)]
    net = PcqNetwork(miniature_config(seed=2)).train()

    net._dropout_rng = np.random.default_rng(5)
    single = []
    for s in samples:
        logits = net(s.features, s.segment)
        ops.scale(ops.softmax_cross_entropy(logits, s.label_index), 0.25).backward()
        single.append(logits.data)
    expected = _grads(net)

    net.zero_grad()
    net._dropout_rng = np.random.default_rng(5)
    features, segments, labels = _chunk(samples)
    logits = net(features, segments)
    ops.scale(ops.softmax_cross_entropy(logits, labels), 0.25).backward()

    assert logits.shape == (4, 4)
    np.testing.assert_allclose(logits.data, np.stack(single), rtol=RTOL, atol=ATOL)
    for name, g in _grads(net).items():
        np.testing.assert_allclose(g, expected[name], rtol=RTOL, atol=ATOL, err_msg=name)


def test_float64_chunk_of_three_passes_central_differences():
    net = PcqNetwork(miniature_config(seed=0, dropout=0.0)).astype(np.float64).eval()
    features, segments, labels = _chunk([_sample(500 + i, i) for i in range(3)])
    spec = Tensor(features * 2.0, requires_grad=True, dtype=np.float64)

    def loss():
        net.zero_grad()
        return ops.softmax_cross_entropy(net(spec, segments), labels)

    named = dict(net.named_parameters())
    inputs = [("spec", spec)] + [(n, named[n]) for n in MODEL_CHECKED_PARAMS]
    # a small step keeps the probes of the 3 x 40x32 maps clear of ReLU and max-pool kinks
    report = grad_check(loss, inputs, epsilon=1e-6, tol=1e-6, max_coords=6, seed=0)
    assert report.passed, report.summary()


def _reference_epoch(model, optimizer, samples, batch_size, rng):
    """The per-segment loop train_epoch ran before chunking."""
    model.train()
    order = rng.permutation(len(samples))
    for start in range(0, len(order), batch_size):
        batch = [samples[int(i)] for i in order[start:start + batch_size]]
        optimizer.zero_grad()
        for sample in batch:
            logits = model(sample.features, sample.segment)
            ops.scale(ops.softmax_cross_entropy(logits, sample.label_index), 1.0 / len(batch)).backward()
        optimizer.step()


@pytest.mark.parametrize("budget_segments", [1, 4])
def test_train_epoch_matches_the_per_segment_loop(monkeypatch, budget_segments):
    cfg = miniature_config(seed=1)
    monkeypatch.setattr(training, "CHUNK_BYTES", budget_segments * segment_graph_bytes(cfg))
    assert chunk_size(cfg) == budget_segments
    samples = [_sample(20 + i, i % 4) for i in range(7)]

    chunked = PcqNetwork(cfg)
    train_epoch(chunked, AdamW(chunked, lr=1e-3), samples, 5, np.random.default_rng(3))
    reference = PcqNetwork(cfg)
    _reference_epoch(reference, AdamW(reference, lr=1e-3), samples, 5, np.random.default_rng(3))

    ref = dict(reference.named_parameters())
    for name, p in chunked.named_parameters():
        np.testing.assert_allclose(p.data, ref[name].data, rtol=RTOL, atol=ATOL, err_msg=name)


def test_chunk_dropout_masks_equal_sequential_draws():
    x = Tensor(np.ones((5, 32), dtype=np.float32), requires_grad=True)
    chunk = ops.dropout(x, 0.3, True, np.random.default_rng(9)).data
    rng = np.random.default_rng(9)
    rows = [ops.dropout(Tensor(np.ones(32, dtype=np.float32), requires_grad=True), 0.3, True, rng).data
            for _ in range(5)]
    np.testing.assert_array_equal(chunk, np.stack(rows))


def test_equal_chunks_cover_the_batch_in_order(monkeypatch):
    # a 7-segment batch under a 4-segment limit runs as chunks of 4 and 3, in sample order
    cfg = miniature_config(seed=1)
    monkeypatch.setattr(training, "CHUNK_BYTES", 4 * segment_graph_bytes(cfg))
    net = PcqNetwork(cfg)
    seen = []
    forward = PcqNetwork.forward
    monkeypatch.setattr(PcqNetwork, "forward",
                        lambda self, spec, segment: seen.append([s.parent_id for s in segment])
                        or forward(self, spec, segment))
    samples = [_sample(30 + i, i % 4) for i in range(7)]
    train_epoch(net, AdamW(net, lr=1e-3), samples, 16, np.random.default_rng(4))
    order = [f"s{30 + int(i)}" for i in np.random.default_rng(4).permutation(7)]
    assert seen == [order[:4], order[4:]]


def _held_after_forward(cfg, n):
    net = PcqNetwork(cfg).train()
    features, segments, labels = _chunk([_sample(40 + i, i % 4, cfg.input_hw) for i in range(n)])
    ops.softmax_cross_entropy(net(features, segments), labels).backward()   # warm the caches
    net.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = ops.softmax_cross_entropy(net(features, segments), labels)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    loss.backward()
    return held


def test_miniature_chunk_graph_fits_the_budget():
    cfg = miniature_config(seed=0)
    k = chunk_size(cfg)
    assert 4 <= k <= 8
    held = _held_after_forward(cfg, k)
    assert held <= training.CHUNK_BYTES, (k, held)
    assert held >= 0.75 * k * segment_graph_bytes(cfg), (k, held)


def test_full_scale_chunk_is_one_segment_near_its_estimate():
    cfg = PcqConfig(seed=0)
    assert chunk_size(cfg) == 1
    held = _held_after_forward(cfg, 1)
    estimate = segment_graph_bytes(cfg)
    assert 0.75 * estimate <= held <= estimate, (held, estimate)
