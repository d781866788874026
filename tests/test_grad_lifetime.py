"""Gradient and graph lifetime and ownership: what backward() keeps, frees and hands over.

Leaves keep their gradients; every non-leaf node drops its gradient, closure
and parent links once its closure has run, so a graph is released as backward
consumes it and can be backpropagated once. Closures hand over buffers they
allocated themselves, so no two gradients may end up sharing memory, and every
gradient stays writeable for the next accumulation.
"""

import tracemalloc

import numpy as np
import pytest

from pcq import ops
from pcq.dsp import Segment
from pcq.gradcheck import grad_check
from pcq.network import PcqConfig, PcqNetwork, miniature_config
from pcq.optim import AdamW
from pcq.tensor import Tensor, _topo_order
from pcq.training import SegmentSample, train_epoch


def _sample(seed, label, hw=(40, 32)):
    rng = np.random.default_rng(seed)
    segment = Segment(samples=(rng.normal(size=48000) * 0.3).astype(np.float32),
                      parent_id=f"s{seed}", index=0)
    features = np.abs(rng.normal(size=(1, *hw))).astype(np.float32)
    return SegmentSample(segment=segment, features=features, label_index=label)


def _inner(root):
    """The non-leaf nodes of root's graph, taken before backward() releases them."""
    return [node for node in _topo_order(root) if node._backward is not None]


def _assert_released(nodes):
    for node in nodes:
        assert node.grad is None and node._backward is None and node._parents == ()


class TestLifetime:
    def test_non_leaf_gradients_dropped_and_parameters_kept(self):
        net = PcqNetwork(miniature_config(dropout=0.0, seed=0)).train()
        sample = _sample(1, 2)
        loss = ops.softmax_cross_entropy(net(sample.features, sample.segment), sample.label_index)
        inner = _inner(loss)
        assert len(inner) > 100
        loss.backward()
        _assert_released(inner)
        missing = [name for name, p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_second_backward_raises_and_adds_nothing(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3) - 2.5, requires_grad=True, dtype=np.float64)
        loss = ops.global_avg_pool(ops.relu(x))
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_second_root_sharing_a_released_subgraph_raises(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3) - 2.5, requires_grad=True, dtype=np.float64)
        h = ops.relu(x)
        first_root = ops.global_avg_pool(h)
        second_root = ops.global_avg_pool(ops.scale(h, 2.0))
        first_root.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            second_root.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_leaf_input_keeps_gradient_and_accumulates(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3) - 2.5, requires_grad=True, dtype=np.float64)
        for _ in range(2):
            ops.global_avg_pool(ops.relu(x)).backward()
        np.testing.assert_allclose(x.grad, 2 * (x.data > 0) / 6)


class TestOwnership:
    def test_owned_gradient_is_taken_without_a_copy(self):
        t = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        g = np.ones(3)
        t.accumulate_grad(g, owned=True)
        assert t.grad is g
        t.accumulate_grad(g)   # later gradients add into the held buffer
        np.testing.assert_array_equal(g, 2.0)

    def test_borrowed_gradient_is_copied(self):
        t = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        g = np.ones(3)
        t.accumulate_grad(g)
        assert not np.shares_memory(t.grad, g)

    def test_train_step_parameter_gradients_are_disjoint_and_writeable(self):
        net = PcqNetwork(miniature_config(seed=0))
        optimizer = AdamW(net, lr=1e-3)
        train_epoch(net, optimizer, [_sample(2, 0), _sample(3, 1)], batch_size=2,
                    rng=np.random.default_rng(0))
        named = [(name, p) for name, p in net.named_parameters()]
        assert all(p.grad is not None for _, p in named)
        for i, (name, p) in enumerate(named):
            assert p.grad.flags.writeable, name
            assert p.grad.shape == p.shape and p.grad.dtype == p.dtype, name
            assert not np.shares_memory(p.grad, p.data), name
            for other, q in named[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad), (name, other)


def test_diamond_graph_matches_finite_differences():
    # h feeds both a relu-gated product and a scale, so h's gradient starts as a
    # buffer handed over by mul and then takes a second, borrowed gradient
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True, dtype=np.float64)
    gate = Tensor(rng.normal(size=(3, 1, 1)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(1, 120)), dtype=np.float64)

    def fn():
        h = ops.relu(x)
        both = ops.concat([ops.mul(h, gate), ops.scale(h, 3.0)])
        return ops.linear(ops.reshape(both, (both.size,)), w)

    report = grad_check(fn, [("x", x), ("gate", gate)], epsilon=1e-6, tol=1e-6)
    assert report.passed, report.summary()


def test_diamond_graph_exact_gradient_and_release():
    # h is read by two consumers: it must keep its data and collect both gradients
    # before backward() releases it
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True, dtype=np.float64)
    gate = Tensor(rng.normal(size=(3, 1, 1)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.normal(size=(1, 120)), dtype=np.float64)
    h = ops.relu(x)
    both = ops.concat([ops.mul(h, gate), ops.scale(h, 3.0)])
    loss = ops.linear(ops.reshape(both, (both.size,)), w)
    inner = _inner(loss)
    loss.backward()
    _assert_released(inner)
    w_gated, w_scaled = w.data.reshape(2, 3, 4, 5)
    np.testing.assert_allclose(x.grad, (w_gated * gate.data + 3.0 * w_scaled) * (x.data > 0),
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(gate.grad, (w_gated * h.data).sum(axis=(1, 2), keepdims=True),
                               rtol=1e-12, atol=1e-15)


def _traced_step(net, sample):
    """One forward and backward under tracemalloc, after an untraced warm-up step.

    Returns the bytes held at the end of forward, the peak during backward() and
    the bytes still held after it, each relative to the start of the traced
    step, with the logits and the loss still referenced.
    """
    def forward():
        logits = net(sample.features, sample.segment)
        return logits, ops.softmax_cross_entropy(logits, sample.label_index)

    forward()[1].backward()   # warm-up: builds the ops' lazily cached matrices
    net.zero_grad()           # so the parameter gradients are allocated inside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits, loss = forward()
        held_forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        held_after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held_forward, peak - base, held_after - base


class TestGraphMemory:
    def test_miniature_backward_frees_the_forward_activations(self):
        net = PcqNetwork(miniature_config(seed=0)).train()
        held_forward, _, held_after = _traced_step(net, _sample(1, 2))
        assert held_forward > 1_000_000
        assert held_after <= held_forward / 4, (held_forward, held_after)

    def test_full_scale_backward_peak_stays_near_forward_memory(self):
        net = PcqNetwork(PcqConfig(seed=0)).train()
        held_forward, peak, _ = _traced_step(net, _sample(1, 2, hw=(300, 200)))
        assert held_forward > 50_000_000
        assert peak <= 1.1 * held_forward, (held_forward, peak)
