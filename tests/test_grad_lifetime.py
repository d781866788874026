"""Gradient lifetime and ownership: what backward() keeps, frees and hands over.

Leaves keep their gradients; every non-leaf gradient is dropped once its
closure has used it. Closures hand over buffers they allocated themselves, so
no two gradients may end up sharing memory, and every gradient stays writeable
for the next accumulation.
"""

import numpy as np

from pcq import ops
from pcq.dsp import Segment
from pcq.gradcheck import grad_check
from pcq.network import PcqNetwork, miniature_config
from pcq.optim import AdamW
from pcq.tensor import Tensor, _topo_order
from pcq.training import SegmentSample, train_epoch


def _sample(seed, label):
    rng = np.random.default_rng(seed)
    segment = Segment(samples=(rng.normal(size=48000) * 0.3).astype(np.float32),
                      parent_id=f"s{seed}", index=0)
    features = np.abs(rng.normal(size=(1, 40, 32))).astype(np.float32)
    return SegmentSample(segment=segment, features=features, label_index=label)


class TestLifetime:
    def test_non_leaf_gradients_dropped_and_parameters_kept(self):
        net = PcqNetwork(miniature_config(dropout=0.0, seed=0)).train()
        sample = _sample(1, 2)
        loss = ops.softmax_cross_entropy(net(sample.features, sample.segment), sample.label_index)
        loss.backward()
        order = _topo_order(loss)
        inner = [node for node in order if node._backward is not None]
        assert len(inner) > 100
        assert all(node.grad is None for node in inner)
        missing = [name for name, p in net.named_parameters() if p.grad is None]
        assert missing == []

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
