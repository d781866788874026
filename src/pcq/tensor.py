"""Reverse-mode autodiff core: an array-valued graph node with accumulated gradients.

Every operation in :mod:`pcq.ops` produces a Tensor wired to its inputs through a
backward closure. Calling ``backward()`` on a scalar output walks the graph in
reverse topological order and accumulates gradients into ``grad`` buffers of the
same shape and dtype as the data. Training runs in float32; gradient checking
re-runs the same graph in float64.

Gradient lifetime: leaves (parameters, and inputs made with
``requires_grad=True``) keep their ``.grad`` after ``backward()``, and repeated
backward passes over separate graphs add into it until ``zero_grad()``.

Graph lifetime: ``backward()`` releases the graph node by node as it goes. Once
a non-leaf node's closure has run, the node drops its gradient, its closure and
its parent links, and the traversal list no longer holds it, so each forward
activation is freed as soon as the last closure that reads it has run. A
finished backward pass leaves only the leaves' gradients (and the data of nodes
the caller still references). A graph can therefore be backpropagated once: a
second ``backward()`` that reaches a released node raises ``RuntimeError``.

Gradient ownership: ``accumulate_grad(g)`` copies ``g`` when it becomes the
first gradient, so a closure may pass ``gy`` or any view. A closure that
allocated ``g`` itself, and keeps no other reference to it, may instead hand it
over with ``accumulate_grad(g, owned=True)``; the node then adds into that very
buffer. Never hand over ``gy``, a view of ``gy``, or a view of any buffer that
is still alive elsewhere (an input's data, a cached matrix).
"""

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure-numpy forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Array value with optional gradient buffer and autograd wiring.

    data: numpy array, float32 or float64, rank 1-4.
    grad: same-shape buffer, allocated lazily during backward().
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_released")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None
        self._released = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, owned: bool = False):
        """Add g into grad; owned=True hands over a fresh buffer without a copy."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from a scalar output through the recorded graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        order = _topo_order(self)
        self.accumulate_grad(np.ones_like(self.data), owned=True)
        while order:
            node = order.pop()   # popped, so the list keeps no finished node alive
            if node._backward is None:
                continue         # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None
            node._parents = ()
            node._released = True

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _topo_order(root: Tensor):
    """Iterative post-order DFS over the autograd graph."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._released:
            raise RuntimeError("graph already released by backward()")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def make_node(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op result; records the graph only if recording is on and needed."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out
