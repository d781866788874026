"""AdamW: bias-corrected Adam moments with decoupled weight decay.

Weight decay is decoupled: theta <- theta - lr*wd*theta, computed from the
pre-update value, independent of the gradient moments.
"""

import numpy as np

from .errors import ShapeError


class AdamW:
    """Updates a module's parameters in place from their ``.grad`` buffers.

    Holds the hyperparameters, the step count ``t`` and the moment buffers
    ``m`` and ``v``, keyed by parameter name.
    """

    def __init__(self, module, lr: float = 1e-5, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.module = module
        self.lr = lr
        self.betas = tuple(betas)
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self):
        """Apply one AdamW update to every parameter that holds a gradient."""
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.module.named_parameters():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient for '{name}' has shape {g.shape}, parameter {p.data.shape}")
            g = g.astype(p.data.dtype, copy=False)
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * self.weight_decay * p.data - self.lr * update

    def zero_grad(self):
        self.module.zero_grad()
