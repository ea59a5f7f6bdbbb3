"""Adaptive-moment optimizer over lists of numpy arrays."""
import math

import numpy as np

from .errors import StateError


class Adam:
    """Adam with optional L2 weight decay, updating arrays in place."""

    def __init__(self, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = None
        self._v = None

    def step(self, params, grads, lr=None):
        """params/grads: parallel lists of ndarrays. lr overrides the base rate.

        The moments are paired with params by position, so every call must pass
        arrays of the first call's count and shapes; anything else raises
        StateError (start a fresh Adam for a new parameter set).
        """
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        elif len(params) != len(self._m) or \
                any(np.shape(p) != m.shape for p, m in zip(params, self._m)):
            raise StateError("parameter list does not match the optimizer's "
                             "moments (count or shape)")
        self.t += 1
        lr = self.lr if lr is None else lr
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.weight_decay:
                g = g + self.weight_decay * p
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps."""
    if total_steps <= 1:
        return base_lr
    frac = min(step, total_steps) / total_steps
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))
