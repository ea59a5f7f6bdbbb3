"""Adaptive-moment optimizer over lists of numpy arrays."""
import math

import numpy as np

from .errors import StateError

BETA1, BETA2 = 0.9, 0.999   # moment decay rates
EPS = 1e-8                  # denominator guard of the update


class Adam:
    """Adam with optional L2 weight decay, updating arrays in place."""

    def __init__(self, lr=1e-3, weight_decay=0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = self._v = self._shapes = None

    def step(self, params, grads, lr=None):
        """params/grads: parallel lists of ndarrays. lr overrides the base rate.

        The moments are flat vectors over the list, paired with params by
        position, so every call must pass arrays of the first call's count and
        shapes; anything else raises StateError (start a fresh Adam instead).
        """
        shapes = [np.shape(p) for p in params]
        if self._m is None:
            self._shapes = shapes
            self._m = np.zeros(sum(math.prod(s) for s in shapes))
            self._v = np.zeros(self._m.shape)
        elif shapes != self._shapes:
            raise StateError("parameter list does not match the optimizer's "
                             "moments (count or shape)")
        self.t += 1
        lr = self.lr if lr is None else lr
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # the per-parameter expressions over the flat vectors, in their order
        g = np.concatenate([np.ravel(x) for x in grads])
        if self.weight_decay:
            g += self.weight_decay * np.concatenate([np.ravel(x) for x in params])
        self._m *= BETA1
        self._m += (1.0 - BETA1) * g
        self._v *= BETA2
        self._v += (1.0 - BETA2) * (g * g)
        update = lr * (self._m / bc1) / (np.sqrt(self._v / bc2) + EPS)
        end = 0
        for p in params:
            p -= update[end:end + p.size].reshape(p.shape)
            end += p.size


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps."""
    if total_steps <= 1:
        return base_lr
    frac = min(step, total_steps) / total_steps
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))
