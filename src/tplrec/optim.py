"""Small numpy optimizers and learning-rate schedules."""
from __future__ import annotations

import math

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adaptive moment estimation over a dict of named parameter arrays.

    Each parameter's moments and two scratch arrays are allocated at its
    first step and reused: the update evaluates
    `p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)` term by term into the
    scratch arrays, the same operations in the same order as over fresh
    arrays, so the result is bitwise the same.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros_like(p), np.zeros_like(p)
                self._scratch[name] = np.empty_like(p), np.empty_like(p)
            m, v, (num, den) = self._m[name], self._v[name], self._scratch[name]
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=num)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=num)
            v += np.multiply(num, g, out=num)
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            p -= np.divide(num, den, out=num)


def cosine_annealed_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps >= 1."""
    frac = min(max(step, 0), total_steps) / total_steps
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))
