"""Small numpy optimizers and learning-rate schedules, and the helper
thread that runs one of two independent calls beside the other."""
from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per slice of Adam's update: its scratch arrays hold one slice.
_SLICE = 32768


class Adam:
    """Adaptive moment estimation over a dict of named parameter arrays.

    Each parameter's moments are allocated at its first step and reused.
    The update walks the flattened parameter in contiguous slices of
    `_SLICE` elements and evaluates
    `p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)` term by term into two
    scratch arrays of one slice each, also allocated once: the same
    elementwise operations in the same order as over whole fresh arrays,
    so the result is bitwise the same. Parameters must be C-contiguous,
    since they are updated through flat views.
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
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} must be C-contiguous")
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros_like(p), np.zeros_like(p)
                size = min(p.size, _SLICE)
                self._scratch[name] = np.empty(size, p.dtype), np.empty(size, p.dtype)
            p_flat, g_flat = p.reshape(-1), np.reshape(grads[name], -1)
            m_flat, v_flat = self._m[name].reshape(-1), self._v[name].reshape(-1)
            num, den = self._scratch[name]
            for start in range(0, p.size, _SLICE):
                stop = min(start + _SLICE, p.size)
                part = slice(start, stop)
                _update(p_flat[part], g_flat[part], m_flat[part], v_flat[part],
                        num[:stop - start], den[:stop - start], self.lr, bc1, bc2)


def _update(p, g, m, v, num, den, lr, bc1, bc2):
    """One Adam update of a slice in place, through the scratch `num` and `den`."""
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=num)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=num)
    v += np.multiply(num, g, out=num)
    np.divide(m, bc1, out=num)
    num *= lr
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += EPS
    p -= np.divide(num, den, out=num)


def cosine_annealed_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr to 0 over total_steps >= 1."""
    frac = min(max(step, 0), total_steps) / total_steps
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))


_helper: ThreadPoolExecutor | None = None
_on_helper = threading.local()


def _cpus() -> int:
    """The CPUs this process may run on: `both` runs inline when there is one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mark_helper() -> None:
    _on_helper.active = True


def _forget_helper() -> None:
    global _helper
    _helper = None  # a forked child has no helper thread; it starts its own


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def both(f, g):
    """`(f(), g())`, with `f` on one helper thread beside `g` in the caller.

    `f` runs in a copy of the caller's context (NumPy's `errstate` lives
    there). The caller waits for `f` before it returns or raises: `g`'s
    exception wins, else `f`'s is raised. On one CPU, or called from the
    helper itself, both run inline, `f` first, and no thread starts.
    """
    global _helper
    if _cpus() < 2 or getattr(_on_helper, "active", False):
        return f(), g()
    if _helper is None:
        _helper = ThreadPoolExecutor(1, "tplrec-helper", initializer=_mark_helper)
    done = _helper.submit(contextvars.copy_context().run, f)
    try:
        second = g()
    finally:
        wait([done])
    return done.result(), second
