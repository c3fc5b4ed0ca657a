"""In-memory span recording and the benchmark's own arithmetic.

A `Tracer` wraps public functions of the program from the outside: each
call records (id, name, start, end, parent id, phase). Nothing is
written until `write` is called at the end of a run.
"""
from __future__ import annotations

import math
import time
from collections import Counter

# Percentiles tried for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

PARTITIONS = ("rare", "rand", "seq")


class Tracer:
    """Records a span for every call of the functions it wraps.

    `install(sites)` replaces each `(owner, attribute)` with a wrapper
    and `uninstall()` puts the originals back. Spans of nested wrapped
    calls point at their caller's span through the parent id (-1 at the
    top). `phase` tags spans with the part of the run they belong to.
    `notes` holds, per span id, what a site's `note` function extracted
    from the call's arguments and result.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int, str]] = []
        self.notes: dict[int, object] = {}
        self.phase = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, note=None):
        spans, notes, stack, clock = self.spans, self.notes, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            label = name(args) if callable(name) else name
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, label, start, end, parent, self.phase))
            if note is not None:
                notes[sid] = note(args, kwargs, result)
            return result

        return traced

    def install(self, sites) -> None:
        """`sites`: iterable of (owner, attribute, span name, note or None)."""
        for owner, attr, name, note in sites:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, note)))
            else:
                setattr(owner, attr, self.wrap(raw, name, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,phase,name,start_ns,end_ns\n")
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(f"{sid},{parent},{phase},{name},{start},{end}\n")


def self_times(spans) -> dict[int, int]:
    """Per span id: its duration minus the part its direct children cover.

    Children intervals are clipped to the parent and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, _name, start, end, parent, _phase in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _phase in spans:
        covered, reach = 0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    `TAIL_PERCENTILES` that leaves at least `TAIL_MIN_BEYOND` samples
    above its nearest-rank position. With too few samples for any of
    them, the maximum is returned with 0 beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def median(xs) -> float:
    xs = sorted(xs)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def quota_moved(tags, mu, batch_size: int) -> int:
    """Rows of one replay batch that sit outside their partition's `mu`
    quota: the sum over partitions of the rows beyond the nominal quota
    (round-half-up of mu * batch for rare and seq, the rest for rand)."""
    nominal = {
        "rare": math.floor(mu[0] * batch_size + 0.5),
        "seq": math.floor(mu[2] * batch_size + 0.5),
    }
    nominal["rand"] = batch_size - nominal["rare"] - nominal["seq"]
    got = Counter(tags)
    return sum(max(0, got[p] - nominal[p]) for p in PARTITIONS)
