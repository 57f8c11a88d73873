"""Span recording and the pure computations the benchmark runs on spans.

Nothing here imports ``dcex``: spans are recorded by wrapping functions that
the caller hands in, so the helpers can be tested on hand-made spans.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

# Percentiles tried, highest first, when summarizing a sample (see summarize).
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_SAMPLES = 10


@dataclass
class Span:
    """One call into a layer: ``parent`` indexes the enclosing span, if any."""

    name: str
    start: float
    end: float
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a call stack; one per traced run.

    ``op`` names the benchmark operation that the spans opened next belong to.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` wrapped so each call records a span.

        ``attrs(args, kwargs, result)`` returns extra fields for the span; it
        runs after the span has closed, so its cost is not timed.
        """

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), math.nan, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, modules, targets):
        """Replace each target function by its wrapper in every given module.

        ``targets`` maps a function object to ``(span name, attrs)``.  Every
        module attribute bound to that object is swapped, so a call is traced
        whichever module it goes through; the originals come back on exit.
        """
        saved = []
        try:
            for fn, (name, attrs) in targets.items():
                wrapped = self.wrap(fn, name, attrs)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def children(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = children(spans)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(spans[k].start, s.start), min(spans[k].end, s.end))
            for k in kids.get(i, ())
        ]
        out.append(s.duration - covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def decided_after(null_scores, observed, quantile) -> int:
    """Nulls after which a round's outcome was fixed, in seed order.

    Mirrors the stop rule of ``dcex.extraction.extract_all``: a round is
    rejected when ``(1 + #{null >= observed}) / (1 + R) > 1 - quantile``.
    A rejected round is decided at the k-th exceedance, k being the smallest
    exceedance count that alone forces rejection (k = floor((1-q)(R+1)) up
    to float rounding, which the rule here reproduces exactly).  An accepted
    round needs all R nulls.
    """
    r = len(null_scores)
    alpha = 1.0 - quantile
    k = 0
    while (1 + k) / (1 + r) <= alpha:
        k += 1
    if k == 0:
        return 0
    seen = 0
    for i, v in enumerate(null_scores, start=1):
        if v >= observed:
            seen += 1
            if seen == k:
                return i
    return r


def null_needed_ratio(rounds) -> tuple[float, int, int]:
    """Summed decided-after counts over summed nulls run.

    ``rounds`` holds ``(null_scores, observed, quantile)`` per round.
    Returns ``(ratio, needed, run)``; the ratio is 1.0 when no nulls ran.
    """
    needed = sum(decided_after(s, obs, q) for s, obs, q in rounds)
    run = sum(len(s) for s, _, _ in rounds)
    return (needed / run if run else 1.0), needed, run


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count.

    The percentile uses the nearest-rank definition; ``p`` and ``p_value``
    are None when the sample is too small for any percentile to qualify.
    """
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": median(xs) if xs else math.nan,
           "p": None, "p_value": None}
    for p in _PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p * n / 100), exactly
        if rank >= 1 and n - rank >= _TAIL_SAMPLES:
            out["p"] = p
            out["p_value"] = xs[rank - 1]
            break
    return out
