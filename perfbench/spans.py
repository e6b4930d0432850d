"""In-memory spans and counters recorded around patched call sites.

A :class:`Tracer` replaces a function or method at the attribute its
caller looks up with a wrapper that records one span per call: name,
start, end, the enclosing span and the run id. Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines. Hot helpers that
would drown the trace in spans get a counter instead.

Self time is computed afterwards from the recorded intervals, so the
wrappers themselves do no bookkeeping beyond appending a record.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose ``parent`` is this span. Their intervals
    are clipped to the parent's and merged first, so overlapping or
    out-of-bounds children are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def ancestors(spans: Sequence[Span], i: int):
    """Names of the spans enclosing span ``i``, innermost first."""
    p = spans[i].parent
    while p >= 0:
        yield spans[p].name
        p = spans[p].parent


AttrFn = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def span(self, owner, attr: str, name: str, attrs: AttrFn | None = None) -> bool:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``attrs(args, kwargs, result)`` may return extra fields for the
        span. A missing attribute, or ``attrs`` failing on a changed
        argument or result type, is noted in ``missing``.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                rec = Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.run_id)
                self.spans.append(rec)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end = self.clock()
                    self._stack.pop()
                if attrs is not None:
                    try:
                        rec.attrs = attrs(args, kwargs, result)
                    except (AttributeError, TypeError) as exc:
                        # the traced code changed shape; keep the timing, note the gap
                        self.missing.append(f"{name} attrs: {exc}")
                return result

            return wrapper

        return self._patch(owner, attr, make)

    def count(self, owner, attr: str, counter: str) -> bool:
        """Count calls of ``owner.attr`` under ``counter`` without a span."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counters[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        return self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "run_id": s.run_id, "attrs": s.attrs}
                    )
                    + "\n"
                )
