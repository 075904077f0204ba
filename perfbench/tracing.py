"""Span recording from outside the program, for the traced benchmark run.

The program under test has no instrumentation of its own, so the traced
run wraps the public functions of each layer (and the names importing
modules bound at import time) with a recorder.  A span holds its name,
start, end, parent, request id and a few attributes; spans live in
memory until the run ends, when :meth:`Recorder.export` writes the span
tree and :func:`layer_table` folds it into one row per layer.

Parents are tracked per thread, because the placement server runs its
groups on a thread pool: a span's parent is the innermost open span of
the same thread, and a span inherits its parent's request id.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "rid",
                 "attrs")

    def __init__(self, sid, name, layer, parent, start, rid):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.rid = rid
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and owns the monkeypatches that produce them."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, rid: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, name, layer, parent.id if parent else None,
                    time.perf_counter(), rid)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # spans close in LIFO order per thread; tolerate an exception
        # unwinding several frames at once
        while stack and stack.pop() is not span:
            pass
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, layer: str, start: float, end: float,
               rid: Optional[str] = None) -> None:
        """Add a span whose interval was measured elsewhere (no nesting)."""
        with self._lock:
            span = Span(next(self._ids), name, layer, None, start, rid)
            span.end = end
            self.spans.append(span)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, layer,
             observe: Optional[Callable] = None,
             rid_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``layer`` is a name, or a function of ``(args, kwargs)`` returning
        one.  ``observe(span, args, kwargs, result)`` may add attributes
        after the call returns; ``rid_of(args, kwargs)`` names the request
        a span belongs to when the call starts a request's work.
        """
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs) if rid_of else None
            span = recorder.open(
                name, layer(args, kwargs) if callable(layer) else layer, rid)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        # class attributes are looked up through the instance, so the
        # plain function works as a method
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def export(self, path: Path, windows: Dict[str, tuple]) -> None:
        """Write the span tree (children nested under parents) as JSON."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)

        def node(s: Span) -> dict:
            out = {"name": s.name, "layer": s.layer,
                   "start": round(s.start, 6), "end": round(s.end, 6),
                   "self_s": round(self_time(s, children), 6)}
            if s.rid is not None:
                out["rid"] = s.rid
            if s.attrs:
                out["attrs"] = s.attrs
            kids = sorted(children.get(s.id, ()), key=lambda c: c.start)
            if kids:
                out["children"] = [node(c) for c in kids]
            return out

        roots = sorted(children.get(None, ()), key=lambda s: s.start)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "windows": {k: [round(a, 6), round(b, 6)]
                        for k, (a, b) in windows.items()},
            "spans": [node(s) for s in roots],
        }))


def self_time(span: Span, children) -> float:
    """Duration minus the part covered by the span's own children."""
    return span.duration - sum(c.duration for c in children.get(span.id, ()))


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def coverage(spans: List[Span], window: tuple) -> float:
    """Share of the window's wall time covered by at least one span."""
    lo, hi = window
    clipped = [(max(s.start, lo), min(s.end, hi)) for s in spans
               if s.end > lo and s.start < hi]
    return _union_length(clipped) / (hi - lo) if hi > lo else 0.0


def layer_table(spans: List[Span]) -> Dict[str, dict]:
    """One row per layer: calls, busy (outermost) time and self time.

    ``calls`` and ``busy_s`` count only spans with no ancestor in the same
    layer, so a layer calling itself is not counted twice; ``self_s``
    sums every span's own time.  Attributes are summed over all spans.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def nested_in_same_layer(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.layer == s.layer:
                return True
            p = by_id.get(p.parent)
        return False

    rows: Dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.layer, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
        row["self_s"] += self_time(s, children)
        for k, v in s.attrs.items():
            row[k] = row.get(k, 0) + v
        if not nested_in_same_layer(s):
            row["calls"] += 1
            row["busy_s"] += s.duration
    return rows


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call."""
    class Target:
        @staticmethod
        def noop():
            return None

    rec = Recorder()
    t0 = time.perf_counter()
    for _ in range(calls):
        Target.noop()
    bare = time.perf_counter() - t0
    rec.wrap(Target, "noop", "calibration")
    t0 = time.perf_counter()
    for _ in range(calls):
        Target.noop()
    wrapped = time.perf_counter() - t0
    rec.restore()
    return max(wrapped - bare, 0.0) / calls
