"""Span recording around the program's public entry points, and self time.

The benchmark traces from its own files: :func:`instrument` replaces one
method *on one object* with a wrapper that records a span around each call,
and returns the function that puts the original back.  Nothing under
``src/`` changes, and an untraced run executes the program's own methods
with no wrapper in the way.

A span records its name, start, end, parent span and a request id shared by
every span of one request.  Within a thread, a span's parent is the span
open around it.  A request that crosses threads (the front door's event loop
hands a query to a service worker thread) is linked by *hand-off*: the layer
that passes the request object on parks its span under the object, and the
next layer that receives the same object adopts it as parent and shares its
request id.

Spans stay in memory until :meth:`SpanRecorder.dump` writes them out at the
end of a run.  :func:`self_times` gives each span's duration minus the part
of it covered by its children, which is the time the layer spent itself.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "parent", "rid", "name", "start", "end", "attrs")

    def __init__(
        self,
        sid: int,
        parent: Optional[int],
        rid: int,
        name: str,
        start: float,
        end: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.sid, self.parent, self.rid, self.name, self.start, self.end, self.attrs]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        return cls(*row)


class SpanRecorder:
    """In-memory span store with per-thread nesting and cross-thread hand-off."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._parked: Dict[int, Tuple[Any, Span]] = {}
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, carrier: Any = None) -> Span:
        """Start a span nested in this thread's open span, or adopting one
        parked under ``carrier``, or as the root of a new request."""
        stack = self._stack()
        parent: Optional[Span] = stack[-1] if stack else None
        if parent is None and carrier is not None:
            with self._lock:
                parked = self._parked.pop(id(carrier), None)
            if parked is not None:
                parent = parked[1]
        sid = next(self._ids)
        span = Span(
            sid,
            parent.sid if parent is not None else None,
            parent.rid if parent is not None else sid,
            name,
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def park(self, carrier: Any, span: Span) -> None:
        """Leave ``span`` as the parent of the next layer given ``carrier``."""
        with self._lock:
            self._parked[id(carrier)] = (carrier, span)

    def record(
        self, name: str, start: float, end: float, rid: int, attrs: Optional[dict] = None
    ) -> None:
        """Add a span timed by the caller (root of request ``rid``)."""
        self.spans.append(Span(next(self._ids), None, rid, name, start, end, attrs))

    def clear(self) -> None:
        with self._lock:
            self._parked.clear()
        self.spans = []

    def dump(self, path: str) -> int:
        """Write every finished span as one JSON row per line."""
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_row(), separators=(",", ":")))
                handle.write("\n")
        return len(spans)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_row(json.loads(line)) for line in handle if line.strip()]


def instrument(
    recorder: SpanRecorder,
    owner: Any,
    attribute: str,
    name: str,
    describe: Optional[Callable[[tuple, dict, Any], Optional[dict]]] = None,
    carried: bool = False,
    park_when: Optional[Callable[[Any], bool]] = None,
) -> Callable[[], None]:
    """Record a span around every call of ``owner.attribute``.

    ``carried``: the first argument is a request object that may arrive
    from another thread — adopt a span parked under it.  ``park_when``:
    after the call, park this span under that request object when the
    predicate holds for the result (the request travels on).  ``describe``
    returns the span's attributes from ``(args, kwargs, result)``.

    Returns the function that removes the wrapper again.
    """
    had_own = attribute in vars(owner)
    original = getattr(owner, attribute)

    def traced(*args, **kwargs):
        span = recorder.open(name, args[0] if carried and args else None)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if describe is not None:
            span.attrs = describe(args, kwargs, result)
        if park_when is not None and args and park_when(result):
            recorder.park(args[0], span)
        return result

    setattr(owner, attribute, traced)

    def restore() -> None:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)

    return restore


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``{span id: duration minus the union of its children's intervals}``.

    A child's interval is clipped to its parent's, so a child that outlives
    its parent (a hand-off across threads) only covers the overlap.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = span.duration - covered
    return result


def self_time_by_layer(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """Self time of every span, grouped by span name."""
    spans = list(spans)
    own = self_times(spans)
    layers: Dict[str, List[float]] = {}
    for span in spans:
        layers.setdefault(span.name, []).append(own[span.sid])
    return layers
