"""Spans recorded around the benchmark's calls into horpo.

A span has a name (`<module>.<call>`, the module being the layer), a start
and end time, the span that was open when it began, and the item it belongs
to. A span opened with an item sets it for every span after it, until the
next one that names an item. Spans stay in memory and are written out when
the run ends. The null tracer records nothing, so untraced runs pay only
an empty `with`.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    round: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.round = "setup"
        self.item = ""

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if item is not None:
            self.item = item
        index = len(self.spans)
        rec = Span(name, time.perf_counter(), 0.0, parent, self.item, self.round)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()


class NullTracer:
    enabled = False
    spans: list[Span] = []
    round = "setup"
    item = ""
    _null = contextlib.nullcontext()

    def span(self, name: str, item: str | None = None):
        return self._null


def self_times(spans: list[Span], duration) -> dict[str, dict[str, float]]:
    """Time spent in each layer's own spans, not in their child spans, by
    round and then by layer; `duration(span)` gives a span's time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += duration(s)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        layers = out.setdefault(s.round, {})
        layers[s.layer] = layers.get(s.layer, 0.0) + duration(s) - child[i]
    return out


def to_jsonable(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
