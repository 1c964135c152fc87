"""In-memory spans for the traced benchmark run.

A span records a name, start and end (``time.perf_counter`` seconds), the
id of the span open around it, and the id of the configuration it belongs
to.  Spans stay in memory and are written out once, when the run ends.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; one tracer per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, config: str | None = None):
        parent = self._open[-1] if self._open else None
        if config is None and parent is not None:
            config = parent["config"]
        rec = {"id": len(self.spans), "name": name,
               "parent": None if parent is None else parent["id"],
               "config": config, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def no_span(name: str, config: str | None = None):
    """Stand-in for ``Tracer.span`` in untraced runs."""
    return nullcontext()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children of one span never overlap: the benchmark is single-threaded.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
