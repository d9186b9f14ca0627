"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent). Spans are kept in a list while the
run is going and written out once at the end; the self time of a span is
its duration minus the part covered by its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - child_time[i]
                for i, rec in enumerate(self.spans)]

    def durations(self, name: str) -> list[float]:
        return [rec["end"] - rec["start"] for rec in self.spans if rec["name"] == name]

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as f:
            json.dump([{**rec, "self": own[i]} for i, rec in enumerate(self.spans)], f)


def percentiles(values: list[float], scale: float) -> tuple[float, float, int]:
    """(p50, p90, n) of ``values`` times ``scale``; zeros for no samples."""
    if not values:
        return 0.0, 0.0, 0
    vals = sorted(v * scale for v in values)
    if len(vals) == 1:
        return vals[0], vals[0], 1
    deciles = statistics.quantiles(vals, n=10, method="inclusive")
    return statistics.median(vals), deciles[8], len(vals)
