"""In-memory spans recorded around calls into hashdiv's public functions.

A span is (name, start_ns, end_ns, parent, request, probe). `parent` is the
index of the enclosing span or -1; `request` groups the spans of one
request (-1 outside any request). A probe span re-times a call that a
public function hides, on the same input, after the request has ended; it
is never a child of the request, so it does not count in request time.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, parent: int = -1, request: int = -1) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent, request, False])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = perf_counter_ns()

    def call(self, name: str, fn, *args, parent: int = -1, request: int = -1, probe: bool = False, **kwargs):
        start = perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append([name, start, perf_counter_ns(), parent, request, probe])
        return out

    def durations_us(self, name: str) -> np.ndarray:
        return np.array([(s[2] - s[1]) / 1e3 for s in self.spans if s[0] == name])

    def by_request(self, name: str) -> dict[int, float]:
        """Duration in us of the span `name` of each request, child or probe."""
        return {s[4]: (s[2] - s[1]) / 1e3 for s in self.spans if s[0] == name and s[4] >= 0}

    def self_times_us(self, name: str) -> np.ndarray:
        """Duration of each `name` span minus the time its child spans cover
        (children of one span never overlap: the benchmark is one thread)."""
        child = {}
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0) + (s[2] - s[1])
        return np.array(
            [(s[2] - s[1] - child.get(i, 0)) / 1e3 for i, s in enumerate(self.spans) if s[0] == name]
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request", "probe"], "spans": self.spans}, fh)
