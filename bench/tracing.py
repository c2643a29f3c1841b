"""Spans recorded by the benchmark around its own calls into `bilop`.

A traced run records one span per call: name, start, end, parent span and
request id.  Spans stay in memory and are written out when the run ends.
The untraced run uses :class:`NullTracer`, which calls straight through and
wraps nothing, so end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np


class NullTracer:
    """Calls through without recording anything."""

    enabled = False

    def call(self, name, fn, *args, peak=False, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn

    def request(self, kind, request_id):
        return nullcontext()


class PeakProbe(NullTracer):
    """Records the tracemalloc high-water mark of each call marked `peak`,
    and nothing else.  Used on an untimed run, so the cost of tracemalloc
    stays out of every timing."""

    def __init__(self):
        self.peaks_mb = defaultdict(float)

    def call(self, name, fn, *args, peak=False, **kwargs):
        if not peak:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks_mb[name] = max(self.peaks_mb[name], peak_bytes / 2**20)


class Tracer:
    """In-memory span recorder with per-name counters."""

    enabled = True

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, request
        self.counters = defaultdict(float)
        self._stack = []
        self._request_id = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                  "request": self._request_id}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, peak=False, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        """Wrap a benchmark-owned callable so each call is a span and the
        size of each returned array is added to `<name>.points`."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counters[name + ".points"] += np.size(out)
            return out

        return wrapped

    @contextmanager
    def request(self, kind, request_id):
        self._request_id = request_id
        try:
            with self.span("request." + kind) as record:
                yield record
        finally:
            self._request_id = None


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, covered):
        busy, reach = 0.0, s["start"]
        for a, b in sorted(kids):
            a = max(a, reach)
            if b > a:
                busy += b - a
                reach = b
        out.append((s["end"] - s["start"]) - busy)
    return out


def summarize(spans, scale=None) -> dict:
    """Per-name call counts and summed self time, plus the request totals.
    `scale` maps a request id to a factor applied to its spans' times."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    request_s = 0.0
    request_self_s = 0.0
    for s, own in zip(spans, self_times(spans)):
        factor = scale[s["request"]] if scale else 1.0
        own *= factor
        if s["name"].startswith("request."):
            request_s += (s["end"] - s["start"]) * factor
            request_self_s += own
            continue
        calls[s["name"]] += 1
        self_s[s["name"]] += own
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "request_s": request_s,
        "request_self_s": request_self_s,
    }
