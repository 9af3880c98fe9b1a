"""Timing, failure accounting and span tracing around calls into the library.

The benchmark measures each layer from outside: every call it makes into a
public function of `nft_ood` goes through `Harness.op`, which times the call
and counts failures. With a `Tracer` attached, `op` also records a span (name,
start, end, parent, iteration id and work counts). Spans stay in memory and
are written once, when the run ends.
"""

import json
import time
from contextlib import contextmanager

class CheckFailed(Exception):
    """A library output disagreed with its reference; the run cannot go on."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.iteration = None

    @contextmanager
    def span(self, name, counts):
        """Span around the block; work counts filled in by the block are kept."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec.update(counts)
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


class Harness:
    """Per-run state: op timings, attempted/failed counts and an optional tracer."""

    def __init__(self):
        self.tracer = None
        self.timings = {}  # op name -> list of durations (s)
        self.attempted = 0
        self.failed = 0
        self.layer_failed = {}  # layer -> failures
        self.op_failed = {}  # op name -> failures
        self.messages = []

    @contextmanager
    def op(self, name, **counts):
        """Time one call into the library; name starts with its layer.

        Yields the span's work counts, which the block may still fill in.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield counts
            else:
                with self.tracer.span(name, counts):
                    yield counts
        except Exception as e:
            self._fail(name, f"{name} raised {type(e).__name__}: {e}")
            raise
        finally:
            self.timings.setdefault(name, []).append(time.perf_counter() - t0)

    @contextmanager
    def phase(self, kind, tag):
        """Root span `bench.<kind>` grouping the ops of one setup, iteration or pass."""
        if self.tracer is None:
            yield
            return
        self.tracer.iteration = tag
        try:
            with self.tracer.span(f"bench.{kind}", {}):
                yield
        finally:
            self.tracer.iteration = None

    def check(self, name, ok, message):
        """Record one correctness check of an output of a layer or op."""
        self.attempted += 1
        if not ok:
            self._fail(name, message)
        return ok

    def require(self, name, ok, message):
        if not self.check(name, ok, message):
            raise CheckFailed(message)

    def _fail(self, name, message):
        self.failed += 1
        self.op_failed[name] = self.op_failed.get(name, 0) + 1
        layer = name.split(".")[0]
        self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1
        self.messages.append(message)


def tail(values):
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, n) or None when there are fewer than 11
    samples. The percentile is the share of samples at or below the value.
    """
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n, n


_SPAN_FIELDS = ("id", "name", "parent", "iteration", "start", "end")


def self_times(spans):
    """Per-span self time: duration minus what its children cover."""
    covered = {}
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] = covered.get(rec["parent"], 0.0) + (
                rec["end"] - rec["start"])
    return {rec["id"]: max(0.0, rec["end"] - rec["start"] - covered.get(rec["id"], 0.0))
            for rec in spans}


def aggregate(spans, weight):
    """Weighted per-name sums (calls, busy_s, work counts) and per-layer self time.

    `weight(span)` scales each span, e.g. 1/iterations for spans of the timed
    iterations so that the sums read per iteration. Durations are kept
    unweighted for percentiles.
    """
    by_name = {}
    for rec in spans:
        w = weight(rec)
        agg = by_name.setdefault(rec["name"], {"calls": 0.0, "busy_s": 0.0, "durations": []})
        dur = rec["end"] - rec["start"]
        agg["calls"] += w
        agg["busy_s"] += w * dur
        agg["durations"].append(dur)
        for key, val in rec.items():
            if key not in _SPAN_FIELDS:
                agg[key] = agg.get(key, 0.0) + w * val
    layer_self = {}
    for rec_id, dur in self_times(spans).items():
        rec = spans[rec_id]
        layer = rec["name"].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + weight(rec) * dur
    return by_name, layer_self
