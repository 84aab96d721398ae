"""In-memory spans recorded around the benchmark's calls into relaydof.

A span is named ``<use>.<module>.<stage>`` (``uniform.schedule.build``,
``check.region.scale``, ``cli.main``) and records start, end, its parent
span, the operation id and size attributes such as edges, nodes, hops and
bytes.  Spans stay in memory until the run ends; ``summarize`` then turns
them into per-span totals with self time, the span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# attributes summed over a span name's calls; alloc_peak_mb and t0_digits
# are maxima, padding_share a mean
SUMMED = ("edges", "nodes", "hops", "bytes", "doc_bytes", "constraints", "samples", "failures")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
        record.update(attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Stands in for ``Tracer`` in untimed and untraced runs."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})


def summarize(spans: list[dict]) -> dict:
    """``<span>.<field>`` -> total over every span of that name."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    shares = defaultdict(list)
    for s, child_time in zip(spans, covered):
        name = s["name"]
        busy = s["end"] - s["start"]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += busy
        out[f"{name}.self_s"] += busy - child_time
        for key in SUMMED:
            if key in s:
                out[f"{name}.{key}"] += s[key]
        for key in ("alloc_peak_mb", "t0_digits"):
            if key in s:
                out[f"{name}.{key}"] = max(out[f"{name}.{key}"], s[key])
        if "padding_share" in s:
            shares[name].append(s["padding_share"])
    for name, values in shares.items():
        out[f"{name}.padding_share"] = sum(values) / len(values)
    return dict(out)
