"""In-memory spans recorded around the benchmark's calls into the program.

A span carries a name, start, end, parent span and job id; a job is one
pass of a workload (or one replay after the passes).  Spans are kept in
memory and written once, when the benchmark ends.  Self time is a span's
duration minus the time its child spans cover.  Counts (iterations,
rows, bytes, derived per-unit costs) are recorded at the same
boundaries, one sample per call.  The tracer also times
its own bookkeeping, which is the tracing overhead it reports.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

_OFF = nullcontext()


class Tracer:
    """Span recorder; when disabled, :meth:`span` is a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = 0
        self.overhead_s = 0.0
        # [name, start, end, parent, job]; the list index is the span id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, list[float]] = defaultdict(list)

    def span(self, name: str):
        return self._span(name) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str):
        t0 = time.perf_counter()
        sid = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self.spans.append(record)
        self._stack.append(sid)
        record[1] = start = time.perf_counter()
        self.overhead_s += start - t0
        try:
            yield
        finally:
            record[2] = end = time.perf_counter()
            self._stack.pop()
            self.overhead_s += time.perf_counter() - end

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def self_times(self) -> list[float]:
        """Per span id, its duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_job(self, name: str) -> dict[int, float]:
        """Summed self time of spans called ``name``, per job."""
        totals: dict[int, float] = defaultdict(float)
        for (span_name, _, _, _, job), own in zip(self.spans, self.self_times()):
            if span_name == name:
                totals[job] += own
        return dict(totals)

    def write(self, path: Path, header: dict) -> None:
        own = self.self_times()
        spans = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent,
             "job": job, "self": own[i]}
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "counts": self.counts, "spans": spans},
                                   indent=1) + "\n")
