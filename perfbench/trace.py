"""In-memory spans and counters for the traced run.

A span is ``(id, parent, name, start, end)``; spans of one traced run
share the tracer.  A layer's self time is its span durations minus the
part covered by its child spans.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child[s["id"]]
                   for s in self.spans if s["name"] == name)

    def dump(self) -> dict:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                 for s in self.spans]
        return {"spans": spans, "counts": dict(self.counts)}


def _own_stats(executor):
    """The stats of the operators this execution ran, without the stats
    it inherited from an already materialized input (which an earlier
    execution recorded)."""
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer,
    )
    from ray.data._internal.stats import DatasetStats

    stats = DatasetStats(metadata={}, parent=None)
    for op in executor._topology:
        if isinstance(op, InputDataBuffer):
            continue
        stats = stats.child_builder(
            op.name, override_start_time=executor._start_time,
        ).build_multioperator(op.get_stats())
    return stats


class ExecutionRecorder:
    """Captures the stats of every Ray Data execution the driver runs,
    by wrapping ``StreamingExecutor.shutdown`` while the recorder is
    active."""

    def __init__(self):
        self.executions: list[dict] = []

    def __enter__(self) -> "ExecutionRecorder":
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        self._cls = StreamingExecutor
        self._orig = StreamingExecutor.shutdown
        recorder = self

        def shutdown(executor, *a, **kw):
            first = executor._execution_started and not executor._shutdown
            out = recorder._orig(executor, *a, **kw)
            if first:
                recorder._record(_own_stats(executor).to_summary())
            return out

        StreamingExecutor.shutdown = shutdown
        return self

    def __exit__(self, *exc) -> None:
        self._cls.shutdown = self._orig

    def _record(self, summary) -> None:
        ops = []
        # each operator's stats sit one level further up the parents
        stack, seen = [summary], set()
        while stack:
            s = stack.pop()
            if id(s) in seen:
                continue
            seen.add(id(s))
            stack.extend(s.parents)
            ops.extend(self._operators(s))
        self.executions.append({"operators": ops})

    @staticmethod
    def _operators(summary) -> list[dict]:
        ops = []
        for op in summary.operators_stats:
            wall = op.wall_time or {}
            rows = op.output_num_rows or {}
            size = op.output_size_bytes or {}
            ops.append({"name": op.operator_name,
                        "task_wall_s": float(wall.get("sum", 0.0)),
                        "rows_out": float(rows.get("sum", 0.0)),
                        "bytes_out": float(size.get("sum", 0.0)),
                        "span_s": float(op.latest_end_time
                                        - op.earliest_start_time)
                        if op.latest_end_time else 0.0})
        return ops

    def task_wall_s(self) -> float:
        """Summed task wall seconds over every recorded operator."""
        return sum(o["task_wall_s"] for e in self.executions
                   for o in e["operators"])

    def operator(self, name_part: str) -> dict:
        """Summed rows/bytes of operators whose name contains
        ``name_part``."""
        rows = sum(o["rows_out"] for e in self.executions
                   for o in e["operators"] if name_part in o["name"])
        size = sum(o["bytes_out"] for e in self.executions
                   for o in e["operators"] if name_part in o["name"])
        return {"rows_out": rows, "bytes_out": size}
