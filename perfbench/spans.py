"""Benchmark-owned spans and the layer table built from them.

A :class:`Recorder` keeps spans in memory: name, start, end, parent and
the iteration id every span of one iteration shares.  Spans wrap calls
into the program's public functions from outside; nothing in the
program is instrumented for this.  :func:`layer_table` turns them into
self times - a span's duration minus the part of it its children cover -
and :func:`unattributed_share` compares the top-level spans of each
iteration with the iteration's own wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional

ROOT = "iteration"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    iteration: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._iteration = 0

    @contextmanager
    def iteration(self) -> Iterator[None]:
        """The root span of one iteration; its children share its id."""
        self._iteration += 1
        with self.span(ROOT):
            yield

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), 0.0, parent, self._iteration)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def export_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    spans = list(spans)
    covered: Dict[int, float] = {span.id: 0.0 for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in covered:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def layer_table(spans: Iterable[Span]) -> List[Dict[str, float]]:
    """Per span name: calls, total time, self time and share of the wall.

    The wall is the summed duration of the root spans; the ``iteration``
    row's self time is the unattributed remainder.
    """
    spans = list(spans)
    own = self_times(spans)
    wall = sum(span.duration for span in spans if span.name == ROOT)
    rows: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = rows.setdefault(
            span.name, {"name": span.name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def unattributed_share(spans: Iterable[Span]) -> float:
    """Share of the iterations' wall time that no layer span covers."""
    table = {row["name"]: row for row in layer_table(spans)}
    root = table.get(ROOT)
    if root is None or root["total_s"] <= 0:
        return 0.0
    return root["self_s"] / root["total_s"]


def per_iteration(spans: Iterable[Span], name: str) -> List[float]:
    """The summed duration of ``name`` spans in each iteration that has one."""
    totals: Dict[int, float] = {}
    for span in spans:
        if span.name == name:
            totals[span.iteration] = totals.get(span.iteration, 0.0) + span.duration
    return [totals[key] for key in sorted(totals)]


def durations(spans: Iterable[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def render(table: List[Dict[str, float]]) -> str:
    lines = [f"{'layer':<34}{'calls':>7}{'total s':>11}{'self s':>11}{'share':>8}"]
    for row in table:
        lines.append(
            f"{row['name']:<34}{int(row['calls']):>7}{row['total_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{row['share']:>8.1%}"
        )
    return "\n".join(lines)
