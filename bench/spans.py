"""In-memory span recorder and the arithmetic the traced run reports on it.

A span is one call through a wrapped function: its name, its own id, the
id of the span that was open when it started (its parent), the id of the
step it belongs to, start and end times, and one size figure chosen by the
wrapper (games simulated, points in a front, bytes at the allocation peak).
Spans stay in memory while the workload runs and are written out once, at
the end, to a file of their own.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

SPAN_DTYPE = np.dtype(
    [
        ("name", "i4"),
        ("id", "i8"),
        ("parent", "i8"),
        ("step", "i8"),
        ("t0", "f8"),
        ("t1", "f8"),
        ("size", "f8"),
    ]
)

# Percentiles offered for the tail figure, in hundredths of a percent.
PERCENTILE_LADDER_BP = (5000, 9000, 9500, 9900, 9990, 9999)
MIN_BEYOND = 10


class Tracer:
    """Records nested spans of one single-threaded workload process.

    A span whose name is in ``step_names`` starts a new step; every other
    span inherits the step of its parent (-1 outside any step).
    """

    def __init__(self, step_names=()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._step_names = frozenset(step_names)
        self._stack: list[list] = []
        self._records: list[tuple] = []
        self._next_id = 0

    def open(self, name: str, size: float = 0.0) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            parent, step = self._stack[-1][0], self._stack[-1][2]
        else:
            parent, step = -1, -1
        if name in self._step_names:
            step = sid
        self._stack.append([sid, parent, step, nid, size, time.perf_counter()])

    def close(self, size: float | None = None) -> None:
        t1 = time.perf_counter()
        sid, parent, step, nid, opened_size, t0 = self._stack.pop()
        self._records.append(
            (nid, sid, parent, step, t0, t1, opened_size if size is None else size)
        )

    def wrap(self, name, fn, size=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments giving
        one; ``size`` is an optional function of the arguments.
        """
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            tracer.open(span_name, 0.0 if size is None else float(size(*args, **kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        return traced

    def spans(self) -> np.ndarray:
        """Closed spans ordered by id, which is the order they were opened in."""
        arr = np.array(self._records, dtype=SPAN_DTYPE)
        return arr[np.argsort(arr["id"], kind="stable")]

    def save(self, path: Path) -> None:
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names, dtype=str))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-bounds children are not counted
    twice.
    """
    index = {int(sid): i for i, sid in enumerate(spans["id"])}
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(spans["parent"]):
        if parent in index:
            children.setdefault(index[int(parent)], []).append(i)
    out = spans["t1"] - spans["t0"]
    for p, kids in children.items():
        lo, hi = spans["t0"][p], spans["t1"][p]
        intervals = sorted(
            (max(spans["t0"][k], lo), min(spans["t1"][k], hi)) for k in kids
        )
        covered = 0.0
        cur_start, cur_end = None, None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile: the p-th percentile of n sorted
    samples is the one at rank ceil(p/100 * n), and the samples beyond it
    are the n - rank that follow.  Returns (percentile, value), or None
    when even the median has fewer than ten samples beyond it.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    n = values.size
    best = None
    for bp in PERCENTILE_LADDER_BP:
        rank = -(-bp * n // 10_000)  # ceil without floating point
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (bp / 100.0, float(values[rank - 1]))
    return best


def outermost(spans: np.ndarray, names: list[str], prefix: str) -> np.ndarray:
    """Mask of spans named ``prefix``* with no ancestor also named ``prefix``*.

    Summing their durations gives the time a layer was busy without
    counting its nested calls twice.  Spans must be ordered by id.
    """
    in_layer = np.array([n.startswith(prefix) for n in names], dtype=bool)
    if spans.size == 0:
        return np.zeros(0, dtype=bool)
    mine = in_layer[spans["name"]]
    index = {int(sid): i for i, sid in enumerate(spans["id"])}
    # covered[i]: span i or one of its ancestors is in the layer.
    covered = np.zeros(spans.size, dtype=bool)
    top = np.zeros(spans.size, dtype=bool)
    for i in range(spans.size):
        p = index.get(int(spans["parent"][i]))
        above = covered[p] if p is not None else False
        covered[i] = above or mine[i]
        top[i] = mine[i] and not above
    return top
