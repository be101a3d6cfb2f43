"""Measurement plumbing shared by every workload: spans, the closed-loop
query timer, result checks against DuckDB and the summary statistics.

Nothing here imports Spark, so the simulated-cluster workloads run without
starting a JVM.
"""
from __future__ import annotations

import itertools
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder. A span has a name, start, end, parent span
    and the id of the query it belongs to; the caller may attach counts to
    the dict a span yields. Nothing is written until the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.query_id: Optional[str] = None
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        sid = next(self._ids)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "query": self.query_id, "name": name, **attrs}
        self._stack.append(sid)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.named(name)]


class NullTracer:
    """Tracing off: spans cost one context-manager call and record nothing."""

    enabled = False
    query_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


# ---------------------------------------------------------------------------
# result checks
# ---------------------------------------------------------------------------

class Mismatch(AssertionError):
    """A query returned a result that differs from the DuckDB answer."""


def duckdb_frame(sql: str, tables: Dict[str, pd.DataFrame]) -> pd.DataFrame:
    """Run ``sql`` in DuckDB over pandas ``tables`` (the oracle)."""
    import duckdb

    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def sums_digest(pdf: pd.DataFrame, key: Optional[str] = None) -> Dict[str, int]:
    """Row count plus the exact integer sum of every column and, given a
    ``key`` column, the sum of ``key * c`` for every other column ``c``.
    Column sums alone cannot tell which key a value was paired with; the
    products can."""
    cols = {c: pdf[c].to_numpy().astype(np.int64) for c in pdf.columns}
    out = {"rows": int(len(pdf))}
    for c in sorted(cols):
        out[c] = int(cols[c].sum())
        if key is not None and c != key:
            out[f"{key}*{c}"] = int((cols[key] * cols[c]).sum())
    return out


def check_digest(got: Dict[str, int], expected: Dict[str, int]) -> None:
    if got != expected:
        raise Mismatch(f"digest {got} != expected {expected}")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Query:
    """One query of a workload: ``run`` executes it and returns its result,
    ``check`` raises when that result is wrong."""

    label: str
    input_rows: int
    run: Callable[[Any], Any]
    check: Callable[[Any], None]


@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    wall_s: float = 0.0


def closed_loop(q: Query, seconds: float, tracer) -> LoopResult:
    """One client running ``q`` one at a time while fewer than ``seconds``
    have passed. A query that raises or returns a wrong result is logged and
    counted as failed; its latency is not a sample."""
    res = LoopResult()
    start = perf_counter()
    while perf_counter() - start < seconds:
        tracer.query_id = f"{q.label}#{res.attempted}"
        res.attempted += 1
        try:
            t0 = perf_counter()
            with tracer.span("query"):
                out = q.run(tracer)
            dt = perf_counter() - t0
            q.check(out)
        except Exception:
            res.failed += 1
            print(f"[perfbench] query {tracer.query_id} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        res.latencies.append(dt)
        res.rows += q.input_rows
    res.wall_s = perf_counter() - start
    tracer.query_id = None
    return res


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples above it, linearly interpolated, and never below the median.
    A run with fewer than 20 samples has no such percentile above the
    median, so its tail is the median."""
    n = len(xs)
    if n == 0:
        return 0.0, 50.0
    p = max(50.0, 100.0 * (n - 10) / n)
    return float(np.percentile(xs, p)), p


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out
