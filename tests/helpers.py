"""Shared test helpers for building small sub-operator plans."""
from __future__ import annotations

import uuid
from contextlib import contextmanager
from types import SimpleNamespace
from typing import List, Optional

import pandas as pd

from repro.core import Plan, RowVector
from repro.core.ops import ExecContext, ParameterLookup, Projection, RowScan
from repro.core import interp, vectorized


def source(field: str) -> RowScan:
    """Paper-idiomatic input reader: ParameterLookup -> Projection -> RowScan.

    The plan parameter tuple holds one RowVector per input relation under
    ``field``; this chain unnests it into a flat tuple stream.
    """
    return RowScan(Projection(ParameterLookup(), [field]), field)


def params_of(**frames: pd.DataFrame) -> dict:
    return {name: RowVector(pdf) for name, pdf in frames.items()}


def run_both(plan: Plan, params: Optional[dict] = None) -> tuple:
    """Run a plan through the row interpreter and the vectorized evaluator;
    returns (rows_interp, rows_vectorized) for agreement checks."""
    r = interp.run_rows(plan, params=params)
    v = vectorized.run_rows(plan, params=params)
    return r, v


def _norm(v):
    """Normalize for comparison: NaN -> None, numeric -> float."""
    if v is None:
        return None
    try:
        if pd.isna(v):
            return None
    except (TypeError, ValueError):
        pass
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    return v


def sort_rows(rows: List[dict]) -> List[dict]:
    rows = [{k: _norm(v) for k, v in t.items()} for t in rows]
    return sorted(rows, key=lambda t: tuple(repr(t[k]) for k in sorted(t)))


def assert_same_rows(a: List[dict], b: List[dict]) -> None:
    assert sort_rows(a) == sort_rows(b), f"\nA={sort_rows(a)[:5]}\nB={sort_rows(b)[:5]}"


@contextmanager
def spark_jobs(spark):
    """Run the block in its own Spark job group. On exit, the yielded
    object's ``count`` is the number of jobs the block triggered, read once
    the listener bus has drained (the status tracker learns of jobs
    through it)."""
    sc = spark.sparkContext
    group = f"spark-jobs-{uuid.uuid4().hex}"
    jobs = SimpleNamespace(count=None)
    sc.setJobGroup(group, "jobs counted by tests.helpers.spark_jobs")
    try:
        yield jobs
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
    jobs.count = len(sc.statusTracker().getJobIdsForGroup(group))
