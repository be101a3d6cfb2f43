"""Shared test helpers for building small sub-operator plans."""
from __future__ import annotations

import uuid
from contextlib import contextmanager
from types import SimpleNamespace

import pandas as pd

from repro.core import RowVector
from repro.core.ops import ParameterLookup, Projection, RowScan


def source(field: str) -> RowScan:
    """Paper-idiomatic input reader: ParameterLookup -> Projection -> RowScan.

    The plan parameter tuple holds one RowVector per input relation under
    ``field``; this chain unnests it into a flat tuple stream.
    """
    return RowScan(Projection(ParameterLookup(), [field]), field)


def params_of(**frames: pd.DataFrame) -> dict:
    return {name: RowVector(pdf) for name, pdf in frames.items()}


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
