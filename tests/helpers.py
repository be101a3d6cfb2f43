"""Shared test helpers for building small sub-operator plans."""
from __future__ import annotations

import re
import uuid
from collections import Counter
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


#: the Catalyst nodes that run Python: each is a round trip of its rows from
#: the JVM to a Python worker and back
PYTHON_NODES = ("MapInPandas", "FlatMapCoGroupsInPandas", "FlatMapGroupsInPandas", "PythonUDF")


def python_nodes(df) -> Counter:
    """The Python nodes of ``df``'s optimized logical plan, counted by
    name: plan operators, and ``PythonUDF`` expressions outside them (a
    Python operator holds its function as one)."""
    counts: Counter = Counter()

    def items(seq):
        return [seq.apply(i) for i in range(seq.size())]

    def visit(node, is_plan):
        python = node.nodeName() in PYTHON_NODES
        if python:
            counts[node.nodeName()] += 1
        for child in items(node.children()):
            visit(child, is_plan)
        if is_plan and not python:
            for e in items(node.expressions()):
                visit(e, False)

    visit(df._jdf.queryExecution().optimizedPlan(), True)
    return counts


def plan_string(df) -> str:
    """``df``'s optimized logical plan as text, expression ids (``#123``)
    stripped: equal for two DataFrames with the same Catalyst plan, also
    across Spark sessions."""
    return re.sub(r"#\d+", "", df._jdf.queryExecution().optimizedPlan().toString())
