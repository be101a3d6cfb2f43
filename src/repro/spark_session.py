"""SparkSession factory for the spark-submit jobs.

``session_conf()`` is the one list of settings this program's Spark
sessions run with, driver, SQL and worker ones: the jobs in ``jobs/`` and
perfbench get them through ``get_session``, the tests through conftest.py's
``spark`` fixture. Only what the driver JVM reads at launch (master, driver
memory) is set outside it.

Input relations enter Spark RDD-backed: with the local-relation threshold
at 0, ``createDataFrame(pandas)`` builds a ``LogicalRDD`` over Arrow batches
(``Scan ExistingRDD arrow``), never a ``LocalRelation``, whatever the
frame's size. A ``LocalRelation`` holds every row in the plan, and caching
does not drop them: each task of each job over the cached relation still
carries its slice of the rows in its Java-serialized partition (2.6 MiB
per task for 2^18 two-column rows, against 0.15 MiB of Arrow bytes), and
analysing any DataFrame over it takes ≈31 ms instead of ≈6 ms.

An RDD-backed relation has one partition per Arrow batch
(``spark.sql.execution.arrow.maxRecordsPerBatch``, 10 000 rows), so a
stage over it would run one task per 10 000 rows. Every scan of an input
relation therefore goes through ``one_task_per_core``.

Python workers fork from ``repro.spark_daemon``, which stops each task
from re-reading Spark's zip archives (see there).
"""
from __future__ import annotations

import os
from typing import Dict

from pyspark.sql import DataFrame, SparkSession


def session_conf() -> Dict[str, str]:
    """The settings of every session: a loopback driver without a web
    UI, shuffle partitions (``SPARK_SHUFFLE_PARTITIONS``, default 64),
    Arrow for pandas conversions, no broadcast joins (so joins take the
    shuffle path the papers measure), RDD-backed input relations, and the
    Python worker daemon ``repro.spark_daemon``."""
    return {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.sql.shuffle.partitions": os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.localRelationThreshold": "0",
        "spark.python.daemon.module": "repro.spark_daemon",
    }


def one_task_per_core(df: DataFrame) -> DataFrame:
    """``df`` in at most ``defaultParallelism`` partitions, merged without
    a shuffle (``coalesce``); one with fewer keeps its own. The Spark
    analogue of ``split_relation``'s one slice per rank."""
    return df.coalesce(df.sparkSession.sparkContext.defaultParallelism)


def get_session(app: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(map=session_conf())
        .getOrCreate()
    )
