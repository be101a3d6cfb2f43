"""Presto stand-in: per-tuple execution of the same query plans.

Presto in the paper is the generic engine that reads from many storage
layers and interprets its operators tuple by tuple. This stand-in preserves
the property the comparison measures — per-tuple dispatch in every inner
loop — by executing the *identical* sub-operator plan through the same
evaluator and Spark stages as the Modularis lowering, at one tuple per
batch (``batch_size=1``): every scan hands each operator kernel one-tuple
batches, in the pre-exchange ``mapInPandas`` pipelines and inside the
nested-plan UDFs alike. The gap to the lowering at its default batch size
is therefore exactly "per-tuple dispatch vs vectorized sub-operator
pipelines", with no second evaluator whose semantics could drift.
"""
from __future__ import annotations

from typing import Dict

from pyspark.sql import DataFrame, SparkSession

from repro.core.lower import run_distributed_on_spark
from repro.modular.common import JoinConfig
from repro.queries.tpch import TpchQuery


def run_presto_sim(
    spark: SparkSession,
    query: TpchQuery,
    tables: Dict[str, DataFrame],
    cfg: JoinConfig,
) -> DataFrame:
    """Execute a TPC-H query one tuple per batch; ``tables`` maps
    synthetic table names (lineitem/orders/part) to DataFrames."""
    relations = {field: tables[name] for field, name in query.table_map.items()}
    return run_distributed_on_spark(spark, query.build_plan(cfg), relations, batch_size=1)
