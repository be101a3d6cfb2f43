"""Monolithic distributed join lowered onto Spark — the Fig. 6b comparator.

Same Catalyst stage structure as the modular lowering (a native
pre-partitioning ``Project`` computing the radix pid and the compressed
word, shuffle on the pid, applyInPandas per partition) but the join stage
is one hand-fused numpy kernel specialized to the 16-byte <key, value>
workload: no sub-operator dispatch, no generic evaluator, and no histogram
stage (the shuffle partitions by ``__pid`` itself). The delta between this
and the lowered modular plan is the "cost of modularity" measured in the
paper (12–28 %).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import radix
from repro.modular.common import JoinConfig
from repro.monolithic.join import _np_hash_join
from repro.spark_session import one_task_per_core


def _pre(df: DataFrame, cfg: JoinConfig, value_field: str) -> DataFrame:
    """The wire columns and ``__pid`` in one native ``selectExpr`` over the
    relation scanned as the modular lowering scans it."""
    spec = cfg.spec(value_field)
    wire = [f"{spec.word.sql()} AS kv"] if spec is not None else ["k", value_field]
    return one_task_per_core(df).selectExpr(*wire, f"{cfg.net_pid().sql()} AS __pid")


def _join_fn(cfg: JoinConfig):
    spec_r, spec_s = cfg.spec("vr"), cfg.spec("vs")
    n_loc, net_bits = cfg.n_loc, cfg.net_bits

    def split(pdf, spec, vf):
        if spec is not None:
            k, v = spec.split(pdf["kv"].to_numpy())
            loc = k & (n_loc - 1)
        else:
            k = pdf["k"].to_numpy().astype(np.int64)
            v = pdf[vf].to_numpy().astype(np.int64)
            loc = (k >> net_bits) & (n_loc - 1)
        return radix.scatter_arrays([k, v], loc, n_loc)

    def fn(key, lpdf, rpdf):
        pid = int(key[0])
        subs_r = split(lpdf, spec_r, "vr")
        subs_s = split(rpdf, spec_s, "vs")
        outs = []
        for i in range(n_loc):
            jk, jl, jr = _np_hash_join(subs_r[i][0], subs_r[i][1], subs_s[i][0], subs_s[i][1])
            if spec_r is not None:
                jk = spec_r.restore(jk, pid)  # recover dropped bits
            outs.append((jk, jl, jr))
        return pd.DataFrame(
            {
                "k": np.concatenate([o[0] for o in outs]),
                "vr": np.concatenate([o[1] for o in outs]),
                "vs": np.concatenate([o[2] for o in outs]),
            }
        )

    return fn


def run_monolithic_join_spark(
    spark: SparkSession, r: DataFrame, s: DataFrame, cfg: JoinConfig
) -> DataFrame:
    """The joined DataFrame: both relations' pre-exchange projections,
    cogrouped on ``__pid`` into the fused join kernel."""
    pre_r, pre_s = _pre(r, cfg, "vr"), _pre(s, cfg, "vs")
    return (
        pre_r.groupBy("__pid")
        .cogroup(pre_s.groupBy("__pid"))
        .applyInPandas(_join_fn(cfg), schema="k long, vr long, vs long")
    )
