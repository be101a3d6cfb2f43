"""The distributed GROUP BY as a sub-operator plan (paper Fig. 5).

Reuses the join's building blocks verbatim — histogram/exchange skeleton,
local partitioning, nested maps — and swaps the BuildProbe for a
ReduceByKey. Post-aggregation (another ReduceByKey) happens at every
nesting level and once more on the driver, exactly as in Section 4.3.
"""
from __future__ import annotations

from typing import Dict, Optional

from repro.core import Plan, RowVector
from repro.core.ops import (
    MaterializeRowVector,
    MpiExecutor,
    NestedMap,
    ParameterLookup,
    ParametrizedMap,
    Projection,
    ReduceByKey,
    RowScan,
)
from repro.core.ops.base import SubOperator
from repro.core.types import INT64, TupleType
from repro.modular.common import JoinConfig, local_partition_side, network_partition, rank_input


def groupby_inner2_plan(cfg: JoinConfig, value_field: str, aggs: Dict[str, str]) -> Plan:
    """Innermost plan: per local partition, decompress and aggregate."""
    pl = ParameterLookup()
    data: SubOperator = RowScan(Projection(pl, ["loc_data"]), "loc_data")
    if cfg.compress:
        # restore <k, v> with the network partition id of the enclosing scope
        spec = cfg.spec(value_field)
        typ = TupleType([(cfg.key, INT64), (value_field, INT64)])

        def restore(b: RowVector, p: RowVector) -> RowVector:
            k, v = spec.decompress(b[spec.out_field], int(p["net_pid"][0]))
            return RowVector({cfg.key: k, value_field: v})

        data = ParametrizedMap(Projection(pl, ["net_pid"]), data, restore, typ)
    rk = ReduceByKey(data, cfg.key, aggs)
    return Plan(MaterializeRowVector(rk, field="agg"), name="groupby-inner2")


def groupby_inner1_plan(cfg: JoinConfig, value_field: str, aggs: Dict[str, str]) -> Plan:
    """Per network partition: local partitioning, nested aggregation, and
    level post-aggregation."""
    pl = ParameterLookup()
    cp = local_partition_side(
        cfg, pl, value_field, "net_pid", "net_data", "loc_pid", "loc_data"
    )
    nm2 = NestedMap(cp, groupby_inner2_plan(cfg, value_field, aggs))
    rs = RowScan(nm2, "agg")
    post = ReduceByKey(rs, cfg.key, aggs)
    return Plan(MaterializeRowVector(post, field="part_agg"), name="groupby-inner1")


def rank_groupby_plan(cfg: JoinConfig, field: str, value_field: str, aggs: Dict[str, str]) -> Plan:
    data = rank_input(field)
    ex = network_partition(cfg, data, value_field, "net_pid", "net_data")
    nm1 = NestedMap(ex, groupby_inner1_plan(cfg, value_field, aggs))
    rs = RowScan(nm1, "part_agg")
    post = ReduceByKey(rs, cfg.key, aggs)
    return Plan(MaterializeRowVector(post, field="rank_result"), name="groupby-rank")


def distributed_groupby_plan(
    cfg: JoinConfig,
    field: str = "T",
    value_field: str = "v",
    aggs: Optional[Dict[str, str]] = None,
) -> Plan:
    """Full distributed GROUP BY: MpiExecutor over per-rank inputs, final
    driver-side post-aggregation of all worker results.

    ``aggs`` defaults to summing ``value_field``. Every level applies the
    same spec to the level below, so it must be re-aggregable ('sum',
    'min' or 'max'); 'count' would count partial results, not rows."""
    aggs = aggs if aggs is not None else {value_field: "sum"}
    for c, a in aggs.items():
        if a not in ("sum", "min", "max"):
            raise ValueError(
                f"aggregate {a!r} on {c!r} is not re-aggregable: every level of the "
                "distributed GROUP BY applies it again (use 'sum', 'min' or 'max')"
            )
    me = MpiExecutor(rank_input("rank_inputs"), rank_groupby_plan(cfg, field, value_field, aggs))
    rs = RowScan(me, "rank_result")
    final = ReduceByKey(rs, cfg.key, aggs)
    return Plan(final, name="distributed-groupby")
