"""The distributed GROUP BY as a sub-operator plan (paper Fig. 5).

The join's plan skeleton (``repro.modular.join``) verbatim — histogram/
exchange, local partitioning, nested maps, the compressed-key restore —
with a ReduceByKey in the BuildProbe's place. Post-aggregation (another
ReduceByKey) happens at every nesting level and once more on the driver,
exactly as in Section 4.3.
"""
from __future__ import annotations

from typing import Dict, Optional

from repro.core import Plan
from repro.core.ops import ReduceByKey
from repro.modular.common import JoinConfig
from repro.modular.join import LocalStep, Skeleton


def distributed_groupby_plan(
    cfg: JoinConfig,
    field: str = "T",
    value_field: str = "v",
    aggs: Optional[Dict[str, str]] = None,
) -> Plan:
    """Full distributed GROUP BY of relation ``field`` on ``cfg.key``:
    aggregation per local partition, then re-aggregation of the results
    per network partition, per rank and on the driver.

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
    step = LocalStep("groupby", lambda scans, key: ReduceByKey(scans[0], key, aggs), list(aggs))
    return Skeleton(
        cfg, [field], [value_field], step, post=lambda op: ReduceByKey(op, cfg.key, aggs)
    ).plan()
