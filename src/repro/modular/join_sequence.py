"""Sequences of joins on a common attribute (paper Section 4.2, Fig. 4).

* ``naive_sequence_plan`` — each join's output is re-shuffled through the
  network before the next join: a cascade of N joins performs 2·N network
  partitioning phases and materializes every intermediate result.
* ``optimized_sequence_plan`` — all N+1 relations are network-partitioned
  once up front; inside the nested plans the BuildProbes are chained, so
  only N+1 shuffles and a single materialization happen.

The optimization is pure plan restructuring over the same sub-operators —
the paper's key extensibility demonstration.
"""
from __future__ import annotations

from typing import List

from repro.core import Plan
from repro.core.ops import MaterializeRowVector, MpiExecutor, NestedMap, RowScan, Zip
from repro.core.ops.base import SubOperator
from repro.modular.common import JoinConfig, network_partition, rank_input
from repro.modular.join import Skeleton, distributed_join_plan, probe_step


def relation_fields(n_joins: int) -> List[str]:
    """A cascade of N joins consumes N+1 relations R0..RN."""
    return [f"R{i}" for i in range(n_joins + 1)]


def value_fields(n_joins: int) -> List[str]:
    return [f"v{i}" for i in range(n_joins + 1)]


def optimized_sequence_plan(cfg: JoinConfig, n_joins: int) -> Plan:
    """All relations exchanged up front (N+1 shuffles), local partitioning
    for every side in the first NestedMap, chained BuildProbes in the
    second — exactly Fig. 4 (right). This is just the N-ary instantiation
    of the generic join plan."""
    if cfg.compress:
        raise ValueError("sequences are evaluated on uncompressed tuples")
    return distributed_join_plan(
        cfg, fields=relation_fields(n_joins), value_fields=value_fields(n_joins)
    )


def naive_rank_plan(cfg: JoinConfig, n_joins: int) -> Plan:
    """Per-rank naive cascade: the (i-1)-th join output re-enters the
    histogram/exchange skeleton as the build side of join i (2·N shuffles,
    N-1 intermediate materializations)."""
    fields = relation_fields(n_joins)
    vals = value_fields(n_joins)
    cur: SubOperator = rank_input(fields[0])
    for i in range(1, n_joins + 1):
        sfx_l, sfx_r = f"l{i}", f"r{i}"
        ex_l = network_partition(cfg, cur, vals[i - 1], f"net_pid_{sfx_l}", f"net_data_{sfx_l}")
        ex_r = network_partition(
            cfg, rank_input(fields[i]), vals[i], f"net_pid_{sfx_r}", f"net_data_{sfx_r}"
        )
        zp = Zip([ex_l, ex_r])
        pair = [vals[i - 1], vals[i]]
        # the shared first nested level, its sides named by their suffixes
        inner1 = Skeleton(cfg, [sfx_l, sfx_r], pair, probe_step(pair)).inner1_plan()
        nm1 = NestedMap(zp, inner1)
        cur = RowScan(nm1, "pair_result")
    return Plan(MaterializeRowVector(cur, field="rank_result"), name="naive-seq-rank")


def naive_sequence_plan(cfg: JoinConfig, n_joins: int) -> Plan:
    """Full naive cascade: Fig. 4 (left)."""
    if cfg.compress:
        raise ValueError("sequences are evaluated on uncompressed tuples")
    me = MpiExecutor(rank_input("rank_inputs"), naive_rank_plan(cfg, n_joins))
    return Plan(RowScan(me, "rank_result"), name="naive-sequence")


def count_exchanges(plan: Plan) -> int:
    """Number of MpiExchange operators anywhere in a plan (shuffle count)."""
    from repro.core.ops import MpiExchange

    total = 0
    stack = [plan]
    while stack:
        p = stack.pop()
        for op in p.operators():
            if isinstance(op, MpiExchange):
                total += 1
            if hasattr(op, "nested_plan"):
                stack.append(op.nested_plan)
    return total
