"""The distributed radix hash join as a sub-operator plan (paper Fig. 3).

Plan shape (per rank, inside MpiExecutor):

  scan(R) ─ LH ─ MH ─┐
  scan(R) ───────────┤ EX ──┐
  scan(S) ─ LH ─ MH ─┐      │
  scan(S) ───────────┤ EX ──┤ Zip ─ NestedMap(inner1) ─ RowScan ─ MRV
                            │
  inner1: per network-partition pair — local histogram + local
  partitioning of both sides, CartesianProduct with the network pid,
  Zip, NestedMap(inner2)
  inner2: per local-partition pair — RowScan both sides, BuildProbe,
  ParametrizedMap (restores compressed key bits), MaterializeRowVector.

``probe_post`` / ``rank_post`` hooks let TPC-H queries insert
projection/aggregation at the inner and rank level (paper Section 4.4:
"post-aggregation happens at every nesting level").
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core import Plan, RowVector
from repro.core.compression import CompressionSpec
from repro.core.ops import (
    BuildProbe,
    Map,
    MaterializeRowVector,
    MpiExecutor,
    NestedMap,
    ParameterLookup,
    ParametrizedMap,
    Projection,
    RowScan,
    Zip,
)
from repro.core.ops.base import SubOperator
from repro.core.types import INT64, TupleType
from repro.modular.common import JoinConfig, local_partition_side, network_partition, rank_input

PostHook = Callable[[SubOperator], SubOperator]


def split_word(up: SubOperator, spec: CompressionSpec) -> Map:
    """Map splitting each compressed word into the stored key-high bits
    ``k_hi`` (the probe key inside one network partition) and the value."""

    def batch(b: RowVector) -> RowVector:
        k_hi, value = spec.split(b[spec.out_field])
        return RowVector({"k_hi": k_hi, spec.value_field: value})

    return Map(up, batch, TupleType([("k_hi", INT64), (spec.value_field, INT64)]))


def join_inner2_plan(
    cfg: JoinConfig,
    suffixes: Sequence[str],
    value_fields: Sequence[str],
    join_type: str = "inner",
    probe_post: Optional[PostHook] = None,
) -> Plan:
    """Innermost plan: per tuple of matching local partitions, chain
    BuildProbes over all sides (2 for a plain join, N+1 for an optimized
    join sequence) and restore compressed bits."""
    pl = ParameterLookup()
    scans: List[SubOperator] = []
    for sfx, vf in zip(suffixes, value_fields):
        scan: SubOperator = RowScan(Projection(pl, [f"loc_data_{sfx}"]), f"loc_data_{sfx}")
        if cfg.compress:
            scan = split_word(scan, cfg.spec(vf))
        scans.append(scan)

    probe_key = "k_hi" if cfg.compress else cfg.key
    out: SubOperator = BuildProbe(scans[0], scans[1], key=probe_key, join_type=join_type)
    for nxt in scans[2:]:
        # the (n-1)-th BuildProbe output streams through the n-th probe side
        out = BuildProbe(nxt, out, key=probe_key, join_type=join_type)

    if cfg.compress:
        spec = cfg.spec(value_fields[0])
        pid_field = f"net_pid_{suffixes[0]}"
        param = Projection(pl, [pid_field])
        # BuildProbe's output fields, with the restored key in place of k_hi
        keep = [value_fields[1]] if join_type in ("semi", "anti") else list(value_fields)
        typ = TupleType([(cfg.key, INT64)] + [(vf, INT64) for vf in keep])

        def restore_key(b: RowVector, p: dict) -> RowVector:
            cols = {cfg.key: spec.restore(b["k_hi"], int(p[pid_field]))}
            cols.update((c, a) for c, a in b.items() if c != "k_hi")
            return RowVector(cols)

        out = ParametrizedMap(param, out, restore_key, typ)

    if probe_post is not None:
        out = probe_post(out)
    return Plan(MaterializeRowVector(out, field="joined"), name="join-inner2")


def join_inner1_plan(
    cfg: JoinConfig,
    suffixes: Sequence[str],
    value_fields: Sequence[str],
    join_type: str = "inner",
    probe_post: Optional[PostHook] = None,
    pair_post: Optional[PostHook] = None,
) -> Plan:
    """First nested level: per network-partition tuple, locally partition
    every side and join matching local partitions via NestedMap(inner2)."""
    pl = ParameterLookup()
    sides = [
        local_partition_side(
            cfg, pl, vf,
            f"net_pid_{sfx}", f"net_data_{sfx}", f"loc_pid_{sfx}", f"loc_data_{sfx}",
        )
        for sfx, vf in zip(suffixes, value_fields)
    ]
    zp = Zip(sides)
    nm2 = NestedMap(zp, join_inner2_plan(cfg, suffixes, value_fields, join_type, probe_post))
    out: SubOperator = RowScan(nm2, "joined")
    if pair_post is not None:
        out = pair_post(out)
    return Plan(MaterializeRowVector(out, field="pair_result"), name="join-inner1")


def rank_join_plan(
    cfg: JoinConfig,
    fields: Sequence[str],
    value_fields: Sequence[str],
    join_type: str = "inner",
    probe_post: Optional[PostHook] = None,
    pair_post: Optional[PostHook] = None,
    rank_post: Optional[PostHook] = None,
    pre_scan: Optional[Callable[[str, SubOperator], SubOperator]] = None,
) -> Plan:
    """The per-rank (nested-in-MpiExecutor) plan of Fig. 3, generalized to
    N sides. ``pre_scan(field, op)`` lets queries filter/project each input
    before the histogram/exchange (TPC-H pattern)."""
    suffixes = [f.lower() for f in fields]
    exchanges = []
    for f, sfx, vf in zip(fields, suffixes, value_fields):
        scan: SubOperator = rank_input(f)
        if pre_scan is not None:
            scan = pre_scan(f, scan)
        exchanges.append(
            network_partition(cfg, scan, vf, f"net_pid_{sfx}", f"net_data_{sfx}")
        )
    zp = Zip(exchanges)
    nm1 = NestedMap(
        zp, join_inner1_plan(cfg, suffixes, value_fields, join_type, probe_post, pair_post)
    )
    out: SubOperator = RowScan(nm1, "pair_result")
    if rank_post is not None:
        out = rank_post(out)
    return Plan(MaterializeRowVector(out, field="rank_result"), name="join-rank")


def distributed_join_plan(
    cfg: JoinConfig,
    fields: Sequence[str] = ("R", "S"),
    value_fields: Sequence[str] = ("vr", "vs"),
    join_type: str = "inner",
    probe_post: Optional[PostHook] = None,
    pair_post: Optional[PostHook] = None,
    rank_post: Optional[PostHook] = None,
    driver_post: Optional[PostHook] = None,
    pre_scan: Optional[Callable[[str, SubOperator], SubOperator]] = None,
) -> Plan:
    """Full distributed join: MpiExecutor over per-rank inputs, flattened.

    Plan parameters: ``{"rank_inputs": RowVector}`` with one row per rank
    holding that rank's slice of every input relation (see
    ``repro.mpi.thread_backend.make_rank_inputs``).
    """
    if cfg.compress and len(fields) != 2:
        raise ValueError("compression is implemented for two-sided joins")
    rank_plan = rank_join_plan(
        cfg, fields, value_fields, join_type, probe_post, pair_post, rank_post, pre_scan
    )
    me = MpiExecutor(rank_input("rank_inputs"), rank_plan)
    out: SubOperator = RowScan(me, "rank_result")
    if driver_post is not None:
        out = driver_post(out)
    return Plan(out, name="distributed-join")
