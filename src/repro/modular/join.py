"""The distributed plan skeleton of the radix hash join (paper Fig. 3),
shared by the join, the join sequences and the GROUP BY (Fig. 5).

Plan shape (per rank, inside MpiExecutor):

  scan(R) ─ LH ─ MH ─┐
  scan(R) ───────────┤ EX ──┐
  scan(S) ─ LH ─ MH ─┐      │
  scan(S) ───────────┤ EX ──┤ Zip ─ NestedMap(inner1) ─ RowScan ─ MRV
                            │
  inner1: per network-partition tuple — local partitioning of every
  side, CartesianProduct with the network pid, Zip, NestedMap(inner2)
  inner2: per local-partition tuple — RowScan every side, the local step,
  ParametrizedMap (restores compressed key bits), MaterializeRowVector.

The local step is what differs between the plans: chained BuildProbes
for joins and join sequences, a ReduceByKey for GROUP BY (a one-sided
plan, whose single sides need no Zip). On compressed data it runs on the
stored key-high bits ``k_hi``, and one ParametrizedMap restores the key
after it.

Hooks: ``pre_scan(field, op)`` filters/projects each input before the
histogram/exchange, ``probe_post`` runs after the local step, and
``post`` at the pair, rank and driver levels, where the TPC-H queries and
the GROUP BY re-aggregate (paper Section 4.4: "post-aggregation happens
at every nesting level").
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence

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
PreScan = Callable[[str, SubOperator], SubOperator]


class LocalStep(NamedTuple):
    """What the skeleton runs over one local partition's side scans:
    ``run(scans, key)``, with ``key`` the field to match or group on.
    ``name`` prefixes the level plans' names; ``fields`` are the value
    fields of its output, which the compressed-key restore declares."""

    name: str
    run: Callable[[List[SubOperator], str], SubOperator]
    fields: Sequence[str]


def probe_step(value_fields: Sequence[str], join_type: str = "inner") -> LocalStep:
    """Chained BuildProbes over all sides: 2 for a plain join, N+1 for an
    optimized join sequence."""

    def run(scans: List[SubOperator], key: str) -> SubOperator:
        out: SubOperator = BuildProbe(scans[0], scans[1], key=key, join_type=join_type)
        for nxt in scans[2:]:
            # the (n-1)-th BuildProbe output streams through the n-th probe side
            out = BuildProbe(nxt, out, key=key, join_type=join_type)
        return out

    keep = value_fields[1:] if join_type in ("semi", "anti") else value_fields
    return LocalStep("join", run, list(keep))


def split_word(up: SubOperator, spec: CompressionSpec) -> Map:
    """Map splitting each compressed word into the stored key-high bits
    ``k_hi`` (the probe key inside one network partition) and the value."""

    def batch(b: RowVector) -> RowVector:
        k_hi, value = spec.split(b[spec.out_field])
        return RowVector({"k_hi": k_hi, spec.value_field: value})

    return Map(up, batch, TupleType([("k_hi", INT64), (spec.value_field, INT64)]))


def _zip(ops: List[SubOperator]) -> SubOperator:
    return ops[0] if len(ops) == 1 else Zip(ops)


@dataclass(frozen=True)
class Skeleton:
    """The distributed plan over the relations ``fields``, each with the
    value field that compression packs, running ``step`` per local
    partition, with the hooks of the module docstring; one method per
    nesting level. Suffixes of the partition fields are the lower-cased
    relation names."""

    cfg: JoinConfig
    fields: Sequence[str]
    value_fields: Sequence[str]
    step: LocalStep
    probe_post: Optional[PostHook] = None
    post: Optional[PostHook] = None
    pre_scan: Optional[PreScan] = None

    def _post(self, op: SubOperator) -> SubOperator:
        return op if self.post is None else self.post(op)

    def inner2_plan(self) -> Plan:
        """Innermost plan: per tuple of matching local partitions, the
        local step over all sides, then the restore of compressed key
        bits."""
        cfg, pl = self.cfg, ParameterLookup()
        scans: List[SubOperator] = []
        for f, vf in zip(self.fields, self.value_fields):
            data = f"loc_data_{f.lower()}"
            scan: SubOperator = RowScan(Projection(pl, [data]), data)
            scans.append(split_word(scan, cfg.spec(vf)) if cfg.compress else scan)
        out = self.step.run(scans, "k_hi" if cfg.compress else cfg.key)

        if cfg.compress:
            spec = cfg.spec(self.value_fields[0])
            pid_field = f"net_pid_{self.fields[0].lower()}"
            # the step's output fields, with the restored key in place of k_hi
            typ = TupleType([(cfg.key, INT64)] + [(vf, INT64) for vf in self.step.fields])

            def restore_key(b: RowVector, p: RowVector) -> RowVector:
                cols = {cfg.key: spec.restore(b["k_hi"], int(p[pid_field][0]))}
                cols.update((c, a) for c, a in b.items() if c != "k_hi")
                return RowVector(cols)

            out = ParametrizedMap(Projection(pl, [pid_field]), out, restore_key, typ)

        if self.probe_post is not None:
            out = self.probe_post(out)
        return Plan(MaterializeRowVector(out, field="joined"), name=f"{self.step.name}-inner2")

    def inner1_plan(self) -> Plan:
        """First nested level: per network-partition tuple, locally
        partition every side and run inner2 per local-partition tuple."""
        pl = ParameterLookup()
        sides: List[SubOperator] = [
            local_partition_side(
                self.cfg, pl, vf,
                f"net_pid_{sfx}", f"net_data_{sfx}", f"loc_pid_{sfx}", f"loc_data_{sfx}",
            )
            for sfx, vf in zip((f.lower() for f in self.fields), self.value_fields)
        ]
        out = self._post(RowScan(NestedMap(_zip(sides), self.inner2_plan()), "joined"))
        return Plan(MaterializeRowVector(out, field="pair_result"), name=f"{self.step.name}-inner1")

    def rank_plan(self) -> Plan:
        """The per-rank (nested-in-MpiExecutor) plan of Fig. 3,
        generalized to N sides."""
        exchanges: List[SubOperator] = []
        for f, vf in zip(self.fields, self.value_fields):
            scan: SubOperator = rank_input(f)
            if self.pre_scan is not None:
                scan = self.pre_scan(f, scan)
            sfx = f.lower()
            exchanges.append(network_partition(self.cfg, scan, vf, f"net_pid_{sfx}", f"net_data_{sfx}"))
        out = self._post(RowScan(NestedMap(_zip(exchanges), self.inner1_plan()), "pair_result"))
        return Plan(MaterializeRowVector(out, field="rank_result"), name=f"{self.step.name}-rank")

    def plan(self) -> Plan:
        """The full plan: MpiExecutor over per-rank inputs, flattened, with
        ``post`` once more on the driver.

        Plan parameters: ``{"rank_inputs": RowVector}`` with one row per
        rank holding that rank's slice of every input relation (see
        ``repro.mpi.thread_backend.make_rank_inputs``).
        """
        me = MpiExecutor(rank_input("rank_inputs"), self.rank_plan())
        return Plan(self._post(RowScan(me, "rank_result")), name=f"distributed-{self.step.name}")


def distributed_join_plan(
    cfg: JoinConfig,
    fields: Sequence[str] = ("R", "S"),
    value_fields: Sequence[str] = ("vr", "vs"),
    join_type: str = "inner",
    probe_post: Optional[PostHook] = None,
    post: Optional[PostHook] = None,
    pre_scan: Optional[PreScan] = None,
) -> Plan:
    """Full distributed join of ``fields`` on ``cfg.key``: the skeleton
    with chained BuildProbes as its local step."""
    if cfg.compress and len(fields) != 2:
        raise ValueError("compression is implemented for two-sided joins")
    step = probe_step(value_fields, join_type)
    return Skeleton(cfg, fields, value_fields, step, probe_post, post, pre_scan).plan()
