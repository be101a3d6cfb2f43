"""Network sub-operators (paper Section 3.3.3) — the only platform-specific
operators.

On the simulated MPI substrate (``repro.mpi.simcluster``) they execute the
exact RDMA protocol of Barthels et al.: histogram-driven offset computation
(exscan over ranks), collective window registration, synchronization-free
one-sided puts, and a fence epoch. ``MpiHistogram`` and ``MpiExchange``
always run on the rank's communicator, ``ctx.comm``, which ``MpiExecutor``
sets (a single rank is ``SimCluster(1)``). The protocol is written once,
over numpy columns, in ``rma_exchange``; ``MpiExchange`` and the
monolithic baselines both call it. On Spark, ``repro.core.lower``
replaces these operators with Catalyst stages (aggregate + collect =
AllReduce; shuffle = exchange) — same plan, different platform, which is
the paper's whole point.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import radix
from repro.core.compression import CompressionSpec
from repro.core.expr import Expr
from repro.core.ops.base import ExecContext, SubOperator, histogram_batch
from repro.core.types import INT64, RowVector, RowVectorType, TupleType, concat, object_column


def owner_of(partition_id: int, n_ranks: int) -> int:
    """Round-robin placement of a partition on a rank."""
    return partition_id % n_ranks


def window_layout(global_hist: np.ndarray, n_ranks: int) -> Tuple[np.ndarray, np.ndarray]:
    """RMA window layout of an exchange: each partition's owner rank and
    the base of its region in the owner's window. A window holds its
    rank's partitions in increasing partition id, each sized by the global
    histogram (Barthels et al.'s synchronization-free offsets start here)."""
    owners = owner_of(np.arange(len(global_hist)), n_ranks)
    base = np.zeros(len(global_hist), dtype=np.int64)
    for r in range(n_ranks):
        mine = owners == r
        base[mine] = np.cumsum(global_hist[mine]) - global_hist[mine]
    return owners, base


def dense_counts(hist: RowVector, n: int, who: str) -> np.ndarray:
    """Validate and read a dense ``<bucket_id, count>`` histogram batch of
    exactly ``n`` buckets (``histogram_batch``'s format: a
    ``LocalHistogram`` upstream of ``MpiHistogram``, a global histogram
    upstream of ``MpiExchange``) into a count array indexed by bucket id;
    ``who`` names the reader in the error."""
    if len(hist) != n:
        raise RuntimeError(f"{who} histogram has {len(hist)} buckets, expected exactly {n}")
    counts = np.zeros(n, dtype=np.int64)
    counts[hist["bucket_id"].astype(np.int64)] = hist["count"]
    return counts


def rank_comm(ctx: ExecContext, who: str):
    """The rank communicator a network operator runs on; ``RuntimeError``
    naming the operator ``who`` outside an ``MpiExecutor``."""
    if ctx.comm is None:
        raise RuntimeError(f"{who} has no rank communicator: evaluate it inside an MpiExecutor")
    return ctx.comm


def rma_exchange(
    comm, columns: Dict[str, np.ndarray], pids: np.ndarray, global_hist: np.ndarray,
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    """Barthels et al.'s exchange: sends row ``i`` of ``columns`` to
    partition ``pids[i]`` and returns this rank's partitions as
    ``(partition_id, {column: view into the window})``, in increasing id.

    This rank's partition sizes come from its stable sort of the ids and
    serve both collectives: their allreduce must equal the global
    histogram, which sizes each partition's region in its owner's window
    (``window_layout``), and their exscan is this rank's write offset
    inside each region. So the one-sided puts need no synchronization
    until the fence, each put gathers a partition's rows straight into the
    window, and every slot of every region is written exactly once. A
    global histogram that is not the sum of the ranks' partition sizes
    raises instead of leaving window slots unwritten."""
    if any(len(a) != len(pids) for a in columns.values()):
        lengths = [len(a) for a in columns.values()]
        raise ValueError(f"{len(pids)} partition ids for columns of {lengths} rows")
    order, bounds = radix.partition_order(pids, len(global_hist))
    sizes = np.diff(bounds)
    total = comm.allreduce_sum(sizes)
    if not np.array_equal(total, global_hist):
        raise RuntimeError(
            f"exchange global histogram {global_hist.tolist()} is not the sum "
            f"{total.tolist()} of the ranks' partition sizes"
        )
    owners, base = window_layout(global_hist, comm.size)
    my_parts = np.flatnonzero(owners == comm.rank)
    win = comm.win_create(int(global_hist[my_parts].sum()), {c: a.dtype for c, a in columns.items()})
    offsets = comm.exscan_sum(sizes)  # this rank's offset inside each region
    for p in np.flatnonzero(sizes):
        rows = order[bounds[p] : bounds[p + 1]]
        comm.put(win, int(owners[p]), int(base[p] + offsets[p]), columns, rows)
    comm.fence(win)
    return [(int(p), win.local(comm.rank, base[p], base[p] + global_hist[p])) for p in my_parts]


class MpiExecutor(SubOperator):
    """Executes a nested plan concurrently on the ranks of an MPI cluster.

    NestedMap semantics, but each input tuple is dispatched to its own rank
    (the mpirun analogue): the operator starts the cluster, passes the input
    tuples to the ranks, triggers the nested plan, and collects one result
    tuple per rank in rank order.
    """

    op_name = "ME"

    def __init__(self, upstream: SubOperator, nested_plan) -> None:
        super().__init__([upstream])
        self.nested_plan = nested_plan

    def out_type(self, in_types) -> TupleType:
        return self.nested_plan.out_type(param_type=in_types[0])

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        from repro.mpi.simcluster import SimCluster

        params = concat(list(ups[0]))
        cluster = SimCluster(len(params))
        ctx.extra["last_cluster"] = cluster  # exposes network stats to harnesses

        def rank_main(comm, param):
            return self.nested_plan.invoke(ctx.child(param, comm), "MpiExecutor")

        yield concat(cluster.run(rank_main, [params.take(slice(r, r + 1)) for r in range(len(params))]))


class MpiHistogram(SubOperator):
    """Global histogram via MPI_Allreduce: consumes dense local
    ``<bucket_id, count>`` pairs, returns the global counts in the same
    shape."""

    op_name = "MH"
    phase = "global_histogram"

    def __init__(self, upstream: SubOperator, n_buckets: int) -> None:
        super().__init__([upstream])
        self.n_buckets = n_buckets

    def out_type(self, in_types) -> TupleType:
        return TupleType([("bucket_id", INT64), ("count", INT64)])

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        counts = dense_counts(concat(list(ups[0])), self.n_buckets, "MpiHistogram")
        yield histogram_batch(rank_comm(ctx, "MpiHistogram").allreduce_sum(counts))


class MpiExchange(SubOperator):
    """Partitions tuples across ranks through registered RMA windows.

    The integer expression ``bucket`` gives each tuple's partition.
    Consumes the global histogram from a second upstream and counts this
    rank's partition sizes itself (``rma_exchange``), computes
    synchronization-free write offsets (region base from the global sizes,
    intra-region offset from an exscan of the local sizes — exactly
    Barthels et al.), writes each partition's tuples into its owner's
    window with one-sided puts, fences, and returns this rank's
    ``<partition_id, partition_data>`` pairs.

    The wire carries the input columns as they are, or, with a
    ``CompressionSpec``, only its ``word`` expression: the <key,value>
    payload compressed to one int64 word (fan-out must be 2**F); partition
    data stays compressed downstream until a ParametrizedMap restores the
    bits. The Spark lowering compiles the same pid and wire expressions
    (``exprs``) into one Catalyst ``Project`` before its shuffle.
    """

    op_name = "EX"
    phase = "network_partitioning"

    def __init__(
        self,
        data_upstream: SubOperator,
        global_hist_upstream: SubOperator,
        n_partitions: int,
        bucket: Expr,
        compression: Optional[CompressionSpec] = None,
        pid_field: str = "partition_id",
        data_field: str = "partition_data",
    ) -> None:
        super().__init__([data_upstream, global_hist_upstream])
        if compression is not None and compression.fanout != n_partitions:
            raise ValueError(
                f"compression fan-out {compression.fanout} != n_partitions {n_partitions}"
            )
        self.n_partitions = n_partitions
        self.bucket = bucket
        self.compression = compression
        self.pid_field = pid_field
        self.data_field = data_field

    def exprs(self) -> Dict[str, Expr]:
        """``pid``, then the compressed wire column if any."""
        spec = self.compression
        return {"pid": self.bucket, **({} if spec is None else {spec.out_field: spec.word})}

    def out_type(self, in_types) -> TupleType:
        t = in_types[0]
        if self.compression is not None:
            t = self.compression.wire_type(t)
        return TupleType([(self.pid_field, INT64), (self.data_field, RowVectorType(t))])

    def to_wire(self, data: RowVector) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Each tuple's partition id and the columns sent on the wire
        (compressed to one int64 word per tuple with a ``CompressionSpec``)."""
        spec = self.compression
        if spec is None:
            wire = dict(data.items())
        else:
            spec.check_pure(data.columns)
            wire = {spec.out_field: spec.word.eval(data)}
        return self.bucket.eval(data), wire

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        global_hist = dense_counts(concat(list(ups[1])), self.n_partitions, "MpiExchange global")
        pids, wire = self.to_wire(concat(list(ups[0])))
        parts = rma_exchange(rank_comm(ctx, "MpiExchange"), wire, pids, global_hist)
        yield RowVector({
            self.pid_field: np.array([p for p, _ in parts], dtype=np.int64),
            self.data_field: object_column([RowVector(cols) for _, cols in parts]),
        })
