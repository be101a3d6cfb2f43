"""Network sub-operators (paper Section 3.3.3) — the only platform-specific
operators.

On the simulated MPI substrate (``repro.mpi.simcluster``) they execute the
exact RDMA protocol of Barthels et al.: histogram-driven offset computation
(exscan over ranks), collective window registration, synchronization-free
one-sided puts, and a fence epoch. The protocol is written once, over numpy
columns, in ``rma_exchange``; ``MpiExchange`` and the monolithic baselines
both call it. On Spark, ``repro.core.lower`` replaces these operators with
Catalyst stages (aggregate + collect = AllReduce; shuffle = exchange) — same
plan, different platform, which is the paper's whole point.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import radix
from repro.core.compression import CompressionSpec
from repro.core.expr import Expr
from repro.core.ops.base import ExecContext, SubOperator, dense_counts, histogram_batch
from repro.core.ops.orchestration import _single, tuples
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


def rma_exchange(
    comm, columns: Dict[str, np.ndarray], pids: np.ndarray,
    local_hist: np.ndarray, global_hist: np.ndarray,
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    """Barthels et al.'s exchange: sends row ``i`` of ``columns`` to
    partition ``pids[i]`` and returns this rank's partitions as
    ``(partition_id, {column: view into the window})``, in increasing id.

    Each partition's region in its owner's window is sized by the global
    histogram (``window_layout``), and each rank writes at the exscan of
    the local histograms inside it, so the one-sided puts need no
    synchronization until the fence; each put gathers a partition's rows
    straight into the window. The global histogram must be the sum of the
    local ones, and each local one the partition sizes of its rank's rows:
    together, every slot of every region is written exactly once. Both
    checks raise instead of leaving window slots unwritten."""
    total = comm.allreduce_sum(local_hist)
    if not np.array_equal(total, global_hist):
        raise RuntimeError(
            f"exchange global histogram {global_hist.tolist()} is not the sum "
            f"{total.tolist()} of the local histograms"
        )
    owners, base = window_layout(global_hist, comm.size)
    my_parts = np.flatnonzero(owners == comm.rank)
    win = comm.win_create(int(global_hist[my_parts].sum()), {c: a.dtype for c, a in columns.items()})
    offsets = comm.exscan_sum(local_hist)  # this rank's offset inside each region
    if any(len(a) != len(pids) for a in columns.values()):
        lengths = [len(a) for a in columns.values()]
        raise ValueError(f"{len(pids)} partition ids for columns of {lengths} rows")
    order, bounds = radix.partition_order(pids, len(global_hist))
    sizes = np.diff(bounds)
    if not np.array_equal(sizes, local_hist):
        raise RuntimeError(
            f"exchange local histogram {local_hist.tolist()} does not match "
            f"the partition sizes {sizes.tolist()} of the data"
        )
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

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.nested_plan.out_type(param_type=in_types[0])

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        from repro.mpi.simcluster import SimCluster

        params = list(concat(list(ups[0])).iter_rows())
        cluster = SimCluster(len(params))
        ctx.extra["last_cluster"] = cluster  # exposes network stats to harnesses

        def rank_main(comm, param):
            out = ctx.run_nested(self.nested_plan, ctx.child(param).with_comm(comm))
            return _single(out, "MpiExecutor")

        yield tuples(cluster.run(rank_main, params))


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
        if ctx.comm is not None:
            counts = ctx.comm.allreduce_sum(counts)
        yield histogram_batch(counts)


class MpiExchange(SubOperator):
    """Partitions tuples across ranks through registered RMA windows.

    The integer expression ``bucket`` gives each tuple's partition.
    Consumes (1) this rank's local histogram and (2) the global histogram
    from two dedicated upstreams, computes synchronization-free write
    offsets (region base from the global sizes, intra-region offset from an
    exscan of the local counts — exactly Barthels et al.), writes each
    partition's tuples into its owner's window with one-sided puts, fences,
    and returns this rank's ``<partition_id, partition_data>`` pairs.

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
        local_hist_upstream: SubOperator,
        global_hist_upstream: SubOperator,
        n_partitions: int,
        bucket: Expr,
        compression: Optional[CompressionSpec] = None,
        pid_field: str = "partition_id",
        data_field: str = "partition_data",
    ) -> None:
        super().__init__([data_upstream, local_hist_upstream, global_hist_upstream])
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

    def out_type(self, in_types) -> Optional[TupleType]:
        t = in_types[0]
        if t is None:
            return None
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
        from repro.mpi.simcluster import LocalComm

        n = self.n_partitions
        local_hist = dense_counts(concat(list(ups[1])), n, "MpiExchange local")
        global_hist = dense_counts(concat(list(ups[2])), n, "MpiExchange global")
        pids, wire = self.to_wire(concat(list(ups[0])))
        parts = rma_exchange(ctx.comm or LocalComm(), wire, pids, local_hist, global_hist)
        yield RowVector({
            self.pid_field: np.array([p for p, _ in parts], dtype=np.int64),
            self.data_field: object_column([RowVector(cols) for _, cols in parts]),
        })
