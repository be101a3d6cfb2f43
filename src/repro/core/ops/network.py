"""Network sub-operators (paper Section 3.3.3) — the only platform-specific
operators.

On the simulated MPI substrate (``repro.mpi.simcluster``) they execute the
exact RDMA protocol of Barthels et al.: histogram-driven offset computation
(exscan over ranks), collective window registration, synchronization-free
one-sided puts, and a fence epoch. On Spark, ``repro.core.lower`` replaces
them with Catalyst stages (aggregate + collect = AllReduce; shuffle =
exchange) — same plan, different platform, which is the paper's whole point.
"""
from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np
import pandas as pd

from repro.core.compression import CompressionSpec
from repro.core.ops.base import (
    ExecContext,
    SubOperator,
    bucket_ids,
    concat_batches,
    dense_counts,
    object_column,
)
from repro.core.types import INT64, RowVector, RowVectorType, TupleType


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

    def batches(self, ctx: ExecContext, ups) -> Iterator[pd.DataFrame]:
        from repro.mpi.simcluster import SimCluster

        params = list(RowVector(concat_batches(list(ups[0]))).iter_rows())
        cluster = SimCluster(len(params))
        ctx.extra["last_cluster"] = cluster  # exposes network stats to harnesses

        def rank_main(comm, param):
            out = list(ctx.run_nested(self.nested_plan, ctx.child(param).with_comm(comm)))
            if len(out) != 1:
                raise RuntimeError(
                    f"nested plan of MpiExecutor must produce exactly one tuple, got {len(out)}"
                )
            return out[0]

        results = cluster.run(rank_main, params)
        yield pd.DataFrame({k: object_column([r[k] for r in results]) for k in results[0]}, copy=False)


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

    def batches(self, ctx: ExecContext, ups) -> Iterator[pd.DataFrame]:
        counts = dense_counts(concat_batches(list(ups[0])), self.n_buckets, "MpiHistogram")
        if ctx.comm is not None:
            counts = ctx.comm.allreduce_sum(counts)
        yield pd.DataFrame(
            {"bucket_id": np.arange(self.n_buckets, dtype=np.int64), "count": counts}
        )


class MpiExchange(SubOperator):
    """Partitions tuples across ranks through registered RMA windows.

    ``bucket_fn(DataFrame) -> int array`` gives each tuple's partition.
    Consumes (1) this rank's local histogram and (2) the global histogram
    from two dedicated upstreams, computes synchronization-free write
    offsets (region base from the global sizes, intra-region offset from an
    exscan of the local counts — exactly Barthels et al.), writes each
    partition's tuples into its owner's window with one-sided puts, fences,
    and returns this rank's ``<partition_id, partition_data>`` pairs.

    With a ``CompressionSpec`` the <key,value> payload is compressed to one
    int64 word on the wire (fan-out must be 2**F); partition data stays
    compressed downstream until a ParametrizedMap restores the bits.
    """

    op_name = "EX"
    phase = "network_partitioning"

    def __init__(
        self,
        data_upstream: SubOperator,
        local_hist_upstream: SubOperator,
        global_hist_upstream: SubOperator,
        n_partitions: int,
        bucket_fn: Callable[[pd.DataFrame], np.ndarray],
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
        self.bucket_fn = bucket_fn
        self.compression = compression
        self.pid_field = pid_field
        self.data_field = data_field

    def out_type(self, in_types) -> Optional[TupleType]:
        t = in_types[0]
        if t is None:
            return None
        if self.compression is not None:
            t = TupleType([(self.compression.out_field, INT64)])
        return TupleType([(self.pid_field, INT64), (self.data_field, RowVectorType(t))])

    def to_wire(self, data: pd.DataFrame) -> Tuple[np.ndarray, pd.DataFrame]:
        """Each tuple's partition id and the frame sent on the wire
        (compressed to one int64 word per tuple with a ``CompressionSpec``).
        The Spark lowering's pre-exchange pipelines call this too, so both
        substrates ship the same frame."""
        pids = bucket_ids(self.bucket_fn, data)
        if self.compression is not None:
            data = self.compression.compress_pdf(data)
        return pids, data

    def batches(self, ctx: ExecContext, ups) -> Iterator[pd.DataFrame]:
        from repro.core import radix
        from repro.mpi.simcluster import LocalComm

        comm = ctx.comm or LocalComm()
        n = self.n_partitions
        local_hist = dense_counts(concat_batches(list(ups[1])), n, "MpiExchange local")
        global_hist = dense_counts(concat_batches(list(ups[2])), n, "MpiExchange global")
        pids, data = self.to_wire(concat_batches(list(ups[0])))

        owners, base = window_layout(global_hist, comm.size)
        my_parts = np.flatnonzero(owners == comm.rank)
        win = comm.win_create(
            int(global_hist[my_parts].sum()), list(data.columns), dtypes=dict(data.dtypes)
        )
        my_offsets = comm.exscan_sum(local_hist)  # offset inside each region

        frames = radix.scatter(data, pids, n)
        sizes = np.array([len(f) for f in frames])
        if not np.array_equal(sizes, local_hist):
            raise RuntimeError(
                f"MpiExchange local histogram {local_hist.tolist()} does not match "
                f"the partition sizes {sizes.tolist()} of the data"
            )
        for p in range(n):
            if len(frames[p]):
                comm.put(win, int(owners[p]), int(base[p] + my_offsets[p]), frames[p])
        comm.fence(win)

        # this rank's partitions, in place: region p spans base[p] onwards
        parts = [
            RowVector(win.local_frame(comm.rank, base[p], base[p] + global_hist[p]))
            for p in my_parts
        ]
        yield pd.DataFrame(
            {self.pid_field: my_parts.astype(np.int64), self.data_field: object_column(parts)},
            copy=False,
        )
