"""In-process MPI/RDMA simulation: ranks, windows, one-sided ops, collectives.

Faithful to the MPI-3 RMA subset the paper uses (Section 2):

* ``win_create`` is a *collective* that registers a per-rank memory region;
* ``put`` gathers rows of numpy columns one-sidedly into a remote rank's
  window at a given offset (the receiver's "CPU" is not involved — no
  locking, no handshake; offsets are computed from histograms exactly as in
  Barthels et al.);
* ``fence`` delimits RMA epochs (collective barrier; after it, all incoming
  and outgoing puts are visible);
* ``allreduce_sum`` / ``exscan_sum`` back MPI_Allreduce / MPI_Exscan.

Ranks are Python threads. They run in parallel only inside native calls
that release the GIL, such as ``np.sort``, ufunc arithmetic, fancy indexing
and the stable radix sort of 8/16-bit ids. Work that holds the GIL
serializes the ranks: Python code (the operator generators and each
batch's dict of columns), object-array work, and in numpy 1.26 the SIMD
``argsort`` and ``np.repeat``. The shared kernels in ``repro.core.radix``
are written to that rule. Windows hold numpy columns; the one protocol
that uses them is ``repro.core.ops.network.rma_exchange``. Per-rank statistics (bytes put,
puts, windows) feed the network-volume accounting of the experiments.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np


@dataclass
class RankStats:
    """Per-rank accounting of simulated network activity."""

    bytes_put: int = 0
    puts: int = 0
    windows_created: int = 0


class Window:
    """A collectively created, per-rank registered memory region.

    Each rank's region holds ``n_slots[rank]`` fixed-layout records, one
    preallocated numpy array per registered ``{column: dtype}`` (int64 for
    the compressed wire word), mirroring RDMA's requirement that the target
    region be registered and sized up front.
    """

    def __init__(self, n_slots: Sequence[int], dtypes: Dict[str, Any]):
        self.buffers: List[Dict[str, np.ndarray]] = [
            {c: np.empty(n, dtype=d) for c, d in dtypes.items()} for n in n_slots
        ]
        self.n_slots = list(n_slots)

    def local(self, rank: int, start: int = 0, stop: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Views of slots ``[start, stop)`` of ``rank``'s region, by column."""
        return {c: buf[start:stop] for c, buf in self.buffers[rank].items()}


class SimCluster:
    """N-rank simulated MPI cluster; create once per SPMD program run."""

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self._barrier = threading.Barrier(n_ranks)
        self._slots: List[Any] = [None] * n_ranks
        self.stats = [RankStats() for _ in range(n_ranks)]

    def comm(self, rank: int) -> "Comm":
        return Comm(self, rank)

    def run(self, fn: Callable[["Comm", Any], Any], args: Sequence[Any]) -> List[Any]:
        """SPMD dispatch (the mpirun analogue): run ``fn(comm, args[rank])``
        on every rank concurrently; re-raise the first rank failure."""
        if len(args) != self.n_ranks:
            raise ValueError(f"got {len(args)} inputs for {self.n_ranks} ranks")
        results: List[Any] = [None] * self.n_ranks
        errors: List[Any] = [None] * self.n_ranks

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(self.comm(rank), args[rank])
            except BaseException as e:  # propagate to the driver
                errors[rank] = e
                self._barrier.abort()

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(self.n_ranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # A failing rank aborts the barrier; peers then die with
        # BrokenBarrierError — surface the root cause, not the fallout.
        root_causes = [e for e in errors if e is not None and not isinstance(e, threading.BrokenBarrierError)]
        for e in root_causes or [e for e in errors if e is not None]:
            raise e
        self._barrier.reset()
        return results

    def total_bytes_put(self) -> int:
        return sum(s.bytes_put for s in self.stats)


class Comm:
    """Per-rank communicator handle (MPI_COMM_WORLD view of one rank)."""

    def __init__(self, cluster: SimCluster, rank: int) -> None:
        self.cluster = cluster
        self.rank = rank

    @property
    def size(self) -> int:
        return self.cluster.n_ranks

    @property
    def stats(self) -> RankStats:
        return self.cluster.stats[self.rank]

    # -- collectives --------------------------------------------------------
    def barrier(self) -> None:
        self.cluster._barrier.wait()

    def _exchange(self, value: Any) -> List[Any]:
        """Deposit ``value``, gather everyone's (two-phase with barriers)."""
        self.cluster._slots[self.rank] = value
        self.cluster._barrier.wait()
        gathered = list(self.cluster._slots)
        self.cluster._barrier.wait()
        return gathered

    def allreduce_sum(self, arr: np.ndarray) -> np.ndarray:
        parts = self._exchange(np.asarray(arr))
        return np.sum(parts, axis=0)

    def exscan_sum(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise sum over ranks below this one (MPI_Exscan); rank 0
        gets zeros. This yields each rank's write offset inside a partition."""
        parts = self._exchange(np.asarray(arr))
        if self.rank == 0:
            return np.zeros_like(np.asarray(arr))
        return np.sum(parts[: self.rank], axis=0)

    # -- one-sided RMA -------------------------------------------------------
    def win_create(self, n_slots: int, dtypes: Dict[str, Any]) -> Window:
        """Collective window registration (MPI_Win_create) of records with
        one ``{column: dtype}`` layout: every rank contributes its local
        region size, and rank 0's ``Window`` handle reaches its peers
        through a second exchange."""
        sizes = self._exchange(int(n_slots))
        self.stats.windows_created += 1
        win = Window(sizes, dtypes) if self.rank == 0 else None
        return self._exchange(win)[0]

    def put(self, win: Window, target_rank: int, offset: int,
            columns: Dict[str, np.ndarray], rows: np.ndarray) -> None:
        """One-sided write (RDMA write, no involvement of the target rank):
        gathers rows ``rows`` of ``columns`` straight into ``target_rank``'s
        region at ``offset``, one array per window column."""
        buf = win.buffers[target_rank]
        n = len(rows)
        if offset + n > win.n_slots[target_rank]:
            raise RuntimeError(
                f"put overflows window of rank {target_rank}: "
                f"{offset}+{n} > {win.n_slots[target_rank]}"
            )
        for c, dst in buf.items():
            # "clip" gathers in place ("raise" buffers); valid rows never clip
            np.take(columns[c], rows, out=dst[offset : offset + n], mode="clip")
            self.stats.bytes_put += _wire_bytes(dst[offset : offset + n])
        self.stats.puts += 1

    def fence(self, win: Window) -> None:
        """Collective epoch boundary (MPI_Win_fence): all pending RMA
        operations complete before it returns."""
        self.barrier()


def _wire_bytes(column: np.ndarray) -> int:
    """Wire-size estimate of one column: 8 bytes per non-object cell, the
    string length of each object cell."""
    if column.dtype == object:
        return sum(len(str(v)) for v in column)
    return 8 * len(column)
