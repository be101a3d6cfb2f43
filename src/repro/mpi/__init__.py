"""Simulated MPI/RDMA substrate.

The paper runs on an 8-node InfiniBand cluster via OpenMPI one-sided RMA.
This package substitutes it with an in-process substrate: ``SimCluster``
runs N rank-threads with registered memory windows, one-sided puts, fence
epochs and the collectives the algorithms need (allreduce, exscan,
barrier), plus bytes-on-the-wire accounting. ``thread_backend`` runs
sub-operator plans and the monolithic baselines SPMD on it.
"""
from repro.mpi.simcluster import Comm, SimCluster, Window  # noqa: F401
