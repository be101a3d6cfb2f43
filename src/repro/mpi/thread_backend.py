"""Run SPMD programs on the simulated MPI cluster.

Two kinds of program run here. A distributed sub-operator plan
(``run_on_sim``) starts its cluster itself, in ``MpiExecutor``; a
hand-written rank function (the monolithic baselines and the per-phase
model) runs through ``run_spmd``. Both slice their input relations into
per-rank ``RowVector``s of column views with ``split_relation`` (the
paper's NFS-read inputs) and report one info record, ``sim_info``:
per-rank phase seconds and the cluster's network accounting.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.core import Plan, RowVector
from repro.core.ops.base import ExecContext
from repro.core.profiling import Profiler
from repro.core.types import object_column
from repro.mpi.simcluster import SimCluster


def split_relation(relation, n_ranks: int) -> List[RowVector]:
    """Contiguous near-equal slices of ``relation``, one per rank, as views
    of its columns (each process reads its part of the input, paper
    Section 4.1.1)."""
    rel = RowVector(relation)
    bounds = np.linspace(0, len(rel), n_ranks + 1).astype(int)
    return [rel.take(slice(bounds[r], bounds[r + 1])) for r in range(n_ranks)]


def make_rank_inputs(n_ranks: int, **relations) -> dict:
    """Build the plan parameter structure: one tuple per rank, each field a
    RowVector slice of the named relation."""
    return {"rank_inputs": RowVector({
        name: object_column(split_relation(rel, n_ranks)) for name, rel in relations.items()
    })}


def run_on_sim(
    plan: Plan,
    n_ranks: int,
    relations: Dict[str, pd.DataFrame],
    profile: bool = False,
) -> Tuple[pd.DataFrame, dict]:
    """Execute a distributed plan on the simulated MPI cluster.

    Returns ``(result frame, info)``, ``info`` as in :func:`sim_info`; the
    phase breakdown is exclusive time, and empty unless ``profile``.
    """
    profiler = Profiler() if profile else None
    ctx = ExecContext(profiler=profiler)
    params = make_rank_inputs(n_ranks, **relations)
    out = plan.collect(ctx, params).to_pandas()
    return out, sim_info(ctx.extra["last_cluster"], profiler.breakdown() if profile else {})


def run_spmd(
    n_ranks: int,
    rank_fn: Callable[..., Tuple[Any, Dict[str, float]]],
    *relations: pd.DataFrame,
) -> Tuple[List[Any], dict]:
    """Run ``rank_fn(comm, *slices)`` on every rank of a new cluster, each
    rank given its slice of every relation (``split_relation``).
    ``rank_fn`` returns its result and its phase seconds; returns the
    per-rank results and the info record."""
    cluster = SimCluster(n_ranks)
    args = list(zip(*(split_relation(r, n_ranks) for r in relations)))
    outs = cluster.run(lambda comm, slices: rank_fn(comm, *slices), args)
    phases: Dict[str, float] = {}
    for _, secs in outs:
        for k, v in secs.items():
            phases[k] = phases.get(k, 0.0) + v
    return [res for res, _ in outs], sim_info(cluster, phases)


def sim_info(cluster: SimCluster, phase_totals: Dict[str, float]) -> dict:
    """The info record of a simulator run: ``phase_seconds`` (totals over
    all ranks, averaged per rank), ``bytes_put``, ``puts`` and
    ``windows``."""
    return {
        "phase_seconds": {k: v / cluster.n_ranks for k, v in phase_totals.items()},
        "bytes_put": cluster.total_bytes_put(),
        "puts": sum(s.puts for s in cluster.stats),
        "windows": sum(s.windows_created for s in cluster.stats),
    }
