"""Monolithic distributed GROUP BY baseline.

Same structure as the monolithic join (histogram -> network partitioning
-> local partitioning) but the last phase aggregates each partition with
the grouping kernel ``ReduceByKey`` runs (``radix.reduce_by_key``: sort by
key, ``np.add.reduceat``) instead of probing a hash table.
"""
from __future__ import annotations

from time import perf_counter
from typing import Dict, Tuple

import numpy as np
import pandas as pd

from repro.core import radix
from repro.core.types import RowVector, concat
from repro.modular.common import JoinConfig
from repro.monolithic.join import _exchange
from repro.mpi.simcluster import Comm
from repro.mpi.thread_backend import run_spmd


def _rank_groupby(comm: Comm, rel: RowVector, cfg: JoinConfig) -> Tuple[RowVector, Dict[str, float]]:
    t: Dict[str, float] = {}
    n = cfg.n_net
    spec = cfg.spec("v")

    t0 = perf_counter()
    keys, vals = rel["k"].astype(np.int64, copy=False), rel["v"].astype(np.int64, copy=False)
    hist = radix.histogram(cfg.net_pid().eval({cfg.key: keys}), n)
    t["local_histogram"] = perf_counter() - t0

    t0 = perf_counter()
    ghist = comm.allreduce_sum(hist)
    t["global_histogram"] = perf_counter() - t0

    t0 = perf_counter()
    parts = _exchange(comm, cfg, keys, vals, ghist, spec)
    t["network_partitioning"] = perf_counter() - t0

    t0 = perf_counter()
    n_loc = cfg.n_loc
    subs = []
    for pid, data in parts:
        k_hi = spec.key_high.eval({spec.out_field: data[0]}) if spec else data[0] >> cfg.net_bits
        for arrs in radix.scatter_arrays(list(data), k_hi & (n_loc - 1), n_loc):
            subs.append((pid, arrs))
    t["local_partitioning"] = perf_counter() - t0

    t0 = perf_counter()
    outs = []
    for pid, arrs in subs:
        k, v = spec.split(arrs[0]) if spec else arrs
        agg = radix.reduce_by_key(RowVector({"k": k, "v": v}), "k", {"v": "sum"})
        uk = spec.restore(agg["k"], pid) if spec else agg["k"]  # recover dropped bits
        outs.append((uk, agg["v"]))
    t["build_probe"] = perf_counter() - t0  # aggregation phase slot

    t0 = perf_counter()
    result = RowVector({
        c: np.concatenate([o[i] for o in outs] + [np.zeros(0, np.int64)]) for i, c in enumerate("kv")
    })
    t["materialize"] = perf_counter() - t0
    return result, t


def run_monolithic_groupby(
    n_ranks: int, t_pdf: pd.DataFrame, cfg: JoinConfig
) -> Tuple[pd.DataFrame, dict]:
    """Driver: SPMD fused GROUP BY; per-key results are already disjoint
    across ranks after the exchange, so the merge is a plain concat."""
    outs, info = run_spmd(n_ranks, lambda comm, t: _rank_groupby(comm, t, cfg), t_pdf)
    return concat(outs).to_pandas(), info
