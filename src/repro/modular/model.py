"""Per-phase sub-operator microbenchmarks — the "model" series of Fig. 6a.

Runs each phase's sub-operators in isolation (one operator per pipeline,
inputs pre-materialized), which is the best case the modular plan could
achieve: no long pipelines, no cross-phase interactions. The gap between
the model and the full query plan shows the cost of executing the same
operators inside larger pipelines, exactly as discussed in Section 5.1.2.
"""
from __future__ import annotations

from time import perf_counter
from typing import Dict, Tuple

import pandas as pd

from repro.core import Plan, RowVector, vectorized
from repro.core.types import concat
from repro.core.ops import (
    BuildProbe,
    LocalHistogram,
    LocalPartitioning,
    MpiExchange,
    MpiHistogram,
)
from repro.core.ops.base import ExecContext
from repro.modular.common import JoinConfig, rank_input
from repro.modular.join import split_word
from repro.mpi.thread_backend import run_spmd


def _run(plan_root, params, comm=None) -> RowVector:
    ctx = ExecContext(comm=comm)
    return concat(list(vectorized.iter_batches(Plan(plan_root), ctx, params=params)))


def _rank_model(
    comm, r: RowVector, s: RowVector, cfg: JoinConfig
) -> Tuple[None, Dict[str, float]]:
    t: Dict[str, float] = {}
    params = {"R": r, "S": s}

    def lh(field):
        return LocalHistogram(rank_input(field), cfg.n_net, cfg.net_pid())

    # local histogram: one pipeline per relation, nothing else
    t0 = perf_counter()
    hist_r = _run(lh("R"), params)
    hist_s = _run(lh("S"), params)
    t["local_histogram"] = perf_counter() - t0

    # global histogram: the MpiHistogram operator alone
    hp = {"H": hist_r, "G": hist_s}
    t0 = perf_counter()
    ghist_r = _run(MpiHistogram(rank_input("H"), cfg.n_net), hp, comm)
    ghist_s = _run(MpiHistogram(rank_input("G"), cfg.n_net), hp, comm)
    t["global_histogram"] = perf_counter() - t0

    # network partitioning: the MpiExchange operator alone
    def ex(field, vf):
        return MpiExchange(
            rank_input(field), rank_input("LH"), rank_input("GH"), cfg.n_net, cfg.net_pid(),
            compression=cfg.spec(vf),
        )

    t0 = perf_counter()
    parts_r = _run(ex("R", "vr"), params | {"LH": hist_r, "GH": ghist_r}, comm)
    parts_s = _run(ex("S", "vs"), params | {"LH": hist_s, "GH": ghist_s}, comm)
    t["network_partitioning"] = perf_counter() - t0

    # local partitioning: LocalHistogram + LocalPartitioning per partition
    def local_parts(parts, vf):
        loc_pid = cfg.loc_pid(vf)
        hist = LocalHistogram(rank_input("D"), cfg.n_loc, loc_pid)
        lp = LocalPartitioning(rank_input("D"), hist, cfg.n_loc, loc_pid)
        return [_run(lp, {"D": data}) for data in parts["partition_data"]]

    t0 = perf_counter()
    lp_r = local_parts(parts_r, "vr")
    lp_s = local_parts(parts_s, "vs")
    t["local_partitioning"] = perf_counter() - t0

    # build & probe: the BuildProbe operator per sub-partition pair, over
    # the join's own word split when the data is compressed
    def side(field, vf):
        return split_word(rank_input(field), cfg.spec(vf)) if cfg.compress else rank_input(field)

    key = "k_hi" if cfg.compress else cfg.key
    bp = BuildProbe(side("L", "vr"), side("R2", "vs"), key=key)
    t0 = perf_counter()
    results = [
        _run(bp, {"L": dl, "R2": ds})
        for sub_r, sub_s in zip(lp_r, lp_s)
        for dl, ds in zip(sub_r["partition_data"], sub_s["partition_data"])
    ]
    t["build_probe"] = perf_counter() - t0

    t0 = perf_counter()
    concat(results)
    t["materialize"] = perf_counter() - t0
    return None, t


def model_phase_times(
    n_ranks: int, r: pd.DataFrame, s: pd.DataFrame, cfg: JoinConfig
) -> Dict[str, float]:
    """Per-phase seconds (averaged across ranks) for the isolated
    sub-operator microbenchmarks of the distributed join."""
    _, info = run_spmd(n_ranks, lambda comm, r, s: _rank_model(comm, r, s, cfg), r, s)
    return info["phase_seconds"]
