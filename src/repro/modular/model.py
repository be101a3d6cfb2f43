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
from repro.core.ops import (
    BuildProbe,
    LocalHistogram,
    LocalPartitioning,
    MpiExchange,
    MpiHistogram,
    ParameterLookup,
    Projection,
    RowScan,
)
from repro.core.ops.base import ExecContext
from repro.modular.common import JoinConfig
from repro.modular.join import split_word
from repro.mpi.simcluster import SimCluster
from repro.mpi.thread_backend import split_relation


def _src(field: str) -> RowScan:
    return RowScan(Projection(ParameterLookup(), [field]), field)


def _run(plan_root, params, comm=None) -> pd.DataFrame:
    ctx = ExecContext(comm=comm)
    return vectorized.run_to_pdf(Plan(plan_root), ctx, params=params)


def _rank_model(comm, inputs: Tuple[pd.DataFrame, pd.DataFrame], cfg: JoinConfig) -> Dict[str, float]:
    r_pdf, s_pdf = inputs
    t: Dict[str, float] = {}
    params = {"R": RowVector(r_pdf), "S": RowVector(s_pdf)}

    def lh(field):
        return LocalHistogram(_src(field), cfg.n_net, cfg.net_pid())

    # local histogram: one pipeline per relation, nothing else
    t0 = perf_counter()
    hist_r = _run(lh("R"), params)
    hist_s = _run(lh("S"), params)
    t["local_histogram"] = perf_counter() - t0

    # global histogram: the MpiHistogram operator alone
    hp = {"H": RowVector(hist_r), "G": RowVector(hist_s)}
    t0 = perf_counter()
    ghist_r = _run(MpiHistogram(_src("H"), cfg.n_net), hp, comm)
    ghist_s = _run(MpiHistogram(_src("G"), cfg.n_net), hp, comm)
    t["global_histogram"] = perf_counter() - t0

    # network partitioning: the MpiExchange operator alone
    def ex(field, vf, lh_pdf, gh_pdf):
        return MpiExchange(
            _src(field),
            RowScan(Projection(ParameterLookup(), ["LH"]), "LH"),
            RowScan(Projection(ParameterLookup(), ["GH"]), "GH"),
            cfg.n_net, cfg.net_pid(),
            compression=cfg.spec(vf),
        )

    t0 = perf_counter()
    parts_r = _run(ex("R", "vr", hist_r, ghist_r),
                   params | {"LH": RowVector(hist_r), "GH": RowVector(ghist_r)}, comm)
    parts_s = _run(ex("S", "vs", hist_s, ghist_s),
                   params | {"LH": RowVector(hist_s), "GH": RowVector(ghist_s)}, comm)
    t["network_partitioning"] = perf_counter() - t0

    # local partitioning: LocalHistogram + LocalPartitioning per partition
    def local_parts(parts, vf):
        out = []
        for tup in RowVector(parts).iter_rows():
            p = {"D": tup["partition_data"]}
            loc_pid = cfg.loc_pid(vf)
            hist = LocalHistogram(_src("D"), cfg.n_loc, loc_pid)
            lp = LocalPartitioning(_src("D"), hist, cfg.n_loc, loc_pid)
            out.append((tup["partition_id"], _run(lp, p)))
        return out

    t0 = perf_counter()
    lp_r = local_parts(parts_r, "vr")
    lp_s = local_parts(parts_s, "vs")
    t["local_partitioning"] = perf_counter() - t0

    # build & probe: the BuildProbe operator per sub-partition pair, over
    # the join's own word split when the data is compressed
    def side(field, vf):
        return split_word(_src(field), cfg.spec(vf)) if cfg.compress else _src(field)

    key = "k_hi" if cfg.compress else cfg.key
    t0 = perf_counter()
    results = []
    for (pid_r, sub_r), (pid_s, sub_s) in zip(lp_r, lp_s):
        for tr, ts in zip(RowVector(sub_r).iter_rows(), RowVector(sub_s).iter_rows()):
            bp = BuildProbe(side("L", "vr"), side("R2", "vs"), keys=[key])
            results.append(_run(bp, {"L": tr["partition_data"], "R2": ts["partition_data"]}))
    t["build_probe"] = perf_counter() - t0

    t0 = perf_counter()
    mats = [x for x in results if len(x)]
    pd.concat(mats, ignore_index=True) if mats else pd.DataFrame()
    t["materialize"] = perf_counter() - t0
    return t


def model_phase_times(
    n_ranks: int, r: pd.DataFrame, s: pd.DataFrame, cfg: JoinConfig
) -> Dict[str, float]:
    """Per-phase seconds (averaged across ranks) for the isolated
    sub-operator microbenchmarks of the distributed join."""
    cluster = SimCluster(n_ranks)
    args = list(zip(split_relation(r, n_ranks), split_relation(s, n_ranks)))
    outs = cluster.run(lambda comm, inp: _rank_model(comm, inp, cfg), args)
    phases: Dict[str, float] = {}
    for tt in outs:
        for k, v in tt.items():
            phases[k] = phases.get(k, 0.0) + v / n_ranks
    return phases
