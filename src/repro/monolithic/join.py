"""Monolithic distributed radix hash join (the Barthels et al. baseline).

One imperative code path per rank, phases fused over raw numpy arrays —
the "highly engineered, monolithic operator" the paper compares against. The algorithm is exactly Section 4.1.1:

  (1) local histograms of both relations in one pass, one combined
      MPI_Allreduce for the global histogram;
  (2) network partitioning with the 16B->8B key/value compression,
      through the RMA exchange it shares with ``MpiExchange``
      (``network.rma_exchange``: histogram-derived, synchronization-free
      offsets into registered windows);
  (3) cache-sized local radix re-partitioning;
  (4) per-partition build & probe with inline decompression.

Returns per-phase wall times so the Fig. 6 breakdown can be reproduced.
"""
from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.core import radix
from repro.core.ops.network import rma_exchange
from repro.core.types import RowVector, concat
from repro.modular.common import JoinConfig
from repro.mpi.simcluster import Comm
from repro.mpi.thread_backend import run_spmd


def _np_hash_join(bk, bv, pk, pv):
    """Fused equi-join over raw arrays (duplicates on both sides supported)
    on the shared build/probe kernel; returns (keys, build values, probe
    values)."""
    bi, pi = radix.join_indices(bk, pk)
    return pk[pi], bv[bi], pv[pi]


def _exchange(comm: Comm, cfg: JoinConfig, keys, vals, global_hist, spec):
    """Network-partitioning phase: compress, then the shared RMA exchange;
    returns this rank's ``(partition_id, columns)`` pairs."""
    cols = {"kv": spec.compress(keys, vals)} if spec else {"k": keys, "v": vals}
    parts = rma_exchange(comm, cols, cfg.net_pid().eval({cfg.key: keys}), global_hist)
    return [(p, tuple(data.values())) for p, data in parts]


def _rank_join(
    comm: Comm, r: RowVector, s: RowVector, cfg: JoinConfig
) -> Tuple[RowVector, Dict[str, float]]:
    t: Dict[str, float] = {}
    n = cfg.n_net
    spec_r = cfg.spec("vr")
    spec_s = cfg.spec("vs")

    # -- phase 1a: local histograms, both relations in one pass ------------
    t0 = perf_counter()
    rk, rv = r["k"].astype(np.int64, copy=False), r["vr"].astype(np.int64, copy=False)
    sk, sv = s["k"].astype(np.int64, copy=False), s["vs"].astype(np.int64, copy=False)
    hist_r = radix.histogram(cfg.net_pid().eval({cfg.key: rk}), n)
    hist_s = radix.histogram(cfg.net_pid().eval({cfg.key: sk}), n)
    t["local_histogram"] = perf_counter() - t0

    # -- phase 1b: one combined allreduce for both global histograms -------
    t0 = perf_counter()
    both = comm.allreduce_sum(np.concatenate([hist_r, hist_s]))
    ghist_r, ghist_s = both[:n], both[n:]
    t["global_histogram"] = perf_counter() - t0

    # -- phase 2: network partitioning (compressed wire format) ------------
    t0 = perf_counter()
    parts_r = _exchange(comm, cfg, rk, rv, ghist_r, spec_r)
    parts_s = _exchange(comm, cfg, sk, sv, ghist_s, spec_s)
    t["network_partitioning"] = perf_counter() - t0

    # -- phase 3: local radix re-partitioning -------------------------------
    t0 = perf_counter()
    n_loc = cfg.n_loc
    sub_pairs: List[Tuple[int, tuple, tuple]] = []
    for (pid_r, data_r), (pid_s, data_s) in zip(parts_r, parts_s):
        assert pid_r == pid_s

        def local_split(data, spec):
            k_hi = spec.key_high.eval({spec.out_field: data[0]}) if spec else data[0] >> cfg.net_bits
            return radix.scatter_arrays(list(data), k_hi & (n_loc - 1), n_loc)

        subs_r = local_split(data_r, spec_r)
        subs_s = local_split(data_s, spec_s)
        for i in range(n_loc):
            sub_pairs.append((pid_r, tuple(subs_r[i]), tuple(subs_s[i])))
    t["local_partitioning"] = perf_counter() - t0

    # -- phase 4: build & probe with inline decompression -------------------
    t0 = perf_counter()
    outs = []
    for pid, sub_r, sub_s in sub_pairs:
        if spec_r:
            jk, jl, jr = _np_hash_join(*spec_r.split(sub_r[0]), *spec_s.split(sub_s[0]))
            jk = spec_r.restore(jk, pid)  # recover dropped bits
        else:
            jk, jl, jr = _np_hash_join(sub_r[0], sub_r[1], sub_s[0], sub_s[1])
        outs.append((jk, jl, jr))
    t["build_probe"] = perf_counter() - t0

    # -- phase 5: materialize (added for parity with MaterializeRowVector) --
    t0 = perf_counter()
    result = RowVector({
        c: np.concatenate([o[i] for o in outs] + [np.zeros(0, np.int64)])
        for i, c in enumerate(("k", "vr", "vs"))
    })
    t["materialize"] = perf_counter() - t0
    return result, t


def run_monolithic_join(
    n_ranks: int, r: pd.DataFrame, s: pd.DataFrame, cfg: JoinConfig
) -> Tuple[pd.DataFrame, dict]:
    """Driver: slice inputs per rank, run the fused SPMD join, merge results.

    Returns ``(result, info)``, ``info`` as in ``thread_backend.sim_info``.
    """
    outs, info = run_spmd(n_ranks, lambda comm, r, s: _rank_join(comm, r, s, cfg), r, s)
    return concat(outs).to_pandas(), info
