"""End-to-end tests of the modular distributed join (Fig. 3) on the
simulated MPI cluster: result equality against a pandas reference join
and against DuckDB."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core import RowVector
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan
from repro.mpi.thread_backend import run_on_sim
from repro.synth_data import dense_kv_pdf


def reference_join(r, s, how="inner"):
    return r.merge(s, on="k", how=how)


def sorted_frame(pdf, cols):
    return pdf[cols].sort_values(cols).reset_index(drop=True).astype("int64")


def run_join(r, s, n_ranks, cfg, join_type="inner"):
    plan = distributed_join_plan(cfg, join_type=join_type)
    out, info = run_on_sim(plan, n_ranks, {"R": r, "S": s})
    return out, info


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
@pytest.mark.parametrize("compress", [False, True])
def test_one_to_one_join_matches_reference(n_ranks, compress):
    n = 1 << 10
    r = dense_kv_pdf(n, value_field="vr", seed=1)
    s = dense_kv_pdf(n, value_field="vs", seed=2)
    cfg = JoinConfig(n_net=max(n_ranks, 2), loc_bits=2, compress=compress, p_bits=20)
    out, _ = run_join(r, s, n_ranks, cfg)
    expect = reference_join(r, s)
    assert len(out) == n
    pd.testing.assert_frame_equal(
        sorted_frame(out, ["k", "vr", "vs"]), sorted_frame(expect, ["k", "vr", "vs"])
    )


def test_multiplicity_join():
    r = dense_kv_pdf(512, value_field="vr", seed=3)
    s = dense_kv_pdf(512, value_field="vs", multiplicity=4, seed=4)
    cfg = JoinConfig(n_net=4, loc_bits=2)
    out, _ = run_join(r, s, 2, cfg)
    expect = reference_join(r, s)
    assert len(out) == len(expect)
    pd.testing.assert_frame_equal(
        sorted_frame(out, ["k", "vr", "vs"]), sorted_frame(expect, ["k", "vr", "vs"])
    )


@pytest.mark.parametrize("compress", [False, True])
def test_duplicate_heavy_keys_match_duckdb(compress):
    # 8 keys x 64 rows in R against 16 keys x 32 rows in S: every
    # BuildProbe sees long runs of equal keys on both sides
    r = dense_kv_pdf(1 << 9, value_field="vr", multiplicity=64, seed=15)
    s = dense_kv_pdf(1 << 9, value_field="vs", multiplicity=32, seed=16)
    cfg = JoinConfig(n_net=4, loc_bits=2, compress=compress, p_bits=16)
    out, _ = run_join(r, s, 4, cfg)
    con = duckdb.connect()
    try:
        con.register("R", r)
        con.register("S", s)
        expect = con.execute("SELECT R.k, vr, vs FROM R JOIN S ON R.k = S.k").fetchdf()
    finally:
        con.close()
    assert len(out) == 8 * 64 * 32
    pd.testing.assert_frame_equal(
        sorted_frame(out, ["k", "vr", "vs"]), sorted_frame(expect, ["k", "vr", "vs"])
    )


def test_semi_join_returns_probe_side_only():
    r = dense_kv_pdf(256, value_field="vr", seed=5).iloc[:100]  # half the keys
    s = dense_kv_pdf(256, value_field="vs", seed=6)
    cfg = JoinConfig(n_net=2, loc_bits=2)
    out, _ = run_join(r, s, 2, cfg, join_type="semi")
    expect = s[s["k"].isin(r["k"])]
    assert sorted(out["vs"]) == sorted(expect["vs"])
    assert set(out.columns) == {"k", "vs"}


def test_anti_join():
    r = dense_kv_pdf(256, value_field="vr", seed=5).iloc[:100]
    s = dense_kv_pdf(256, value_field="vs", seed=6)
    cfg = JoinConfig(n_net=2, loc_bits=2)
    out, _ = run_join(r, s, 2, cfg, join_type="anti")
    expect = s[~s["k"].isin(r["k"])]
    assert sorted(out["vs"]) == sorted(expect["vs"])


def test_compressed_join_restores_exact_keys():
    n = 1 << 9
    r = dense_kv_pdf(n, value_field="vr", seed=7)
    s = dense_kv_pdf(n, value_field="vs", seed=8)
    cfg = JoinConfig(n_net=4, loc_bits=3, compress=True, p_bits=16)
    out, _ = run_join(r, s, 4, cfg)
    assert sorted(out["k"]) == sorted(r["k"])


def test_network_stats_exposed():
    r = dense_kv_pdf(256, value_field="vr", seed=9)
    s = dense_kv_pdf(256, value_field="vs", seed=10)
    cfg = JoinConfig(n_net=2, loc_bits=1)
    _, info = run_join(r, s, 2, cfg)
    assert info["bytes_put"] > 0
    assert info["windows"] == 2 * 2  # one window per side per rank


def test_profiling_covers_all_phases():
    r = dense_kv_pdf(512, value_field="vr", seed=11)
    s = dense_kv_pdf(512, value_field="vs", seed=12)
    cfg = JoinConfig(n_net=2, loc_bits=2)
    plan = distributed_join_plan(cfg)
    _, info = run_on_sim(plan, 2, {"R": r, "S": s}, profile=True)
    phases = info["phase_seconds"]
    for p in ("local_histogram", "global_histogram", "network_partitioning",
              "local_partitioning", "build_probe", "materialize"):
        assert p in phases, f"missing phase {p}: {phases}"


def test_rank_and_driver_post_hooks():
    from repro.core.ops import Reduce

    def count_hook(op):
        return Reduce(op, {"n": "sum"})

    def to_count(op):
        from repro.core.ops import Map

        return Reduce(Map(op, lambda b: RowVector({"n": np.ones(len(b), dtype=int)})), {"n": "sum"})

    r = dense_kv_pdf(128, value_field="vr", seed=13)
    s = dense_kv_pdf(128, value_field="vs", seed=14)
    cfg = JoinConfig(n_net=2, loc_bits=1)
    plan = distributed_join_plan(cfg, rank_post=to_count, driver_post=count_hook)
    out, _ = run_on_sim(plan, 2, {"R": r, "S": s})
    assert list(out["n"]) == [128]
