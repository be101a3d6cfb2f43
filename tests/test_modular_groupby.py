"""End-to-end tests of the modular distributed GROUP BY (Fig. 5)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.ops import MaterializeRowVector, Map, ParametrizedMap, ReduceByKey
from repro.core.lower import lower_distributed_plan
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.mpi.thread_backend import run_on_sim
from repro.oracle import assert_equivalent
from repro.synth_data import dense_kv_pdf


def reference(t):
    return t.groupby("k", as_index=False)["v"].sum()


def run_gb(t, n_ranks, cfg):
    plan = distributed_groupby_plan(cfg)
    return run_on_sim(plan, n_ranks, {"T": t})


def check(out, t):
    expect = reference(t).sort_values("k").reset_index(drop=True)
    got = out.sort_values("k").reset_index(drop=True)[["k", "v"]]
    pd.testing.assert_frame_equal(got.astype("int64"), expect.astype("int64"))


def test_compressed_groupby_aggregates_before_restoring_the_key():
    """The join's innermost shape with ReduceByKey in BuildProbe's place:
    the compressed GROUP BY aggregates the stored key-high bits ``k_hi``
    of the split words, and one ParametrizedMap above restores the key."""
    plan = distributed_groupby_plan(JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22))
    nested = [plan]
    while nested:
        plan = nested[0]
        nested = [op.nested_plan for op in plan.operators() if hasattr(op, "nested_plan")]
    restore = plan.root.upstreams[0]
    assert isinstance(plan.root, MaterializeRowVector) and isinstance(restore, ParametrizedMap)
    reduce = restore.upstreams[1]
    assert isinstance(reduce, ReduceByKey) and reduce.key == "k_hi"
    assert isinstance(reduce.upstreams[0], Map)


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
@pytest.mark.parametrize("compress", [False, True])
def test_groupby_matches_reference(n_ranks, compress):
    t = dense_kv_pdf(1 << 10, multiplicity=4, seed=20)
    cfg = JoinConfig(n_net=max(n_ranks, 2), loc_bits=2, compress=compress, p_bits=20)
    out, _ = run_gb(t, n_ranks, cfg)
    check(out, t)


def test_every_key_unique():
    t = dense_kv_pdf(512, multiplicity=1, seed=21)
    cfg = JoinConfig(n_net=4, loc_bits=2)
    out, _ = run_gb(t, 4, cfg)
    assert len(out) == 512
    check(out, t)


def test_single_group():
    t = pd.DataFrame({"k": np.zeros(100, dtype=np.int64), "v": np.arange(100)})
    cfg = JoinConfig(n_net=2, loc_bits=1)
    out, _ = run_gb(t, 2, cfg)
    assert len(out) == 1 and int(out["v"].iloc[0]) == 4950


def test_custom_aggregate_max():
    t = dense_kv_pdf(256, multiplicity=4, seed=22)
    cfg = JoinConfig(n_net=2, loc_bits=1)
    plan = distributed_groupby_plan(cfg, aggs={"v": "max"})
    out, _ = run_on_sim(plan, 2, {"T": t})
    expect = t.groupby("k", as_index=False)["v"].max()
    got = out.sort_values("k").reset_index(drop=True)[["k", "v"]]
    pd.testing.assert_frame_equal(
        got.astype("int64"), expect.sort_values("k").reset_index(drop=True).astype("int64")
    )


def test_count_aggregate_rejected():
    """'count' is not re-aggregable: each level would count the partial
    results of the level below (1 per key instead of 4)."""
    with pytest.raises(ValueError, match="'count'"):
        distributed_groupby_plan(JoinConfig(n_net=2, loc_bits=1), aggs={"v": "count"})


def test_groupby_phase_breakdown():
    t = dense_kv_pdf(1 << 10, multiplicity=2, seed=23)
    cfg = JoinConfig(n_net=2, loc_bits=2)
    plan = distributed_groupby_plan(cfg)
    _, info = run_on_sim(plan, 2, {"T": t}, profile=True)
    assert "network_partitioning" in info["phase_seconds"]
    assert "local_partitioning" in info["phase_seconds"]


@pytest.mark.parametrize("compress", [False, True])
def test_empty_relation_matches_duckdb(compress):
    """An empty T has no groups; the result still has T's columns."""
    t = dense_kv_pdf(0)
    cfg = JoinConfig(n_net=4, loc_bits=2, compress=compress, p_bits=20)
    out, _ = run_gb(t, 2, cfg)
    assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)


def _groupby_relation(n):
    """Duplicate-heavy int64 keys, NULL values, and one key whose values
    are all NULL; three value columns, one per re-aggregable aggregate."""
    g = np.random.default_rng(11)
    k = g.integers(-3, 5, n)
    a = np.where(g.random(n) < 0.2, np.nan, g.integers(0, 100, n).astype(float))
    a[k == 4] = np.nan
    return pd.DataFrame({"k": k, "a": a, "b": g.standard_normal(n), "c": g.integers(0, 9, n)})


GROUPBY_AGGS = {"a": "sum", "b": "min", "c": "max"}
GROUPBY_SQL = "SELECT k, SUM(a) AS a, MIN(b) AS b, MAX(c) AS c FROM t GROUP BY k"


@pytest.mark.parametrize("n", [0, 400])
@pytest.mark.parametrize("substrate", ["sim", "spark"])
def test_null_values_and_every_aggregate_match_duckdb(request, substrate, n):
    """SQL NULL rules at every level: NULL values are skipped, and a key
    whose values are all NULL sums to NULL; empty input keeps its columns."""
    t = _groupby_relation(n)
    plan = distributed_groupby_plan(JoinConfig(n_net=4, loc_bits=2), value_field="a", aggs=GROUPBY_AGGS)
    if substrate == "sim":
        out, _ = run_on_sim(plan, 3, {"T": t})
        assert list(out.columns) == ["k", "a", "b", "c"]
    else:
        spark = request.getfixturevalue("spark")
        df = spark.createDataFrame(t, schema="k long, a double, b double, c long")
        out = lower_distributed_plan(spark, plan, {"T": df}).result()
        assert out.columns == ["k", "a", "b", "c"]
    assert_equivalent(out, GROUPBY_SQL, t=t)
