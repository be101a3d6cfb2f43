"""Tests for the monolithic join lowered onto Spark (Fig. 6b comparator)."""
import pandas as pd
import pytest

from repro.core.lower import lower_distributed_plan
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan
from repro.monolithic.spark import run_monolithic_join_spark
from repro.oracle import assert_equivalent
from repro.synth_data import dense_kv_pdf

N = 1 << 11


@pytest.fixture(scope="module")
def frames():
    r = dense_kv_pdf(N, value_field="vr", seed=70)
    s = dense_kv_pdf(N, value_field="vs", seed=71)
    return r, s


@pytest.mark.parametrize("compress", [False, True])
def test_matches_duckdb(spark, frames, compress):
    r, s = frames
    cfg = JoinConfig(n_net=4, loc_bits=2, compress=compress, p_bits=22)
    out = run_monolithic_join_spark(
        spark, spark.createDataFrame(r), spark.createDataFrame(s), cfg
    )
    assert_equivalent(out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s)


def test_monolithic_and_modular_same_result_on_spark(spark, frames):
    r, s = frames
    cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
    r_df, s_df = spark.createDataFrame(r), spark.createDataFrame(s)
    mono = run_monolithic_join_spark(spark, r_df, s_df, cfg).toPandas()
    mod = lower_distributed_plan(
        spark, distributed_join_plan(cfg), {"R": r_df, "S": s_df}
    ).result().toPandas()
    cols = ["k", "vr", "vs"]
    pd.testing.assert_frame_equal(
        mono[cols].sort_values(cols).reset_index(drop=True).astype("int64"),
        mod[cols].sort_values(cols).reset_index(drop=True).astype("int64"),
    )

