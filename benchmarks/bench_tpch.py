"""Benchmark: Fig. 9 — TPC-H Q4/Q12/Q14/Q19 across the three engines:
Modularis (lowered sub-operator plans), Presto stand-in (interpreted),
MemSQL stand-in (native Spark SQL over cached tables).

Scale factor via REPRO_SF (default 0.1 ≈ 600k lineitem rows).
"""
import os

import pytest

from repro.core.lower import run_distributed_on_spark
from repro.engines import MemSqlSim, run_presto_sim
from repro.modular.common import JoinConfig
from repro.queries import QUERIES
from repro.synth_data import lineitem, orders, part

SF = float(os.environ.get("REPRO_SF", 0.1))
CFG = JoinConfig(n_net=8, loc_bits=3)
QUERY = {q.name: q for q in QUERIES}
NAMES = ["Q4", "Q12", "Q14", "Q19"]


@pytest.fixture(scope="module")
def tables(spark):
    t = {
        "lineitem": lineitem(spark, sf=SF).cache(),
        "orders": orders(spark, sf=SF).cache(),
        "part": part(spark, sf=SF).cache(),
    }
    for df in t.values():
        df.count()
    yield t
    for df in t.values():
        df.unpersist()


@pytest.mark.parametrize("name", NAMES)
def test_fig9_modularis(benchmark, spark, tables, name):
    q = QUERY[name]
    relations = {f: tables[t] for f, t in q.table_map.items()}
    plan = q.build_plan(CFG)
    rows = benchmark.pedantic(
        lambda: run_distributed_on_spark(spark, plan, relations).collect(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(rows) > 0


@pytest.mark.parametrize("name", NAMES)
def test_fig9_presto_sim(benchmark, spark, tables, name):
    q = QUERY[name]
    rows = benchmark.pedantic(
        lambda: run_presto_sim(spark, q, tables, CFG).collect(),
        rounds=1, iterations=1,
    )
    assert len(rows) > 0


@pytest.mark.parametrize("name", NAMES)
def test_fig9_memsql_sim(benchmark, spark, tables, name):
    engine = MemSqlSim(spark, tables)
    try:
        # MemSqlSim.run already collects the result: time that execution only
        df = benchmark.pedantic(
            lambda: engine.run(QUERY[name].sql),
            rounds=3, iterations=1, warmup_rounds=1,
        )
        assert len(df.collect()) > 0
    finally:
        engine.close()
