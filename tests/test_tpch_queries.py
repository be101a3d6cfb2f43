"""TPC-H Q4/Q12/Q14/Q19: the modular sub-operator plans must produce the
exact SQL answer on every backend (simulated MPI cluster, Spark lowering,
per-tuple Presto stand-in), checked against DuckDB."""
import duckdb
import pandas as pd
import pytest

from repro.core.lower import run_distributed_on_spark
from repro.engines import MemSqlSim, run_presto_sim
from repro.modular.common import JoinConfig
from repro.mpi.thread_backend import run_on_sim
from repro.oracle import assert_equivalent
from repro.queries import QUERIES
from repro.queries.tpch import Q4_SQL, q4_plan
from repro.synth_data import lineitem_pdf, orders_pdf, part_pdf

SF = 0.004
CFG = JoinConfig(n_net=4, loc_bits=2)
QUERY = {q.name: q for q in QUERIES}


@pytest.fixture(scope="module")
def tables_pdf():
    return {
        "lineitem": lineitem_pdf(sf=SF),
        "orders": orders_pdf(sf=SF),
        "part": part_pdf(sf=SF),
    }


@pytest.fixture(scope="module")
def tables_spark(spark, tables_pdf):
    return {k: spark.createDataFrame(v) for k, v in tables_pdf.items()}


def duckdb_answer(sql, tables_pdf):
    con = duckdb.connect()
    try:
        for name, t in tables_pdf.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def canon(pdf):
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


class TestOnSimCluster:
    """The plans executed SPMD on the simulated MPI cluster."""

    @pytest.mark.parametrize("name", ["Q4", "Q12", "Q14", "Q19"])
    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_query_matches_duckdb(self, name, n_ranks, tables_pdf):
        q = QUERY[name]
        relations = {f: tables_pdf[t] for f, t in q.table_map.items()}
        out, _ = run_on_sim(q.build_plan(CFG), n_ranks, relations)
        expect = duckdb_answer(q.sql, tables_pdf)
        pd.testing.assert_frame_equal(canon(out), canon(expect), check_dtype=False)


class TestOnSpark:
    """The plans lowered onto Catalyst stages."""

    @pytest.mark.parametrize("name", ["Q4", "Q12", "Q14", "Q19"])
    def test_query_matches_oracle(self, spark, name, tables_pdf, tables_spark):
        q = QUERY[name]
        relations = {f: tables_spark[t] for f, t in q.table_map.items()}
        out = run_distributed_on_spark(spark, q.build_plan(CFG), relations)
        assert_equivalent(out, q.sql, **tables_pdf)


class TestEmptyLineitem:
    """Q14 and Q19 end in a global SUM: over an empty ``lineitem`` they
    return one row holding NULL, as in SQL, on every substrate."""

    @pytest.mark.parametrize("name", ["Q14", "Q19"])
    def test_on_sim_cluster(self, name, tables_pdf):
        q = QUERY[name]
        tables = dict(tables_pdf, lineitem=tables_pdf["lineitem"].iloc[:0])
        relations = {f: tables[t] for f, t in q.table_map.items()}
        out, _ = run_on_sim(q.build_plan(CFG), 2, relations)
        expect = duckdb_answer(q.sql, tables)
        assert len(expect) == 1 and expect.isna().all().all()
        pd.testing.assert_frame_equal(canon(out), canon(expect), check_dtype=False)

    @pytest.mark.parametrize("name", ["Q14", "Q19"])
    def test_on_spark(self, spark, name, tables_pdf, tables_spark):
        q = QUERY[name]
        tables = dict(tables_spark, lineitem=tables_spark["lineitem"].limit(0))
        relations = {f: tables[t] for f, t in q.table_map.items()}
        out = run_distributed_on_spark(spark, q.build_plan(CFG), relations)
        assert_equivalent(out, q.sql, **dict(tables_pdf, lineitem=tables_pdf["lineitem"].iloc[:0]))


class TestEngines:
    @pytest.mark.parametrize("name", ["Q12", "Q14"])
    def test_presto_sim_matches_oracle(self, spark, name, tables_pdf, tables_spark):
        q = QUERY[name]
        out = run_presto_sim(spark, q, tables_spark, CFG)
        assert_equivalent(out, q.sql, **tables_pdf)

    @pytest.mark.parametrize("name", ["Q4", "Q12", "Q14", "Q19"])
    def test_memsql_sim_matches_oracle(self, spark, name, tables_pdf, tables_spark):
        engine = MemSqlSim(spark, tables_spark)
        try:
            out = engine.run(QUERY[name].sql)
            assert_equivalent(out, QUERY[name].sql, **tables_pdf)
        finally:
            engine.close()


class TestQueriesAreSelective:
    """Guard: the synthetic data must exercise every query's predicates
    (non-empty results with non-trivial selectivity)."""

    @pytest.mark.parametrize("name", ["Q4", "Q12", "Q14", "Q19"])
    def test_nonempty_answer(self, name, tables_pdf):
        expect = duckdb_answer(QUERY[name].sql, tables_pdf)
        assert len(expect) > 0
        assert not expect.isna().any().any()


def test_null_group_keys_form_no_group_on_sim_and_spark(spark):
    """Q4 groups by a string key; orders without a priority form no group
    on either substrate (``ReduceByKey``'s rule; the SQL filters them)."""
    orders = orders_pdf(sf=0.002, seed=3)
    orders.loc[orders.index % 5 == 0, "o_orderpriority"] = None
    lineitem = lineitem_pdf(sf=0.002, seed=4)
    sql = Q4_SQL.replace("GROUP BY", "AND o_orderpriority IS NOT NULL GROUP BY")
    out, _ = run_on_sim(q4_plan(CFG), 2, {"L": lineitem, "O": orders})
    assert_equivalent(out, sql, orders=orders, lineitem=lineitem)
    relations = {"L": spark.createDataFrame(lineitem), "O": spark.createDataFrame(orders)}
    assert_equivalent(run_distributed_on_spark(spark, q4_plan(CFG), relations), sql,
                      orders=orders, lineitem=lineitem)
