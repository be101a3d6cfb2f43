"""Tests of the Spark (Catalyst) lowering: the same plan objects that run
on the simulated MPI cluster execute as Spark stages, validated against the
DuckDB oracle and against the SimCluster execution."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import StructType

from repro.core import Plan, RowVector
from repro.core.expr import col
from repro.core.lower import _run_inner, lower_distributed_plan
from repro.core.ops import (
    ExecContext,
    Filter,
    LocalHistogram,
    Map,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    ParametrizedMap,
)
from repro.core.types import BOOL, DATE, FLOAT64, INT64, STR, RowVectorType, TupleType
from repro.engines import run_presto_sim
from repro.modular.common import JoinConfig, rank_input
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.modular.join_sequence import (
    count_exchanges,
    naive_sequence_plan,
    optimized_sequence_plan,
    relation_fields,
    value_fields,
)
from repro.monolithic import run_monolithic_join
from repro.mpi.thread_backend import make_rank_inputs, run_on_sim, run_spmd
from repro.oracle import assert_equivalent
from repro.queries import QUERIES
from repro.queries.tpch import TpchQuery
from repro.spark_session import session_conf
from repro.synth_data import dense_kv_pdf, lineitem_pdf, orders_pdf, part_pdf
from tests.helpers import plan_string, python_nodes, source, spark_jobs


N = 1 << 11

#: every repro.modular and TPC-H plan (the ``plans`` fixture builds them)
PLANS = ["join", "join-compressed", "semi-join-compressed", "groupby", "groupby-compressed",
         "sequence-optimized", "sequence-naive"] + [q.name for q in QUERIES]


@pytest.fixture(scope="module")
def kv_frames():
    r = dense_kv_pdf(N, value_field="vr", seed=60)
    s = dense_kv_pdf(N, value_field="vs", multiplicity=2, seed=61)
    return r, s


class TestJoinLowering:
    def test_join_matches_duckdb(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2)
        plan = distributed_join_plan(cfg)
        out = lower_distributed_plan(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        ).result()
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_compressed_join_matches_duckdb(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        plan = distributed_join_plan(cfg)
        out = lower_distributed_plan(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        ).result()
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_spark_and_sim_agree(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=2, loc_bits=1)
        plan = distributed_join_plan(cfg)
        spark_out = lower_distributed_plan(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        ).result().toPandas()
        sim_out, _ = run_on_sim(plan, 2, {"R": r, "S": s})
        cols = ["k", "vr", "vs"]
        a = spark_out[cols].sort_values(cols).reset_index(drop=True).astype("int64")
        b = sim_out[cols].sort_values(cols).reset_index(drop=True).astype("int64")
        pd.testing.assert_frame_equal(a, b)

    def test_semi_join(self, spark, kv_frames):
        r, s = kv_frames
        r_half = r.iloc[: N // 2]
        cfg = JoinConfig(n_net=4, loc_bits=2)
        plan = distributed_join_plan(cfg, join_type="semi")
        out = lower_distributed_plan(
            spark, plan,
            {"R": spark.createDataFrame(r_half), "S": spark.createDataFrame(s)},
        ).result()
        assert_equivalent(
            out,
            "SELECT k, vs FROM s WHERE EXISTS (SELECT 1 FROM r WHERE r.k = s.k)",
            r=r_half, s=s,
        )

    def test_stage_handles_exposed(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2)
        lowered = lower_distributed_plan(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
        )
        assert len(lowered.pre) == 2 and len(lowered.histograms) == 2
        # the histogram stage is the lowered LocalHistogram+MpiHistogram:
        hist = {row["__pid"]: row["count"] for row in lowered.histograms[0].collect()}
        assert sum(hist.values()) == N
        expect = (r["k"] % cfg.n_net).value_counts().to_dict()
        assert hist == expect

    def test_missing_relation_rejected(self, spark, kv_frames):
        r, _ = kv_frames
        cfg = JoinConfig(n_net=2, loc_bits=1)
        with pytest.raises(KeyError, match="'S'"):
            lower_distributed_plan(
                spark, distributed_join_plan(cfg), {"R": spark.createDataFrame(r)}
            )

    def test_nested_plan_must_return_one_tuple(self):
        """The partition UDF checks its nested plan's result as NestedMap
        does: a plan that does not end in MaterializeRowVector yields one
        tuple per row."""
        side = (MpiExchange(source("T"), source("H"), 1, col("k") & 0),
                pd.DataFrame({"k": [1, 2, 3]}))
        with pytest.raises(RuntimeError, match="nested plan of NestedMap must produce exactly one"):
            _run_inner(Plan(source("partition_data")), "k", 0, [side], None)


class TestGroupByLowering:
    def test_groupby_matches_duckdb(self, spark):
        t = dense_kv_pdf(N, multiplicity=4, seed=62)
        cfg = JoinConfig(n_net=4, loc_bits=2)
        out = lower_distributed_plan(
            spark, distributed_groupby_plan(cfg), {"T": spark.createDataFrame(t)}
        ).result()
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)

    def test_compressed_groupby(self, spark):
        t = dense_kv_pdf(N, multiplicity=4, seed=63)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        out = lower_distributed_plan(
            spark, distributed_groupby_plan(cfg), {"T": spark.createDataFrame(t)}
        ).result()
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)


def _sequence_sql(n_joins):
    """The cascade of ``n_joins`` joins of R0..RN on ``k``, as SQL."""
    joins = " ".join(f"JOIN r{i} ON r0.k = r{i}.k" for i in range(1, n_joins + 1))
    return f"SELECT r0.k AS k, {', '.join(value_fields(n_joins))} FROM r0 {joins}"


SEQUENCES = {"naive": naive_sequence_plan, "optimized": optimized_sequence_plan}


class TestSequenceLowering:
    """Both join cascades lower: the naive one re-exchanges every join's
    output as a base relation is exchanged, so it lowers to 2N exchanges
    (N+1 for the optimized one), one ``Lowered.pre`` entry each."""

    @staticmethod
    def _check(spark, kind, n_joins, rels_pdf):
        plan = SEQUENCES[kind](JoinConfig(n_net=4, loc_bits=1), n_joins)
        rels = {k: spark.createDataFrame(v) for k, v in rels_pdf.items()}
        lowered = lower_distributed_plan(spark, plan, rels)
        assert len(lowered.pre) == count_exchanges(plan)
        tables = {f.lower(): pdf for f, pdf in rels_pdf.items()}
        assert_equivalent(lowered.result(), _sequence_sql(n_joins), **tables)

    @pytest.mark.parametrize("kind, n_joins", [(k, n) for k in SEQUENCES for n in (1, 2, 3)])
    def test_matches_duckdb(self, spark, kind, n_joins):
        rels_pdf = {
            f: dense_kv_pdf(512, value_field=v, seed=64 + i)
            for i, (f, v) in enumerate(zip(relation_fields(n_joins), value_fields(n_joins)))
        }
        self._check(spark, kind, n_joins, rels_pdf)

    def test_one_join_lowers_the_same_either_way(self, spark):
        """A cascade of one join is one exchange per relation in both plans,
        so both lower to the same Catalyst plan."""
        rels = {f: spark.createDataFrame(dense_kv_pdf(64, value_field=v, seed=i))
                for i, (f, v) in enumerate(zip(relation_fields(1), value_fields(1)))}
        cfg = JoinConfig(n_net=4, loc_bits=1)
        naive, optimized = (plan_string(lower_distributed_plan(spark, build(cfg, 1), rels).result())
                            for build in SEQUENCES.values())
        assert naive == optimized

    @pytest.mark.parametrize("kind", list(SEQUENCES))
    def test_keeps_int64_precision(self, spark, kind):
        """Values above 2**53 survive the N-ary tagged union and the naive
        cascade's re-exchange exactly (a NULL-padded column reaches pandas
        as float64 and rounds them)."""
        base = (1 << 60) + 1
        rels_pdf = {
            f: pd.DataFrame({"k": np.arange(64, dtype=np.int64),
                             v: base + i + 3 * np.arange(64, dtype=np.int64)})
            for i, (f, v) in enumerate(zip(relation_fields(2), value_fields(2)))
        }
        self._check(spark, kind, 2, rels_pdf)


def _top_bit_kv(n=256):
    """R(k, vr) and S(k, vs) with keys and values in [2**31, 2**32): packed
    at P = 32 without dropped bits, every word has its top bit set. S holds
    every second key of R twice."""
    rng = np.random.default_rng(80)
    keys = (1 << 32) - 1 - 5 * np.arange(n, dtype=np.int64)
    r = pd.DataFrame({"k": keys, "vr": rng.integers(1 << 31, 1 << 32, n)})
    s_keys = np.repeat(keys[::2], 2)
    s = pd.DataFrame({"k": s_keys, "vs": rng.integers(1 << 31, 1 << 32, len(s_keys))})
    return r, s


class TestCompressionAtWordLimit:
    """2*P - F = 64 (P = 32, one network partition, keys >= 2**31): the
    int64 wire word has its top bit set, on every substrate."""

    CFG = JoinConfig(n_net=1, loc_bits=2, compress=True, p_bits=32)

    def test_spark_matches_duckdb(self, spark):
        r, s = _top_bit_kv()
        out = lower_distributed_plan(
            spark, distributed_join_plan(self.CFG),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
        ).result()
        assert_equivalent(out, JOIN_SQL, r=r, s=s)

    def test_sim_cluster_matches_duckdb(self):
        r, s = _top_bit_kv()
        out, _ = run_on_sim(distributed_join_plan(self.CFG), 2, {"R": r, "S": s})
        assert_equivalent(out, JOIN_SQL, r=r, s=s)

    def test_monolithic_sim_join_matches_duckdb(self):
        r, s = _top_bit_kv()
        out, _ = run_monolithic_join(2, r, s, self.CFG)
        assert_equivalent(out, JOIN_SQL, r=r, s=s)


def _sim_global_histograms(plan, n_ranks, frames):
    """Each exchange's global histogram, ``{pid: count}`` without empty
    buckets, as the plan's own LocalHistogram + MpiHistogram compute it on
    the simulated cluster (in the order of the lowering's sides)."""
    me = next(op for op in plan.operators() if isinstance(op, MpiExecutor))
    hists = [op for op in me.nested_plan.operators() if isinstance(op, MpiHistogram)]
    names = list(frames)

    def rank_fn(comm, *slices):
        params = dict(zip(names, map(RowVector, slices)))
        ctx = ExecContext(comm=comm)
        return [Plan(h).collect(ctx, params=params).to_pandas() for h in hists], {}

    outs, _ = run_spmd(n_ranks, rank_fn, *frames.values())
    return [{int(b): int(c) for b, c in zip(h["bucket_id"], h["count"]) if c} for h in outs[0]]


def _negative_kv(n, value_field, seed, multiplicity=1):
    """A dense <key, value> relation with keys in [-n/2, n/2)."""
    pdf = dense_kv_pdf(n, value_field=value_field, multiplicity=multiplicity, seed=seed)
    return pdf.assign(k=pdf["k"] - n // 2)


class TestNativeExchange:
    """The pid and the wire word are native Catalyst columns compiled from
    the plan's expressions; they must agree with the evaluator's numpy."""

    #: three network partitions: not a power of two, so no radix bits
    CFG = JoinConfig(n_net=3, loc_bits=2)

    @pytest.mark.parametrize("query", ["join", "groupby"])
    def test_negative_keys_three_partitions(self, spark, query):
        """Correct rows on both substrates, and the Spark histograms are the
        simulator's: a truncating ``%`` would still join correctly but put
        negative keys in pid -1 and -2."""
        if query == "join":
            frames = {"R": _negative_kv(N, "vr", seed=90),
                      "S": _negative_kv(N, "vs", seed=91, multiplicity=2)}
            plan, sql = distributed_join_plan(self.CFG), JOIN_SQL
        else:
            frames = {"T": _negative_kv(N, "v", seed=92, multiplicity=4)}
            plan = distributed_groupby_plan(self.CFG)
            sql = "SELECT k, SUM(v) AS v FROM t GROUP BY k"
        tables = {name.lower(): pdf for name, pdf in frames.items()}
        sim_out, _ = run_on_sim(plan, 2, frames)
        assert_equivalent(sim_out, sql, **tables)
        lowered = lower_distributed_plan(
            spark, plan, {name: spark.createDataFrame(pdf) for name, pdf in frames.items()}
        )
        assert_equivalent(lowered.result(), sql, **tables)
        spark_hists = [{row["__pid"]: row["count"] for row in h.collect()}
                       for h in lowered.histograms]
        assert spark_hists == _sim_global_histograms(plan, 2, frames)

    def test_key_outside_dense_domain_raises(self, spark, kv_frames):
        r, s = kv_frames
        r = r.assign(k=r["k"].where(r.index != 7, 1 << 22))  # 2**P at P = 22
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        plan = distributed_join_plan(cfg)
        with pytest.raises(ValueError, match="key outside dense 22-bit domain"):
            run_on_sim(plan, 2, {"R": r, "S": s})
        relations = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        with pytest.raises(Exception, match="key outside dense 22-bit domain"):
            lower_distributed_plan(spark, plan, relations).result().collect()


#: the Python nodes of each plan's root-most nested stage, inputs included
INNER_PYTHON_NODES = {
    "join": {"FlatMapCoGroupsInPandas": 1},
    "join-compressed": {"FlatMapCoGroupsInPandas": 1},
    "semi-join-compressed": {"FlatMapCoGroupsInPandas": 1},
    "groupby": {"FlatMapGroupsInPandas": 1},
    "groupby-compressed": {"FlatMapGroupsInPandas": 1},
    "sequence-optimized": {"FlatMapGroupsInPandas": 1},
    "sequence-naive": {"FlatMapCoGroupsInPandas": 2},
    **{q.name: {"FlatMapCoGroupsInPandas": 1, "MapInPandas": 2} for q in QUERIES},
}


class TestInputRelations:
    def test_fixture_runs_the_program_session_settings(self, spark):
        conf = session_conf()
        assert {key: spark.conf.get(key) for key in conf} == conf

    def test_pandas_input_is_rdd_backed(self, spark, kv_frames):
        """A ``LocalRelation`` would embed every row in the plan: each job
        ships them again, and each cache lookup compares them."""
        plan = plan_string(spark.createDataFrame(kv_frames[0]))
        assert "LogicalRDD" in plan
        assert "LocalRelation" not in plan

    def test_relation_scan_runs_one_task_per_core(self, spark):
        """An RDD-backed input has one partition per Arrow batch. Its scan
        is coalesced to one partition per core without a shuffle; a
        relation with fewer partitions keeps its own."""
        cores = spark.sparkContext.defaultParallelism
        batch = int(spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"))
        r = dense_kv_pdf((cores + 2) * batch, value_field="vr", seed=62)
        s = dense_kv_pdf(batch, value_field="vs", seed=63)
        relations = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        assert [df.rdd.getNumPartitions() for df in relations.values()] == [cores + 2, 1]
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        lowered = lower_distributed_plan(spark, distributed_join_plan(cfg), relations)
        assert [df.rdd.getNumPartitions() for df in lowered.pre] == [cores, 1]
        assert [_exchanges(df) for df in lowered.pre] == [0, 0]
        out = lowered.result()
        assert _exchanges(out) == 2  # the two sides' shuffles on __pid
        assert_equivalent(out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s)


def _exchanges(df) -> int:
    """The shuffle exchanges in ``df``'s physical plan."""
    return str(df._jdf.queryExecution().executedPlan()).count("Exchange ")


class TestPythonRoundTrips:
    """Python runs only where the plan holds opaque callables: the nested
    plan's UDF and the pre-exchange ``Filter``/``Map``s of ``pre_scan``."""

    def test_join_runs_python_only_in_the_nested_plan(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=8, loc_bits=3, compress=True, p_bits=27)
        lowered = lower_distributed_plan(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
        )
        assert [python_nodes(df) for df in lowered.pre] == [{}, {}]
        assert python_nodes(lowered.inner) == {"FlatMapCoGroupsInPandas": 1}

    def test_groupby_runs_no_python_before_the_exchange(self, spark):
        t = dense_kv_pdf(256, seed=93)
        lowered = lower_distributed_plan(
            spark, distributed_groupby_plan(JoinConfig(n_net=4, loc_bits=2)),
            {"T": spark.createDataFrame(t)},
        )
        assert python_nodes(lowered.pre[0]) == {}
        assert python_nodes(lowered.inner) == {"FlatMapGroupsInPandas": 1}

    @pytest.mark.parametrize("name", [q.name for q in QUERIES])
    def test_tpch_side_runs_one_map_in_pandas(self, spark, plans, name):
        """Every TPC-H side filters or projects in ``pre_scan``: one fused
        ``MapInPandas`` per side, then the native exchange columns."""
        plan, frames = plans[name]
        relations = {f: spark.createDataFrame(pdf) for f, pdf in frames.items()}
        lowered = lower_distributed_plan(spark, plan, relations)
        assert [python_nodes(df) for df in lowered.pre] == [{"MapInPandas": 1}] * 2

    @pytest.mark.parametrize("name", PLANS)
    def test_inner_runs_one_udf_per_nested_stage(self, spark, plans, name):
        """Two sides meet in a cogroup, one or three in a group; the naive
        cascade runs one cogroup per join. TPC-H sides add their
        ``MapInPandas``."""
        plan, frames = plans[name]
        relations = {f: spark.createDataFrame(pdf) for f, pdf in frames.items()}
        lowered = lower_distributed_plan(spark, plan, relations)
        assert python_nodes(lowered.inner) == INNER_PYTHON_NODES[name]


def _per_tuple(fn):
    """``fn`` as a Map kernel that fails on a batch of more than one tuple
    (a Filter upstream may leave an empty one)."""
    def kernel(b):
        if len(b) > 1:
            raise AssertionError(f"a per-tuple Map saw a {len(b)}-row batch")
        return fn(b)

    return kernel


class TestInterpretedEngine:
    """The interpreted (per-tuple) engine is the same evaluator and the
    same Spark stages at ``batch_size=1``."""

    def test_interpreted_join_same_result(self, spark):
        r = dense_kv_pdf(256, value_field="vr", seed=66)
        s = dense_kv_pdf(256, value_field="vs", seed=67)
        cfg = JoinConfig(n_net=2, loc_bits=1)
        out = lower_distributed_plan(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
            batch_size=1,
        ).result()
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_presto_stand_in_dispatches_one_tuple_per_batch(self, spark):
        """A Map in a pre-exchange pipeline and one inside the nested plan
        see only one-tuple batches under ``run_presto_sim``, and the result
        still matches DuckDB; the default batch size hands them more."""
        r = dense_kv_pdf(64, value_field="vr", seed=76)
        s = dense_kv_pdf(64, value_field="vs", multiplicity=2, seed=77)
        kv = TupleType([("k", INT64), ("vs", INT64)])

        def pre_scan(field, op):
            if field == "R":
                return op
            return Map(op, _per_tuple(lambda b: RowVector({**b, "vs": 2 * b["vs"]})), kv)

        def post(op):  # runs at the pair, rank and driver levels
            typ = TupleType([("k", INT64), ("vr", INT64), ("vs", INT64)])
            return Map(op, _per_tuple(lambda b: RowVector({**b, "vr": b["vr"] + 1})), typ)

        def build(cfg):
            return distributed_join_plan(cfg, pre_scan=pre_scan, post=post)

        sql = "SELECT r.k AS k, vr + 3 AS vr, 2 * vs AS vs FROM r JOIN s ON r.k = s.k"
        query = TpchQuery("per-tuple", sql, {"R": "r", "S": "s"}, build)
        tables = {"r": spark.createDataFrame(r), "s": spark.createDataFrame(s)}
        cfg = JoinConfig(n_net=2, loc_bits=1)
        assert_equivalent(run_presto_sim(spark, query, tables, cfg), sql, r=r, s=s)
        relations = {"R": tables["r"], "S": tables["s"]}
        with pytest.raises(Exception, match="per-tuple Map saw a"):
            lower_distributed_plan(spark, build(cfg), relations).result().collect()


JOIN_SQL = "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k"


def _empty(spark, pdf):
    """An empty Spark copy of an int64 K/V frame (Spark cannot infer the
    schema of an empty pandas frame)."""
    return spark.createDataFrame(pdf.iloc[:0], schema=", ".join(f"{c} long" for c in pdf.columns))


class TestEmptyRelations:
    """Lowering needs no rows to type its stages, so empty inputs run."""

    @pytest.mark.parametrize("driver_filter", [None, "filter"])
    def test_join_with_empty_r(self, spark, kv_frames, driver_filter):
        r, s = kv_frames
        # a driver Filter over the root runs as one more mapInPandas stage,
        # whose schema comes from the plan's types: its empty output still
        # has columns
        plan = distributed_join_plan(JoinConfig(n_net=4, loc_bits=2))
        if driver_filter is not None:
            plan = Plan(Filter(plan.root, lambda b: b["k"] >= 0), name=plan.name)
        out = lower_distributed_plan(
            spark, plan, {"R": _empty(spark, r), "S": spark.createDataFrame(s)}
        ).result()
        assert python_nodes(out)["MapInPandas"] == (0 if driver_filter is None else 1)
        assert_equivalent(out, JOIN_SQL, r=r.iloc[:0], s=s)

    @pytest.mark.parametrize("compress", [False, True])
    def test_join_with_both_sides_empty(self, spark, kv_frames, compress):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=compress, p_bits=22)
        out = lower_distributed_plan(
            spark, distributed_join_plan(cfg), {"R": _empty(spark, r), "S": _empty(spark, s)}
        ).result()
        assert_equivalent(out, JOIN_SQL, r=r.iloc[:0], s=s.iloc[:0])

    def test_outer_join_with_empty_build_side(self, spark, kv_frames):
        """Every probe tuple keeps the build side's columns, NULL-padded,
        on the simulated cluster and on Spark."""
        r, s = kv_frames
        plan = distributed_join_plan(JoinConfig(n_net=4, loc_bits=2), join_type="outer")
        sql = "SELECT s.k AS k, vr, vs FROM s LEFT JOIN r ON r.k = s.k"
        sim_out, _ = run_on_sim(plan, 2, {"R": r.iloc[:0], "S": s})
        assert_equivalent(sim_out, sql, r=r.iloc[:0], s=s)
        out = lower_distributed_plan(
            spark, plan, {"R": _empty(spark, r), "S": spark.createDataFrame(s)}
        ).result()
        assert_equivalent(out, sql, r=r.iloc[:0], s=s)

    def test_groupby_over_empty_t(self, spark):
        t = dense_kv_pdf(64, seed=68)
        out = lower_distributed_plan(
            spark, distributed_groupby_plan(JoinConfig(n_net=4, loc_bits=2)),
            {"T": _empty(spark, t)},
        ).result()
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t.iloc[:0])

    def test_compressed_groupby_over_empty_t(self, spark):
        t = dense_kv_pdf(64, seed=69)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        out = lower_distributed_plan(spark, distributed_groupby_plan(cfg), {"T": _empty(spark, t)}).result()
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t.iloc[:0])


# ---------------------------------------------------------------------------
# static types
# ---------------------------------------------------------------------------

#: the pandas dtype kind each atom's values have on the substrates
_KINDS = {INT64: "i", FLOAT64: "f", STR: "O", DATE: "M", BOOL: "b"}
_ATOMS = {kind: atom for atom, kind in _KINDS.items()}

#: the nested-plan schemas the TPC-H queries used to pass by hand
_TPCH_INNER = {
    "Q4": "o_orderpriority string, order_count long",
    "Q12": "l_shipmode string, high_line_count long, low_line_count long",
    "Q14": "promo_rev double, total_rev double",
    "Q19": "revenue double",
}


def _kv(n, *value_fields_, seed):
    return {f: dense_kv_pdf(n, value_field=v, seed=seed + i)
            for i, (f, v) in enumerate(value_fields_)}


@pytest.fixture(scope="module")
def plans():
    """Every repro.modular and TPC-H plan: name -> (plan, input frames)."""
    tpch = {"lineitem": lineitem_pdf(sf=0.002), "orders": orders_pdf(sf=0.002),
            "part": part_pdf(sf=0.002)}
    cfg = JoinConfig(n_net=4, loc_bits=2)
    packed = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
    rs = _kv(N, ("R", "vr"), ("S", "vs"), seed=70)
    seq = _kv(512, *zip(relation_fields(2), value_fields(2)), seed=72)
    t = {"T": dense_kv_pdf(N, multiplicity=4, seed=75)}
    cases = {
        "join": (distributed_join_plan(cfg), rs),
        "join-compressed": (distributed_join_plan(packed), rs),
        "semi-join-compressed": (distributed_join_plan(packed, join_type="semi"), rs),
        "groupby": (distributed_groupby_plan(cfg), t),
        "groupby-compressed": (distributed_groupby_plan(packed), t),
        "sequence-optimized": (optimized_sequence_plan(cfg, 2), seq),
        "sequence-naive": (naive_sequence_plan(cfg, 2), seq),
    }
    for q in QUERIES:
        cases[q.name] = (q.build_plan(cfg), {f: tpch[n] for f, n in q.table_map.items()})
    assert list(cases) == PLANS
    return cases


def _assert_kinds(pdf, typ, where):
    """``pdf`` (a frame or a batch) has ``typ``'s fields, each of its
    atom's dtype kind, a collection in an object column."""
    assert sorted(pdf.columns) == sorted(typ.names), where
    for name, item in typ.fields:
        kind = "O" if isinstance(item, RowVectorType) else _KINDS[item]
        assert pdf[name].dtype.kind == kind, f"{where}: {name} is {pdf[name].dtype}"


def _assert_columnar(batch, where):
    """``batch`` is a ``RowVector`` of 1-D numpy columns of its length, and
    so is every collection nested in it: no pandas object passes between
    operators."""
    assert isinstance(batch, RowVector), f"{where} yielded a {type(batch).__name__}"
    for name, column in batch.items():
        assert type(column) is np.ndarray, f"{where}: {name} is a {type(column).__name__}"
        assert column.ndim == 1 and len(column) == len(batch), f"{where}: {name} has shape {column.shape}"
        if column.dtype == object:
            for cell in column:
                if not isinstance(cell, str) and hasattr(cell, "__len__"):
                    _assert_columnar(cell, f"{where}.{name}")


class _DeclaredTypeCheck:
    """Passed as the evaluator's profiler: checks that every batch every
    operator yields is columnar (``_assert_columnar``), every non-empty
    batch of an operator against its static type (an
    atom field has its atom's dtype kind, a collection field is an object
    column), and every non-empty partition an MpiExchange yields against
    the collection type of its out_type (``types``: every operator's
    static type, nested plans included)."""

    def __init__(self, types):
        self.types = types
        self.checked = set()
        self.batches = 0

    def wrap(self, op, gen):
        if isinstance(op, MpiExchange):
            wire = self.types[op].field_type(op.data_field).tuple_type
            return self._check(op, gen, lambda b: [(rv, wire) for rv in b[op.data_field]])
        return self._check(op, gen, lambda b: [])

    def _check(self, op, gen, partitions):
        for batch in gen:
            _assert_columnar(batch, repr(op))
            self.batches += 1
            if len(batch):
                _assert_kinds(batch, self.types[op], repr(op))
                self.checked.add(op)
            for frame, typ in partitions(batch):
                if len(frame):
                    _assert_kinds(frame, typ, f"{op!r} partition")
            yield batch


def _declared_ops(plan):
    for op in plan.operators():
        if isinstance(op, (Map, ParametrizedMap, MpiExchange)):
            yield op
        if hasattr(op, "nested_plan"):
            yield from _declared_ops(op.nested_plan)


def _all_types(plan, param_type):
    """The static type of every operator of ``plan`` and its nested plans."""
    types = plan.op_types(param_type)
    for op in plan.operators():
        if hasattr(op, "nested_plan"):
            types.update(_all_types(op.nested_plan, types[op.upstreams[0]]))
    return types


class TestNetworkSkeleton:
    @pytest.mark.parametrize("name", PLANS)
    def test_local_histograms_feed_only_the_exchange(self, plans, name):
        """Only the exchange's global histogram is counted ahead of time
        (its RMA windows need the global sizes): every LocalHistogram,
        nested plans included, is read by an MpiHistogram only, and
        MpiExchange and LocalPartitioning count their own partitions."""
        stack, readers = [plans[name][0]], 0
        while stack:
            plan = stack.pop()
            for op in plan.operators():
                if hasattr(op, "nested_plan"):
                    stack.append(op.nested_plan)
                if any(isinstance(u, LocalHistogram) for u in op.upstreams):
                    assert isinstance(op, MpiHistogram), f"{op!r} reads a LocalHistogram"
                    readers += 1
        assert readers


class TestStaticSchemas:
    @pytest.mark.parametrize("name", PLANS)
    def test_declared_types_match_sim_dtypes(self, plans, name):
        """Arrow casts unsafely, so a wrong declared_type would silently
        truncate values on Spark: every declared type must match the dtypes
        the kernels really produce, and so must every exchange's wire
        frame and the plan's output type."""
        plan, frames = plans[name]
        rank_inputs = TupleType([
            (f, RowVectorType(TupleType([(c, _ATOMS[pdf[c].dtype.kind]) for c in pdf.columns])))
            for f, pdf in frames.items()
        ])
        types = _all_types(plan, TupleType([("rank_inputs", RowVectorType(rank_inputs))]))
        checker = _DeclaredTypeCheck(types)
        out = plan.collect(ExecContext(profiler=checker), params=make_rank_inputs(2, **frames)).to_pandas()
        assert set(_declared_ops(plan)) <= checker.checked
        assert checker.checked == set(types)
        assert checker.batches > 0
        assert len(out)
        _assert_kinds(out, types[plan.root], name)

    @pytest.mark.parametrize("name", PLANS)
    def test_lowering_runs_no_spark_job(self, spark, plans, name):
        plan, frames = plans[name]
        relations = {f: spark.createDataFrame(pdf) for f, pdf in frames.items()}
        with spark_jobs(spark) as ran:
            lowered = lower_distributed_plan(spark, plan, relations)
            lowered.result()
        assert ran.count == 0
        if name in _TPCH_INNER:
            want = StructType.fromDDL(_TPCH_INNER[name])
            got = lowered.inner.schema
            assert [(f.name, f.dataType) for f in got] == [(f.name, f.dataType) for f in want]

    def test_spark_jobs_counts_actions(self, spark, kv_frames):
        r, _ = kv_frames
        with spark_jobs(spark) as ran:
            spark.createDataFrame(r).count()
        assert ran.count >= 1

    @pytest.mark.parametrize("hook", ["rank_post", "driver_post"])
    def test_operator_without_rule_rejected(self, spark, kv_frames, hook):
        """An operator without a lowering rule at the root of the rank plan
        or of the driver plan. ``post`` runs at the pair, rank and driver
        levels in that order; it injects the operator at one of them only,
        since a LocalHistogram's output has no ``k`` to histogram again."""
        r, s = kv_frames
        level = {"rank_post": 2, "driver_post": 3}[hook]
        calls = []

        def post(op):
            calls.append(op)
            return LocalHistogram(op, 2, col("k") & 1) if len(calls) == level else op

        plan = distributed_join_plan(JoinConfig(n_net=2, loc_bits=1), post=post)
        assert len(calls) == 3
        with pytest.raises(TypeError, match="no Spark lowering rule for LocalHistogram"):
            lower_distributed_plan(
                spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
            )

    def test_plan_without_mpi_executor_rejected(self, spark, kv_frames):
        r, _ = kv_frames
        plan = Plan(Filter(rank_input("R"), lambda b: b["k"] >= 0), name="no-executor")
        with pytest.raises(TypeError, match="'no-executor': it has 0 MpiExecutors"):
            lower_distributed_plan(spark, plan, {"R": spark.createDataFrame(r)})
