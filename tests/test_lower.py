"""Tests of the Spark (Catalyst) lowering: the same plan objects that run
on the simulated MPI cluster execute as Spark stages, validated against the
DuckDB oracle and against the SimCluster execution."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import StructType

from repro.core import Plan, RowVector, vectorized
from repro.core.expr import col
from repro.core.lower import _run_inner, lower_distributed_plan, run_distributed_on_spark
from repro.core.ops import (
    ExecContext,
    Filter,
    Map,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    ParametrizedMap,
)
from repro.core.types import BOOL, DATE, FLOAT64, INT64, STR, RowVectorType, TupleType
from repro.engines import run_presto_sim
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.modular.join_sequence import (
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
from repro.synth_data import dense_kv_pdf, lineitem_pdf, orders_pdf, part_pdf
from tests.helpers import python_nodes, source, spark_jobs


N = 1 << 11


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
        out = run_distributed_on_spark(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_compressed_join_matches_duckdb(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        plan = distributed_join_plan(cfg)
        out = run_distributed_on_spark(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        )
        assert_equivalent(
            out, "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k", r=r, s=s
        )

    def test_spark_and_sim_agree(self, spark, kv_frames):
        r, s = kv_frames
        cfg = JoinConfig(n_net=2, loc_bits=1)
        plan = distributed_join_plan(cfg)
        spark_out = run_distributed_on_spark(
            spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        ).toPandas()
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
        out = run_distributed_on_spark(
            spark, plan,
            {"R": spark.createDataFrame(r_half), "S": spark.createDataFrame(s)},
        )
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
        side = (MpiExchange(source("T"), source("H"), source("H"), 1, col("k") & 0),
                pd.DataFrame({"k": [1, 2, 3]}))
        with pytest.raises(RuntimeError, match="nested plan of NestedMap must produce exactly one"):
            _run_inner(Plan(source("partition_data")), "k", 0, [side], None)


class TestGroupByLowering:
    def test_groupby_matches_duckdb(self, spark):
        t = dense_kv_pdf(N, multiplicity=4, seed=62)
        cfg = JoinConfig(n_net=4, loc_bits=2)
        out = run_distributed_on_spark(
            spark, distributed_groupby_plan(cfg), {"T": spark.createDataFrame(t)}
        )
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)

    def test_compressed_groupby(self, spark):
        t = dense_kv_pdf(N, multiplicity=4, seed=63)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        out = run_distributed_on_spark(
            spark, distributed_groupby_plan(cfg), {"T": spark.createDataFrame(t)}
        )
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t)


class TestSequenceLowering:
    def test_three_way_optimized_sequence(self, spark):
        cfg = JoinConfig(n_net=4, loc_bits=1)
        n_joins = 2
        rels_pdf = {
            f: dense_kv_pdf(512, value_field=v, seed=64 + i)
            for i, (f, v) in enumerate(zip(relation_fields(n_joins), value_fields(n_joins)))
        }
        rels = {k: spark.createDataFrame(v) for k, v in rels_pdf.items()}
        out = run_distributed_on_spark(spark, optimized_sequence_plan(cfg, n_joins), rels)
        assert_equivalent(
            out,
            "SELECT r0.k AS k, v0, v1, v2 FROM r0 JOIN r1 ON r0.k = r1.k "
            "JOIN r2 ON r0.k = r2.k",
            r0=rels_pdf["R0"], r1=rels_pdf["R1"], r2=rels_pdf["R2"],
        )

    def test_three_way_sequence_keeps_int64_precision(self, spark):
        """Values above 2**53 survive the N-ary tagged union exactly (a
        NULL-padded column reaches pandas as float64 and rounds them)."""
        cfg = JoinConfig(n_net=4, loc_bits=1)
        base = (1 << 60) + 1
        rels_pdf = {
            f: pd.DataFrame({"k": np.arange(64, dtype=np.int64),
                             v: base + i + 3 * np.arange(64, dtype=np.int64)})
            for i, (f, v) in enumerate(zip(relation_fields(2), value_fields(2)))
        }
        rels = {k: spark.createDataFrame(v) for k, v in rels_pdf.items()}
        out = run_distributed_on_spark(spark, optimized_sequence_plan(cfg, 2), rels)
        assert_equivalent(
            out,
            "SELECT r0.k AS k, v0, v1, v2 FROM r0 JOIN r1 ON r0.k = r1.k "
            "JOIN r2 ON r0.k = r2.k",
            r0=rels_pdf["R0"], r1=rels_pdf["R1"], r2=rels_pdf["R2"],
        )


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
        out = run_distributed_on_spark(
            spark, distributed_join_plan(self.CFG),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
        )
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
        return [vectorized.run_to_pdf(Plan(h), ctx, params=params) for h in hists], {}

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
            run_distributed_on_spark(spark, plan, relations).collect()


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
        out = run_distributed_on_spark(
            spark, distributed_join_plan(cfg),
            {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)},
            batch_size=1,
        )
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

        def pair_post(op):
            typ = TupleType([("k", INT64), ("vr", INT64), ("vs", INT64)])
            return Map(op, _per_tuple(lambda b: RowVector({**b, "vr": b["vr"] + 1})), typ)

        def build(cfg):
            return distributed_join_plan(cfg, pre_scan=pre_scan, pair_post=pair_post)

        sql = "SELECT r.k AS k, vr + 1 AS vr, 2 * vs AS vs FROM r JOIN s ON r.k = s.k"
        query = TpchQuery("per-tuple", sql, {"R": "r", "S": "s"}, build)
        tables = {"r": spark.createDataFrame(r), "s": spark.createDataFrame(s)}
        cfg = JoinConfig(n_net=2, loc_bits=1)
        assert_equivalent(run_presto_sim(spark, query, tables, cfg), sql, r=r, s=s)
        relations = {"R": tables["r"], "S": tables["s"]}
        with pytest.raises(Exception, match="per-tuple Map saw a"):
            run_distributed_on_spark(spark, build(cfg), relations).collect()


JOIN_SQL = "SELECT r.k AS k, vr, vs FROM r JOIN s ON r.k = s.k"


def _empty(spark, pdf):
    """An empty Spark copy of an int64 K/V frame (Spark cannot infer the
    schema of an empty pandas frame)."""
    return spark.createDataFrame(pdf.iloc[:0], schema=", ".join(f"{c} long" for c in pdf.columns))


class TestEmptyRelations:
    """Lowering needs no rows to type its stages, so empty inputs run."""

    @pytest.mark.parametrize("driver_post", [None, "filter"])
    def test_join_with_empty_r(self, spark, kv_frames, driver_post):
        r, s = kv_frames
        # a Filter is not lowerable, so the empty result goes through the
        # driver-side fallback, which must build it from the plan's types
        post = None if driver_post is None else (
            lambda op: Filter(op, lambda b: b["k"] >= 0)
        )
        plan = distributed_join_plan(JoinConfig(n_net=4, loc_bits=2), driver_post=post)
        out = run_distributed_on_spark(
            spark, plan, {"R": _empty(spark, r), "S": spark.createDataFrame(s)}
        )
        assert_equivalent(out, JOIN_SQL, r=r.iloc[:0], s=s)

    @pytest.mark.parametrize("compress", [False, True])
    def test_join_with_both_sides_empty(self, spark, kv_frames, compress):
        r, s = kv_frames
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=compress, p_bits=22)
        out = run_distributed_on_spark(
            spark, distributed_join_plan(cfg), {"R": _empty(spark, r), "S": _empty(spark, s)}
        )
        assert_equivalent(out, JOIN_SQL, r=r.iloc[:0], s=s.iloc[:0])

    def test_outer_join_with_empty_build_side(self, spark, kv_frames):
        """Every probe tuple keeps the build side's columns, NULL-padded,
        on the simulated cluster and on Spark."""
        r, s = kv_frames
        plan = distributed_join_plan(JoinConfig(n_net=4, loc_bits=2), join_type="outer")
        sql = "SELECT s.k AS k, vr, vs FROM s LEFT JOIN r ON r.k = s.k"
        sim_out, _ = run_on_sim(plan, 2, {"R": r.iloc[:0], "S": s})
        assert_equivalent(sim_out, sql, r=r.iloc[:0], s=s)
        out = run_distributed_on_spark(
            spark, plan, {"R": _empty(spark, r), "S": spark.createDataFrame(s)}
        )
        assert_equivalent(out, sql, r=r.iloc[:0], s=s)

    def test_groupby_over_empty_t(self, spark):
        t = dense_kv_pdf(64, seed=68)
        out = run_distributed_on_spark(
            spark, distributed_groupby_plan(JoinConfig(n_net=4, loc_bits=2)),
            {"T": _empty(spark, t)},
        )
        assert_equivalent(out, "SELECT k, SUM(v) AS v FROM t GROUP BY k", t=t.iloc[:0])

    def test_compressed_groupby_over_empty_t(self, spark):
        t = dense_kv_pdf(64, seed=69)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=22)
        out = run_distributed_on_spark(spark, distributed_groupby_plan(cfg), {"T": _empty(spark, t)})
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


PLANS = ["join", "join-compressed", "semi-join-compressed", "groupby", "groupby-compressed",
         "sequence-optimized", "sequence-naive"] + [q.name for q in QUERIES]
#: the plans the Spark lowering accepts (it does not lower naive sequences)
LOWERED = [name for name in PLANS if name != "sequence-naive"]


def _assert_kinds(pdf, typ, where):
    assert sorted(pdf.columns) == sorted(typ.names), where
    for name, atom in typ.fields:
        assert pdf[name].dtype.kind == _KINDS[atom], f"{where}: {name} is {pdf[name].dtype}"


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
    batch a Map or ParametrizedMap yields against its declared_type, and
    every non-empty partition an MpiExchange yields against the collection
    type of its out_type (``types``: every operator's static type)."""

    def __init__(self, types):
        self.types = types
        self.checked = set()
        self.batches = 0

    def wrap(self, op, gen):
        if isinstance(op, (Map, ParametrizedMap)):
            return self._check(op, gen, lambda b: [(b, op.declared_type)])
        if isinstance(op, MpiExchange):
            wire = self.types[op].field_type(op.data_field).tuple_type
            return self._check(op, gen, lambda b: [(rv, wire) for rv in b[op.data_field]])
        return self._check(op, gen, lambda b: [])

    def _check(self, op, gen, frames):
        for batch in gen:
            _assert_columnar(batch, repr(op))
            self.batches += 1
            for frame, typ in frames(batch):
                if len(frame):
                    _assert_kinds(frame, typ, repr(op))
                    self.checked.add(op)
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
        out = vectorized.run_to_pdf(
            plan, ExecContext(profiler=checker), params=make_rank_inputs(2, **frames)
        )
        assert checker.checked == set(_declared_ops(plan))
        assert checker.batches > 0
        assert len(out)
        _assert_kinds(out, types[plan.root], name)

    @pytest.mark.parametrize("name", LOWERED)
    def test_lowering_runs_no_spark_job(self, spark, plans, name):
        plan, frames = plans[name]
        relations = {f: spark.createDataFrame(pdf) for f, pdf in frames.items()}
        with spark_jobs(spark) as ran:
            lowered = lower_distributed_plan(spark, plan, relations)
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

    def test_untyped_map_rejected(self, spark, kv_frames):
        r, s = kv_frames
        plan = distributed_join_plan(
            JoinConfig(n_net=2, loc_bits=1),
            pre_scan=lambda field, op: Map(op, lambda pdf: pdf),
        )
        with pytest.raises(TypeError, match="Map has no static output type"):
            lower_distributed_plan(
                spark, plan, {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
            )
