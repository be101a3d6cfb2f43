"""Lowering of distributed sub-operator plans onto Spark (Catalyst) stages.

This is the "another platform" of the paper: the *same* plan object that
runs SPMD on the simulated MPI cluster is mapped onto Spark's physical
operators. Only the three platform-specific operators change meaning:

===================  =====================================================
sub-operator          Catalyst physical stage
===================  =====================================================
MpiExecutor           the Spark job itself (ranks = shuffle partitions)
LocalHistogram +
MpiHistogram          ``groupBy('__pid').count()`` + driver collect
                      (aggregate + AllReduce)
MpiExchange           a Catalyst ``Project``, ``selectExpr`` of the
                      exchange's wire columns and its pid expression
                      (``MpiExchange.exprs``, compiled to Spark SQL) as
                      ``__pid``, then the shuffle exchange induced by
                      ``groupBy('__pid')``. Compressed, the wire is the one
                      int64 ``CompressionSpec.word``, domain check included
===================  =====================================================

Every Spark schema comes from the plan's static types (paper Section 3.2):
the input relations' Spark schemas seed the rank plan's type propagation
(``Plan.op_types``); each exchange's collection type, plus ``__pid``, is
its pre-exchange schema, and the NestedMap root field's type is the
nested-plan schema. Lowering therefore runs no Spark job; an operator whose
type cannot be inferred (a ``Map`` without ``declared_type``) is rejected.

Everything else is platform-agnostic and reused verbatim:

* the opaque operators of a *pre-exchange pipeline* (the ``Filter``s and
  ``Map``s of a query's ``pre_scan``) run fused in one ``mapInPandas``
  stage, one Catalyst ``MapInPandas`` node per side, before the exchange's
  ``Project``. A side without them runs no Python before the shuffle: the
  pid and the wire word are native Catalyst columns, computed from the
  same expressions the evaluator runs with numpy;
* ``Zip`` + ``NestedMap`` over matching network partitions become
  ``cogroup().applyInPandas`` (two sides), ``groupBy().applyInPandas``
  (one side) or a tagged union (N-ary join sequences); the pandas UDF runs
  the *actual nested sub-operator plan* through the vectorized evaluator;
* post-aggregation ``ReduceByKey``/``Reduce`` lower their aggregate specs
  to Catalyst aggregates; residual driver-side post-processing runs the
  operators' own kernels on the collected (small) result, exactly like the
  paper's driver.

``batch_size`` is the evaluator's scan batch size in every stage (None: a
whole partition per batch). At ``batch_size=1`` the same kernels dispatch
one tuple per batch, which is the generic per-tuple engine baseline (the
Presto stand-in).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import vectorized
from repro.core.expr import quote
from repro.core.ops.base import ExecContext, SubOperator
from repro.core.ops.matscan import MaterializeRowVector, RowScan
from repro.core.ops.network import MpiExchange, MpiExecutor
from repro.core.ops.orchestration import NestedMap, ParameterLookup, _single
from repro.core.ops.processing import ParametrizedMap, Projection, Reduce, ReduceByKey, Zip
from repro.core.plan import Plan
from repro.core.types import BOOL, DATE, FLOAT64, INT64, STR, RowVector, RowVectorType, TupleType, concat

_NATIVE_AGGS = {"sum": F.sum, "min": F.min, "max": F.max, "count": F.count}

#: the one atom <-> Spark type mapping: input relations are typed through
#: it, and every schema the lowering declares is built from it
_SPARK_TYPES = {
    INT64: T.LongType(),
    FLOAT64: T.DoubleType(),
    STR: T.StringType(),
    DATE: T.TimestampType(),
    BOOL: T.BooleanType(),
}
_ATOMS = {spark_type: atom for atom, spark_type in _SPARK_TYPES.items()}


@dataclass
class Lowered:
    """Handles to the lowered Catalyst stages of one distributed plan."""

    spark: SparkSession
    #: one pre-exchange DataFrame per side, carrying ``__pid``
    pre: List[DataFrame]
    #: the NestedMap output (flattened inner results, post-shuffle)
    inner: DataFrame
    #: the final result's schema, from the plan's static types
    schema: T.StructType
    #: post ops (rank- then driver-level) still to apply, application order
    post_ops: List[SubOperator] = field(default_factory=list)
    #: the evaluator's scan batch size, also for the residual post ops
    batch_size: Optional[int] = None

    @property
    def histograms(self) -> List[DataFrame]:
        """The lowered LocalHistogram+MpiHistogram stage per side. Built
        on read: the result does not need it (the shuffle partitions by
        ``__pid`` itself)."""
        return [df.groupBy("__pid").count() for df in self.pre]

    def result(self) -> DataFrame:
        """Apply the lowered post-aggregation chain and return the final
        DataFrame (Catalyst aggregates for aggregate specs, the operators'
        kernels on the collected result for the residual post-processing)."""
        df = self.inner
        pending = list(self.post_ops)
        while pending:
            op = pending[0]
            lowered = _lower_post_native(df, op)
            if lowered is None:
                break
            df = lowered
            pending.pop(0)
        if pending:
            pdf = _apply_chain(pending, df.toPandas(), self.batch_size)
            # createDataFrame matches pandas columns to the schema by position
            pdf = pdf.reindex(columns=self.schema.fieldNames())
            df = self.spark.createDataFrame(pdf, schema=self.schema)
        return df


def lower_distributed_plan(
    spark: SparkSession,
    plan: Plan,
    relations: Dict[str, DataFrame],
    batch_size: Optional[int] = None,
) -> Lowered:
    """Compile a canonical distributed plan (see ``repro.modular``) into
    Spark stages over the given input DataFrames.

    Every schema comes from the plan's static types, seeded with the input
    relations' Spark schemas, so lowering runs no Spark job. A type the
    plan cannot infer (a ``Map`` without ``declared_type``) on the lowered
    path raises ``TypeError`` naming the operator. ``batch_size`` is the
    evaluator's scan batch size in every stage (1: per-tuple dispatch)."""
    me, driver_ops = _split_top(plan)
    rank_plan = me.nested_plan
    nm1, exchanges, rank_ops = _split_rank(rank_plan)
    inner_plan = nm1.nested_plan
    inner_field = _root_field(inner_plan)

    chains = [_pre_chain(ex) for ex in exchanges]
    for _, rel_name in chains:
        if rel_name not in relations:
            raise KeyError(f"plan reads relation {rel_name!r}, not provided")
    rank_param = TupleType([
        (name, RowVectorType(_tuple_type(name, relations[name].schema)))
        for name in dict.fromkeys(name for _, name in chains)
    ])
    types = rank_plan.op_types(rank_param)

    pre_dfs: List[DataFrame] = []
    for ex, (pre_ops, rel_name) in zip(exchanges, chains):
        wire = _collection(_require(rank_plan, types, ex), ex.data_field)
        df = relations[rel_name]
        if pre_ops:
            schema = _struct(_require(rank_plan, types, ex.upstreams[0]))
            df = df.mapInPandas(_make_pre_fn(pre_ops, batch_size), schema=schema)
        pre_dfs.append(df.selectExpr(*_wire_sql(ex, wire), f"{ex.bucket.sql()} AS __pid"))

    nested_schema = _struct(_collection(_require(rank_plan, types, nm1), inner_field))
    inner_df = _lower_nested(
        spark, pre_dfs, exchanges, inner_plan, inner_field, nested_schema, batch_size
    )

    # the driver plan reads the per-rank inputs as one collection field
    top_param = TupleType([(me.upstreams[0].field, RowVectorType(rank_param))])
    result_type = _require(plan, plan.op_types(top_param), plan.root)
    return Lowered(
        spark=spark,
        pre=pre_dfs,
        inner=inner_df,
        schema=_struct(result_type),
        post_ops=rank_ops + driver_ops,
        batch_size=batch_size,
    )


def run_distributed_on_spark(
    spark: SparkSession,
    plan: Plan,
    relations: Dict[str, DataFrame],
    batch_size: Optional[int] = None,
) -> DataFrame:
    """One-call convenience: lower and produce the final DataFrame."""
    return lower_distributed_plan(spark, plan, relations, batch_size).result()


# ---------------------------------------------------------------------------
# static types -> Spark schemas
# ---------------------------------------------------------------------------

def _tuple_type(relation: str, schema: T.StructType) -> TupleType:
    """The tuple type of an input relation, from its Spark schema."""
    fields = []
    for f in schema.fields:
        if f.dataType not in _ATOMS:
            raise TypeError(
                f"relation {relation!r} column {f.name!r} has Spark type "
                f"{f.dataType.simpleString()}, which maps to no atom"
            )
        fields.append((f.name, _ATOMS[f.dataType]))
    return TupleType(fields)


def _struct(t: TupleType, *extra: T.StructField) -> T.StructType:
    """The Spark schema of tuples of type ``t`` (atoms only)."""
    fields = []
    for name, item in t.fields:
        if item not in _SPARK_TYPES:
            raise TypeError(f"field {name!r} of type {item!r} has no Spark type")
        fields.append(T.StructField(name, _SPARK_TYPES[item]))
    return T.StructType(fields + list(extra))


def _collection(t: TupleType, name: str) -> TupleType:
    """The tuple type inside collection field ``name`` of ``t``."""
    item = t.field_type(name)
    if not isinstance(item, RowVectorType):
        raise TypeError(f"field {name!r} is not a collection: {item!r}")
    return item.tuple_type


def _require(plan: Plan, types: Dict[SubOperator, Optional[TupleType]], op: SubOperator) -> TupleType:
    """``op``'s static type; if it is unknown, raise naming the operator
    where the unknown type starts (descending into nested plans)."""
    if types[op] is not None:
        return types[op]
    while True:
        untyped = [u for u in op.upstreams if types[u] is None]
        if untyped:
            op = untyped[0]
        elif hasattr(op, "nested_plan"):
            plan, types = op.nested_plan, op.nested_plan.op_types(types[op.upstreams[0]])
            op = plan.root
        else:
            raise TypeError(
                f"cannot lower plan {plan.name!r}: its {type(op).__name__} has no "
                "static output type (give it a declared_type)"
            )


# ---------------------------------------------------------------------------
# plan surgery
# ---------------------------------------------------------------------------

def _split_top(plan: Plan) -> Tuple[MpiExecutor, List[SubOperator]]:
    """Walk from the root down to RowScan(MpiExecutor); the ops between are
    the driver post-processing chain (returned in application order)."""
    chain: List[SubOperator] = []
    op = plan.root
    while True:
        if isinstance(op, RowScan) and op.upstreams and isinstance(op.upstreams[0], MpiExecutor):
            return op.upstreams[0], list(reversed(chain))
        if not op.upstreams:
            raise ValueError("plan has no MpiExecutor — not a distributed plan")
        chain.append(op)
        op = _data_upstream(op)


def _split_rank(rank_plan: Plan) -> Tuple[NestedMap, List[MpiExchange], List[SubOperator]]:
    """Decompose the per-rank plan: MaterializeRowVector root, post chain,
    RowScan over the NestedMap, whose upstream is a Zip of exchanges (or a
    single exchange for GROUP BY)."""
    root = rank_plan.root
    if not isinstance(root, MaterializeRowVector):
        raise ValueError("rank plan must end in MaterializeRowVector")
    chain: List[SubOperator] = []
    op = root.upstreams[0]
    while not (isinstance(op, RowScan) and isinstance(op.upstreams[0], NestedMap)):
        chain.append(op)
        op = _data_upstream(op)
    nm1 = op.upstreams[0]
    up = nm1.upstreams[0]
    if isinstance(up, Zip):
        exchanges = list(up.upstreams)
    else:
        exchanges = [up]
    for ex in exchanges:
        if not isinstance(ex, MpiExchange):
            raise ValueError(f"NestedMap upstream {type(ex).__name__} is not MpiExchange")
    return nm1, exchanges, list(reversed(chain))


def _data_upstream(op: SubOperator) -> SubOperator:
    """The data-carrying upstream of a chain operator."""
    if isinstance(op, ParametrizedMap):
        return op.upstreams[1]
    if len(op.upstreams) != 1:
        raise ValueError(f"{type(op).__name__} is not a chain operator")
    return op.upstreams[0]


def _pre_chain(ex: MpiExchange) -> Tuple[List[SubOperator], str]:
    """Ops between the rank input scan and the exchange (application order)
    plus the input relation's field name."""
    chain: List[SubOperator] = []
    op = ex.upstreams[0]
    while not (
        isinstance(op, RowScan)
        and isinstance(op.upstreams[0], Projection)
        and isinstance(op.upstreams[0].upstreams[0], ParameterLookup)
    ):
        chain.append(op)
        op = _data_upstream(op)
    return list(reversed(chain)), op.field or op.upstreams[0].fields[0]


def _root_field(inner_plan: Plan) -> str:
    root = inner_plan.root
    if not isinstance(root, MaterializeRowVector):
        raise ValueError("nested plan must end in MaterializeRowVector")
    return root.field


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _apply_chain(ops: Sequence[SubOperator], pdf: pd.DataFrame, batch_size: Optional[int]) -> pd.DataFrame:
    """Run a linear chain of single-input operators over the frame ``pdf``,
    scanned in batches of ``batch_size`` tuples, as ``RowScan`` would."""
    ctx = ExecContext(batch_size=batch_size)
    batches = list(RowVector(pdf).batches(batch_size))
    for op in ops:
        batches = list(op.batches(ctx, [iter(batches)]))
    return concat(batches).to_pandas()


def _make_pre_fn(pre_ops: Sequence[SubOperator], batch_size: Optional[int]) -> Callable:
    def fn(iterator):
        for pdf in iterator:
            out = _apply_chain(pre_ops, pdf, batch_size)
            if len(out):
                yield out

    return fn


def _wire_sql(ex: MpiExchange, wire: TupleType) -> List[str]:
    """The exchange's wire columns as Spark SQL: its input columns, or the
    compressed word."""
    spec = ex.compression
    if spec is None:
        return [quote(c) for c in wire.names]
    return [f"{spec.word.sql()} AS {quote(spec.out_field)}"]


def _run_inner(
    inner_plan: Plan,
    inner_field: str,
    pid: int,
    sides: Sequence[Tuple[MpiExchange, pd.DataFrame]],
    batch_size: Optional[int],
) -> pd.DataFrame:
    """Execute the nested plan for one network partition, exactly as
    NestedMap would, and return the flattened materialized result."""
    params: dict = {}
    for ex, pdf in sides:
        params[ex.pid_field] = pid
        params[ex.data_field] = RowVector(pdf)
    out = vectorized.run_rows(inner_plan, ExecContext(batch_size=batch_size), params)
    return _single(out, "NestedMap")[inner_field].to_pandas()


def _lower_nested(
    spark: SparkSession,
    pre_dfs: List[DataFrame],
    exchanges: List[MpiExchange],
    inner_plan: Plan,
    inner_field: str,
    schema,
    batch_size: Optional[int],
) -> DataFrame:
    out_cols = [f.name for f in schema.fields]

    def finish(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.reindex(columns=out_cols)

    if len(exchanges) == 1:
        ex = exchanges[0]

        def gfn(key, pdf):
            return finish(
                _run_inner(inner_plan, inner_field, int(key[0]),
                           [(ex, pdf.drop(columns="__pid"))], batch_size)
            )

        return pre_dfs[0].groupBy("__pid").applyInPandas(gfn, schema=schema)

    if len(exchanges) == 2:
        ex_l, ex_r = exchanges

        def jfn(key, lpdf, rpdf):
            return finish(
                _run_inner(
                    inner_plan, inner_field, int(key[0]),
                    [(ex_l, lpdf.drop(columns="__pid")), (ex_r, rpdf.drop(columns="__pid"))],
                    batch_size,
                )
            )

        return (
            pre_dfs[0].groupBy("__pid")
            .cogroup(pre_dfs[1].groupBy("__pid"))
            .applyInPandas(jfn, schema=schema)
        )

    # N-ary (optimized join sequences): tagged union of all sides. A side
    # pads the columns it lacks with a non-null literal of the column's
    # static type: Arrow hands pandas an int64 column holding nulls as
    # float64, which would round every value above 2**53.
    side_cols = [[c for c in df.columns if c != "__pid"] for df in pre_dfs]
    all_types: Dict[str, T.DataType] = {}
    for df in pre_dfs:
        for f in df.schema.fields:
            all_types.setdefault(f.name, f.dataType)
    del all_types["__pid"]
    tagged = []
    for i, df in enumerate(pre_dfs):
        cols = [c if c in side_cols[i] else F.lit(0).cast(t).alias(c) for c, t in all_types.items()]
        tagged.append(df.select("__pid", F.lit(i).alias("__side"), *cols))
    union = tagged[0]
    for t in tagged[1:]:
        union = union.unionByName(t)

    def nfn(key, pdf):
        sides = []
        for i, ex in enumerate(exchanges):
            part = pdf[pdf["__side"] == i][side_cols[i]]
            sides.append((ex, part))
        return finish(_run_inner(inner_plan, inner_field, int(key[0]), sides, batch_size))

    return union.groupBy("__pid").applyInPandas(nfn, schema=schema)


# ---------------------------------------------------------------------------
# post-aggregation lowering
# ---------------------------------------------------------------------------

def _lower_post_native(df: DataFrame, op: SubOperator) -> Optional[DataFrame]:
    """Lower one post op to a native Catalyst node; None = not lowerable
    (the caller falls back to driver-side kernels)."""
    if isinstance(op, (Reduce, ReduceByKey)):
        aggs = [_NATIVE_AGGS[a](c).alias(c) for c, a in op.aggs.items()]
        return df.groupBy(op.key).agg(*aggs) if isinstance(op, ReduceByKey) else df.agg(*aggs)
    if isinstance(op, Projection):
        return df.select(*op.fields)
    return None
