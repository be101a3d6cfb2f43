"""Lowering of distributed sub-operator plans onto Spark (Catalyst) stages.

This is the "another platform" of the paper: the *same* plan object that
runs SPMD on the simulated MPI cluster is mapped onto Spark's physical
operators. ``MpiExecutor`` is the Spark job itself (ranks = shuffle
partitions). The driver plan and the nested *rank plan* are lowered by one
memoized recursion that dispatches on operator type, not on plan shape:
each operator lowers to a DataFrame over the DataFrames its upstreams
lowered to, and the lowered root is the final result.

=========================  ==================================================
operator                   Catalyst stage
=========================  ==================================================
RowScan over MpiExecutor   the lowered rank plan: the DataFrame of the
                           upstream of its MaterializeRowVector root (every
                           rank's result in one DataFrame)
RowScan over               the input relation of that name, coalesced
Projection(ParameterLookup)
                           (no shuffle) to one partition per core
MpiExchange                a ``Project``: ``selectExpr`` of its wire columns
                           (its input columns, or the one int64
                           ``CompressionSpec.word``, domain check included)
                           and its pid expression as ``__pid``, both
                           compiled to Spark SQL (``MpiExchange.exprs``);
                           one entry of ``Lowered.pre``. LocalHistogram +
                           MpiHistogram are ``Lowered.histograms``,
                           ``groupBy('__pid').count()`` (aggregate +
                           collect = AllReduce)
RowScan over NestedMap     the shuffle induced by grouping on ``__pid``,
over Zip(MpiExchange...)   and a pandas UDF that runs the *actual nested
or one MpiExchange         plan* per network partition through
                           ``Plan.invoke``: ``groupBy().applyInPandas``
                           (one side), ``cogroup().applyInPandas`` (two) or
                           a tagged union (more)
a chain of Filter/Map      one fused ``mapInPandas`` stage
Projection, Reduce,        native ``select``, ``agg``, ``groupBy().agg()``
ReduceByKey
=========================  ==================================================

Any other operator raises ``TypeError`` naming it. An exchange lowers the
same over whatever its upstream lowered to, so the naive join cascade's
re-exchange of a join output lowers like a base relation's.

Every Spark schema comes from the plan's static types (paper Section 3.2):
the input relations' Spark schemas seed the type propagation of the rank
plan and of the driver plan (``Plan.op_types``), and each stage's schema
is its operator's type (an exchange's is its collection type, plus
``__pid``). ``lower_distributed_plan(...).result()`` is the plan's result
DataFrame; neither lowering nor ``result()`` runs a Spark job.
Typing is total, so a plan that cannot be typed (an operator reading a
column its input lacks, in any nested plan) raises at ``Plan.op_types``,
naming the operator, before anything is lowered.

``batch_size`` is the evaluator's scan batch size in every stage (None: a
whole partition per batch). At ``batch_size=1`` the same kernels dispatch
one tuple per batch, which is the generic per-tuple engine baseline (the
Presto stand-in).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.expr import quote
from repro.core.ops.base import ExecContext, SubOperator
from repro.core.ops.matscan import MaterializeRowVector, RowScan
from repro.core.ops.network import MpiExchange, MpiExecutor
from repro.core.ops.orchestration import NestedMap, ParameterLookup
from repro.core.ops.processing import Filter, Map, Projection, Reduce, ReduceByKey, Zip
from repro.core.plan import Plan
from repro.core.types import BOOL, DATE, FLOAT64, INT64, STR, RowVector, RowVectorType, TupleType, concat, one_tuple
from repro.spark_session import one_task_per_core

_NATIVE_AGGS = {"sum": F.sum, "min": F.min, "max": F.max, "count": F.count}
_NATIVES = (Projection, Reduce, ReduceByKey)
#: single-input operators holding an opaque callable: they run in Python
_OPAQUE = (Filter, Map)

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

    #: one DataFrame per MpiExchange, carrying ``__pid``, upstream first
    pre: List[DataFrame]
    #: the root-most nested stage's output (flattened inner results)
    inner: DataFrame
    #: the lowered plan root
    root: DataFrame

    @property
    def histograms(self) -> List[DataFrame]:
        """The lowered LocalHistogram+MpiHistogram stage per side. Built
        on read: the result does not need it (the shuffle partitions by
        ``__pid`` itself)."""
        return [df.groupBy("__pid").count() for df in self.pre]

    def result(self) -> DataFrame:
        """The final DataFrame, unevaluated: no Spark job runs before an
        action on it."""
        return self.root


def lower_distributed_plan(
    spark: SparkSession,
    plan: Plan,
    relations: Dict[str, DataFrame],
    batch_size: Optional[int] = None,
) -> Lowered:
    """Compile a distributed plan (see ``repro.modular``) into Spark stages
    over the given input DataFrames.

    Every schema comes from the plan's static types, seeded with the input
    relations' Spark schemas, so lowering runs no Spark job. A plan
    without exactly one ``MpiExecutor``, a plan that fails typing
    (``Plan.op_types``), or an operator no lowering rule covers, raises
    ``TypeError`` naming the operator.
    ``batch_size`` is the evaluator's scan batch size in every stage (1:
    per-tuple dispatch)."""
    mes = [op for op in plan.operators() if isinstance(op, MpiExecutor)]
    if len(mes) != 1:
        raise TypeError(f"cannot lower plan {plan.name!r}: it has {len(mes)} MpiExecutors, not one")
    me = mes[0]
    rank_plan = me.nested_plan
    names = dict.fromkeys(op.field for op in rank_plan.operators() if _is_relation_scan(op))
    for name in names:
        if name not in relations:
            raise KeyError(f"plan reads relation {name!r}, not provided")
    rank_param = TupleType([
        (name, RowVectorType(_tuple_type(name, relations[name].schema))) for name in names
    ])
    # the driver plan reads the per-rank inputs as one collection field
    top_param = TupleType([(me.upstreams[0].field, RowVectorType(rank_param))])
    types = {**plan.op_types(top_param), **rank_plan.op_types(rank_param)}
    lowering = _Lowering(plan, types, relations, batch_size)
    root = lowering(plan.root)
    return Lowered(pre=lowering.pre, inner=lowering.inner, root=root)


# ---------------------------------------------------------------------------
# one lowering rule per operator
# ---------------------------------------------------------------------------

class _Lowering:
    """The memoized lowering of one distributed plan, its rank plan
    included: calling it on an operator returns that operator's DataFrame,
    lowering each operator once."""

    def __init__(self, plan: Plan, types: Dict[SubOperator, TupleType],
                 relations: Dict[str, DataFrame], batch_size: Optional[int]) -> None:
        self.plan = plan
        self.types = types
        self.relations = relations
        self.batch_size = batch_size
        self.memo: Dict[SubOperator, DataFrame] = {}
        self.pre: List[DataFrame] = []
        self.inner: Optional[DataFrame] = None

    def __call__(self, op: SubOperator) -> DataFrame:
        if op not in self.memo:
            self.memo[op] = self._lower(op)
        return self.memo[op]

    def _lower(self, op: SubOperator) -> DataFrame:
        if _is_relation_scan(op):
            return one_task_per_core(self.relations[op.field])
        if (isinstance(op, RowScan) and isinstance(op.upstreams[0], MpiExecutor)
                and isinstance(op.upstreams[0].nested_plan.root, MaterializeRowVector)):
            return self(op.upstreams[0].nested_plan.root.upstreams[0])
        if isinstance(op, MpiExchange):
            wire = self.types[op].field_type(op.data_field).tuple_type
            df = self(op.upstreams[0]).selectExpr(*_wire_sql(op, wire), f"{op.bucket.sql()} AS __pid")
            self.pre.append(df)
            return df
        if isinstance(op, RowScan) and isinstance(op.upstreams[0], NestedMap):
            nm = op.upstreams[0]
            sides = nm.upstreams[0].upstreams if isinstance(nm.upstreams[0], Zip) else nm.upstreams
            for ex in sides:
                if not isinstance(ex, MpiExchange):
                    raise TypeError(f"cannot lower plan {self.plan.name!r}: a NestedMap over "
                                    f"{type(ex).__name__}, not MpiExchange")
            self.inner = _nested_stage(
                [self(ex) for ex in sides], sides, nm.nested_plan, op.field,
                _struct(self.types[op]), self.batch_size,
            )
            return self.inner
        if isinstance(op, _OPAQUE):
            chain = [op]
            while isinstance(chain[0].upstreams[0], _OPAQUE):
                chain.insert(0, chain[0].upstreams[0])
            fn = _make_map_fn(chain, self.batch_size)
            return self(chain[0].upstreams[0]).mapInPandas(fn, schema=_struct(self.types[op]))
        if isinstance(op, _NATIVES):
            return _native(self(op.upstreams[0]), op)
        raise TypeError(f"cannot lower plan {self.plan.name!r}: no Spark lowering rule for {type(op).__name__}")


def _is_relation_scan(op: SubOperator) -> bool:
    """``op`` is ``RowScan(Projection(ParameterLookup))``: it reads the
    input relation ``op.field``."""
    return (
        isinstance(op, RowScan)
        and isinstance(op.upstreams[0], Projection)
        and isinstance(op.upstreams[0].upstreams[0], ParameterLookup)
    )


def _native(df: DataFrame, op: SubOperator) -> DataFrame:
    """A ``Projection``, ``Reduce`` or ``ReduceByKey`` as Catalyst operators."""
    if isinstance(op, Projection):
        return df.select(*op.fields)
    aggs = [_NATIVE_AGGS[a](c).alias(c) for c, a in op.aggs.items()]
    return df.groupBy(op.key).agg(*aggs) if isinstance(op, ReduceByKey) else df.agg(*aggs)


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


def _struct(t: TupleType) -> T.StructType:
    """The Spark schema of tuples of type ``t`` (atoms only)."""
    fields = []
    for name, item in t.fields:
        if item not in _SPARK_TYPES:
            raise TypeError(f"field {name!r} of type {item!r} has no Spark type")
        fields.append(T.StructField(name, _SPARK_TYPES[item]))
    return T.StructType(fields)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _make_map_fn(ops: Sequence[SubOperator], batch_size: Optional[int]) -> Callable:
    """The ``mapInPandas`` function of a linear chain of single-input
    operators: it runs them over each Arrow batch, scanned in batches of
    ``batch_size`` tuples, as ``RowScan`` would."""
    def fn(iterator):
        for pdf in iterator:
            ctx = ExecContext(batch_size=batch_size)
            batches = list(RowVector(pdf).batches(batch_size))
            for op in ops:
                batches = list(op.batches(ctx, [iter(batches)]))
            out = concat(batches).to_pandas()
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
    """Invoke the nested plan on one network partition, as NestedMap
    does, and return the flattened materialized result."""
    params: dict = {}
    for ex, pdf in sides:
        params[ex.pid_field] = pid
        params[ex.data_field] = RowVector(pdf)
    out = inner_plan.invoke(ExecContext(one_tuple(params), batch_size=batch_size), "NestedMap")
    return out[inner_field][0].to_pandas()


def _nested_stage(
    dfs: List[DataFrame],
    exchanges: Sequence[MpiExchange],
    inner_plan: Plan,
    inner_field: str,
    schema: T.StructType,
    batch_size: Optional[int],
) -> DataFrame:
    """The nested plan run once per ``__pid`` over the exchanges' DataFrames
    ``dfs``. One UDF body serves any number of sides; the side count picks
    how the sides meet per ``__pid``: ``groupBy`` (one), ``cogroup`` (two)
    or a tagged union (more)."""
    side_cols = [[c for c in df.columns if c != "__pid"] for df in dfs]
    out_cols = schema.fieldNames()

    def body(key, frames: Sequence[pd.DataFrame]) -> pd.DataFrame:
        sides = [(ex, pdf[cols]) for ex, cols, pdf in zip(exchanges, side_cols, frames)]
        return _run_inner(inner_plan, inner_field, int(key[0]), sides, batch_size).reindex(columns=out_cols)

    # pyspark passes the key only to a function of 2 (grouped) or 3
    # (cogrouped) named parameters; the names show in the Catalyst plan
    if len(dfs) == 1:
        def gfn(key, pdf):
            return body(key, [pdf])

        return dfs[0].groupBy("__pid").applyInPandas(gfn, schema=schema)

    if len(dfs) == 2:
        def jfn(key, lpdf, rpdf):
            return body(key, [lpdf, rpdf])

        return dfs[0].groupBy("__pid").cogroup(dfs[1].groupBy("__pid")).applyInPandas(jfn, schema=schema)

    # a side pads the columns it lacks with a non-null literal of the
    # column's static type: Arrow hands pandas an int64 column holding
    # nulls as float64, which would round every value above 2**53
    all_types = {f.name: f.dataType for df in dfs for f in df.schema.fields if f.name != "__pid"}
    tagged = []
    for i, df in enumerate(dfs):
        cols = [c if c in side_cols[i] else F.lit(0).cast(t).alias(c) for c, t in all_types.items()]
        tagged.append(df.select("__pid", F.lit(i).alias("__side"), *cols))
    union = functools.reduce(DataFrame.unionByName, tagged)

    n_sides = len(dfs)

    def nfn(key, pdf):
        return body(key, [pdf[pdf["__side"] == i] for i in range(n_sides)])

    return union.groupBy("__pid").applyInPandas(nfn, schema=schema)
