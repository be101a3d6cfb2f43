"""Unit tests for the plan DAG: topology, evaluation, typing."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core import Plan, RowVector
from repro.core.expr import col, pmod
from repro.core.types import FLOAT64, INT64, RowVectorType, TupleType
from repro.core.ops import (
    BuildProbe,
    CartesianProduct,
    ExecContext,
    Filter,
    LocalHistogram,
    Map,
    MaterializeRowVector,
    NestedMap,
    ParameterLookup,
    Projection,
    Reduce,
    ReduceByKey,
    RowScan,
    Zip,
)
from repro.modular.common import JoinConfig, local_partition_side
from repro.oracle import assert_equivalent
from tests.helpers import params_of, source


def kv_type():
    return TupleType([("k", INT64), ("v", INT64)])


class TestTopology:
    def test_operators_topological(self):
        s = source("t")
        f = Filter(s, lambda pdf: np.ones(len(pdf), dtype=bool))
        plan = Plan(f)
        ops = plan.operators()
        assert ops.index(s) < ops.index(f)
        assert len(ops) == 4  # PL, PR, RS, FL

    def test_shared_upstream_counted_once(self):
        s = source("t")
        h = LocalHistogram(s, 2, pmod(col("k"), 2))
        z = Zip([h, LocalHistogram(s, 2, col("k") & 0)])
        # Zip would fail at runtime on field overlap; topology only here.
        plan = Plan(z)
        assert plan.operators().count(s) == 1

    def test_cycle_detection(self):
        s = source("t")
        f = Filter(s, lambda pdf: np.ones(len(pdf), dtype=bool))
        s.upstreams.append(f)  # introduce a cycle
        with pytest.raises(ValueError, match="cycle"):
            Plan(f)


class _CountingProfiler:
    """Counts how often each operator's ``batches`` runs (the evaluator
    wraps every operator's iterator in the profiler once per call)."""

    def __init__(self):
        self.calls = Counter()

    def wrap(self, op, gen):
        self.calls[op] += 1
        return gen


def _kv(keys, values):
    return pd.DataFrame({"k": np.asarray(keys, dtype=np.int64), "v": np.asarray(values, dtype=np.int64)})


class TestEvaluation:
    def test_multi_consumer_runs_once_per_run(self):
        """An operator read by three consumers is evaluated once per plan
        run and its batches replayed to each; a second run evaluates it
        again, on its own parameters."""
        m = Map(source("t"), lambda b: b, kv_type())
        hist = LocalHistogram(m, 2, pmod(col("k"), 2))
        probe = BuildProbe(Projection(m, ["k"]), m, key="k")  # m: three consumers
        plan = Plan(CartesianProduct(hist, Projection(probe, ["v"])))
        prof = _CountingProfiler()
        for run, keys in enumerate([[1, 2, 3], [4, 6]], start=1):
            out = plan.collect(ExecContext(profiler=prof), params_of(t=_kv(keys, keys))).to_pandas()
            assert prof.calls[m] == run
            assert len(out) == 2 * len(keys)
            assert sorted(set(out["v"])) == keys

    def test_nested_shared_operator_never_replays_another_invocation(self):
        """Inside a nested plan, ``local_partition_side``'s ParameterLookup is
        read by both its partition-id and its data Projection: it runs once
        per invocation, and each invocation partitions its own tuple's data."""
        cfg = JoinConfig(n_net=2, loc_bits=1)
        pl = ParameterLookup()
        side = local_partition_side(cfg, pl, "v", "pid", "data", "lpid", "ldata")
        nested = Plan(MaterializeRowVector(RowScan(side, "ldata"), field="out"))
        assert [op for op in nested.operators() if pl in op.upstreams] == [
            side.upstreams[0], side.upstreams[1].upstreams[0].upstreams[0]
        ]  # CartesianProduct(Projection(pl), LocalPartitioning(RowScan(Projection(pl))))
        parts = [_kv([2 * i, 2 * i + 4], [10 * i, 10 * i + 1]) for i in range(3)]
        outer = pd.DataFrame({
            "pid": np.arange(3, dtype=np.int64),
            "data": pd.Series([RowVector(p) for p in parts], dtype=object),
        })
        prof = _CountingProfiler()
        plan = Plan(RowScan(NestedMap(source("parts"), nested), "out"))
        out = plan.collect(ExecContext(profiler=prof), params_of(parts=outer)).to_pandas()
        assert prof.calls[pl] == 3
        assert_equivalent(out, "SELECT * FROM p0 UNION ALL SELECT * FROM p1 UNION ALL SELECT * FROM p2",
                          p0=parts[0], p1=parts[1], p2=parts[2])


def kv_collection_type(value_field, value_type):
    return RowVectorType(TupleType([("k", INT64), (value_field, value_type)]))


class TestTyping:
    def test_projection_type(self):
        plan = Plan(Projection(ParameterLookup(), ["v"]))
        assert plan.out_type(kv_type()) == TupleType([("v", INT64)])

    def test_param_type_flows_through(self):
        plan = Plan(Projection(ParameterLookup(), ["k"]))
        assert plan.out_type(param_type=kv_type()) == TupleType([("k", INT64)])

    def test_rowscan_unnests_collection_type(self):
        inner = kv_type()
        outer = TupleType([("data", RowVectorType(inner))])
        plan = Plan(RowScan(Projection(ParameterLookup(), ["data"]), "data"))
        assert plan.out_type(outer) == inner

    def test_materialize_wraps_type(self):
        plan = Plan(MaterializeRowVector(ParameterLookup(), field="d"))
        assert plan.out_type(kv_type()) == TupleType([("d", RowVectorType(kv_type()))])

    def test_buildprobe_type_order(self):
        """A join of two relations of one parameter tuple: its static type
        lists the key, then the build side's values, then the probe
        side's, and running it yields those columns."""
        param = TupleType([("l", kv_collection_type("lv", FLOAT64)), ("r", kv_collection_type("rv", INT64))])
        plan = Plan(BuildProbe(source("l"), source("r"), key="k"))
        assert plan.out_type(param) == TupleType([("k", INT64), ("lv", FLOAT64), ("rv", INT64)])
        left = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64), "lv": [0.5, 1.5]})
        right = _kv([2, 2, 3], [7, 8, 9]).rename(columns={"v": "rv"})
        out = plan.collect(params=params_of(l=left, r=right))
        assert out.columns == ("k", "lv", "rv")
        assert [out[c].dtype for c in out.columns] == [np.int64, np.float64, np.int64]
        assert (out["k"].tolist(), out["lv"].tolist(), sorted(out["rv"].tolist())) == ([2, 2], [1.5, 1.5], [7, 8])

    def test_every_nested_parameter_lookup_takes_the_input_type(self):
        """A nested plan's ParameterLookups all return its one parameter
        tuple, an input tuple of the enclosing operator: typing through
        NestedMap gives each of them that tuple's type."""
        parts = TupleType([("l", kv_collection_type("lv", FLOAT64)), ("r", kv_collection_type("rv", INT64))])
        nested = Plan(MaterializeRowVector(BuildProbe(source("l"), source("r"), key="k"), field="out"))
        lookups = [op for op in nested.operators() if isinstance(op, ParameterLookup)]
        assert len(lookups) == 2
        outer = Plan(NestedMap(source("parts"), nested))
        joined = TupleType([("k", INT64), ("lv", FLOAT64), ("rv", INT64)])
        assert outer.out_type(TupleType([("parts", RowVectorType(parts))])) == TupleType(
            [("out", RowVectorType(joined))]
        )
        nested_types = nested.op_types(parts)
        assert [nested_types[pl] for pl in lookups] == [parts, parts]

    def test_reduce_by_key_preserves_type(self):
        rk = ReduceByKey(ParameterLookup(), "k", {"v": "sum"})
        assert Plan(rk).out_type(kv_type()) == kv_type()

    @pytest.mark.parametrize("make, column", [
        (lambda pl: ReduceByKey(pl, "nope", {"zz": "sum"}), "nope"),
        (lambda pl: ReduceByKey(pl, "k", {"zz": "sum"}), "zz"),
        (lambda pl: Reduce(pl, {"v": "sum", "zz": "max"}), "zz"),
        (lambda pl: Projection(pl, ["zz"]), "zz"),
        (lambda pl: RowScan(pl, "zz"), "zz"),
    ])
    def test_aggregated_columns_checked(self, make, column):
        """A key, aggregate, projected or scanned column the input lacks
        fails at typing, naming the operator and the column (evaluation
        would raise ``KeyError`` in ReduceByKey, Projection and RowScan,
        and aggregate no values in Reduce)."""
        op = make(ParameterLookup())
        with pytest.raises(TypeError, match=f"{type(op).__name__} reads column '{column}', "
                                            r"which its input <k: int64, v: int64> lacks"):
            Plan(op).op_types(kv_type())

    def test_buildprobe_key_must_be_int64(self):
        """A float64 join key fails at typing, as the build/probe kernel
        would fail on it."""
        fk = RowVectorType(TupleType([("k", FLOAT64), ("rv", INT64)]))
        param = TupleType([("l", kv_collection_type("lv", INT64)), ("r", fk)])
        plan = Plan(BuildProbe(source("l"), source("r"), key="k"))
        with pytest.raises(TypeError, match="BuildProbe reads column 'k' of type float64, not int64"):
            plan.op_types(param)
        left = _kv([1, 2], [3, 4]).rename(columns={"v": "lv"})
        right = pd.DataFrame({"k": [1.0, 2.0], "rv": np.array([5, 6], dtype=np.int64)})
        with pytest.raises(TypeError, match="join keys must be signed integers"):
            plan.collect(params=params_of(l=left, r=right))

    @pytest.mark.parametrize("typ, problem", [
        (TupleType([("v", INT64)]), "which its input .* lacks"),
        (TupleType([("k", FLOAT64)]), "of type float64, not int64"),
    ])
    def test_expression_columns_checked(self, typ, problem):
        """A partition expression must read int64 columns of its input: a
        missing or non-integer column fails at typing, naming the operator
        and the column."""
        data = RowScan(Projection(ParameterLookup(), ["t"]), "t")
        hist = LocalHistogram(data, 2, pmod(col("k"), 2))
        with pytest.raises(TypeError, match=f"LocalHistogram expression bucket_id=pmod\\(k, 2\\) "
                                            f"reads column 'k'.*{problem}"):
            Plan(hist).out_type(param_type=TupleType([("t", RowVectorType(typ))]))


class TestRender:
    def test_render_mentions_all_ops(self):
        plan = Plan(Filter(source("t"), lambda pdf: np.ones(len(pdf), dtype=bool)))
        text = plan.render()
        for name in ("PL", "PR", "RS", "FL"):
            assert name in text

    def test_render_shows_partition_expressions(self):
        from repro.modular.common import JoinConfig
        from repro.modular.groupby import distributed_groupby_plan

        cfg = JoinConfig(n_net=8, compress=True, p_bits=20)
        text = distributed_groupby_plan(cfg).render()
        assert "LH(2)[bucket_id=pmod(k, 8)]" in text
        assert ("EX(2,4)[pid=pmod(k, 8); kv=(((in_range(k, 0, 1048575) >> 3) << 20) | "
                "in_range(v, 0, 1048575))]") in text
        assert "LP(3)[pid=(((kv >> 20) & 17592186044415) & 7)]" in text


class TestEveryOperatorIsUsed:
    """No operator is exported that no plan uses: every operator class of
    ``repro.core.ops`` appears in a plan built by ``repro.modular`` or
    ``repro.queries`` (nested plans included)."""

    @staticmethod
    def built_plans():
        from repro.modular.common import JoinConfig
        from repro.modular.groupby import distributed_groupby_plan
        from repro.modular.join import distributed_join_plan
        from repro.modular.join_sequence import naive_sequence_plan, optimized_sequence_plan
        from repro.queries import QUERIES

        plain, packed = JoinConfig(n_net=4), JoinConfig(n_net=4, compress=True)
        yield from (distributed_join_plan(plain), distributed_join_plan(packed))
        yield from (distributed_groupby_plan(plain), distributed_groupby_plan(packed))
        yield from (naive_sequence_plan(plain, 2), optimized_sequence_plan(plain, 2))
        yield from (q.build_plan(plain) for q in QUERIES)

    def test_every_exported_operator_appears_in_a_plan(self):
        from repro.core import ops
        from repro.core.ops.base import SubOperator

        used = set()
        stack = list(self.built_plans())
        while stack:
            for op in stack.pop().operators():
                used.add(type(op))
                if hasattr(op, "nested_plan"):
                    stack.append(op.nested_plan)
        exported = {
            obj for obj in vars(ops).values()
            if isinstance(obj, type) and issubclass(obj, SubOperator) and obj is not SubOperator
        }
        assert len(exported) == 18
        assert sorted(c.__name__ for c in exported - used) == []
