"""Unit tests for the plan DAG: topology, pipeline cutting, typing."""
import numpy as np
import pytest

from repro.core import Plan
from repro.core.types import FLOAT64, INT64, RowVectorType, TupleType
from repro.core.ops import (
    BuildProbe,
    Filter,
    LocalHistogram,
    MaterializeRowVector,
    ParameterLookup,
    Projection,
    ReduceByKey,
    RowScan,
    Zip,
)
from tests.helpers import source


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
        h = LocalHistogram(s, 2, lambda pdf: pdf["k"] % 2)
        z = Zip([h, LocalHistogram(s, 2, lambda pdf: np.zeros(len(pdf), dtype=np.int64))])
        # Zip would fail at runtime on field overlap; topology only here.
        plan = Plan(z)
        assert plan.operators().count(s) == 1

    def test_cycle_detection(self):
        s = source("t")
        f = Filter(s, lambda pdf: np.ones(len(pdf), dtype=bool))
        s.upstreams.append(f)  # introduce a cycle
        with pytest.raises(ValueError, match="cycle"):
            Plan(f)


class TestPipelines:
    def test_tree_plan_is_single_pipeline(self):
        plan = Plan(Filter(source("t"), lambda pdf: np.ones(len(pdf), dtype=bool)))
        assert len(plan.pipelines()) == 1

    def test_multi_consumer_cuts_pipeline(self):
        s = source("t")
        hist = LocalHistogram(s, 2, lambda pdf: pdf["k"] % 2)
        probe = BuildProbe(s, s, key="k")  # s consumed three times in total
        plan = Plan(Zip([hist, probe]))
        mats = plan.materialization_points()
        assert s in mats  # multi-consumer => materialized
        # pipelines: one ending at s, one ending at root
        assert len(plan.pipelines()) == 2

    def test_pipeline_members_do_not_cross_materialization(self):
        s = source("t")
        h1 = LocalHistogram(s, 2, lambda pdf: np.zeros(len(pdf), dtype=np.int64))
        h2 = LocalHistogram(s, 2, lambda pdf: np.zeros(len(pdf), dtype=np.int64))
        plan = Plan(Zip([h1, h2]))
        for pipe in plan.pipelines():
            interior = [op for op in pipe[1:]]  # pipe[0] is its end point
            assert s not in interior


class TestTyping:
    def test_projection_type(self):
        pl = ParameterLookup(declared_type=kv_type())
        plan = Plan(Projection(pl, ["v"]))
        assert plan.out_type() == TupleType([("v", INT64)])

    def test_param_type_flows_through(self):
        plan = Plan(Projection(ParameterLookup(), ["k"]))
        assert plan.out_type(param_type=kv_type()) == TupleType([("k", INT64)])

    def test_rowscan_unnests_collection_type(self):
        inner = kv_type()
        outer = TupleType([("data", RowVectorType(inner))])
        pl = ParameterLookup(declared_type=outer)
        plan = Plan(RowScan(Projection(pl, ["data"]), "data"))
        assert plan.out_type() == inner

    def test_materialize_wraps_type(self):
        pl = ParameterLookup(declared_type=kv_type())
        plan = Plan(MaterializeRowVector(pl, field="d"))
        assert plan.out_type() == TupleType([("d", RowVectorType(kv_type()))])

    def test_buildprobe_type_order(self):
        lt = TupleType([("k", INT64), ("lv", FLOAT64)])
        rt = TupleType([("k", INT64), ("rv", INT64)])
        bp = BuildProbe(ParameterLookup(declared_type=lt), ParameterLookup(declared_type=rt), key="k")
        assert Plan(bp).out_type().names == ("k", "lv", "rv")

    def test_unknown_propagates_as_none(self):
        from repro.core.ops import Map

        m = Map(ParameterLookup(declared_type=kv_type()), lambda pdf: pdf)
        assert Plan(Filter(m, lambda pdf: np.ones(len(pdf), dtype=bool))).out_type() is None

    def test_reduce_by_key_preserves_type(self):
        pl = ParameterLookup(declared_type=kv_type())
        rk = ReduceByKey(pl, ["k"], {"v": "sum"})
        assert Plan(rk).out_type() == kv_type()


class TestRender:
    def test_render_mentions_all_ops(self):
        plan = Plan(Filter(source("t"), lambda pdf: np.ones(len(pdf), dtype=bool)))
        text = plan.render()
        for name in ("PL", "PR", "RS", "FL"):
            assert name in text


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
