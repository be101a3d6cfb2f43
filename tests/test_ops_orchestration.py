"""Unit tests for ParameterLookup and NestedMap."""
import numpy as np
import pandas as pd
import pytest

from repro.core import Plan, RowVector
from repro.core.ops import (
    MaterializeRowVector,
    NestedMap,
    ParameterLookup,
    Projection,
    ReduceByKey,
    RowScan,
)
from repro.oracle import assert_equivalent
from tests.helpers import params_of, source


class TestParameterLookup:
    def test_returns_the_parameter_tuple(self):
        out = Plan(ParameterLookup()).collect(params={"a": 1, "b": "x"})
        assert out.columns == ("a", "b")
        assert out["a"].tolist() == [1]
        assert out["b"].tolist() == ["x"]

    def test_collect_boxes_a_dict_once(self):
        """``collect`` boxes a dict of parameters once: a scalar keeps its
        numpy dtype, and a collection parameter is one object cell holding
        the same object."""
        rv = RowVector(pd.DataFrame({"k": [1]}))
        out = Plan(ParameterLookup()).collect(params={"a": np.int32(7), "x": 2.5, "d": rv})
        assert [out[c].dtype for c in ("a", "x", "d")] == [np.dtype(np.int32), np.dtype(np.float64), object]
        assert out["a"].tolist() == [7] and out["x"].tolist() == [2.5]
        assert out["d"].shape == (1,) and out["d"][0] is rv

    def test_takes_no_arguments(self):
        """Its type is its plan's parameter type and it has no upstreams,
        so it takes neither a declared type nor an upstream."""
        assert ParameterLookup().upstreams == []
        with pytest.raises(TypeError):
            ParameterLookup(None)

    def test_without_params_raises(self):
        with pytest.raises(RuntimeError, match="without plan parameters"):
            Plan(ParameterLookup()).collect()


def sum_per_partition_plan():
    """Nested plan: scan the partition data, sum v per k, materialize."""
    scan = RowScan(Projection(ParameterLookup(), ["data"]), "data")
    agg = ReduceByKey(scan, "k", {"v": "sum"})
    return Plan(MaterializeRowVector(agg, field="out"))


class TestNestedMap:
    def make_outer(self):
        """Outer plan: one tuple per partition, each holding a RowVector."""
        nm = NestedMap(source("parts"), sum_per_partition_plan())
        return Plan(RowScan(nm, "out"))

    def parts_frame(self):
        p0 = RowVector(pd.DataFrame({"k": [1, 1, 2], "v": [10, 20, 5]}))
        p1 = RowVector(pd.DataFrame({"k": [3], "v": [7]}))
        return pd.DataFrame({"data": pd.Series([p0, p1], dtype=object)})

    def test_runs_nested_plan_per_input_tuple(self):
        out = self.make_outer().collect(params=params_of(parts=self.parts_frame()))
        assert out.columns == ("k", "v")
        assert out["k"].tolist() == [1, 2, 3]
        assert out["v"].tolist() == [30, 5, 7]

    def test_nested_plan_must_yield_single_tuple(self):
        scan = RowScan(Projection(ParameterLookup(), ["data"]), "data")
        bad_nested = Plan(scan)  # yields many tuples, not one materialized
        nm = NestedMap(source("parts"), bad_nested)
        with pytest.raises(RuntimeError, match="exactly one"):
            Plan(nm).collect(params=params_of(parts=self.parts_frame()))

    def test_two_nesting_levels(self):
        # inner: sum all v; middle: run inner per sub-partition
        inner_scan = RowScan(Projection(ParameterLookup(), ["data"]), "data")
        inner = Plan(MaterializeRowVector(
            ReduceByKey(inner_scan, "k", {"v": "sum"}),
            field="out",
        ))
        mid_scan = RowScan(Projection(ParameterLookup(), ["outer_data"]), "outer_data")
        mid = Plan(MaterializeRowVector(
            RowScan(NestedMap(mid_scan, inner), "out"), field="mid_out"
        ))
        top = Plan(RowScan(NestedMap(source("top"), mid), "mid_out"))

        p0 = pd.DataFrame({"k": [1, 1, 2], "v": [2, 3, 4]})
        p1 = pd.DataFrame({"k": [2, 3, 3], "v": [5, 6, 7]})
        outer_rv = RowVector(
            pd.DataFrame({"data": pd.Series([RowVector(p0), RowVector(p1)], dtype=object)})
        )
        frame = pd.DataFrame({"outer_data": pd.Series([outer_rv], dtype=object)})
        out = top.collect(params=params_of(top=frame)).to_pandas()
        # the inner plan aggregates each partition on its own
        assert_equivalent(
            out,
            "SELECT k, SUM(v) AS v FROM p0 GROUP BY k "
            "UNION ALL SELECT k, SUM(v) AS v FROM p1 GROUP BY k",
            p0=p0, p1=p1,
        )


class TestMaterializeRowScanRoundtrip:
    def test_materialize_then_scan_is_identity(self):
        df = pd.DataFrame({"a": [1, 2, 3]})
        root = RowScan(MaterializeRowVector(source("t"), field="d"), "d")
        out = Plan(root).collect(params=params_of(t=df)).to_pandas()
        assert_equivalent(out, "SELECT a FROM t", t=df)

    def test_materialize_empty_stream_with_columns(self):
        """An empty stream materializes with its upstream's columns."""
        df = pd.DataFrame({"a": pd.Series([], dtype="int64")})
        root = MaterializeRowVector(source("t"), field="d")
        out = Plan(root).collect(params=params_of(t=df))
        assert len(out) == 1
        assert out["d"][0].columns == ("a",)
        assert len(out["d"][0]) == 0
