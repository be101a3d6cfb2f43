"""Unit tests for ParameterLookup and NestedMap."""
import pandas as pd
import pytest

from repro.core import Plan, RowVector
from repro.core import vectorized
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
        rows = vectorized.run_rows(Plan(ParameterLookup()), params={"a": 1, "b": "x"})
        assert rows == [{"a": 1, "b": "x"}]

    def test_vectorized_matches(self):
        """A collection parameter comes back as the same object."""
        rv = RowVector(pd.DataFrame({"k": [1]}))
        assert vectorized.run_rows(Plan(ParameterLookup()), params={"a": 1, "d": rv}) == [
            {"a": 1, "d": rv}
        ]

    def test_without_params_raises(self):
        with pytest.raises(RuntimeError, match="without plan parameters"):
            vectorized.run_rows(Plan(ParameterLookup()))


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
        rows = vectorized.run_rows(self.make_outer(), params=params_of(parts=self.parts_frame()))
        assert sorted(rows, key=lambda t: t["k"]) == [
            {"k": 1, "v": 30}, {"k": 2, "v": 5}, {"k": 3, "v": 7}
        ]

    def test_nested_plan_must_yield_single_tuple(self):
        scan = RowScan(Projection(ParameterLookup(), ["data"]), "data")
        bad_nested = Plan(scan)  # yields many tuples, not one materialized
        nm = NestedMap(source("parts"), bad_nested)
        with pytest.raises(RuntimeError, match="exactly one"):
            vectorized.run_rows(Plan(nm), params=params_of(parts=self.parts_frame()))

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
        out = vectorized.run_to_pdf(top, params=params_of(top=frame))
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
        out = vectorized.run_to_pdf(Plan(root), params=params_of(t=df))
        assert_equivalent(out, "SELECT a FROM t", t=df)

    def test_materialize_empty_stream_with_columns(self):
        """An empty stream materializes with its upstream's columns."""
        df = pd.DataFrame({"a": pd.Series([], dtype="int64")})
        root = MaterializeRowVector(source("t"), field="d")
        rows = vectorized.run_rows(Plan(root), params=params_of(t=df))
        assert len(rows) == 1
        assert rows[0]["d"].columns == ("a",)
        assert len(rows[0]["d"]) == 0
