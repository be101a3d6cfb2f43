"""Unit tests for RowScan, MaterializeRowVector, LocalPartitioning."""
import pandas as pd
import pytest

from repro.core import Plan, RowVector
from repro.core import vectorized
from repro.core.expr import col, pmod
from repro.core.ops import (
    LocalPartitioning,
    MaterializeRowVector,
    ParameterLookup,
    Projection,
    RowScan,
)
from repro.oracle import assert_equivalent
from tests.helpers import params_of, source


KV = pd.DataFrame({"k": [0, 1, 2, 3, 4, 5, 6, 7], "v": [1] * 8})


class TestRowScan:
    def test_explicit_field(self):
        rv = RowVector(pd.DataFrame({"a": [1, 2]}))
        frame = pd.DataFrame({"x": [9], "d": pd.Series([rv], dtype=object)})
        root = RowScan(Projection(ParameterLookup(), ["d"]), "d")
        # plan params here directly carry the collection
        rows = vectorized.run_rows(Plan(root), params=params_of(t=frame) | {"d": rv, "x": 9})
        assert rows == [{"a": 1}, {"a": 2}]

    def test_non_collection_field_raises(self):
        root = RowScan(ParameterLookup(), "d")
        with pytest.raises(RuntimeError, match="does not hold a RowVector"):
            vectorized.run_rows(Plan(root), params={"d": 42})


def lp_plan(n=4):
    return LocalPartitioning(source("t"), n_partitions=n, bucket=pmod(col("k"), n))


class TestLocalPartitioning:
    def test_partitions_are_dense_and_ordered(self):
        rows = vectorized.run_rows(Plan(lp_plan()), params=params_of(t=KV))
        assert [r["partition_id"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            ks = [t["k"] for t in r["partition_data"].iter_rows()]
            assert all(k % 4 == r["partition_id"] for k in ks)
            assert len(ks) == 2

    def test_row_and_batch_agree_on_contents(self):
        """Every tuple lands, unchanged, in the partition of its key."""
        rows = vectorized.run_rows(Plan(lp_plan()), params=params_of(t=KV))
        flat = pd.concat(
            [r["partition_data"].to_pandas().assign(partition_id=r["partition_id"]) for r in rows],
            ignore_index=True,
        )
        assert_equivalent(flat, "SELECT k % 4 AS partition_id, k, v FROM t", t=KV)

    @pytest.mark.parametrize("keys", [[-1, 0], [0, 4]])
    def test_id_outside_range_raises(self, keys):
        """An id with no partition among 4 raises instead of being dropped
        or wrapped into a wrong partition."""
        lp = LocalPartitioning(source("t"), n_partitions=4, bucket=col("k"))
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            vectorized.run_rows(Plan(lp), params=params_of(t=pd.DataFrame({"k": keys, "v": [1, 2]})))

    def test_empty_partitions_preserved(self):
        df = pd.DataFrame({"k": [0, 0], "v": [1, 2]})
        rows = vectorized.run_rows(Plan(lp_plan()), params=params_of(t=df))
        assert len(rows) == 4
        assert len(rows[0]["partition_data"]) == 2
        assert all(len(rows[p]["partition_data"]) == 0 for p in (1, 2, 3))
