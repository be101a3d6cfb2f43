"""Unit tests for RowScan, MaterializeRowVector, LocalPartitioning."""
import pandas as pd
import pytest

from repro.core import Plan, RowVector
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
        out = Plan(root).collect(params=params_of(t=frame) | {"d": rv, "x": 9})
        assert out.columns == ("a",)
        assert out["a"].tolist() == [1, 2]

    def test_non_collection_field_raises(self):
        root = RowScan(ParameterLookup(), "d")
        with pytest.raises(RuntimeError, match="does not hold a RowVector"):
            Plan(root).collect(params={"d": 42})


def lp_plan(n=4):
    return LocalPartitioning(source("t"), n_partitions=n, bucket=pmod(col("k"), n))


class TestLocalPartitioning:
    def test_partitions_are_dense_and_ordered(self):
        out = Plan(lp_plan()).collect(params=params_of(t=KV))
        assert out["partition_id"].tolist() == [0, 1, 2, 3]
        for pid, data in zip(out["partition_id"], out["partition_data"]):
            assert (data["k"] % 4 == pid).all()
            assert len(data["k"]) == 2

    def test_row_and_batch_agree_on_contents(self):
        """Every tuple lands, unchanged, in the partition of its key."""
        out = Plan(lp_plan()).collect(params=params_of(t=KV))
        parts = zip(out["partition_id"], out["partition_data"])
        flat = pd.concat([data.to_pandas().assign(partition_id=pid) for pid, data in parts], ignore_index=True)
        assert_equivalent(flat, "SELECT k % 4 AS partition_id, k, v FROM t", t=KV)

    @pytest.mark.parametrize("keys", [[-1, 0], [0, 4]])
    def test_id_outside_range_raises(self, keys):
        """An id with no partition among 4 raises instead of being dropped
        or wrapped into a wrong partition."""
        lp = LocalPartitioning(source("t"), n_partitions=4, bucket=col("k"))
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            Plan(lp).collect(params=params_of(t=pd.DataFrame({"k": keys, "v": [1, 2]})))

    def test_empty_partitions_preserved(self):
        df = pd.DataFrame({"k": [0, 0], "v": [1, 2]})
        out = Plan(lp_plan()).collect(params=params_of(t=df))
        assert out["partition_id"].tolist() == [0, 1, 2, 3]
        assert [len(data) for data in out["partition_data"]] == [2, 0, 0, 0]
