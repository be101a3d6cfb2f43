"""Unit tests for the tuple/collection type system and RowVector."""
import pandas as pd
import pytest

from repro.core.types import (
    BOOL,
    FLOAT64,
    INT64,
    STR,
    Atom,
    RowVector,
    RowVectorType,
    TupleType,
    one_tuple,
)


def tt(**fields):
    return TupleType(list(fields.items()))


class TestAtoms:
    def test_equality(self):
        assert INT64 == Atom("int64")
        assert INT64 != FLOAT64

    def test_hashable(self):
        assert len({INT64, Atom("int64"), FLOAT64}) == 2

    def test_repr(self):
        assert repr(STR) == "str"


class TestTupleType:
    def test_names_in_order(self):
        t = tt(a=INT64, b=STR)
        assert t.names == ("a", "b")

    def test_field_type(self):
        t = tt(a=INT64, b=STR)
        assert t.field_type("b") == STR

    def test_field_type_missing(self):
        with pytest.raises(KeyError):
            tt(a=INT64).field_type("z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(TypeError):
            TupleType([("a", INT64), ("a", STR)])

    def test_project_preserves_requested_order(self):
        t = tt(a=INT64, b=STR, c=BOOL)
        assert t.project(["c", "a"]).names == ("c", "a")

    def test_concat(self):
        t = tt(a=INT64).concat(tt(b=STR))
        assert t.names == ("a", "b")

    def test_concat_overlap_rejected(self):
        with pytest.raises(TypeError):
            tt(a=INT64).concat(tt(a=STR))

    def test_equality_and_hash(self):
        assert tt(a=INT64) == tt(a=INT64)
        assert tt(a=INT64) != tt(a=FLOAT64)
        assert hash(tt(a=INT64)) == hash(tt(a=INT64))

    def test_nested_collection_type(self):
        inner = tt(k=INT64, v=FLOAT64)
        outer = tt(pid=INT64, data=RowVectorType(inner))
        assert outer.field_type("data").tuple_type == inner
        assert "RowVector" in repr(outer)


class TestRowVector:
    def test_wraps_dataframe(self):
        rv = RowVector(pd.DataFrame({"a": [1, 2]}))
        assert len(rv) == 2
        assert rv.columns == ("a",)

    def test_rejects_non_dataframe(self):
        with pytest.raises(TypeError):
            RowVector([{"a": 1}])

    def test_equality(self):
        a = RowVector(pd.DataFrame({"a": [1]}))
        b = RowVector(pd.DataFrame({"a": [1]}))
        assert a == b

    def test_nested_rowvector_cells(self):
        inner = RowVector(pd.DataFrame({"k": [1]}))
        outer = RowVector(pd.DataFrame({"pid": [0], "data": pd.Series([inner], dtype=object)}))
        assert outer["data"].shape == (1,)
        assert outer["data"][0] == inner

    def test_one_tuple_keeps_scalar_dtypes(self):
        """A parameter dict becomes one tuple: scalars in columns of their
        numpy dtype, a nested collection in an object column as is."""
        inner = RowVector(pd.DataFrame({"k": [1]}))
        t = one_tuple({"pid": 3, "name": "x", "data": inner})
        assert len(t) == 1
        assert [t[c].dtype.kind for c in t.columns] == ["i", "O", "O"]
        assert t["data"][0] is inner
        assert (t["pid"].tolist(), t["name"].tolist()) == ([3], ["x"])
