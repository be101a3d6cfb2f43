"""Type system for sub-operator plans.

The paper extends First-Normal-Form tuples with *collections*:

    tuple := <item, ..., item>
    item  := { atom | collection of tuples }

``TupleType`` maps static field names to item types; an item type is an
``Atom`` (int64/float64/str/date/bool) or a ``RowVectorType`` wrapping a
nested ``TupleType``. ``RowVector`` is the physical collection format used
throughout this reproduction: a thin wrapper around a pandas DataFrame (the
batch analogue of the paper's C-array-of-C-structs).

Typing is *best-effort*: operators whose output type depends on opaque user
functions (``Map``) may declare their output type explicitly or propagate
``None`` (unknown), in which case downstream static checks are skipped.
The Spark lowering derives its schemas from these types, so it rejects
plans whose lowered operators have unknown types.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import pandas as pd


class Atom:
    """An undividable value domain (a leaf of the item-type grammar)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("atom", self.name))


INT64 = Atom("int64")
FLOAT64 = Atom("float64")
STR = Atom("str")
DATE = Atom("date")
BOOL = Atom("bool")

ItemType = Union[Atom, "RowVectorType"]


class RowVectorType:
    """Collection type: a RowVector of tuples of ``tuple_type``."""

    __slots__ = ("tuple_type",)

    def __init__(self, tuple_type: "TupleType") -> None:
        self.tuple_type = tuple_type

    def __repr__(self) -> str:
        return f"RowVector<{self.tuple_type!r}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowVectorType) and other.tuple_type == self.tuple_type

    def __hash__(self) -> int:
        return hash(("rowvector", self.tuple_type))


class TupleType:
    """An ordered mapping from field names to item types."""

    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[Tuple[str, ItemType]]) -> None:
        names = [n for n, _ in fields]
        if len(set(names)) != len(names):
            raise TypeError(f"duplicate field names in tuple type: {names}")
        self.fields = tuple(fields)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.fields)

    def field_type(self, name: str) -> ItemType:
        for n, t in self.fields:
            if n == name:
                return t
        raise KeyError(name)

    def project(self, names: Sequence[str]) -> "TupleType":
        return TupleType([(n, self.field_type(n)) for n in names])

    def concat(self, other: "TupleType") -> "TupleType":
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise TypeError(f"field names must be distinct, overlap: {sorted(overlap)}")
        return TupleType(list(self.fields) + list(other.fields))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {t!r}" for n, t in self.fields)
        return f"<{inner}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleType) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(self.fields)


class RowVector:
    """Physical collection of tuples: a wrapper around a pandas DataFrame.

    Nested collections are stored as ``RowVector`` objects inside
    object-dtype DataFrame cells.
    """

    __slots__ = ("df",)

    def __init__(self, df: pd.DataFrame) -> None:
        if not isinstance(df, pd.DataFrame):
            raise TypeError(f"RowVector wraps a pandas DataFrame, got {type(df)}")
        # normalize the index without copying when it is already canonical
        idx = df.index
        if isinstance(idx, pd.RangeIndex) and idx.start == 0 and idx.step == 1:
            self.df = df
        else:
            self.df = df.reset_index(drop=True)

    @classmethod
    def from_rows(cls, rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> "RowVector":
        if rows:
            return cls(pd.DataFrame(list(rows)))
        return cls(pd.DataFrame(columns=list(columns or [])))

    def __len__(self) -> int:
        return len(self.df)

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(self.df.columns)

    def batches(self, size: Optional[int] = None) -> Iterator[pd.DataFrame]:
        """The collection as frames of at most ``size`` tuples (None: one
        frame). An empty collection is one empty frame, so its columns
        reach the consumer."""
        if size is None or len(self.df) <= size:
            yield self.df
            return
        for start in range(0, len(self.df), size):
            yield self.df.iloc[start : start + size].reset_index(drop=True)

    def iter_rows(self) -> Iterator[dict]:
        cols = list(self.df.columns)
        arrays = [self.df[c].to_numpy() for c in cols]
        for i in range(len(self.df)):
            yield {c: _unbox(a[i]) for c, a in zip(cols, arrays)}

    def __repr__(self) -> str:
        return f"RowVector({len(self)} rows, cols={list(self.df.columns)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowVector):
            return NotImplemented
        return self.df.equals(other.df)


def _unbox(v):
    """Convert numpy scalars to plain Python so row dicts compare cleanly.

    datetime64 needs care: ``.item()`` on nanosecond precision returns a
    raw integer, so box timestamps as pandas Timestamps instead.
    """
    if isinstance(v, np.datetime64):
        return pd.Timestamp(v)
    if isinstance(v, np.generic):
        return v.item()
    return v
