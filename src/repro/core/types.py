"""Type system for sub-operator plans.

The paper extends First-Normal-Form tuples with *collections*:

    tuple := <item, ..., item>
    item  := { atom | collection of tuples }

``TupleType`` maps static field names to item types; an item type is an
``Atom`` (int64/float64/str/date/bool) or a ``RowVectorType`` wrapping a
nested ``TupleType``. ``RowVector`` is the physical collection format used
throughout this reproduction and the batch passed between sub-operators:
named 1-D numpy columns of one length (the batch analogue of the paper's
C-array-of-C-structs); pandas frames exist only at the program's edges.

Typing is *best-effort*: operators whose output type depends on opaque user
functions (``Map``) may declare their output type explicitly or propagate
``None`` (unknown), in which case downstream static checks are skipped.
The Spark lowering derives its schemas from these types, so it rejects
plans whose lowered operators have unknown types.
"""
from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional, Sequence, Tuple, Union

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
    """Physical collection of tuples and the batch passed between
    sub-operators: an ordered mapping from name to a 1-D numpy column, all
    of one length; strings and nested ``RowVector``s in object arrays.
    ``RowVector(columns)`` takes any mapping of name to array-like (a
    DataFrame too) without copying numpy columns; ``b[name]`` is the array.
    Kernels never write into a batch's arrays: they may be views of the
    caller's columns."""

    __slots__ = ("_cols", "_len")

    def __init__(self, columns: Mapping[str, Any]) -> None:
        self._cols = {c: _column(columns[c]) for c in columns}
        lengths = {c: len(a) for c, a in self._cols.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns of unequal lengths: {lengths}")
        self._len = next(iter(lengths.values()), 0)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, name: str) -> np.ndarray:
        return self._cols[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._cols)

    def keys(self):
        return self._cols.keys()

    def items(self):
        return self._cols.items()

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(self._cols)

    def take(self, rows) -> "RowVector":
        """The tuples at ``rows``: positions, a boolean mask or a slice (views)."""
        return RowVector({c: a[rows] for c, a in self._cols.items()})

    def batches(self, size: Optional[int] = None) -> Iterator["RowVector"]:
        """The collection as batches of at most ``size`` tuples (None: one
        batch), each a view. An empty collection is one empty batch, so its
        columns reach the consumer."""
        if size is None or self._len <= size:
            yield self
            return
        for start in range(0, self._len, size):
            yield self.take(slice(start, start + size))

    def iter_rows(self) -> Iterator[dict]:
        for i in range(self._len):
            yield {c: _unbox(a[i]) for c, a in self._cols.items()}

    def to_pandas(self) -> pd.DataFrame:
        """The tuples as a DataFrame, for callers outside the operator layer
        (results, Spark UDF frames, the oracle)."""
        return pd.DataFrame(self._cols, copy=False)

    def __repr__(self) -> str:
        return f"RowVector({len(self)} rows, cols={list(self._cols)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowVector):
            return NotImplemented
        return self.to_pandas().equals(other.to_pandas())


def concat(batches: Sequence[RowVector]) -> RowVector:
    """One batch of all tuples of ``batches``. A lone non-empty batch is
    returned as is, not copied; an all-empty stream yields its first (empty)
    batch, so its columns reach the consumer."""
    mats = [b for b in batches if len(b)]
    if len(mats) == 1:
        return mats[0]
    if mats:
        return RowVector({c: np.concatenate([b[c] for b in mats]) for c in mats[0].columns})
    return batches[0] if batches else RowVector({})


def object_column(values: Sequence[Any]) -> np.ndarray:
    """``values`` as an object array, each stored as is. ``np.array`` would
    unpack a ``RowVector`` value (it reads as a sequence), so nested
    collections are stored through this."""
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _column(values: Any) -> np.ndarray:
    a = values.to_numpy() if hasattr(values, "to_numpy") else np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"a column must be 1-D, got shape {a.shape}")
    return a.astype(object) if a.dtype.kind in "US" else a


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
