"""Data-processing sub-operators (paper Section 3.3.2).

These express the computations inside inner loops. Each operator's one
semantics is its batch kernel over the numpy columns of a ``RowVector``
(the JIT analogue); user code enters as one callable per operator, over a
whole batch.
"""
from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence

import numpy as np
import pandas as pd

from repro.core import radix
from repro.core.expr import Expr
from repro.core.ops.base import SubOperator, histogram_batch
from repro.core.types import INT64, RowVector, TupleType, concat


class Map(SubOperator):
    """Applies a function to every input tuple: ``fn(RowVector) ->
    RowVector`` maps a batch of tuples to the batch of their images."""

    op_name = "MP"

    def __init__(
        self,
        upstream: SubOperator,
        fn: Callable[[RowVector], RowVector],
        declared_type: Optional[TupleType] = None,
    ) -> None:
        super().__init__([upstream])
        self.fn = fn
        self.declared_type = declared_type

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.declared_type

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        for b in ups[0]:
            yield self.fn(b)


class ParametrizedMap(SubOperator):
    """Map that additionally receives one parameter tuple from a second
    upstream, passed to every function call (used e.g. to restore bits
    dropped by the exchange compression): ``fn(RowVector, dict) ->
    RowVector``."""

    op_name = "PM"

    def __init__(
        self,
        param_upstream: SubOperator,
        data_upstream: SubOperator,
        fn: Callable[[RowVector, dict], RowVector],
        declared_type: Optional[TupleType] = None,
    ) -> None:
        super().__init__([param_upstream, data_upstream])
        self.fn = fn
        self.declared_type = declared_type

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.declared_type

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        params = list(concat(list(ups[0])).iter_rows())
        if len(params) != 1:
            raise RuntimeError(
                f"ParametrizedMap expects exactly one parameter tuple, got {len(params)}"
            )
        for b in ups[1]:
            yield self.fn(b, params[0])


class Projection(SubOperator):
    """Keeps a subset of the fields of each input tuple, unmodified."""

    op_name = "PR"

    def __init__(self, upstream: SubOperator, fields: Sequence[str]) -> None:
        super().__init__([upstream])
        self.fields = list(fields)

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0].project(self.fields) if in_types[0] is not None else None

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        for b in ups[0]:
            yield RowVector({f: b[f] for f in self.fields})


class CartesianProduct(SubOperator):
    """All combinations of left and right tuples; field names must be
    distinct and are preserved."""

    op_name = "CP"

    def __init__(self, left: SubOperator, right: SubOperator) -> None:
        super().__init__([left, right])

    def out_type(self, in_types) -> Optional[TupleType]:
        if in_types[0] is None or in_types[1] is None:
            return None
        return in_types[0].concat(in_types[1])

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        left = concat(list(ups[0]))
        for right in ups[1]:
            # left-major order, by one take per column
            li = np.repeat(np.arange(len(left)), len(right))
            ri = np.tile(np.arange(len(right)), len(left))
            yield _union([left.take(li), right.take(ri)], "CartesianProduct")


class Filter(SubOperator):
    """Relational selection: keeps tuples satisfying a predicate,
    ``pred(RowVector) -> bool array``."""

    op_name = "FL"

    def __init__(
        self, upstream: SubOperator, pred: Callable[[RowVector], np.ndarray]
    ) -> None:
        super().__init__([upstream])
        self.pred = pred

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0]

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        for b in ups[0]:
            yield b.take(np.asarray(self.pred(b), dtype=bool))


class Reduce(SubOperator):
    """Aggregates all input tuples into one, with SQL global-aggregate
    semantics: ``aggs`` maps each output column to 'sum', 'count', 'min' or
    'max'. It always emits one tuple, even over empty input: 'count' is 0
    there and the others are NULL (NaN), as over no non-null values."""

    op_name = "RD"

    def __init__(self, upstream: SubOperator, aggs: Dict[str, str]) -> None:
        super().__init__([upstream])
        self.aggs = _checked(aggs)

    def out_type(self, in_types) -> Optional[TupleType]:
        if in_types[0] is None:
            return None
        return TupleType([
            (c, INT64 if a == "count" else in_types[0].field_type(c)) for c, a in self.aggs.items()
        ])

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        b = concat(list(ups[0]))
        out = {}
        for c, a in self.aggs.items():
            values = b[c] if c in b else np.empty(0)  # an empty stream has no columns
            out[c] = radix.aggregate(values, np.zeros(len(values), dtype=np.int64), 1, a)
        yield RowVector(out)


class ReduceByKey(SubOperator):
    """Combines all tuples sharing the value of field ``key`` (not NULL):
    ``aggs`` maps every other field to 'sum', 'count', 'min' or 'max', as
    ``Reduce`` per group, and the result is re-augmented with the key
    (paper semantics). Output tuples keep the input type; empty input passes
    on as it is, so its schema reaches the consumer. The kernel is the
    monolithic GROUP BY's (``radix.reduce_by_key``); the Spark lowering
    emits the same spec as a native Catalyst aggregate."""

    op_name = "RK"

    def __init__(self, upstream: SubOperator, key: str, aggs: Dict[str, str]) -> None:
        super().__init__([upstream])
        self.key = key
        self.aggs = _checked(aggs)

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0]

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        yield radix.reduce_by_key(concat(list(ups[0])), self.key, self.aggs)


class Zip(SubOperator):
    """Positionally combines one tuple from each upstream into one tuple
    with the union of fields; mismatching lengths are a runtime error."""

    op_name = "ZP"

    def __init__(self, upstreams: Sequence[SubOperator]) -> None:
        super().__init__(upstreams)

    def out_type(self, in_types) -> Optional[TupleType]:
        if any(t is None for t in in_types):
            return None
        out = in_types[0]
        for t in in_types[1:]:
            out = out.concat(t)
        return out

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        mats = [concat(list(u)) for u in ups]
        lengths = {len(m) for m in mats}
        if len(lengths) > 1:
            raise RuntimeError(
                f"Zip upstreams returned different numbers of tuples: {[len(m) for m in mats]}"
            )
        yield _union(mats, "Zip")


class LocalHistogram(SubOperator):
    """Counts input tuples per bucket, each tuple's bucket given by the
    integer expression ``bucket``; returns a dense, ordered
    ``<bucket_id, count>`` sequence of exactly ``n_buckets`` tuples (as
    required by MpiExchange)."""

    op_name = "LH"
    phase = "local_histogram"

    def __init__(self, upstream: SubOperator, n_buckets: int, bucket: Expr) -> None:
        super().__init__([upstream])
        self.n_buckets = n_buckets
        self.bucket = bucket

    def exprs(self) -> Dict[str, Expr]:
        return {"bucket_id": self.bucket}

    def out_type(self, in_types) -> TupleType:
        return TupleType([("bucket_id", INT64), ("count", INT64)])

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        counts = np.zeros(self.n_buckets, dtype=np.int64)
        for b in ups[0]:
            counts += radix.histogram(self.bucket.eval(b), self.n_buckets)
        yield histogram_batch(counts)


class BuildProbe(SubOperator):
    """Hash join on one integer ``key``: builds over the left upstream and
    probes with the right one, through the sort-merge kernel the
    monolithic join uses (``radix.join_indices``).

    ``join_type`` 'inner' (every plan's join) yields the matching
    combinations; 'semi' (TPC-H Q4) and 'anti' yield the probe tuples
    with/without a match; 'outer' yields the inner pairs plus the unmatched
    probe tuples, with the left fields NULL (NaN/NaT). Output fields: the
    key, remaining left fields, remaining right fields — names must be
    distinct.
    """

    op_name = "BP"
    phase = "build_probe"

    def __init__(
        self, left: SubOperator, right: SubOperator, key: str, join_type: str = "inner"
    ) -> None:
        if join_type not in ("inner", "semi", "anti", "outer"):
            raise ValueError(f"unsupported join_type {join_type!r}")
        super().__init__([left, right])
        self.key = key
        self.join_type = join_type

    def out_type(self, in_types) -> Optional[TupleType]:
        lt, rt = in_types
        if lt is None or rt is None:
            return None
        if self.join_type in ("semi", "anti"):
            return rt
        rest_l = [n for n in lt.names if n != self.key]
        rest_r = [n for n in rt.names if n != self.key]
        return lt.project([self.key] + rest_l).concat(rt.project(rest_r))

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        left = concat(list(ups[0]))
        probes = list(ups[1])
        if not probes:
            return
        # one probe batch, so the build side is sorted once per operator
        right = concat(probes)
        rest_l = [c for c in left.columns if c != self.key]
        rest_r = [c for c in right.columns if c != self.key]
        overlap = set(rest_l) & set(rest_r)
        if overlap:
            raise RuntimeError(f"BuildProbe field overlap: {sorted(overlap)}")
        bk, pk = left[self.key], right[self.key]
        if self.join_type in ("semi", "anti"):
            # distinct build keys: every probe tuple matches at most once
            hit = np.zeros(len(pk), dtype=bool)
            hit[radix.join_indices(np.unique(bk), pk)[1]] = True
            yield right.take(hit if self.join_type == "semi" else ~hit)
            return
        bi, pi = radix.join_indices(bk, pk)
        if self.join_type == "outer":
            # the unmatched probe tuples follow the pairs; build row -1 is NULL
            unmatched = np.ones(len(pk), dtype=bool)
            unmatched[pi] = False
            pi = np.concatenate([pi, np.flatnonzero(unmatched)])
            bi = np.concatenate([bi, np.full(len(pi) - len(bi), -1)])
        out = {self.key: pk[pi]}
        outer = self.join_type == "outer"
        out.update({c: pd.api.extensions.take(left[c], bi, allow_fill=outer) for c in rest_l})
        out.update({c: right[c][pi] for c in rest_r})
        yield RowVector(out)


def _union(batches: Sequence[RowVector], who: str) -> RowVector:
    """The fields of equal-length ``batches`` side by side; a field name in
    two of them raises."""
    cols: Dict[str, np.ndarray] = {}
    for b in batches:
        overlap = set(cols) & set(b.columns)
        if overlap:
            raise RuntimeError(f"{who} field overlap: {sorted(overlap)}")
        cols.update(b.items())
    return RowVector(cols)


_AGGS = ("sum", "count", "min", "max")


def _checked(aggs: Dict[str, str]) -> Dict[str, str]:
    bad = {c: a for c, a in aggs.items() if a not in _AGGS}
    if bad or not aggs:
        raise ValueError(f"aggregates must map columns to one of {_AGGS}, got {aggs!r}")
    return dict(aggs)
