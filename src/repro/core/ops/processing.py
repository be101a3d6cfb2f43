"""Data-processing sub-operators (paper Section 3.3.2).

These express the computations inside inner loops. Each operator implements
the row-at-a-time reference path and, where it matters for performance, a
vectorized batch path over pandas/numpy (the JIT analogue).
"""
from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np
import pandas as pd

from repro.core import radix
from repro.core.ops.base import ExecContext, SubOperator, concat_batches
from repro.core.types import TupleType


class Map(SubOperator):
    """Applies a function to every input tuple.

    ``row_fn(tuple) -> tuple`` defines semantics; an optional
    ``batch_fn(DataFrame) -> DataFrame`` provides the vectorized kernel
    (falls back to applying ``row_fn`` per row).
    """

    op_name = "MP"

    def __init__(
        self,
        upstream: SubOperator,
        row_fn: Callable[[dict], dict],
        batch_fn: Optional[Callable[[pd.DataFrame], pd.DataFrame]] = None,
        declared_type: Optional[TupleType] = None,
    ) -> None:
        super().__init__([upstream])
        self.row_fn = row_fn
        self.batch_fn = batch_fn
        self.declared_type = declared_type

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.declared_type

    def rows(self, ctx, ups) -> Iterator[dict]:
        for t in ups[0]:
            yield self.row_fn(t)

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        for pdf in ups[0]:
            if self.batch_fn is not None:
                yield self.batch_fn(pdf)
            else:
                yield _apply_rowwise(pdf, self.row_fn)


class ParametrizedMap(SubOperator):
    """Map that additionally receives one parameter tuple from a second
    upstream, passed to every function call (used e.g. to restore bits
    dropped by the exchange compression)."""

    op_name = "PM"

    def __init__(
        self,
        param_upstream: SubOperator,
        data_upstream: SubOperator,
        row_fn: Callable[[dict, dict], dict],
        batch_fn: Optional[Callable[[pd.DataFrame, dict], pd.DataFrame]] = None,
        declared_type: Optional[TupleType] = None,
    ) -> None:
        super().__init__([param_upstream, data_upstream])
        self.row_fn = row_fn
        self.batch_fn = batch_fn
        self.declared_type = declared_type

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.declared_type

    def _param_rows(self, it) -> dict:
        params = list(it)
        if len(params) != 1:
            raise RuntimeError(
                f"ParametrizedMap expects exactly one parameter tuple, got {len(params)}"
            )
        return params[0]

    def rows(self, ctx, ups) -> Iterator[dict]:
        param = self._param_rows(ups[0])
        for t in ups[1]:
            yield self.row_fn(t, param)

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        from repro.core.types import RowVector

        param_pdf = concat_batches(list(ups[0]))
        param = self._param_rows(RowVector(param_pdf).iter_rows())
        for pdf in ups[1]:
            if self.batch_fn is not None:
                yield self.batch_fn(pdf, param)
            else:
                yield _apply_rowwise(pdf, lambda t: self.row_fn(t, param))


class Projection(SubOperator):
    """Keeps a subset of the fields of each input tuple, unmodified."""

    op_name = "PR"

    def __init__(self, upstream: SubOperator, fields: Sequence[str]) -> None:
        super().__init__([upstream])
        self.fields = list(fields)

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0].project(self.fields) if in_types[0] is not None else None

    def rows(self, ctx, ups) -> Iterator[dict]:
        for t in ups[0]:
            yield {f: t[f] for f in self.fields}

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        for pdf in ups[0]:
            yield pd.DataFrame({f: pdf[f] for f in self.fields}, copy=False)


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

    def rows(self, ctx, ups) -> Iterator[dict]:
        left = list(ups[0])
        for r in ups[1]:
            for l in left:
                _check_distinct(l, r)
                yield {**l, **r}

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        left = concat_batches(list(ups[0]))
        for right in ups[1]:
            overlap = set(left.columns) & set(right.columns)
            if overlap:
                raise RuntimeError(f"CartesianProduct field overlap: {sorted(overlap)}")
            # left-major order, as merge(how="cross"), by one take per column
            li = np.repeat(np.arange(len(left)), len(right))
            ri = np.tile(np.arange(len(right)), len(left))
            cols = {c: left[c].array.take(li) for c in left.columns}
            cols.update({c: right[c].array.take(ri) for c in right.columns})
            yield pd.DataFrame(cols, copy=False)


class Filter(SubOperator):
    """Relational selection: keeps tuples satisfying a predicate."""

    op_name = "FL"

    def __init__(
        self,
        upstream: SubOperator,
        row_pred: Callable[[dict], bool],
        batch_pred: Optional[Callable[[pd.DataFrame], np.ndarray]] = None,
    ) -> None:
        super().__init__([upstream])
        self.row_pred = row_pred
        self.batch_pred = batch_pred

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0]

    def rows(self, ctx, ups) -> Iterator[dict]:
        for t in ups[0]:
            if self.row_pred(t):
                yield t

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        from repro.core.types import RowVector

        for pdf in ups[0]:
            if self.batch_pred is not None:
                mask = np.asarray(self.batch_pred(pdf), dtype=bool)
            else:
                mask = np.fromiter(
                    (bool(self.row_pred(t)) for t in RowVector(pdf).iter_rows()),
                    dtype=bool,
                    count=len(pdf),
                )
            yield pdf[mask].reset_index(drop=True)


class Reduce(SubOperator):
    """Aggregates all input tuples into one with an associative,
    commutative combine function ``row_fn(a, b) -> tuple``.

    The optional ``batch_fn(DataFrame) -> tuple`` produces a per-batch
    partial aggregate; partials are folded with ``row_fn``.
    """

    op_name = "RD"

    def __init__(
        self,
        upstream: SubOperator,
        row_fn: Callable[[dict, dict], dict],
        batch_fn: Optional[Callable[[pd.DataFrame], dict]] = None,
        agg_spec: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__([upstream])
        self.row_fn = row_fn
        self.batch_fn = batch_fn
        # lowering hint: column -> named aggregate, same as ReduceByKey
        self.agg_spec = agg_spec

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0]

    def rows(self, ctx, ups) -> Iterator[dict]:
        acc: Optional[dict] = None
        for t in ups[0]:
            acc = t if acc is None else self.row_fn(acc, t)
        if acc is not None:
            yield acc

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        from repro.core.types import RowVector

        acc: Optional[dict] = None
        for pdf in ups[0]:
            if not len(pdf):
                continue
            if self.batch_fn is not None:
                part = self.batch_fn(pdf)
                acc = part if acc is None else self.row_fn(acc, part)
            else:
                for t in RowVector(pdf).iter_rows():
                    acc = t if acc is None else self.row_fn(acc, t)
        if acc is not None:
            yield pd.DataFrame([acc])


class ReduceByKey(SubOperator):
    """Combines all tuples sharing key-field values; the combine function
    sees tuples with the key fields stripped, and the result is re-augmented
    with the key (paper semantics). Output tuples keep the input type.

    ``agg_spec`` is an optional vectorization/lowering hint mapping value
    columns to a named aggregate ('sum', 'count', 'min', 'max'); with it the
    batch path uses a pandas groupby and the Spark lowering emits a native
    Catalyst aggregate.
    """

    op_name = "RK"

    def __init__(
        self,
        upstream: SubOperator,
        keys: Sequence[str],
        row_fn: Callable[[dict, dict], dict],
        agg_spec: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__([upstream])
        self.keys = list(keys)
        self.row_fn = row_fn
        self.agg_spec = agg_spec

    def out_type(self, in_types) -> Optional[TupleType]:
        return in_types[0]

    def rows(self, ctx, ups) -> Iterator[dict]:
        accs: Dict[tuple, dict] = {}
        order: Optional[List[str]] = None
        for t in ups[0]:
            if order is None:
                order = list(t.keys())
            k = tuple(t[f] for f in self.keys)
            val = {f: v for f, v in t.items() if f not in self.keys}
            if k in accs:
                accs[k] = self.row_fn(accs[k], val)
            else:
                accs[k] = val
        for k, val in accs.items():
            out = {**dict(zip(self.keys, k)), **val}
            yield {f: out[f] for f in order}

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        pdf = concat_batches(list(ups[0]))
        if not len(pdf):
            return
        order = list(pdf.columns)
        if self.agg_spec is not None:
            agg = {c: ("size" if a == "count" else a) for c, a in self.agg_spec.items()}
            out = pdf.groupby(self.keys, as_index=False, sort=False).agg(agg)
        else:
            vals = [c for c in pdf.columns if c not in self.keys]
            out = (
                pdf.groupby(self.keys, as_index=False, sort=False)[vals]
                .apply(lambda g: pd.Series(_fold_rows(g, self.row_fn)))
                .reset_index(drop=True)
            )
        yield out[order]


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

    def rows(self, ctx, ups) -> Iterator[dict]:
        sentinel = object()
        iters = [iter(u) for u in ups]
        while True:
            parts = [next(it, sentinel) for it in iters]
            done = [p is sentinel for p in parts]
            if all(done):
                return
            if any(done):
                raise RuntimeError("Zip upstreams returned different numbers of tuples")
            out: dict = {}
            for p in parts:
                _check_distinct(out, p)
                out.update(p)
            yield out

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        mats = [concat_batches(list(u)) for u in ups]
        lengths = {len(m) for m in mats}
        if len(lengths) > 1:
            raise RuntimeError(
                f"Zip upstreams returned different numbers of tuples: {[len(m) for m in mats]}"
            )
        cols: List[str] = []
        for m in mats:
            overlap = set(cols) & set(m.columns)
            if overlap:
                raise RuntimeError(f"Zip field overlap: {sorted(overlap)}")
            cols.extend(m.columns)
        yield pd.concat([m.reset_index(drop=True) for m in mats], axis=1)


class LocalHistogram(SubOperator):
    """Counts input tuples per bucket; returns a dense, ordered
    ``<bucket_id, count>`` sequence of exactly ``n_buckets`` tuples (as
    required by MpiExchange)."""

    op_name = "LH"
    phase = "local_histogram"

    def __init__(
        self,
        upstream: SubOperator,
        n_buckets: int,
        bucket_fn: Callable[[dict], int],
        bucket_batch_fn: Optional[Callable[[pd.DataFrame], np.ndarray]] = None,
    ) -> None:
        super().__init__([upstream])
        self.n_buckets = n_buckets
        self.bucket_fn = bucket_fn
        self.bucket_batch_fn = bucket_batch_fn

    def out_type(self, in_types) -> TupleType:
        from repro.core.types import INT64

        return TupleType([("bucket_id", INT64), ("count", INT64)])

    def rows(self, ctx, ups) -> Iterator[dict]:
        counts = np.zeros(self.n_buckets, dtype=np.int64)
        for t in ups[0]:
            b = self.bucket_fn(t)
            if not 0 <= b < self.n_buckets:
                raise RuntimeError(f"bucket {b} out of range [0, {self.n_buckets})")
            counts[b] += 1
        for b in range(self.n_buckets):
            yield {"bucket_id": b, "count": int(counts[b])}

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        counts = np.zeros(self.n_buckets, dtype=np.int64)
        for pdf in ups[0]:
            if not len(pdf):
                continue
            ids = np.asarray(self._bucket_ids(pdf))
            if ids.min() < 0 or ids.max() >= self.n_buckets:
                raise RuntimeError(f"bucket ids out of range [0, {self.n_buckets})")
            counts += np.bincount(ids, minlength=self.n_buckets)
        yield pd.DataFrame(
            {"bucket_id": np.arange(self.n_buckets, dtype=np.int64), "count": counts}
        )

    def _bucket_ids(self, pdf: pd.DataFrame) -> np.ndarray:
        from repro.core.types import RowVector

        if self.bucket_batch_fn is not None:
            return self.bucket_batch_fn(pdf)
        return np.fromiter(
            (self.bucket_fn(t) for t in RowVector(pdf).iter_rows()),
            dtype=np.int64,
            count=len(pdf),
        )


class BuildProbe(SubOperator):
    """Hash join: builds a hash table over the left upstream keyed by the
    join attributes and probes it with the right upstream.

    ``join_type`` demonstrates the paper's extensibility claim: 'inner'
    (matching combinations), 'semi'/'anti' (probe-side tuples with/without a
    match), and 'outer' (inner plus unmatched probe tuples padded with NA).
    Output fields: join attributes, remaining left fields, remaining right
    fields — names must be distinct.
    """

    op_name = "BP"
    phase = "build_probe"

    def __init__(
        self,
        left: SubOperator,
        right: SubOperator,
        keys: Sequence[str],
        join_type: str = "inner",
    ) -> None:
        if join_type not in ("inner", "semi", "anti", "outer"):
            raise ValueError(f"unsupported join_type {join_type!r}")
        super().__init__([left, right])
        self.keys = list(keys)
        self.join_type = join_type

    def out_type(self, in_types) -> Optional[TupleType]:
        lt, rt = in_types
        if lt is None or rt is None:
            return None
        if self.join_type in ("semi", "anti"):
            return rt
        rest_l = [n for n in lt.names if n not in self.keys]
        rest_r = [n for n in rt.names if n not in self.keys]
        return lt.project(self.keys).concat(lt.project(rest_l)).concat(rt.project(rest_r))

    def rows(self, ctx, ups) -> Iterator[dict]:
        table: Dict[tuple, List[dict]] = {}
        for t in ups[0]:
            k = tuple(t[f] for f in self.keys)
            table.setdefault(k, []).append({f: v for f, v in t.items() if f not in self.keys})
        for t in ups[1]:
            k = tuple(t[f] for f in self.keys)
            hit = k in table
            if self.join_type == "semi":
                if hit:
                    yield t
            elif self.join_type == "anti":
                if not hit:
                    yield t
            else:
                rest_r = {f: v for f, v in t.items() if f not in self.keys}
                if hit:
                    for rest_l in table[k]:
                        _check_distinct(rest_l, rest_r)
                        yield {**dict(zip(self.keys, k)), **rest_l, **rest_r}
                elif self.join_type == "outer":
                    first = next(iter(table.values()), [{}])
                    pad = {f: None for f in (first[0] if first else {})}
                    yield {**dict(zip(self.keys, k)), **pad, **rest_r}

    def batches(self, ctx, ups) -> Iterator[pd.DataFrame]:
        left = concat_batches(list(ups[0]))
        probes = list(ups[1])
        if not probes:
            return
        # one probe frame, so the build side is sorted once per operator
        right = concat_batches(probes)
        rest_l = [c for c in left.columns if c not in self.keys]
        rest_r = [c for c in right.columns if c not in self.keys]
        overlap = set(rest_l) & set(rest_r)
        if overlap:
            raise RuntimeError(f"BuildProbe field overlap: {sorted(overlap)}")
        if self.join_type in ("semi", "anti"):
            mark = left[self.keys].drop_duplicates()
            merged = right.merge(mark, on=self.keys, how="left", indicator=True)
            keep = merged["_merge"] == ("both" if self.join_type == "semi" else "left_only")
            yield merged[keep][list(right.columns)].reset_index(drop=True)
            return
        if self.join_type == "inner" and len(self.keys) == 1:
            # one integer key: the sort-merge kernel the monolithic join uses
            key = self.keys[0]
            bk, pk = left[key].to_numpy(), right[key].to_numpy()
            if bk.dtype.kind in "iu" and pk.dtype.kind in "iu":
                bi, pi = radix.join_indices(bk, pk)
                out = {key: pk[pi]}
                out.update({c: left[c].to_numpy()[bi] for c in rest_l})
                out.update({c: right[c].to_numpy()[pi] for c in rest_r})
                yield pd.DataFrame(out, copy=False)
                return
        how = "right" if self.join_type == "outer" else "inner"
        out = left.merge(right, on=self.keys, how=how)
        yield out[self.keys + rest_l + rest_r]


def _apply_rowwise(pdf: pd.DataFrame, fn: Callable[[dict], dict]) -> pd.DataFrame:
    from repro.core.types import RowVector

    rows = [fn(t) for t in RowVector(pdf).iter_rows()]
    if rows:
        return pd.DataFrame(rows)
    return pdf.iloc[:0]


def _fold_rows(pdf: pd.DataFrame, row_fn: Callable[[dict, dict], dict]) -> dict:
    from repro.core.types import RowVector

    acc: Optional[dict] = None
    for t in RowVector(pdf).iter_rows():
        acc = t if acc is None else row_fn(acc, t)
    assert acc is not None
    return acc


def _check_distinct(a: dict, b: dict) -> None:
    overlap = set(a) & set(b)
    if overlap:
        raise RuntimeError(f"field names must be distinct, overlap: {sorted(overlap)}")
