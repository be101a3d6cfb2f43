"""Materialize & scan sub-operators (paper Section 3.3.4).

Each physical materialization format gets a dedicated read/write pair
(design principle 2): ``RowScan`` reads tuples out of a ``RowVector``
collection, ``MaterializeRowVector`` writes a tuple stream into one, and
``LocalPartitioning`` materializes a tuple stream into contiguous
partitions, counting their sizes itself.
"""
from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from repro.core import radix
from repro.core.expr import Expr
from repro.core.ops.base import SubOperator
from repro.core.types import INT64, RowVector, RowVectorType, TupleType, concat, object_column


class RowScan(SubOperator):
    """Reads a nested RowVector collection, in batches of at most
    ``ExecContext.batch_size`` tuples (one tuple at a time at size 1).

    The upstream produces tuples containing a RowVector field ``field``;
    RowScan unnests it — the basic input reader of Modularis.
    """

    op_name = "RS"

    def __init__(self, upstream: SubOperator, field: str) -> None:
        super().__init__([upstream])
        self.field = field

    def out_type(self, in_types) -> TupleType:
        in_types[0].check_fields(type(self).__name__, [self.field])
        item = in_types[0].field_type(self.field)
        if not isinstance(item, RowVectorType):
            raise TypeError(f"RowScan field {self.field!r} is not a collection: {item!r}")
        return item.tuple_type

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        for b in ups[0]:
            for rv in b[self.field]:
                if not isinstance(rv, RowVector):
                    raise RuntimeError(f"RowScan field {self.field!r} does not hold a RowVector")
                yield from rv.batches(ctx.batch_size)


class MaterializeRowVector(SubOperator):
    """Encapsulates the full upstream tuple stream into one RowVector tuple
    — the counterpart of RowScan and the mandatory final operator of every
    nested plan."""

    op_name = "MR"
    phase = "materialize"

    def __init__(self, upstream: SubOperator, field: str = "data") -> None:
        super().__init__([upstream])
        self.field = field

    def out_type(self, in_types) -> TupleType:
        return TupleType([(self.field, RowVectorType(in_types[0]))])

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        yield RowVector({self.field: object_column([concat(list(ups[0]))])})


class LocalPartitioning(SubOperator):
    """Partitions a tuple sequence into contiguous runs, one per id.

    Places each tuple of its one upstream in the partition its integer
    expression ``bucket`` gives (``radix.scatter_arrays`` counts the
    partition sizes while it sorts the ids, so no histogram input is read;
    ids outside ``[0, n_partitions)`` raise ``ValueError``), then emits
    ``<partition_id, partition_data>`` pairs in dense order — reused
    verbatim by joins and GROUP BY (design principle 1).
    """

    op_name = "LP"
    phase = "local_partitioning"

    def __init__(
        self,
        upstream: SubOperator,
        n_partitions: int,
        bucket: Expr,
        pid_field: str = "partition_id",
        data_field: str = "partition_data",
    ) -> None:
        super().__init__([upstream])
        self.n_partitions = n_partitions
        self.bucket = bucket
        self.pid_field = pid_field
        self.data_field = data_field

    def exprs(self) -> Dict[str, Expr]:
        return {"pid": self.bucket}

    def out_type(self, in_types) -> TupleType:
        return TupleType(
            [(self.pid_field, INT64), (self.data_field, RowVectorType(in_types[0]))]
        )

    def batches(self, ctx, ups) -> Iterator[RowVector]:
        data = concat(list(ups[0]))
        parts = radix.scatter_arrays(
            [data[c] for c in data.columns], self.bucket.eval(data), self.n_partitions
        )
        yield RowVector({
            self.pid_field: np.arange(self.n_partitions, dtype=np.int64),
            self.data_field: object_column([RowVector(dict(zip(data.columns, a))) for a in parts]),
        })
