"""Sub-operator base class and execution context.

Sub-operators follow the Volcano iterator model extended with nested
collections (paper Section 3.2), over ``RowVector`` batches of numpy
columns: each operator's ``batches(ctx, ups)`` kernel is its one execution
semantics.
This is the reproduction's analogue of the paper's JIT-compiled pipelines,
which remove the per-tuple interpretation overhead from inner loops.
``ExecContext.batch_size`` bounds the batches that scans emit; at one
tuple per batch the same kernels run as a per-tuple engine (the Presto
stand-in).

Operators are composed into a DAG via their ``upstreams`` list; the
evaluator in ``repro.core.vectorized`` drives the iteration and handles
multi-consumer materialization (pipeline cutting).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.expr import Expr
from repro.core.types import RowVector, TupleType


@dataclass
class ExecContext:
    """Per-execution state threaded through operator iterators.

    ``params`` backs ``ParameterLookup`` inside nested plans; ``comm`` is the
    MPI-style communicator required by network operators (None for local
    plans); ``batch_size`` bounds the batches a scan emits (None: a
    collection is scanned as one batch); ``run_nested`` is the evaluator
    callback so orchestration operators can execute nested plans without
    importing the evaluator (avoids a circular dependency).
    """

    params: Optional[dict] = None
    comm: Any = None
    batch_size: Optional[int] = None
    profiler: Any = None
    run_nested: Optional[Callable] = None
    extra: dict = field(default_factory=dict)

    def child(self, params: dict) -> "ExecContext":
        return replace(self, params=params)

    def with_comm(self, comm: Any) -> "ExecContext":
        return replace(self, comm=comm)


class SubOperator:
    """Base class: an iterator node in a sub-operator DAG."""

    #: short name used in plan rendering and Table 1 (SLOC) accounting
    op_name: str = "??"
    #: evaluation phase this operator is attributed to in breakdowns
    phase: str = "other"

    def __init__(self, upstreams: Sequence["SubOperator"] = ()) -> None:
        self.upstreams: List[SubOperator] = list(upstreams)

    # -- static typing -----------------------------------------------------
    def out_type(self, in_types: Sequence[Optional[TupleType]]) -> Optional[TupleType]:
        """Output tuple type given upstream types; None = unknown/dynamic."""
        return None

    def exprs(self) -> Dict[str, Expr]:
        """The integer expressions the operator evaluates over its first
        upstream's tuples, by the name of what each computes. ``Plan``
        type-checks the columns they read and renders them."""
        return {}

    # -- execution ---------------------------------------------------------
    def batches(
        self, ctx: ExecContext, ups: Sequence[Iterator[RowVector]]
    ) -> Iterator[RowVector]:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batches"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}"


def dense_counts(hist: RowVector, n: int, who: str) -> np.ndarray:
    """Validate and read a dense ``<bucket_id, count>`` histogram batch of
    exactly ``n`` buckets (LocalHistogram's output format) into a count
    array indexed by bucket id."""
    if len(hist) != n:
        raise RuntimeError(f"{who} histogram has {len(hist)} buckets, expected exactly {n}")
    counts = np.zeros(n, dtype=np.int64)
    counts[hist["bucket_id"].astype(np.int64)] = hist["count"]
    return counts


def histogram_batch(counts: np.ndarray) -> RowVector:
    """The dense ``<bucket_id, count>`` batch of a count array."""
    return RowVector({"bucket_id": np.arange(len(counts), dtype=np.int64), "count": counts})
