"""Sub-operator base class and execution context.

Sub-operators follow the Volcano iterator model extended with nested
collections (paper Section 3.2), over ``RowVector`` batches of numpy
columns: each operator's ``batches(ctx, ups)`` kernel is its one execution
semantics.
This is the reproduction's analogue of the paper's JIT-compiled pipeline
code, which removes the per-tuple interpretation overhead from inner loops.
``ExecContext.batch_size`` bounds the batches that scans emit; at one
tuple per batch the same kernels run as a per-tuple engine (the Presto
stand-in).

Operators are composed into a DAG via their ``upstreams`` list; ``Plan``
(``repro.core.plan``) drives the iteration, materializes multi-consumer
results once per run, and invokes nested plans on one-tuple parameter
batches.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.expr import Expr
from repro.core.types import RowVector, TupleType


@dataclass
class ExecContext:
    """Per-execution state threaded through operator iterators.

    ``params`` is the plan's parameter tuple as a one-tuple batch, which
    ``ParameterLookup`` returns; ``comm`` is the rank's communicator, which
    ``MpiExecutor`` sets and the network operators always run on (None
    outside a rank); ``batch_size`` bounds the batches a scan emits (None:
    a collection is scanned as one batch); ``profiler`` wraps every
    operator's iterator; ``extra`` is shared by a run and all its nested
    invocations.
    """

    params: Optional[RowVector] = None
    comm: Any = None
    batch_size: Optional[int] = None
    profiler: Any = None
    extra: dict = field(default_factory=dict)

    def child(self, params: RowVector, comm: Any = None) -> "ExecContext":
        """The context of a nested-plan invocation on the one-tuple batch
        ``params``, on ``comm`` if given."""
        comm = self.comm if comm is None else comm
        return ExecContext(params, comm, self.batch_size, self.profiler, self.extra)


class SubOperator:
    """Base class: an iterator node in a sub-operator DAG."""

    #: short name used in plan rendering and Table 1 (SLOC) accounting
    op_name: str = "??"
    #: evaluation phase this operator is attributed to in breakdowns
    phase: str = "other"

    def __init__(self, upstreams: Sequence["SubOperator"] = ()) -> None:
        self.upstreams: List[SubOperator] = list(upstreams)

    # -- static typing -----------------------------------------------------
    def out_type(self, in_types: Sequence[TupleType]) -> TupleType:
        """Output tuple type given the upstreams' types; ``Plan.op_types``
        calls it on every operator but ``ParameterLookup``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement out_type"
        )

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


def histogram_batch(counts: np.ndarray) -> RowVector:
    """The dense ``<bucket_id, count>`` batch of a count array."""
    return RowVector({"bucket_id": np.arange(len(counts), dtype=np.int64), "count": counts})
