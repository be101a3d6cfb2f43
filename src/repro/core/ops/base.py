"""Sub-operator base class and execution context.

Sub-operators follow the Volcano iterator model extended with nested
collections (paper Section 3.2). Two data paths exist:

* ``rows(ctx, ups)``  — row-at-a-time: iterators of ``dict`` tuples. This is
  the reference semantics and the engine of the interpreted (Presto-like)
  baseline.
* ``batches(ctx, ups)`` — vectorized: iterators of pandas DataFrames. This
  is the reproduction's analogue of the paper's JIT-compiled pipelines: the
  per-tuple interpretation overhead disappears from inner loops.

Operators are composed into a DAG via their ``upstreams`` list; the
evaluators in ``repro.core.interp`` / ``repro.core.vectorized`` drive the
iteration and handle multi-consumer materialization (pipeline cutting).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Optional, Sequence

import numpy as np
import pandas as pd

from repro.core.types import TupleType


@dataclass
class ExecContext:
    """Per-execution state threaded through operator iterators.

    ``params`` backs ``ParameterLookup`` inside nested plans; ``comm`` is the
    MPI-style communicator required by network operators (None for local
    plans); ``run_nested_*`` are evaluator callbacks so orchestration
    operators can execute nested plans without importing the evaluator
    (avoids a circular dependency and lets each evaluator nest itself).
    """

    params: Optional[dict] = None
    comm: Any = None
    batch_size: int = 65536
    profiler: Any = None
    run_nested_rows: Optional[Callable] = None
    run_nested_batches: Optional[Callable] = None
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

    # -- execution ---------------------------------------------------------
    def rows(self, ctx: ExecContext, ups: Sequence[Iterator[dict]]) -> Iterator[dict]:
        raise NotImplementedError(
            f"{type(self).__name__} has no row-at-a-time implementation"
        )

    def batches(
        self, ctx: ExecContext, ups: Sequence[Iterator[pd.DataFrame]]
    ) -> Iterator[pd.DataFrame]:
        raise NotImplementedError(
            f"{type(self).__name__} has no vectorized implementation"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}"


def rows_to_batches(
    rows: Iterator[dict], batch_size: int, columns: Optional[Sequence[str]] = None
) -> Iterator[pd.DataFrame]:
    """Adapter: chunk a row stream into DataFrame batches."""
    buf: List[dict] = []
    emitted = False
    for r in rows:
        buf.append(r)
        if len(buf) >= batch_size:
            yield pd.DataFrame(buf)
            emitted = True
            buf = []
    if buf:
        yield pd.DataFrame(buf)
        emitted = True
    if not emitted and columns is not None:
        yield pd.DataFrame(columns=list(columns))


def batches_to_rows(batches: Iterator[pd.DataFrame]) -> Iterator[dict]:
    """Adapter: flatten DataFrame batches into a row-dict stream."""
    from repro.core.types import RowVector

    for pdf in batches:
        yield from RowVector(pdf).iter_rows()


def concat_batches(batches: Sequence[pd.DataFrame], columns: Optional[Sequence[str]] = None) -> pd.DataFrame:
    """Concatenate batches; an empty stream yields an empty typed frame.

    A lone non-empty batch with a default index is returned as is, not
    copied: kernels must not modify the frames they receive."""
    mats = [b for b in batches if len(b)]
    if len(mats) == 1:
        idx = mats[0].index
        if isinstance(idx, pd.RangeIndex) and idx.start == 0 and idx.step == 1:
            return mats[0]
    if mats:
        return pd.concat(mats, ignore_index=True)
    for b in batches:
        return b.iloc[:0]
    return pd.DataFrame(columns=list(columns or []))


def object_column(values: Sequence[Any]) -> np.ndarray:
    """``values`` as an object array, each stored as is (a ``RowVector`` is
    never unpacked). Framing it costs a fraction of
    ``pd.Series(values, dtype=object)``, which every nested-plan invocation
    would otherwise pay several times."""
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out
