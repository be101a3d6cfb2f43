"""Orchestration sub-operators: ParameterLookup and NestedMap.

These express high-level control flow *as operators* (design principle 3):
nested plans replace imperative loops over partitions, so partition-unaware
sub-operators can be reused at any nesting level.
"""
from __future__ import annotations

from typing import Iterator, Optional

import pandas as pd

from repro.core.ops.base import ExecContext, SubOperator, object_column
from repro.core.types import RowVector, TupleType


class ParameterLookup(SubOperator):
    """Returns the plan input (the parameter tuple of the enclosing scope).

    The only operator aware of plan inputs; has no upstreams and produces a
    single tuple of arbitrary type (paper Section 3.3.1).
    """

    op_name = "PL"

    def __init__(self, declared_type: Optional[TupleType] = None) -> None:
        super().__init__(())
        self.declared_type = declared_type

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.declared_type

    def batches(self, ctx: ExecContext, ups) -> Iterator[pd.DataFrame]:
        if ctx.params is None:
            raise RuntimeError("ParameterLookup evaluated without plan parameters")
        yield pd.DataFrame({k: object_column([v]) for k, v in ctx.params.items()}, copy=False)


class NestedMap(SubOperator):
    """Executes a nested plan independently on each input tuple.

    Each invocation produces exactly one output tuple (the nested plan must
    end in ``MaterializeRowVector``), so NestedMap emits one tuple per input
    tuple; nested collections in the result are unnested downstream with
    ``RowScan``.
    """

    op_name = "NM"

    def __init__(self, upstream: SubOperator, nested_plan) -> None:
        super().__init__([upstream])
        self.nested_plan = nested_plan

    def out_type(self, in_types) -> Optional[TupleType]:
        return self.nested_plan.out_type(param_type=in_types[0])

    def batches(self, ctx: ExecContext, ups) -> Iterator[pd.DataFrame]:
        for pdf in ups[0]:
            outs = [
                _single(ctx.run_nested(self.nested_plan, ctx.child(t)), "NestedMap")
                for t in RowVector(pdf).iter_rows()
            ]
            if outs:
                yield pd.DataFrame(
                    {k: object_column([o[k] for o in outs]) for k in outs[0]}, copy=False
                )


def _single(out_rows, owner: str) -> dict:
    """The one tuple a nested plan run by ``owner`` produced."""
    out_rows = list(out_rows)
    if len(out_rows) != 1:
        raise RuntimeError(
            f"nested plan of {owner} must produce exactly one "
            f"tuple (got {len(out_rows)}); end nested plans with "
            "MaterializeRowVector"
        )
    return out_rows[0]
