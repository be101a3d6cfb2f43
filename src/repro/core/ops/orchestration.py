"""Orchestration sub-operators: ParameterLookup and NestedMap.

These express high-level control flow *as operators* (design principle 3):
nested plans replace imperative loops over partitions, so partition-unaware
sub-operators can be reused at any nesting level.
"""
from __future__ import annotations

from typing import Iterator, Optional

from repro.core.ops.base import ExecContext, SubOperator
from repro.core.types import RowVector, TupleType, object_column


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

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        if ctx.params is None:
            raise RuntimeError("ParameterLookup evaluated without plan parameters")
        yield RowVector({k: object_column([v]) for k, v in ctx.params.items()})


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

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        for b in ups[0]:
            outs = [
                _single(ctx.run_nested(self.nested_plan, ctx.child(t)), "NestedMap")
                for t in b.iter_rows()
            ]
            if outs:
                yield tuples(outs)


def tuples(rows) -> RowVector:
    """The batch of the row dicts ``rows``, each value stored as is."""
    return RowVector({k: object_column([r[k] for r in rows]) for k in rows[0]})


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
