"""Orchestration sub-operators: ParameterLookup and NestedMap.

These express high-level control flow *as operators* (design principle 3):
nested plans replace imperative loops over partitions, so partition-unaware
sub-operators can be reused at any nesting level.
"""
from __future__ import annotations

from typing import Iterator

from repro.core.ops.base import ExecContext, SubOperator
from repro.core.types import RowVector, TupleType, concat


class ParameterLookup(SubOperator):
    """Returns the plan input (the parameter tuple of the enclosing scope).

    The only operator aware of plan inputs; has no upstreams and produces a
    single tuple of arbitrary type (paper Section 3.3.1). Its type is its
    plan's parameter type, which ``Plan.op_types`` gives it.
    """

    op_name = "PL"

    def __init__(self) -> None:
        super().__init__()

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        if ctx.params is None:
            raise RuntimeError("ParameterLookup evaluated without plan parameters")
        yield ctx.params


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

    def out_type(self, in_types) -> TupleType:
        return self.nested_plan.out_type(param_type=in_types[0])

    def batches(self, ctx: ExecContext, ups) -> Iterator[RowVector]:
        invoke = self.nested_plan.invoke
        for b in filter(len, ups[0]):
            yield concat([invoke(ctx.child(b.take(slice(i, i + 1))), "NestedMap") for i in range(len(b))])
