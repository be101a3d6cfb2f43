"""Plan DAG: validation, type propagation, and pipeline cutting.

A plan is a DAG of sub-operators rooted at one operator. Before execution
the DAG is cut into tree-shaped *pipelines* at materialization points
(operators with several consumers, plus the root); inside a pipeline, the
sub-plan is a tree and runs in the iterator model (paper Section 3.2).
The evaluators materialize multi-consumer results exactly at these points.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.ops.base import SubOperator
from repro.core.ops.orchestration import ParameterLookup
from repro.core.types import INT64, TupleType


class Plan:
    """A DAG of sub-operators with a single root."""

    def __init__(self, root: SubOperator, name: str = "") -> None:
        self.root = root
        self.name = name
        self._ops = _topo(root)

    def operators(self) -> List[SubOperator]:
        """All operators of this plan (not nested plans), topological order."""
        return list(self._ops)

    def consumer_counts(self) -> Dict[SubOperator, int]:
        counts: Dict[SubOperator, int] = {op: 0 for op in self._ops}
        for op in self._ops:
            for u in op.upstreams:
                counts[u] += 1
        return counts

    def materialization_points(self) -> List[SubOperator]:
        """Operators whose result is materialized: multi-consumer ops + root."""
        counts = self.consumer_counts()
        pts = [op for op in self._ops if counts[op] > 1]
        if self.root not in pts:
            pts.append(self.root)
        return pts

    def pipelines(self) -> List[List[SubOperator]]:
        """Cut the DAG into tree-shaped pipelines. Each pipeline ends at a
        materialization point and contains every operator reachable upward
        without crossing another materialization point."""
        mat = set(self.materialization_points())
        out: List[List[SubOperator]] = []
        for end in self.materialization_points():
            seen: List[SubOperator] = []

            def walk(op: SubOperator) -> None:
                seen.append(op)
                for u in op.upstreams:
                    if u not in mat:
                        walk(u)

            walk(end)
            out.append(seen)
        return out

    def op_types(
        self, param_type: Optional[TupleType] = None
    ) -> Dict[SubOperator, Optional[TupleType]]:
        """Static output type of every operator of this plan (None where
        dynamic). ``param_type`` types the ParameterLookups that declare
        none."""
        types: Dict[SubOperator, Optional[TupleType]] = {}
        for op in self._ops:
            if isinstance(op, ParameterLookup):
                types[op] = op.declared_type or param_type
            else:
                in_types = [types[u] for u in op.upstreams]
                if in_types:
                    _check_reads(op, in_types[0])
                types[op] = op.out_type(in_types)
        return types

    def out_type(self, param_type: Optional[TupleType] = None) -> Optional[TupleType]:
        """Best-effort static type propagation (None where dynamic). Every
        column an operator's expressions read must be an int64 column of
        its first upstream's type, where that type is known; otherwise
        typing raises ``TypeError`` naming the operator and the column."""
        return self.op_types(param_type)[self.root]

    def render(self) -> str:
        """Compact textual rendering of the DAG (for docs and debugging),
        with each operator's expressions, e.g. ``EX(2,3,4)[pid=pmod(k, 8)]``."""
        ids = {op: i for i, op in enumerate(self._ops)}
        lines = []
        for op in self._ops:
            ups = ",".join(str(ids[u]) for u in op.upstreams)
            exprs = "; ".join(f"{name}={e}" for name, e in op.exprs().items())
            exprs = f"[{exprs}]" if exprs else ""
            nested = ""
            if hasattr(op, "nested_plan"):
                nested = " {" + op.nested_plan.render().replace("\n", "; ") + "}"
            lines.append(f"#{ids[op]} {op.op_name}({ups}){exprs}{nested}")
        return "\n".join(lines)


def _check_reads(op: SubOperator, in_type: Optional[TupleType]) -> None:
    """Raise ``TypeError`` if an expression of ``op`` reads a column that
    ``in_type`` (None: unknown, not checked) lacks or that is not int64."""
    if in_type is None:
        return
    for name, e in op.exprs().items():
        for c in e.columns():
            if c not in in_type.names:
                raise TypeError(
                    f"{type(op).__name__} expression {name}={e} reads column {c!r}, "
                    f"which its input {in_type!r} lacks"
                )
            if in_type.field_type(c) != INT64:
                raise TypeError(
                    f"{type(op).__name__} expression {name}={e} reads column {c!r} of "
                    f"type {in_type.field_type(c)!r}, not int64"
                )


def _topo(root: SubOperator) -> List[SubOperator]:
    order: List[SubOperator] = []
    seen: set = set()
    stack_guard: set = set()

    def visit(op: SubOperator) -> None:
        if id(op) in seen:
            return
        if id(op) in stack_guard:
            raise ValueError("plan contains a cycle")
        stack_guard.add(id(op))
        for u in op.upstreams:
            visit(u)
        stack_guard.discard(id(op))
        seen.add(id(op))
        order.append(op)

    visit(root)
    return order
