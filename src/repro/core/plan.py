"""Plan DAG: validation, type propagation, and evaluation.

A plan is a DAG of sub-operators rooted at one operator. ``Plan`` is the
evaluator's one entry point: each operator's ``batches`` kernel pulls from
its upstreams' iterators (the iterator model, paper Section 3.2), and an
operator with several consumers is materialized once per run, its batches
replayed to every consumer. The multi-consumer set is computed once per
plan; the cache of materialized results lives for one run.

``collect`` evaluates the plan and concatenates the root's batches; it
takes the plan's parameter tuple as a dict, boxed once into the one-tuple
batch ``ParameterLookup`` returns. A nested plan (of ``NestedMap``,
``MpiExecutor``, or the Spark lowering's nested-plan UDF) is called
through ``invoke``: it runs on the one-tuple batch ``ctx.params`` and
returns its one result tuple as a one-tuple batch, so parameters and
results keep their column dtypes.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional

from repro.core.ops.base import ExecContext, SubOperator
from repro.core.ops.orchestration import ParameterLookup
from repro.core.types import INT64, RowVector, TupleType, concat, one_tuple


class Plan:
    """A DAG of sub-operators with a single root."""

    def __init__(self, root: SubOperator, name: str = "") -> None:
        self.root = root
        self.name = name
        self._ops = _topo(root)
        consumers = Counter(u for op in self._ops for u in op.upstreams)
        self._shared = frozenset(op for op, n in consumers.items() if n > 1)

    def operators(self) -> List[SubOperator]:
        """All operators of this plan (not nested plans), topological order."""
        return list(self._ops)

    def collect(self, ctx: Optional[ExecContext] = None, params: Optional[dict] = None) -> RowVector:
        """All result tuples as one batch, evaluated on ``ctx`` (default: a
        fresh context) with the parameter tuple ``params`` (field name to
        value) if given, else on ``ctx.params``."""
        ctx = ctx or ExecContext()
        if params is not None:
            ctx = ctx.child(one_tuple(params))
        return concat(list(_stream(self.root, ctx, self._shared, {})))

    def invoke(self, ctx: ExecContext, owner: str) -> RowVector:
        """Run this plan as the nested plan of ``owner`` on the one-tuple
        batch ``ctx.params``; return its one result tuple as a one-tuple
        batch."""
        out = self.collect(ctx)
        if len(out) != 1:
            raise RuntimeError(
                f"nested plan of {owner} must produce exactly one "
                f"tuple (got {len(out)}); end nested plans with "
                "MaterializeRowVector"
            )
        return out

    def op_types(self, param_type: TupleType) -> Dict[SubOperator, TupleType]:
        """Static output type of every operator of this plan, nested plans
        typed through their operators' ``out_type``. Every ParameterLookup
        has the type of the plan's one parameter tuple, ``param_type``.
        Every column an operator's expressions read must be an int64
        column of its first upstream's type; otherwise typing raises
        ``TypeError`` naming the operator and the column."""
        types: Dict[SubOperator, TupleType] = {}
        for op in self._ops:
            if isinstance(op, ParameterLookup):
                types[op] = param_type
                continue
            in_types = [types[u] for u in op.upstreams]
            for name, e in op.exprs().items():
                in_types[0].check_fields(f"{type(op).__name__} expression {name}={e}", e.columns(), INT64)
            types[op] = op.out_type(in_types)
        return types

    def out_type(self, param_type: TupleType) -> TupleType:
        """The root's static type (``op_types``)."""
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


Cache = Dict[SubOperator, List[RowVector]]


# Module-level functions rather than nested closures: two closures calling
# each other form a reference cycle that would keep the context (and with it
# a finished cluster's windows) and the cache alive until the cyclic GC runs.
def _stream(op: SubOperator, ctx: ExecContext, shared: frozenset, cache: Cache) -> Iterator[RowVector]:
    if op in shared:
        if op not in cache:
            cache[op] = list(_generate(op, ctx, shared, cache))
        return iter(cache[op])
    return _generate(op, ctx, shared, cache)


def _generate(op: SubOperator, ctx: ExecContext, shared: frozenset, cache: Cache) -> Iterator[RowVector]:
    ups = [_stream(u, ctx, shared, cache) for u in op.upstreams]
    gen = op.batches(ctx, ups)
    if ctx.profiler is not None:
        gen = ctx.profiler.wrap(op, gen)
    return gen


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
