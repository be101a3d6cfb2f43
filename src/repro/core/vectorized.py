"""The evaluator of sub-operator plans — the JIT-compilation analogue.

Executes a sub-operator plan over ``RowVector`` batches of numpy columns;
it is the only evaluator. Where the paper lowers each pipeline to LLVM IR
(removing per-tuple function calls from inner loops), this evaluator
removes the per-tuple Python dispatch by running each operator's numpy
kernel over whole batches. The data kernels themselves (radix scatter,
sort-merge build/probe, sort-and-reduceat grouping) are the ones the
monolithic baselines call (``repro.core.radix``), so what remains of the
"cost of modularity" the paper quantifies (12–28 %) is per invocation: the
operator generators and the small batches passed between them, paid by
every nested-plan invocation (17 per rank in the Fig. 6a join). That work
holds the GIL, so on the simulated cluster it also serializes the ranks;
a batch is a dict of arrays, and operators pass a lone batch on without
copying it (kernels never modify a batch they receive).

Network operators execute here against the MPI-style communicator in the
context; this is the evaluator the ThreadBackend runs on every rank, and
the one the Spark lowering embeds inside pandas UDFs for nested plans.
``ExecContext.batch_size`` sets how many tuples a scan passes per batch:
None (one batch per collection) for the vectorized engine, 1 for the
per-tuple Presto stand-in (``repro.engines.presto_sim``).
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import pandas as pd

from repro.core.ops.base import ExecContext, SubOperator
from repro.core.plan import Plan
from repro.core.types import RowVector, concat


def iter_batches(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> Iterator[RowVector]:
    ctx = _prepare(ctx, params)
    return _stream(plan.root, ctx, plan.consumer_counts(), {})


Consumers = Dict[SubOperator, int]
Cache = Dict[SubOperator, List[RowVector]]


# Module-level functions rather than nested closures: two closures calling
# each other form a reference cycle that would keep the context (and with it
# a finished cluster's windows) and the cache alive until the cyclic GC runs.
def _stream(op: SubOperator, ctx: ExecContext, consumers: Consumers, cache: Cache) -> Iterator[RowVector]:
    if consumers[op] > 1:
        if op not in cache:
            cache[op] = list(_generate(op, ctx, consumers, cache))
        return iter(cache[op])
    return _generate(op, ctx, consumers, cache)


def _generate(op: SubOperator, ctx: ExecContext, consumers: Consumers, cache: Cache) -> Iterator[RowVector]:
    ups = [_stream(u, ctx, consumers, cache) for u in op.upstreams]
    gen = op.batches(ctx, ups)
    if ctx.profiler is not None:
        gen = ctx.profiler.wrap(op, gen)
    return gen


def run_to_pdf(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> pd.DataFrame:
    """Execute ``plan`` and return all result tuples as one DataFrame."""
    return concat(list(iter_batches(plan, ctx, params))).to_pandas()


def run_rows(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> List[dict]:
    """Execute ``plan`` and return row dicts (the nested-plan hook)."""
    return list(concat(list(iter_batches(plan, ctx, params))).iter_rows())


def _prepare(ctx: Optional[ExecContext], params: Optional[dict]) -> ExecContext:
    ctx = ctx or ExecContext()
    if params is not None:
        ctx = ctx.child(params)
    if ctx.run_nested is None:
        ctx.run_nested = run_rows
    return ctx
