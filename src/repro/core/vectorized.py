"""The evaluator of sub-operator plans — the JIT-compilation analogue.

Executes a sub-operator plan over ``RowVector`` batches of numpy columns;
it is the only evaluator. Where the paper lowers each pipeline to LLVM IR
(removing per-tuple function calls from inner loops), this evaluator
removes the per-tuple Python dispatch by running each operator's numpy
kernel over whole batches. The data kernels themselves (radix scatter,
direct-address build/probe, sort-and-reduceat grouping) are the ones the
monolithic baselines call (``repro.core.radix``), so what remains of the
"cost of modularity" the paper quantifies (12–28 %) is per invocation: the
operator generators and the small batches passed between them, paid by
every nested-plan invocation (17 per rank in the Fig. 6a join). That work
holds the GIL, so on the simulated cluster it also serializes the ranks;
a batch is a dict of arrays, and operators pass a lone batch on without
copying it (kernels never modify a batch they receive).

The iteration itself is ``Plan.run``, and a nested plan is called through
``Plan.invoke`` on a one-tuple batch; the functions here are the public
edge, which boxes a dict of plan parameters once into that one-tuple batch.
Network operators execute against the MPI-style communicator in the
context; this is the evaluator the ThreadBackend runs on every rank, and
the one the Spark lowering embeds inside pandas UDFs for nested plans.
``ExecContext.batch_size`` sets how many tuples a scan passes per batch:
None (one batch per collection) for the vectorized engine, 1 for the
per-tuple Presto stand-in (``repro.engines.presto_sim``).
"""
from __future__ import annotations

from typing import Iterator, List, Optional

import pandas as pd

from repro.core.ops.base import ExecContext
from repro.core.plan import Plan
from repro.core.types import RowVector, concat, one_tuple


def iter_batches(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> Iterator[RowVector]:
    """Execute ``plan`` on the parameter tuple ``params`` and return its
    result batches."""
    ctx = ctx or ExecContext()
    return plan.run(ctx if params is None else ctx.child(one_tuple(params)))


def run_to_pdf(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> pd.DataFrame:
    """Execute ``plan`` and return all result tuples as one DataFrame."""
    return concat(list(iter_batches(plan, ctx, params))).to_pandas()


def run_rows(
    plan: Plan, ctx: Optional[ExecContext] = None, params: Optional[dict] = None
) -> List[dict]:
    """Execute ``plan`` and return its result tuples as row dicts."""
    return list(concat(list(iter_batches(plan, ctx, params))).iter_rows())
