"""Comparator engines for the TPC-H evaluation (paper Fig. 9).

* ``presto_sim`` — a generic *interpreted* SQL engine: the same plans in
  the same distributed stages, run by the one evaluator at one tuple per
  batch (``batch_size=1``). Stands in for Presto (per-tuple dispatch, no
  compilation) — the paper's 6–9x gap is interpretation vs compilation.
* ``memsql_sim`` — a specialized *compiled* in-memory SQL engine: native
  Spark SQL (Catalyst + whole-stage codegen) over cached tables with
  broadcast joins enabled. Stands in for MemSQL.
"""
from repro.engines.presto_sim import run_presto_sim  # noqa: F401
from repro.engines.memsql_sim import MemSqlSim  # noqa: F401
