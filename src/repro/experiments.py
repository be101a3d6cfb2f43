"""Experiment harnesses reproducing the paper's evaluation artifacts.

One function per evaluation artifact (Table 1, Figs. 6–9); jobs/* are thin
spark-submit wrappers around these and benchmarks/* time the same calls via
pytest-benchmark. Every function returns a list of row-dicts and is printed
as an aligned text table by :func:`format_table` so the paper's numbers can
be diffed side by side (recorded in EXPERIMENTS.md).
"""
from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import pandas as pd

from repro import sloc
from repro.core.lower import lower_distributed_plan, run_distributed_on_spark
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.modular.join_sequence import naive_sequence_plan, optimized_sequence_plan, relation_fields, value_fields
from repro.modular.model import model_phase_times
from repro.monolithic import run_monolithic_groupby, run_monolithic_join
from repro.monolithic.spark import run_monolithic_join_spark
from repro.mpi.thread_backend import run_on_sim
from repro.synth_data import dense_kv_pdf

PHASES = (
    "local_histogram", "global_histogram", "network_partitioning",
    "local_partitioning", "build_probe", "materialize",
)


def timeit(fn: Callable[[], object], repeat: int = 3, warmup: int = 1) -> float:
    """Average wall seconds over ``repeat`` runs after ``warmup`` runs
    (the paper reports averages of 5 runs after a warm run)."""
    for _ in range(warmup):
        fn()
    total = 0.0
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        total += perf_counter() - t0
    return total / repeat


def format_table(rows: List[dict], title: str = "") -> str:
    if not rows:
        return f"== {title} ==\n(no rows)"
    cols = list(rows[0].keys())
    cells = [[_fmt(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}" if abs(v) < 100 else f"{v:.1f}"
    return str(v)


# ---------------------------------------------------------------------------
# Table 1 — SLOC per operator
# ---------------------------------------------------------------------------

def table1_rows() -> List[dict]:
    rows = [
        {"operator": name, "abbr": abbr, "sloc_ours": ours, "sloc_paper": paper}
        for name, abbr, ours, paper in sloc.operator_sloc()
    ]
    s = sloc.summary()
    rows.append({"operator": "TOTAL (modular)", "abbr": "", "sloc_ours": s["modular_total"],
                 "sloc_paper": sloc.PAPER_MODULAR_TOTAL})
    rows.append({"operator": "monolithic join+groupby", "abbr": "", "sloc_ours": s["monolithic_total"],
                 "sloc_paper": sloc.PAPER_MONOLITHIC_TOTAL})
    rows.append({"operator": "platform-specific (ME+EX+MH)", "abbr": "", "sloc_ours": s["platform_specific"],
                 "sloc_paper": sloc.PAPER_PLATFORM_SPECIFIC})
    rows.append({"operator": "portability factor", "abbr": "",
                 "sloc_ours": round(s["portability_factor"], 2),
                 "sloc_paper": sloc.PAPER_PORTABILITY_FACTOR})
    return rows


# ---------------------------------------------------------------------------
# Fig. 6a — distributed join phase breakdown (simulated MPI cluster)
# ---------------------------------------------------------------------------

def fig6a_breakdown(n_rows: int = 1 << 21, machines: Sequence[int] = (4, 8)) -> List[dict]:
    """Per-phase seconds (average per rank) of the monolithic join, the
    isolated-operator model and the full modular plan. Both joins call the
    same kernels (``repro.core.radix``), so the modular plan's extra time
    is its per-invocation overhead, which shrinks relative to the data
    work as ``n_rows`` grows."""
    rows: List[dict] = []
    for m in machines:
        cfg = JoinConfig(n_net=m, loc_bits=4, compress=True, p_bits=27)
        r = dense_kv_pdf(n_rows, value_field="vr", seed=80)
        s = dense_kv_pdf(n_rows, value_field="vs", seed=81)
        _, mono = run_monolithic_join(m, r, s, cfg)
        model = model_phase_times(m, r, s, cfg)
        plan = distributed_join_plan(cfg)
        _, mod = run_on_sim(plan, m, {"R": r, "S": s}, profile=True)
        for phase in PHASES:
            rows.append({
                "machines": m, "phase": phase,
                "monolithic_s": mono["phase_seconds"].get(phase, 0.0),
                "model_s": model.get(phase, 0.0),
                "modularis_s": mod["phase_seconds"].get(phase, 0.0),
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 6b — join total runtime vs machines (Spark lowering)
# ---------------------------------------------------------------------------

def fig6b_totals(
    spark, n_rows: int = 1 << 19, machines: Sequence[int] = (1, 2, 4, 8), repeat: int = 3
) -> List[dict]:
    r = dense_kv_pdf(n_rows, value_field="vr", seed=82)
    s = dense_kv_pdf(n_rows, value_field="vs", seed=83)
    r_df = spark.createDataFrame(r).cache()
    s_df = spark.createDataFrame(s).cache()
    r_df.count(), s_df.count()
    rows = []
    try:
        for m in machines:
            cfg = JoinConfig(n_net=m, loc_bits=3, compress=True, p_bits=27)
            t_mono = timeit(lambda: run_monolithic_join_spark(spark, r_df, s_df, cfg).count(), repeat)
            plan = distributed_join_plan(cfg)
            t_mod = timeit(
                lambda: run_distributed_on_spark(spark, plan, {"R": r_df, "S": s_df}).count(),
                repeat,
            )
            rows.append({
                "machines": m, "monolithic_s": t_mono, "modularis_s": t_mod,
                "overhead_pct": 100.0 * (t_mod - t_mono) / t_mono,
            })
    finally:
        r_df.unpersist(), s_df.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Fig. 7 — distributed GROUP BY scaling (Spark lowering)
# ---------------------------------------------------------------------------

def fig7_groupby(
    spark,
    n_rows: int = 1 << 19,
    machines: Sequence[int] = (1, 2, 4, 8),
    multiplicities: Sequence[int] = (1, 2, 4, 8),
    repeat: int = 2,
) -> List[dict]:
    rows = []
    # left plot: vary machines, every key once
    t = dense_kv_pdf(n_rows, seed=84)
    t_df = spark.createDataFrame(t).cache()
    t_df.count()
    try:
        for m in machines:
            cfg = JoinConfig(n_net=m, loc_bits=3, compress=True, p_bits=27)
            plan = distributed_groupby_plan(cfg)
            secs = timeit(lambda: run_distributed_on_spark(spark, plan, {"T": t_df}).count(), repeat)
            rows.append({"sweep": "machines", "machines": m, "multiplicity": 1, "seconds": secs})
    finally:
        t_df.unpersist()
    # right plot: vary key multiplicity for several cluster sizes
    for mult in multiplicities:
        t = dense_kv_pdf(n_rows, multiplicity=mult, seed=85)
        t_df = spark.createDataFrame(t).cache()
        t_df.count()
        try:
            for m in (2, 4, 8):
                cfg = JoinConfig(n_net=m, loc_bits=3, compress=True, p_bits=27)
                plan = distributed_groupby_plan(cfg)
                secs = timeit(lambda: run_distributed_on_spark(spark, plan, {"T": t_df}).count(), repeat)
                rows.append({"sweep": "multiplicity", "machines": m, "multiplicity": mult, "seconds": secs})
        finally:
            t_df.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 — sequences of joins
# ---------------------------------------------------------------------------

def _seq_relations(n_joins: int, n_rows: int, mult_first: int = 1) -> Dict[str, pd.DataFrame]:
    rels = {}
    for i, (f, v) in enumerate(zip(relation_fields(n_joins), value_fields(n_joins))):
        rels[f] = dense_kv_pdf(
            n_rows, value_field=v, seed=90 + i, multiplicity=mult_first if i <= 1 else 1
        )
    return rels


def fig8a_machines(
    n_rows: int = 1 << 17, machines: Sequence[int] = (2, 4, 8), repeat: int = 2
) -> List[dict]:
    """Naive vs optimized sequence of 2 joins across cluster sizes
    (simulated MPI backend)."""
    rows = []
    rels = _seq_relations(2, n_rows)
    for m in machines:
        cfg = JoinConfig(n_net=m, loc_bits=2)
        t_naive = timeit(lambda: run_on_sim(naive_sequence_plan(cfg, 2), m, rels), repeat, warmup=0)
        t_opt = timeit(lambda: run_on_sim(optimized_sequence_plan(cfg, 2), m, rels), repeat, warmup=0)
        rows.append({"machines": m, "naive_s": t_naive, "optimized_s": t_opt,
                     "speedup": t_naive / t_opt})
    return rows


def fig8bc_output_size(
    n_rows: int = 1 << 16, mults: Sequence[int] = (1, 2, 4, 8), machines: int = 8
) -> List[dict]:
    """Total runtime (8b) and network partitioning time + bytes (8c) as the
    first join's output grows."""
    rows = []
    for mult in mults:
        rels = _seq_relations(2, n_rows, mult_first=mult)
        out_n, infos = {}, {}
        for name, builder in (("naive", naive_sequence_plan), ("optimized", optimized_sequence_plan)):
            cfg = JoinConfig(n_net=machines, loc_bits=2)
            t0 = perf_counter()
            out, info = run_on_sim(builder(cfg, 2), machines, rels, profile=True)
            secs = perf_counter() - t0
            out_n[name] = len(out)
            infos[name] = (secs, info)
        assert out_n["naive"] == out_n["optimized"]
        rows.append({
            "join1_output_x": mult, "rows_out": out_n["naive"],
            "naive_total_s": infos["naive"][0],
            "optimized_total_s": infos["optimized"][0],
            "naive_network_s": infos["naive"][1]["phase_seconds"].get("network_partitioning", 0.0),
            "optimized_network_s": infos["optimized"][1]["phase_seconds"].get("network_partitioning", 0.0),
            "naive_net_bytes": infos["naive"][1]["bytes_put"],
            "optimized_net_bytes": infos["optimized"][1]["bytes_put"],
        })
    return rows


def fig8d_num_joins(
    n_rows: int = 1 << 16, joins: Sequence[int] = (1, 2, 3), machines: int = 4, repeat: int = 2
) -> List[dict]:
    rows = []
    for n in joins:
        rels = _seq_relations(n, n_rows)
        cfg = JoinConfig(n_net=machines, loc_bits=2)
        t_naive = timeit(lambda: run_on_sim(naive_sequence_plan(cfg, n), machines, rels), repeat, warmup=0)
        t_opt = timeit(lambda: run_on_sim(optimized_sequence_plan(cfg, n), machines, rels), repeat, warmup=0)
        rows.append({"n_joins": n, "naive_s": t_naive, "optimized_s": t_opt,
                     "diff_s": t_naive - t_opt})
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — TPC-H: Modularis vs Presto-sim vs MemSQL-sim
# ---------------------------------------------------------------------------

def fig9_tpch(spark, sf: float = 0.1, repeat: int = 3, queries: Optional[Sequence[str]] = None) -> List[dict]:
    from repro.engines import MemSqlSim, run_presto_sim
    from repro.queries import QUERIES
    from repro.synth_data import lineitem, orders, part

    tables = {
        "lineitem": lineitem(spark, sf=sf).cache(),
        "orders": orders(spark, sf=sf).cache(),
        "part": part(spark, sf=sf).cache(),
    }
    for df in tables.values():
        df.count()
    cfg = JoinConfig(n_net=8, loc_bits=3)
    memsql = MemSqlSim(spark, tables)
    rows = []
    try:
        for q in QUERIES:
            if queries and q.name not in queries:
                continue
            relations = {f: tables[t] for f, t in q.table_map.items()}
            plan = q.build_plan(cfg)
            t_mod = timeit(
                lambda: run_distributed_on_spark(spark, plan, relations).collect(),
                repeat,
            )
            # the interpreted engine is 1-2 orders of magnitude slower; a
            # single cold run suffices (variance is tiny relative to the gap)
            t_presto = timeit(
                lambda: run_presto_sim(spark, q, tables, cfg).collect(), repeat=1, warmup=0
            )
            t_memsql = timeit(lambda: memsql.run(q.sql), repeat)
            rows.append({
                "query": q.name, "modularis_s": t_mod, "presto_sim_s": t_presto,
                "memsql_sim_s": t_memsql,
                "speedup_vs_presto": t_presto / t_mod,
                "slowdown_vs_memsql": t_mod / t_memsql,
            })
    finally:
        memsql.close()
        for df in tables.values():
            df.unpersist()
    return rows
