"""Experiment harnesses reproducing the paper's evaluation artifacts.

One function per evaluation artifact (Table 1, Figs. 6–9); jobs/* are thin
spark-submit wrappers around these. Every timing goes through
:func:`timeit`. Every function returns a list of row-dicts and is printed
as an aligned text table by :func:`format_table` so the paper's numbers can
be diffed side by side (recorded in EXPERIMENTS.md).
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro import sloc
from repro.core import profiling
from repro.core.lower import lower_distributed_plan
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.modular.join_sequence import naive_sequence_plan, optimized_sequence_plan, relation_fields, value_fields
from repro.modular.model import model_phase_times
from repro.monolithic import run_monolithic_groupby, run_monolithic_join
from repro.monolithic.spark import run_monolithic_join_spark
from repro.mpi.thread_backend import run_on_sim
from repro.synth_data import dense_kv_pdf

#: the phases Fig. 6a breaks a join into: every profiled phase but "other"
PHASES = tuple(p for p in profiling.PHASES if p != "other")


def timeit(*fns: Callable[[], object], repeat: int = 3, warmup: int = 1) -> List[float]:
    """Median wall seconds of each callable over ``repeat`` rounds after
    ``warmup`` rounds. Each round runs every callable once, in the order
    given, so host drift during the measurement falls on all of them
    alike. The paper averages 5 warm runs; the median is used here because
    CPU steal on a shared host slows single runs by up to 3×."""
    for _ in range(warmup):
        for fn in fns:
            fn()
    secs = np.empty((repeat, len(fns)))
    for i in range(repeat):
        for j, fn in enumerate(fns):
            t0 = perf_counter()
            fn()
            secs[i, j] = perf_counter() - t0
    return np.median(secs, axis=0).tolist()


@contextmanager
def cached(relations: Dict[str, DataFrame]) -> Iterator[Dict[str, DataFrame]]:
    """``relations``, each cached and counted before the body runs (so no
    timed query pays its creation), and unpersisted after it."""
    for df in relations.values():
        df.cache().count()
    try:
        yield relations
    finally:
        for df in relations.values():
            df.unpersist()


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
    rows.append({"operator": "Spark port (core/lower.py)", "abbr": "", "sloc_ours": s["spark_port_sloc"],
                 "sloc_paper": sloc.PAPER_PLATFORM_SPECIFIC})
    rows.append({"operator": "Spark portability factor", "abbr": "",
                 "sloc_ours": round(s["spark_portability_factor"], 2),
                 "sloc_paper": sloc.PAPER_PORTABILITY_FACTOR})
    return rows


# ---------------------------------------------------------------------------
# Fig. 6a — distributed join phase breakdown (simulated MPI cluster)
# ---------------------------------------------------------------------------

def fig6a_breakdown(
    n_rows: int = 1 << 21, machines: Sequence[int] = (4, 8), repeat: int = 3
) -> List[dict]:
    """Per-phase seconds (average per rank) of the monolithic join, the
    isolated-operator model and the full modular plan, each the median of
    ``repeat`` alternating profiled runs after a warm-up round. Both joins
    call the same kernels (``repro.core.radix``), so the modular plan's
    extra time is its per-invocation overhead, which shrinks relative to
    the data work as ``n_rows`` grows."""
    rows: List[dict] = []
    for m in machines:
        cfg = JoinConfig(n_net=m, loc_bits=4, compress=True, p_bits=27)
        r = dense_kv_pdf(n_rows, value_field="vr", seed=80)
        s = dense_kv_pdf(n_rows, value_field="vs", seed=81)
        plan = distributed_join_plan(cfg)
        runs = [
            (
                run_monolithic_join(m, r, s, cfg)[1]["phase_seconds"],
                model_phase_times(m, r, s, cfg),
                run_on_sim(plan, m, {"R": r, "S": s}, profile=True)[1]["phase_seconds"],
            )
            for _ in range(1 + repeat)
        ][1:]  # the first round warms up
        for phase in PHASES:
            mono, model, mod = np.median([[run.get(phase, 0.0) for run in rnd] for rnd in runs], axis=0)
            rows.append({"machines": m, "phase": phase,
                         "monolithic_s": mono, "model_s": model, "modularis_s": mod})
    return rows


def fig6a_fixed_cost(
    n_rows: int = 1 << 10, machines: Sequence[int] = (1, 4), repeat: int = 20
) -> List[dict]:
    """Fig. 6a's join at a size where almost all of the time is fixed
    cost: for the modular plan, its operator and nested-plan invocations.
    Monolithic and modular runs alternate, ``repeat`` rounds after two
    warm-up rounds; ``ratio`` is Modularis ÷ monolithic."""
    r = dense_kv_pdf(n_rows, value_field="vr", seed=80)
    s = dense_kv_pdf(n_rows, value_field="vs", seed=81)
    rows = []
    for m in machines:
        cfg = JoinConfig(n_net=m, loc_bits=4, compress=True, p_bits=27)
        plan = distributed_join_plan(cfg)
        t_mono, t_mod = timeit(
            lambda: run_monolithic_join(m, r, s, cfg),
            lambda: run_on_sim(plan, m, {"R": r, "S": s}),
            repeat=repeat, warmup=2,
        )
        rows.append({"machines": m, "monolithic_s": t_mono, "modularis_s": t_mod,
                     "ratio": t_mod / t_mono})
    return rows


# ---------------------------------------------------------------------------
# Fig. 6b — join total runtime vs machines (Spark lowering)
# ---------------------------------------------------------------------------

def fig6b_totals(
    spark, n_rows: int = 1 << 19, machines: Sequence[int] = (1, 2, 4, 8), repeat: int = 3
) -> List[dict]:
    r = dense_kv_pdf(n_rows, value_field="vr", seed=82)
    s = dense_kv_pdf(n_rows, value_field="vs", seed=83)
    rows = []
    with cached({"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}) as rels:
        for m in machines:
            cfg = JoinConfig(n_net=m, loc_bits=3, compress=True, p_bits=27)
            plan = distributed_join_plan(cfg)
            t_mono, t_mod = timeit(
                lambda: run_monolithic_join_spark(spark, rels["R"], rels["S"], cfg).count(),
                lambda: lower_distributed_plan(spark, plan, rels).result().count(),
                repeat=repeat,
            )
            rows.append({
                "machines": m, "monolithic_s": t_mono, "modularis_s": t_mod,
                "overhead_pct": 100.0 * (t_mod - t_mono) / t_mono,
            })
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

    def sweep(name: str, t: pd.DataFrame, multiplicity: int, cluster_sizes: Sequence[int]) -> None:
        with cached({"T": spark.createDataFrame(t)}) as rels:
            for m in cluster_sizes:
                plan = distributed_groupby_plan(JoinConfig(n_net=m, loc_bits=3, compress=True, p_bits=27))
                [secs] = timeit(lambda: lower_distributed_plan(spark, plan, rels).result().count(), repeat=repeat)
                rows.append({"sweep": name, "machines": m, "multiplicity": multiplicity, "seconds": secs})

    # left plot: vary machines, every key once
    sweep("machines", dense_kv_pdf(n_rows, seed=84), 1, machines)
    # right plot: vary key multiplicity for several cluster sizes
    for mult in multiplicities:
        sweep("multiplicity", dense_kv_pdf(n_rows, multiplicity=mult, seed=85), mult, (2, 4, 8))
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 — sequences of joins
# ---------------------------------------------------------------------------
# Each figure builds its plans once per configuration, outside the timed
# calls, so the times are execution only.

def _seq_relations(n_joins: int, n_rows: int, mult_first: int = 1) -> Dict[str, pd.DataFrame]:
    rels = {}
    for i, (f, v) in enumerate(zip(relation_fields(n_joins), value_fields(n_joins))):
        rels[f] = dense_kv_pdf(
            n_rows, value_field=v, seed=90 + i, multiplicity=mult_first if i <= 1 else 1
        )
    return rels


def fig8a_machines(
    n_rows: int = 1 << 17, machines: Sequence[int] = (2, 4, 8), repeat: int = 3
) -> List[dict]:
    """Naive vs optimized sequence of 2 joins across cluster sizes
    (simulated MPI backend), each the median of ``repeat`` alternating
    runs after a warm-up round."""
    rows = []
    rels = _seq_relations(2, n_rows)
    for m in machines:
        cfg = JoinConfig(n_net=m, loc_bits=2)
        naive_plan, opt_plan = naive_sequence_plan(cfg, 2), optimized_sequence_plan(cfg, 2)
        t_naive, t_opt = timeit(
            lambda: run_on_sim(naive_plan, m, rels),
            lambda: run_on_sim(opt_plan, m, rels),
            repeat=repeat,
        )
        rows.append({"machines": m, "naive_s": t_naive, "optimized_s": t_opt,
                     "speedup": t_naive / t_opt})
    return rows


def fig8bc_output_size(
    n_rows: int = 1 << 16, mults: Sequence[int] = (1, 2, 4, 8), machines: int = 8
) -> List[dict]:
    """Total runtime (8b; median of alternating runs after a warm-up
    round) and network partitioning time + bytes (8c; one profiled run) as
    the first join's output grows."""
    rows = []
    cfg = JoinConfig(n_net=machines, loc_bits=2)
    naive_plan, opt_plan = naive_sequence_plan(cfg, 2), optimized_sequence_plan(cfg, 2)
    for mult in mults:
        rels = _seq_relations(2, n_rows, mult_first=mult)
        out_naive, naive = run_on_sim(naive_plan, machines, rels, profile=True)
        out_opt, opt = run_on_sim(opt_plan, machines, rels, profile=True)
        assert len(out_naive) == len(out_opt)
        t_naive, t_opt = timeit(
            lambda: run_on_sim(naive_plan, machines, rels),
            lambda: run_on_sim(opt_plan, machines, rels),
        )
        rows.append({
            "join1_output_x": mult, "rows_out": len(out_naive),
            "naive_total_s": t_naive,
            "optimized_total_s": t_opt,
            "naive_network_s": naive["phase_seconds"].get("network_partitioning", 0.0),
            "optimized_network_s": opt["phase_seconds"].get("network_partitioning", 0.0),
            "naive_net_bytes": naive["bytes_put"],
            "optimized_net_bytes": opt["bytes_put"],
        })
    return rows


def fig8d_num_joins(
    n_rows: int = 1 << 16, joins: Sequence[int] = (1, 2, 3), machines: int = 4, repeat: int = 21
) -> List[dict]:
    """Naive vs optimized sequence of 1..3 joins on ``machines`` ranks.
    Each of ``repeat`` rounds, after a warm-up round, runs naive then
    optimized; the cells are each side's median, the median of the
    per-round differences and their interquartile range."""
    rows = []
    for n in joins:
        rels = _seq_relations(n, n_rows)
        cfg = JoinConfig(n_net=machines, loc_bits=2)
        naive_plan, opt_plan = naive_sequence_plan(cfg, n), optimized_sequence_plan(cfg, n)
        rounds = np.array([
            timeit(
                lambda: run_on_sim(naive_plan, machines, rels),
                lambda: run_on_sim(opt_plan, machines, rels),
                repeat=1, warmup=int(i == 0),
            )
            for i in range(repeat)
        ])
        t_naive, t_opt = np.median(rounds, axis=0)
        q1, diff, q3 = np.percentile(rounds[:, 0] - rounds[:, 1], [25, 50, 75])
        rows.append({"n_joins": n, "naive_s": t_naive, "optimized_s": t_opt,
                     "diff_s": diff, "diff_iqr_s": q3 - q1})
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — TPC-H: Modularis vs Presto-sim vs MemSQL-sim
# ---------------------------------------------------------------------------

def fig9_tpch(spark, sf: float = 0.1, repeat: int = 3, queries: Optional[Sequence[str]] = None) -> List[dict]:
    from repro.engines import MemSqlSim, run_presto_sim
    from repro.queries import QUERIES
    from repro.synth_data import lineitem, orders, part

    cfg = JoinConfig(n_net=8, loc_bits=3)
    rows = []
    with cached({"lineitem": lineitem(spark, sf=sf), "orders": orders(spark, sf=sf),
                 "part": part(spark, sf=sf)}) as tables:
        memsql = MemSqlSim(spark, tables)
        try:
            for q in QUERIES:
                if queries and q.name not in queries:
                    continue
                relations = {f: tables[t] for f, t in q.table_map.items()}
                plan = q.build_plan(cfg)
                t_mod, t_memsql = timeit(
                    lambda: lower_distributed_plan(spark, plan, relations).result().collect(),
                    lambda: memsql.run(q.sql),
                    repeat=repeat,
                )
                # the interpreted engine is 1-2 orders of magnitude slower; a
                # single cold run suffices (variance is tiny relative to the gap)
                [t_presto] = timeit(
                    lambda: run_presto_sim(spark, q, tables, cfg).collect(), repeat=1, warmup=0
                )
                rows.append({
                    "query": q.name, "modularis_s": t_mod, "presto_sim_s": t_presto,
                    "memsql_sim_s": t_memsql,
                    "speedup_vs_presto": t_presto / t_mod,
                    "slowdown_vs_memsql": t_mod / t_memsql,
                })
        finally:
            memsql.close()
    return rows
