"""Source-lines-of-code accounting for the Table 1 reproduction.

Counts non-blank, non-comment, non-docstring source lines per sub-operator
class (via ``inspect.getsource``) and per module, mirroring the paper's
per-operator SLOC table and its three headline numbers: modular total vs
monolithic total, and the platform-specific share (MpiExecutor +
MpiHistogram + MpiExchange). The Spark port is measured the same way: the
lowering (``core/lower.py``) against the monolithic Spark join
(``monolithic/spark.py``). ``src_total`` is the whole package's size.
"""
from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path
from typing import Dict, List, Tuple


def count_sloc(source: str) -> int:
    """Non-blank, non-comment, non-docstring lines of a source snippet."""
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    doc_lines: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                doc_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    n = 0
    for i, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or i in doc_lines:
            continue
        n += 1
    return n


def sloc_of(obj) -> int:
    return count_sloc(inspect.getsource(obj))


#: (abbreviation, paper SLOC) per operator, from Table 1 of the paper
PAPER_TABLE1 = {
    "ParameterLookup": ("PL", 28),
    "NestedMap": ("NM", 49),
    "Projection": ("PR", 27),
    "BuildProbe": ("BP", 103),
    "LocalHistogram": ("LH", 77),
    "Zip": ("ZP", 44),
    "CartesianProduct": ("CP", 54),
    "ParametrizedMap": ("PM", 51),
    "ReduceByKey": ("RK", 75),
    "RowScan": ("RS", 59),
    "LocalPartitioning": ("LP", 143),
    "MaterializeRowVector": ("MR", 56),
    "MpiExecutor": ("ME", 140),
    "MpiExchange": ("EX", 269),
    "MpiHistogram": ("MH", 52),
}

PLATFORM_SPECIFIC = ("MpiExecutor", "MpiHistogram", "MpiExchange")

#: paper headline numbers (Section 5.1.1)
PAPER_MODULAR_TOTAL = 1152
PAPER_MONOLITHIC_TOTAL = 1754
PAPER_PLATFORM_SPECIFIC = 461
PAPER_PORTABILITY_FACTOR = 3.8  # monolithic rewrite / platform-specific LOC


def operator_sloc() -> List[Tuple[str, str, int, int]]:
    """(operator, abbreviation, ours, paper) for every Table 1 operator."""
    from repro.core import ops

    rows = []
    for name, (abbr, paper) in PAPER_TABLE1.items():
        rows.append((name, abbr, sloc_of(getattr(ops, name)), paper))
    return rows


def src_sloc() -> int:
    """SLOC of every module of the ``repro`` package (``src/repro/**/*.py``)."""
    return sum(count_sloc(p.read_text()) for p in Path(__file__).parent.rglob("*.py"))


def summary() -> Dict[str, float]:
    """The Table 1 headline comparison over *our* code base, and the
    package's total size."""
    from repro.core import lower
    from repro.monolithic import groupby as mono_groupby
    from repro.monolithic import join as mono_join
    from repro.monolithic import spark as mono_spark

    per_op = operator_sloc()
    modular_total = sum(ours for _, _, ours, _ in per_op)
    platform = sum(ours for name, _, ours, _ in per_op if name in PLATFORM_SPECIFIC)
    mono_join_sloc = count_sloc(inspect.getsource(mono_join))
    mono_groupby_sloc = count_sloc(inspect.getsource(mono_groupby))
    monolithic_total = mono_join_sloc + mono_groupby_sloc
    spark_port = sloc_of(lower)
    return {
        "modular_total": modular_total,
        "monolithic_join": mono_join_sloc,
        "monolithic_groupby": mono_groupby_sloc,
        "monolithic_total": monolithic_total,
        "platform_specific": platform,
        "platform_specific_share_pct": 100.0 * platform / modular_total,
        "portability_factor": monolithic_total / platform,
        "spark_port_sloc": spark_port,
        "spark_portability_factor": sloc_of(mono_spark) / spark_port,
        "src_total": src_sloc(),
    }
