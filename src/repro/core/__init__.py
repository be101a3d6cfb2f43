"""Modularis core: sub-operator execution layer.

This package implements the paper's contribution: a set of fine-grained,
composable sub-operators (Volcano-style iterators over tuples whose fields
may be atoms or nested collections), a plan DAG with pipeline cutting, one
batch evaluator (the JIT-compilation analogue; at one tuple per batch it
is the per-tuple engine), and a lowering of distributed plans onto Spark
(Catalyst) stages.
"""
from repro.core.types import (  # noqa: F401
    BOOL,
    DATE,
    FLOAT64,
    INT64,
    STR,
    RowVector,
    RowVectorType,
    TupleType,
)
from repro.core.plan import Plan  # noqa: F401
