"""Tests for the experiment harness plumbing (timing, tables, small runs)."""
import importlib.util
import time
from pathlib import Path

import pandas as pd
import pytest

from repro.experiments import (
    cached,
    fig6a_breakdown,
    fig6a_fixed_cost,
    fig8a_machines,
    fig8bc_output_size,
    fig8d_num_joins,
    format_table,
    table1_rows,
    timeit,
)


JOBS = sorted((Path(__file__).resolve().parents[1] / "jobs").glob("*.py"))


class TestHelpers:
    def test_timeit_returns_median(self):
        calls = []

        def fn():
            calls.append(None)
            if len(calls) == 3:  # the second of three timed runs
                time.sleep(0.2)

        [secs] = timeit(fn, repeat=3, warmup=1)
        assert len(calls) == 4
        assert 0 < secs < 0.05  # the mean of the three runs is above 0.2 / 3

    def test_timeit_alternates_callables(self):
        order = []
        timeit(lambda: order.append("a"), lambda: order.append("b"), repeat=2, warmup=1)
        assert order == ["a", "b"] * 3

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.25}], "t")
        lines = text.splitlines()
        assert lines[0] == "== t =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], "x")


class TestTable1:
    def test_rows_include_headline(self):
        rows = table1_rows()
        names = [r["operator"] for r in rows]
        assert "TOTAL (modular)" in names
        assert "portability factor" in names
        assert len([r for r in rows if r["abbr"]]) == 15


class TestSmallRuns:
    """Tiny-workload smoke runs of the sim-backed experiments — the shapes
    (optimized <= naive, constant optimized network bytes) must hold even at
    smoke scale."""

    def test_fig6a_fixed_cost(self):
        rows = fig6a_fixed_cost(n_rows=1 << 6, machines=(1, 2), repeat=2)
        assert [r["machines"] for r in rows] == [1, 2]
        assert all(r["monolithic_s"] > 0 and r["modularis_s"] > 0 for r in rows)

    def test_fig6a_has_all_phases(self):
        rows = fig6a_breakdown(n_rows=1 << 12, machines=(2,))
        assert len(rows) == 6
        assert all(r["monolithic_s"] >= 0 for r in rows)

    def test_fig8a_optimized_not_slower(self):
        rows = fig8a_machines(n_rows=1 << 13, machines=(2,))
        assert rows[0]["optimized_s"] <= rows[0]["naive_s"] * 1.5

    def test_fig8bc_network_bytes_shape(self):
        rows = fig8bc_output_size(n_rows=1 << 12, mults=(1, 4), machines=2)
        assert rows[0]["optimized_net_bytes"] == rows[1]["optimized_net_bytes"]
        assert rows[1]["naive_net_bytes"] > rows[0]["naive_net_bytes"]

    def test_fig8d_rows(self):
        rows = fig8d_num_joins(n_rows=1 << 12, joins=(1, 2), machines=2, repeat=3)
        assert [r["n_joins"] for r in rows] == [1, 2]
        assert all(r["diff_iqr_s"] >= 0 for r in rows)


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
def test_job_imports(path):
    """Every job imports: a name it takes from ``repro.experiments`` exists."""
    spec = importlib.util.spec_from_file_location(f"jobs.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_cached_relations_are_counted_and_unpersisted_on_error(spark):
    """``cached`` caches and materializes every relation before its body,
    and unpersists them all when the body raises."""
    def persisted():
        return spark.sparkContext._jsc.getPersistentRDDs().size()

    rels = {name: spark.createDataFrame(pd.DataFrame({"k": [1, 2]})) for name in ("R", "S")}
    before = persisted()
    with pytest.raises(RuntimeError, match="body"):
        with cached(rels) as got:
            assert got is rels
            assert all(df.is_cached for df in rels.values())
            assert persisted() == before + 2
            raise RuntimeError("body")
    assert not any(df.is_cached for df in rels.values())
    assert persisted() == before
