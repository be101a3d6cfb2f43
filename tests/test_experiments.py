"""Tests for the experiment harness plumbing (timing, tables, small runs)."""
import pandas as pd
import pytest

from repro.experiments import (
    fig6a_breakdown,
    fig8a_machines,
    fig8bc_output_size,
    fig8d_num_joins,
    format_table,
    table1_rows,
    timeit,
)


class TestHelpers:
    def test_timeit_returns_positive_mean(self):
        assert timeit(lambda: sum(range(1000)), repeat=2, warmup=1) > 0

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
        rows = fig8d_num_joins(n_rows=1 << 12, joins=(1, 2), machines=2, repeat=1)
        assert [r["n_joins"] for r in rows] == [1, 2]
