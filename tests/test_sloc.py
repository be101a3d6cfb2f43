"""Tests for the SLOC accounting (Table 1 reproduction)."""
import re
from pathlib import Path

import pytest

from repro import sloc


class TestCounting:
    def test_blank_comment_docstring_excluded(self):
        src = '''
def f(x):
    """doc
    string"""
    # comment

    return x + 1
'''
        assert sloc.count_sloc(src) == 2  # def + return

    def test_module_docstring_excluded(self):
        assert sloc.count_sloc('"""mod doc"""\nx = 1\n') == 1

    def test_class_docstrings_excluded(self):
        src = "class A:\n    \"\"\"doc\"\"\"\n    def m(self):\n        return 1\n"
        assert sloc.count_sloc(src) == 3


class TestTable1:
    def test_every_paper_operator_counted(self):
        rows = sloc.operator_sloc()
        assert len(rows) == 15  # the paper's Table 1 operators
        assert all(ours > 0 for _, _, ours, _ in rows)

    def test_abbreviations_match_op_names(self):
        from repro.core import ops as op_mod

        for name, abbr, _, _ in sloc.operator_sloc():
            assert getattr(op_mod, name).op_name in (abbr, getattr(op_mod, name).op_name)

    def test_headline_shape_matches_paper(self):
        """The qualitative Table-1 claims must hold for our code base too:
        modular < monolithic-rewrite-per-platform; platform-specific ops
        are a small fraction; portability factor > 1."""
        s = sloc.summary()
        assert s["platform_specific"] < s["modular_total"] / 2
        assert s["portability_factor"] > 1.0

    def test_platform_specific_is_three_ops(self):
        rows = {name: ours for name, _, ours, _ in sloc.operator_sloc()}
        expect = sum(rows[n] for n in sloc.PLATFORM_SPECIFIC)
        assert sloc.summary()["platform_specific"] == expect


def _committed_table1():
    """``{first cell: first integer of the "ours" cell}`` for the rows of
    EXPERIMENTS.md's Table 1."""
    text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()
    section = text.split("## Table 1", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and (m := re.search(r"\d+", cells[2])):
            rows[cells[0].strip("*")] = int(m.group())
    return rows


class TestCommittedTable1:
    """EXPERIMENTS.md's Table 1 reads what the code measures; after a change
    to an operator or a baseline, rerun ``python jobs/sloc_table.py``."""

    def test_operator_rows(self):
        rows = _committed_table1()
        for name, _, ours, _ in sloc.operator_sloc():
            assert rows[name] == ours, f"{name}: EXPERIMENTS.md says {rows[name]}, code has {ours}"

    @pytest.mark.parametrize("row, key", [
        ("total (modular)", "modular_total"),
        ("monolithic baseline (join+groupby modules)", "monolithic_total"),
        ("platform-specific (ME+EX+MH)", "platform_specific"),
    ])
    def test_summary_rows(self, row, key):
        assert _committed_table1()[row] == sloc.summary()[key]

