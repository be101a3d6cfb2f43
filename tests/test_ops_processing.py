"""Unit tests for data-processing sub-operators, run through the evaluator
(each operator's batch kernel is its one semantics)."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Plan, RowVector
from repro.core.expr import col, pmod
from repro.core.ops import (
    BuildProbe,
    CartesianProduct,
    Filter,
    LocalHistogram,
    Map,
    ParametrizedMap,
    Projection,
    Reduce,
    ReduceByKey,
    Zip,
)
from repro.core import vectorized
from repro.oracle import assert_equivalent
from tests.helpers import params_of, source


KV = pd.DataFrame({"k": [1, 2, 3, 2, 1], "v": [10, 20, 30, 40, 50]})

NAN = np.nan
#: aggregation inputs pinned against DuckDB: NULL values are skipped,
#: 'count' counts the others, 'sum'/'min'/'max' over none are NULL, and a
#: NULL key forms no group (``ReduceByKey``'s rule, not SQL's: the SQL side
#: filters those keys out); empty input keeps its columns
AGG_CASES = {
    # key 3 has only NULL values
    "nan-keys-and-values": pd.DataFrame(
        {"k": [1.0, NAN, 2.0, 1.0, NAN, 3.0, 2.0], "v": [1.0, 2.0, NAN, 4.0, 5.0, NAN, -1.5]}
    ),
    "string-keys-with-none": pd.DataFrame(
        {"k": ["b", None, "a", "b", "c", None, "a"], "v": [1.0, 2.0, NAN, 4.0, NAN, 6.0, 0.5]}
    ),
    "string-values": pd.DataFrame({"k": [2, 1, 2, 1, 3], "v": ["x", "b", None, "a", None]}),
    "duplicate-heavy": pd.DataFrame({
        "k": np.random.default_rng(7).integers(0, 3, 300),
        "v": np.random.default_rng(8).integers(-50, 50, 300),
    }),
    "empty": pd.DataFrame({"k": pd.Series([], dtype="float64"), "v": pd.Series([], dtype="float64")}),
}
AGGS = {"s": "sum", "n": "count", "lo": "min", "hi": "max"}
AGG_SQL = {"s": "SUM(v) AS s", "n": "COUNT(v) AS n", "lo": "MIN(v) AS lo", "hi": "MAX(v) AS hi"}


def run_plan(root, **frames):
    rows = vectorized.run_rows(Plan(root), params=params_of(**frames))
    return sorted(rows, key=lambda t: tuple(repr(t[c]) for c in sorted(t)))


class TestMap:
    def test_row_and_batch_agree(self):
        root = Map(source("t"), lambda b: RowVector({"k": b["k"], "v2": b["v"] * 2}))
        rows = run_plan(root, t=KV)
        assert {"k": 1, "v2": 20} in rows
        assert len(rows) == 5


class TestParametrizedMap:
    def test_parameter_passed_to_every_call(self):
        from repro.core.ops import ParameterLookup

        param = Map(ParameterLookup(), lambda b: RowVector({"shift": [100]}))
        root = ParametrizedMap(
            param,
            source("t"),
            lambda b, p: RowVector({"k": b["k"] + p["shift"], "v": b["v"]}),
        )
        rows = run_plan(root, t=KV)
        assert sorted(r["k"] for r in rows) == [101, 101, 102, 102, 103]

    def test_multiple_parameter_tuples_is_error(self):
        root = ParametrizedMap(source("t"), source("t"), lambda pdf, p: pdf)
        with pytest.raises(RuntimeError, match="exactly one parameter"):
            vectorized.run_rows(Plan(root), params=params_of(t=KV))


class TestProjection:
    def test_keeps_subset_unmodified(self):
        rows = run_plan(Projection(source("t"), ["v"]), t=KV)
        assert rows == [{"v": x} for x in [10, 20, 30, 40, 50]]

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            vectorized.run_rows(Plan(Projection(source("t"), ["nope"])), params=params_of(t=KV))


class TestCartesianProduct:
    def test_all_combinations(self):
        left = pd.DataFrame({"a": [1, 2]})
        right = pd.DataFrame({"b": [10, 20, 30]})
        rows = run_plan(CartesianProduct(source("l"), source("r")), l=left, r=right)
        assert len(rows) == 6
        assert {"a": 2, "b": 30} in rows

    def test_overlapping_names_rejected(self):
        left = pd.DataFrame({"a": [1]})
        with pytest.raises(RuntimeError, match="overlap"):
            vectorized.run_rows(
                Plan(CartesianProduct(source("l"), source("r"))),
                params=params_of(l=left, r=left),
            )


class TestFilter:
    def test_predicate(self):
        root = Filter(source("t"), lambda b: b["v"] > 25)
        rows = run_plan(root, t=KV)
        assert sorted(r["v"] for r in rows) == [30, 40, 50]


class TestReduce:
    def test_fold_all(self):
        root = Reduce(Projection(source("t"), ["v"]), {"v": "sum"})
        rows = run_plan(root, t=KV)
        assert rows == [{"v": 150}]

    def test_empty_input_yields_nothing(self):
        """Over no tuples there is nothing to fold, so SQL semantics give
        one tuple: COUNT is 0, SUM/MIN/MAX are NULL."""
        aggs = {"v": "sum", "n": "count", "lo": "min", "hi": "max"}
        root = Reduce(
            Map(source("t"), lambda b: RowVector({c: b["v"] for c in aggs})), aggs
        )
        (row,) = run_plan(root, t=KV.iloc[:0])
        assert row["n"] == 0
        assert all(pd.isna(row[c]) for c in ("v", "lo", "hi"))

    def test_all_aggregates_match_duckdb(self):
        t = pd.DataFrame({"v": [3.0, None, 1.0, 7.0]})
        root = Reduce(
            Map(source("t"), lambda b: RowVector({c: b["v"] for c in ("s", "n", "lo", "hi")})),
            {"s": "sum", "n": "count", "lo": "min", "hi": "max"},
        )
        for rel in (t, t.iloc[:0], t.iloc[1:2]):  # values, no tuples, only NULL
            out = vectorized.run_to_pdf(Plan(root), params=params_of(t=rel))
            assert_equivalent(
                out, "SELECT SUM(v) AS s, COUNT(v) AS n, MIN(v) AS lo, MAX(v) AS hi FROM t", t=rel
            )

    @pytest.mark.parametrize("case", ["nan-keys-and-values", "string-keys-with-none", "empty"])
    def test_matches_duckdb_over_null_keys_and_values(self, case):
        """One tuple always, over the NULL-keyed tuples too."""
        t = AGG_CASES[case]
        root = Reduce(Map(source("t"), lambda b: RowVector({c: b["v"] for c in AGGS})), AGGS)
        out = vectorized.run_to_pdf(Plan(root), params=params_of(t=t))
        assert len(out) == 1
        assert_equivalent(out, f"SELECT {', '.join(AGG_SQL.values())} FROM t", t=t)

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ValueError, match="aggregates must map"):
            Reduce(source("t"), {"v": "avg"})


class TestReduceByKey:
    def test_combines_per_key_and_restores_key(self):
        root = ReduceByKey(source("t"), "k", {"v": "sum"})
        rows = run_plan(root, t=KV)
        assert rows == [{"k": 1, "v": 60}, {"k": 2, "v": 60}, {"k": 3, "v": 30}]

    @pytest.mark.parametrize("case", AGG_CASES)
    def test_matches_duckdb(self, case):
        t = AGG_CASES[case]
        # SUM is not defined over strings
        aggs = {c: a for c, a in AGGS.items() if not (case == "string-values" and a == "sum")}
        up = Map(source("t"), lambda b: RowVector({"k": b["k"], **{c: b["v"] for c in aggs}}))
        out = vectorized.run_to_pdf(Plan(ReduceByKey(up, "k", aggs)), params=params_of(t=t))
        assert list(out.columns) == ["k", *aggs]
        select = ", ".join(AGG_SQL[c] for c in aggs)
        assert_equivalent(out, f"SELECT k, {select} FROM t WHERE k IS NOT NULL GROUP BY k", t=t)

    def test_output_type_matches_input_order(self):
        df = pd.DataFrame({"v": [1, 2], "k": [7, 7]})
        root = ReduceByKey(source("t"), "k", {"v": "sum"})
        pdf = vectorized.run_to_pdf(Plan(root), params=params_of(t=df))
        assert list(pdf.columns) == ["v", "k"]


class TestZip:
    def test_positional_union(self):
        a = pd.DataFrame({"x": [1, 2]})
        b = pd.DataFrame({"y": [10, 20]})
        rows = run_plan(Zip([source("a"), source("b")]), a=a, b=b)
        assert rows == [{"x": 1, "y": 10}, {"x": 2, "y": 20}]

    def test_length_mismatch_raises(self):
        a = pd.DataFrame({"x": [1, 2]})
        b = pd.DataFrame({"y": [10]})
        with pytest.raises(RuntimeError, match="different numbers"):
            vectorized.run_rows(Plan(Zip([source("a"), source("b")])), params=params_of(a=a, b=b))

    def test_three_upstreams(self):
        a = pd.DataFrame({"x": [1]})
        b = pd.DataFrame({"y": [2]})
        c = pd.DataFrame({"z": [3]})
        rows = run_plan(Zip([source("a"), source("b"), source("c")]), a=a, b=b, c=c)
        assert rows == [{"x": 1, "y": 2, "z": 3}]


class TestLocalHistogram:
    def test_dense_ordered_counts(self):
        root = LocalHistogram(source("t"), n_buckets=4, bucket=pmod(col("k"), 4))
        rows = run_plan(root, t=KV)
        assert [r["bucket_id"] for r in rows] == [0, 1, 2, 3]
        assert [r["count"] for r in rows] == [0, 2, 2, 1]

    def test_out_of_range_bucket_raises(self):
        root = LocalHistogram(source("t"), n_buckets=2, bucket=col("k"))
        with pytest.raises(ValueError, match=r"span \[1, 3\], outside \[0, 2\)"):
            vectorized.run_rows(Plan(root), params=params_of(t=KV))

    def test_empty_input_gives_zero_counts(self):
        root = LocalHistogram(source("t"), n_buckets=3, bucket=col("k") & 0)
        rows = run_plan(root, t=KV.iloc[:0])
        assert [r["count"] for r in rows] == [0, 0, 0]


class TestBuildProbe:
    L = pd.DataFrame({"k": [1, 2, 2], "lv": [100, 200, 201]})
    R = pd.DataFrame({"k": [2, 3, 1], "rv": [7, 8, 9]})

    def test_inner_join(self):
        rows = run_plan(BuildProbe(source("l"), source("r"), key="k"), l=self.L, r=self.R)
        assert rows == [
            {"k": 1, "lv": 100, "rv": 9},
            {"k": 2, "lv": 200, "rv": 7},
            {"k": 2, "lv": 201, "rv": 7},
        ]

    def test_semi_join_returns_probe_tuples(self):
        rows = run_plan(
            BuildProbe(source("l"), source("r"), key="k", join_type="semi"),
            l=self.L, r=self.R,
        )
        assert rows == [{"k": 1, "rv": 9}, {"k": 2, "rv": 7}]

    def test_anti_join(self):
        rows = run_plan(
            BuildProbe(source("l"), source("r"), key="k", join_type="anti"),
            l=self.L, r=self.R,
        )
        assert rows == [{"k": 3, "rv": 8}]

    def test_outer_join_pads_unmatched_probe(self):
        rows = run_plan(
            BuildProbe(source("l"), source("r"), key="k", join_type="outer"),
            l=self.L, r=self.R,
        )
        assert len(rows) == 4
        unmatched = [r for r in rows if r["k"] == 3]
        assert len(unmatched) == 1
        assert unmatched[0]["rv"] == 8
        assert unmatched[0]["lv"] is None or pd.isna(unmatched[0]["lv"])

    def test_outer_join_with_empty_build_side_pads_left_columns(self):
        """Every probe tuple is unmatched and keeps the build side's
        columns, NULL-padded, as the SQL outer join does."""
        root = BuildProbe(source("l"), source("r"), key="k", join_type="outer")
        out = vectorized.run_to_pdf(Plan(root), params=params_of(l=self.L.iloc[:0], r=self.R))
        assert list(out.columns) == ["k", "lv", "rv"]
        assert_equivalent(
            out, "SELECT r.k AS k, lv, rv FROM r LEFT JOIN l ON l.k = r.k", l=self.L.iloc[:0], r=self.R
        )

    def test_field_overlap_rejected(self):
        with pytest.raises(RuntimeError, match="overlap"):
            vectorized.run_rows(
                Plan(BuildProbe(source("l"), source("r"), key="k")),
                params=params_of(l=self.L, r=self.L),
            )

    def test_unsupported_join_type(self):
        with pytest.raises(ValueError):
            BuildProbe(source("l"), source("r"), key="k", join_type="full")

    @pytest.mark.parametrize("join_type", ["inner", "semi", "anti", "outer"])
    def test_non_integer_key_rejected(self, join_type):
        l = pd.DataFrame({"k": [1.0, 2.0], "lv": [1, 2]})
        with pytest.raises(TypeError, match="integers"):
            vectorized.run_rows(
                Plan(BuildProbe(source("l"), source("r"), key="k", join_type=join_type)),
                params=params_of(l=l, r=self.R),
            )


@st.composite
def join_sides(draw):
    """Build side ``l`` and probe side ``r`` over one small key pool, so
    both sides repeat keys and share some, with keys near 2**60 (beyond
    float64's exact integers). Either side may be empty, and each key
    column is int64 or uint64."""
    pool = draw(st.lists(st.integers((1 << 60) - 3, (1 << 60) + 3) | st.integers(0, 3),
                         min_size=1, max_size=6))
    sides = []
    for value_field in ("lv", "rv"):
        keys = draw(st.lists(st.sampled_from(pool), max_size=10))
        dtype = draw(st.sampled_from([np.int64, np.uint64]))
        sides.append(pd.DataFrame({"k": np.array(keys, dtype=dtype),
                                   value_field: np.arange(len(keys), dtype=np.int64)}))
    return sides


def join_oracle(l: pd.DataFrame, r: pd.DataFrame, join_type: str) -> Counter:
    """Each join type's output tuples, over the keys as Python ints."""
    lk, rk = [int(x) for x in l["k"]], [int(x) for x in r["k"]]
    build = set(lk)
    if join_type in ("semi", "anti"):
        keep = (join_type == "semi")
        return Counter((k, v) for k, v in zip(rk, r["rv"]) if (k in build) == keep)
    out = Counter((k, lv, rv) for k, rv in zip(rk, r["rv"]) for k2, lv in zip(lk, l["lv"]) if k == k2)
    if join_type == "outer":
        out.update((k, None, rv) for k, rv in zip(rk, r["rv"]) if k not in build)
    return out


@pytest.mark.parametrize("join_type", ["inner", "semi", "anti", "outer"])
@settings(max_examples=150, deadline=None)
@given(sides=join_sides())
def test_build_probe_matches_oracle(join_type, sides):
    l, r = sides
    root = BuildProbe(source("l"), source("r"), key="k", join_type=join_type)
    out = vectorized.run_to_pdf(Plan(root), params=params_of(l=l, r=r))
    assert out["k"].dtype == r["k"].dtype  # exact keys, never float64
    cells = [[None if pd.isna(v) else int(v) for v in out[c]] for c in out.columns]
    assert Counter(zip(*cells)) == join_oracle(l, r, join_type)
