"""TPC-H Queries 4, 12, 14 and 19 as Modularis sub-operator plans.

The paper picks these four because they share one pattern: a single join of
two pre-filtered tables followed by projection and post-aggregation of the
join result. Each query here carries

* ``sql`` — the query text, executed verbatim by the DuckDB oracle and by
  the MemSQL stand-in (Spark SQL);
* ``build_plan(cfg)`` — the sub-operator plan: per-side filter/projection
  pipelines (``pre_scan``), the generic distributed join of Fig. 3, and the
  query's post-aggregation inserted at every nesting level via the
  ``probe_post``/``pair_post``/``rank_post``/``driver_post`` hooks;
* ``table_map`` — which input relation feeds which plan field.

Every ``Map`` declares its output type, so the Spark lowering derives all
of its schemas from the plan (``repro.core.lower``). The kernels read and
build ``RowVector`` batches of numpy columns; dates are datetime64 columns,
strings object columns.

Predicate constants are the official TPC-H ones, evaluated over the
synthetic TPC-H-lite generators of ``repro.synth_data`` (substitution
documented in DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core import Plan, RowVector
from repro.core.ops import Filter, Map, Reduce, ReduceByKey
from repro.core.ops.base import SubOperator
from repro.core.types import FLOAT64, INT64, STR, TupleType
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan


@dataclass(frozen=True)
class TpchQuery:
    name: str
    sql: str
    #: plan input field -> synthetic table name (lineitem/orders/part)
    table_map: Dict[str, str]
    build_plan: Callable[[JoinConfig], Plan]


def _revenue(b: RowVector) -> np.ndarray:
    return b["l_extendedprice"] * (1.0 - b["l_discount"])


def _in_dates(b: RowVector, column: str, lo: str, hi: str) -> np.ndarray:
    """``lo <= column < hi`` over a datetime64 column."""
    return (b[column] >= np.datetime64(lo)) & (b[column] < np.datetime64(hi))


def _project(**renames: str) -> Callable[[RowVector], RowVector]:
    """A Map kernel keeping input column ``renames[name]`` as ``name``."""
    return lambda b: RowVector({name: b[c] for name, c in renames.items()})



# ---------------------------------------------------------------------------
# Q4 — order priority checking (EXISTS semi-join)
# ---------------------------------------------------------------------------

Q4_SQL = """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1993-07-01' AND o_orderdate < TIMESTAMP '1993-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
""".strip()


def q4_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "L":  # build side: matching lineitem order keys
            op = Filter(op, lambda b: b["l_commitdate"] < b["l_receiptdate"])
            return Map(op, _project(k="l_orderkey"), TupleType([("k", INT64)]))
        op = Filter(op, lambda b: _in_dates(b, "o_orderdate", "1993-07-01", "1993-10-01"))
        return Map(
            op, _project(k="o_orderkey", o_orderpriority="o_orderpriority"),
            TupleType([("k", INT64), ("o_orderpriority", STR)]),
        )

    def count_rows(op: SubOperator) -> SubOperator:
        counted = Map(
            op,
            lambda b: RowVector({"o_orderpriority": b["o_orderpriority"],
                                 "order_count": np.ones(len(b), dtype=np.int64)}),
            TupleType([("o_orderpriority", STR), ("order_count", INT64)]),
        )
        return _rk(counted)

    def _rk(op: SubOperator) -> ReduceByKey:
        return ReduceByKey(op, "o_orderpriority", {"order_count": "sum"})

    return distributed_join_plan(
        cfg, fields=("L", "O"), value_fields=("_", "_"), join_type="semi",
        pre_scan=pre_scan, probe_post=count_rows,
        pair_post=_rk, rank_post=_rk, driver_post=_rk,
    )


# ---------------------------------------------------------------------------
# Q12 — shipping modes and order priority
# ---------------------------------------------------------------------------

Q12_SQL = """
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate
  AND l_shipdate < l_commitdate
  AND l_receiptdate >= TIMESTAMP '1994-01-01' AND l_receiptdate < TIMESTAMP '1995-01-01'
GROUP BY l_shipmode
""".strip()


def q12_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "O":  # build side
            return Map(
                op, _project(k="o_orderkey", o_orderpriority="o_orderpriority"),
                TupleType([("k", INT64), ("o_orderpriority", STR)]),
            )
        op = Filter(
            op,
            lambda b: (
                np.isin(b["l_shipmode"], ["MAIL", "SHIP"])
                & (b["l_commitdate"] < b["l_receiptdate"])
                & (b["l_shipdate"] < b["l_commitdate"])
                & _in_dates(b, "l_receiptdate", "1994-01-01", "1995-01-01")
            ),
        )
        return Map(
            op, _project(k="l_orderkey", l_shipmode="l_shipmode"),
            TupleType([("k", INT64), ("l_shipmode", STR)]),
        )

    def classify(op: SubOperator) -> SubOperator:
        def kernel(b: RowVector) -> RowVector:
            high = np.isin(b["o_orderpriority"], ["1-URGENT", "2-HIGH"])
            return RowVector({
                "l_shipmode": b["l_shipmode"],
                "high_line_count": high.astype(np.int64),
                "low_line_count": (~high).astype(np.int64),
            })

        return _rk(Map(
            op, kernel,
            TupleType([("l_shipmode", STR), ("high_line_count", INT64), ("low_line_count", INT64)]),
        ))

    def _rk(op: SubOperator) -> ReduceByKey:
        return ReduceByKey(op, "l_shipmode", {"high_line_count": "sum", "low_line_count": "sum"})

    return distributed_join_plan(
        cfg, fields=("O", "L"), value_fields=("_", "_"),
        pre_scan=pre_scan, probe_post=classify,
        pair_post=_rk, rank_post=_rk, driver_post=_rk,
    )


# ---------------------------------------------------------------------------
# Q14 — promotion effect
# ---------------------------------------------------------------------------

Q14_SQL = """
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                         THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
       / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= TIMESTAMP '1995-09-01' AND l_shipdate < TIMESTAMP '1995-10-01'
""".strip()


def _sum(*cols: str) -> Callable[[SubOperator], Reduce]:
    """Post-aggregation hook: SUM of ``cols`` (NULL over no tuples)."""
    return lambda op: Reduce(op, {c: "sum" for c in cols})


def q14_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "P":  # build side
            return Map(
                op, _project(k="p_partkey", p_type="p_type"),
                TupleType([("k", INT64), ("p_type", STR)]),
            )
        op = Filter(op, lambda b: _in_dates(b, "l_shipdate", "1995-09-01", "1995-10-01"))
        return Map(
            op, lambda b: RowVector({"k": b["l_partkey"], "rev": _revenue(b)}),
            TupleType([("k", INT64), ("rev", FLOAT64)]),
        )

    def split_revenue(op: SubOperator) -> SubOperator:
        def kernel(b: RowVector) -> RowVector:
            promo = np.char.startswith(b["p_type"].astype(str), "PROMO")
            return RowVector({"promo_rev": np.where(promo, b["rev"], 0.0), "total_rev": b["rev"]})

        return _sum("promo_rev", "total_rev")(
            Map(op, kernel, TupleType([("promo_rev", FLOAT64), ("total_rev", FLOAT64)]))
        )

    def ratio(op: SubOperator) -> SubOperator:
        return Map(
            _sum("promo_rev", "total_rev")(op),
            lambda b: RowVector({"promo_revenue": 100.0 * b["promo_rev"] / b["total_rev"]}),
            TupleType([("promo_revenue", FLOAT64)]),
        )

    return distributed_join_plan(
        cfg, fields=("P", "L"), value_fields=("_", "_"),
        pre_scan=pre_scan, probe_post=split_revenue,
        pair_post=_sum("promo_rev", "total_rev"),
        rank_post=_sum("promo_rev", "total_rev"),
        driver_post=ratio,
    )


# ---------------------------------------------------------------------------
# Q19 — discounted revenue (disjunctive cross-table predicate)
# ---------------------------------------------------------------------------

Q19_SQL = """
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12'
       AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
       AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
   OR (p_brand = 'Brand#23'
       AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
       AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
   OR (p_brand = 'Brand#34'
       AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
       AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15
       AND l_shipmode IN ('AIR', 'REG AIR')
       AND l_shipinstruct = 'DELIVER IN PERSON')
""".strip()

_Q19_BRANCHES = (
    ("Brand#12", ["SM CASE", "SM BOX", "SM PACK", "SM PKG"], 1, 11, 5),
    ("Brand#23", ["MED BAG", "MED BOX", "MED PKG", "MED PACK"], 10, 20, 10),
    ("Brand#34", ["LG CASE", "LG BOX", "LG PACK", "LG PKG"], 20, 30, 15),
)


def _q19_joined_pred(b: RowVector) -> np.ndarray:
    mask = np.zeros(len(b), dtype=bool)
    for brand, containers, qlo, qhi, smax in _Q19_BRANCHES:
        mask |= (
            (b["p_brand"] == brand)
            & np.isin(b["p_container"], containers)
            & (b["l_quantity"] >= qlo)
            & (b["l_quantity"] <= qhi)
            & (b["p_size"] >= 1)
            & (b["p_size"] <= smax)
        )
    return mask


def q19_plan(cfg: JoinConfig) -> Plan:
    def pre_scan(field: str, op: SubOperator) -> SubOperator:
        if field == "P":  # build side, pre-filtered to the brand superset
            op = Filter(
                op,
                lambda b: (
                    np.isin(b["p_brand"], [brand for brand, *_ in _Q19_BRANCHES])
                    & (b["p_size"] >= 1) & (b["p_size"] <= 15)
                ),
            )
            return Map(
                op, _project(k="p_partkey", p_brand="p_brand", p_container="p_container", p_size="p_size"),
                TupleType([("k", INT64), ("p_brand", STR), ("p_container", STR), ("p_size", INT64)]),
            )
        op = Filter(
            op,
            lambda b: (
                np.isin(b["l_shipmode"], ["AIR", "REG AIR"]) & (b["l_shipinstruct"] == "DELIVER IN PERSON")
            ),
        )
        return Map(
            op,
            lambda b: RowVector({"k": b["l_partkey"], "l_quantity": b["l_quantity"], "rev": _revenue(b)}),
            TupleType([("k", INT64), ("l_quantity", FLOAT64), ("rev", FLOAT64)]),
        )

    def residual(op: SubOperator) -> SubOperator:
        filtered = Filter(op, _q19_joined_pred)
        revenue = TupleType([("revenue", FLOAT64)])
        return _sum("revenue")(Map(filtered, _project(revenue="rev"), revenue))

    return distributed_join_plan(
        cfg, fields=("P", "L"), value_fields=("_", "_"),
        pre_scan=pre_scan, probe_post=residual,
        pair_post=_sum("revenue"), rank_post=_sum("revenue"), driver_post=_sum("revenue"),
    )


QUERIES: Tuple[TpchQuery, ...] = (
    TpchQuery(
        name="Q4", sql=Q4_SQL,
        table_map={"L": "lineitem", "O": "orders"},
        build_plan=q4_plan,
    ),
    TpchQuery(
        name="Q12", sql=Q12_SQL,
        table_map={"O": "orders", "L": "lineitem"},
        build_plan=q12_plan,
    ),
    TpchQuery(
        name="Q14", sql=Q14_SQL,
        table_map={"P": "part", "L": "lineitem"},
        build_plan=q14_plan,
    ),
    TpchQuery(
        name="Q19", sql=Q19_SQL,
        table_map={"P": "part", "L": "lineitem"},
        build_plan=q19_plan,
    ),
)
