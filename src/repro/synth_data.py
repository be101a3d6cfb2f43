"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    # Columns required by TPC-H Q4/Q12/Q14/Q19 (reproduced queries):
    # commit/receipt dates correlated with shipdate, ship mode/instructions.
    pdf["l_commitdate"] = pdf["l_shipdate"] + pd.to_timedelta(
        g.integers(-30, 61, n), unit="D"
    )
    pdf["l_receiptdate"] = pdf["l_shipdate"] + pd.to_timedelta(
        g.integers(1, 31, n), unit="D"
    )
    pdf["l_shipmode"] = g.choice(
        ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"], n
    )
    pdf["l_shipinstruct"] = g.choice(
        ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], n
    )
    return pdf


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    return spark.createDataFrame(lineitem_pdf(sf=sf, seed=seed))


def orders_pdf(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return pdf


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    return spark.createDataFrame(orders_pdf(sf=sf, seed=seed))


def part_pdf(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
            # required by Q19's predicate
            "p_container": g.choice(
                [
                    "SM CASE", "SM BOX", "SM PACK", "SM PKG",
                    "MED BAG", "MED BOX", "MED PKG", "MED PACK",
                    "LG CASE", "LG BOX", "LG PACK", "LG PKG",
                ],
                n,
            ),
        }
    )
    return pdf


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    return spark.createDataFrame(part_pdf(sf=sf, seed=seed))


def dense_kv_pdf(
    n: int,
    *,
    value_field: str = "v",
    multiplicity: int = 1,
    seed: int = 7,
) -> pd.DataFrame:
    """Dense <key, value> relation à la Barthels et al. (8B key + 8B value
    from dense domains, paper Section 4.1.1): ``n`` rows over
    ``n // multiplicity`` distinct keys, each occurring ``multiplicity``
    times (1-on-1 correspondence when multiplicity=1). Returned as pandas —
    the simulated-MPI experiments slice it per rank; Spark experiments wrap
    it via ``spark.createDataFrame``.
    """
    if multiplicity < 1 or n % multiplicity:
        raise ValueError("multiplicity must divide n")
    g = _rng(seed)
    keys = np.tile(np.arange(n // multiplicity, dtype=np.int64), multiplicity)
    g.shuffle(keys)
    return pd.DataFrame({"k": keys, value_field: np.arange(n, dtype=np.int64)})
