"""Fig. 6 reproduction: distributed join — per-phase breakdown and fixed
cost (2**10 rows/side, 1 and 4 ranks) on the simulated MPI cluster (6a),
and total runtime vs machines on Spark (6b).

Run: spark-submit jobs/join_breakdown.py   (or plain python)
Env: REPRO_ROWS_6A (default 2**21), REPRO_ROWS_6B (default 2**19),
REPRO_REPEAT (Fig. 6b rounds, default 3).
"""
import os

from repro.experiments import fig6a_breakdown, fig6a_fixed_cost, fig6b_totals, format_table
from repro.spark_session import get_session


def main() -> None:
    rows_a = int(os.environ.get("REPRO_ROWS_6A", 1 << 21))
    rows_b = int(os.environ.get("REPRO_ROWS_6B", 1 << 19))
    repeat = int(os.environ.get("REPRO_REPEAT", 3))
    print(format_table(
        fig6a_breakdown(rows_a),
        f"Fig 6a — join phase breakdown (simulated MPI, {rows_a} rows/side)",
    ))
    print(format_table(
        fig6a_fixed_cost(),
        "Fig 6a — fixed cost (simulated MPI, 1024 rows/side)",
    ))
    spark = get_session("fig6b")
    print(format_table(
        fig6b_totals(spark, rows_b, repeat=repeat),
        f"Fig 6b — join total runtime vs machines (Spark lowering, {rows_b} rows/side)",
    ))


if __name__ == "__main__":
    main()
