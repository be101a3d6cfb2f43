"""Table 1 reproduction: SLOC per sub-operator + headline comparison.

Run: python jobs/sloc_table.py   (no Spark needed)
"""
from repro import sloc
from repro.experiments import format_table, table1_rows


def main() -> None:
    print(format_table(table1_rows(), "Table 1 — source lines of code per operator"))
    print(f"src/ SLOC (src/repro/**/*.py): {sloc.summary()['src_total']}")


if __name__ == "__main__":
    main()
