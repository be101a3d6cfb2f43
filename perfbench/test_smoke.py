"""Smoke test for the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits every metric BENCHMARK.json names, each
with its unit, in both modes; that only the layers a workload does not
exercise read 0; the exact Spark job and MPI traffic counts; that a wrong
expected answer, and a result whose values are paired with the wrong keys,
are counted as failed queries; and that the command refuses to run without
the program's sources.
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from harness import Query  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: per-layer metrics every workload reports
COMMON = {"trace.overhead_s", "sloc.modular_total", "sloc.platform_specific"}


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def _output(workload, trace):
    """(details, result) of one tiny run, shared by the tests below."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, details, result = proc.stdout.strip().splitlines()
    return json.loads(details)["details"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    details, result = _output(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    else:
        declared = set(WORKLOADS[workload].per_layer) | COMMON
        assert set(details["not_exercised"]) == {m["name"] for m in wanted} - declared


def test_spark_job_counts():
    _, result = _output("spark-join", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # lowering samples each side once; execution runs 4 jobs per query
    assert (m["lower.spark_jobs"], m["exec.spark_jobs"]) == (2, 4)


def test_mpi_counts():
    details, result = _output("sim-join", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one uint64 word per compressed tuple; each of the 4 ranks opens a
    # window per relation and puts into every rank's window
    assert m["mpi.bytes_put"] == 8 * details["env"]["sizes"]["input_rows"]
    assert m["mpi.bytes_per_input_row"] == 8
    assert (m["mpi.puts"], m["mpi.windows"]) == (2 * 4 * 4, 2 * 4)


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_wrong_expected_answer_counts_as_failed():
    w = WORKLOADS["sim-join"](seed=3, tiny=True)
    right = w.expected
    w.expected = lambda: {**right(), "rows": -1}
    out = run.measure(w, seconds=0.5, trace=False)
    res = out["result"]
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert res["correct"] is False
    assert out["details"]["failed_frac"] == 1.0


def test_values_paired_with_wrong_keys_count_as_failed():
    """Shuffling one value column keeps the row count and every column sum
    but breaks the pairing; the digest must notice."""
    w = WORKLOADS["sim-join"](seed=3, tiny=True)
    make_query = w.query

    def shuffled_query():
        q = make_query()

        def run_shuffled(tracer):
            out = q.run(tracer)
            out["vs"] = np.random.default_rng(0).permutation(out["vs"].to_numpy())
            return out

        return Query(q.label, q.input_rows, run_shuffled, q.check)

    w.query = shuffled_query
    res = run.measure(w, seconds=0.5, trace=False)["result"]
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]


def test_oracle_digest_is_exact_beyond_float64():
    """At full size the ``k * v`` sums exceed 2**53; the oracle must not
    round them."""
    from harness import sums_digest
    from workloads import expected_digest

    k = np.array([3_000_000_001, 5], dtype=np.int64)
    pdfs = {"R": pd.DataFrame({"k": k, "vr": [1_000_000_007, 3]}),
            "S": pd.DataFrame({"k": k[::-1], "vs": [11, 2_000_000_011]})}
    joined = pdfs["R"].merge(pdfs["S"], on="k")
    assert expected_digest(pdfs) == sums_digest(joined, key="k")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim-join", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
