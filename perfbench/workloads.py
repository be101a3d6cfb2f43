"""The benchmark workloads: one distributed join plan on the two
substrates that execute it, the simulated MPI cluster (``run_on_sim``) and
the Spark lowering (``lower_distributed_plan``).

Each workload builds its inputs from ``repro.synth_data`` with seeds derived
from the benchmark seed, times its own set-up (``setup``), computes the
expected answer with DuckDB outside every timed region (``expected``), and
hands the closed loop its query. ``traced_extras`` runs what only the
traced run measures: layer counts, stage probes and the reference engines.

Layers are measured from outside, by timing and counting calls into public
functions; nothing under ``src/`` is changed.
"""
from __future__ import annotations

import os
import shlex
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict

import pandas as pd

from harness import NullTracer, Query, check_digest, duckdb_frame, median, sums_digest, timed

from repro.modular.common import JoinConfig
from repro.synth_data import dense_kv_pdf

SIM_RANKS = 4
#: Spark settings recorded with every result; the master is local[nproc]
SPARK_DRIVER_MEMORY = "3g"
SPARK_SHUFFLE_PARTITIONS = 64
JVM_OPTIONS = "-XX:TieredStopAtLevel=1"
PHASES = ("local_histogram", "global_histogram", "network_partitioning",
          "local_partitioning", "build_probe", "materialize", "other")
#: reference runs per engine in the traced run
REF_REPS = 3
#: the join both workloads run, as DuckDB computes its digest
#: (``harness.sums_digest(out, key="k")`` and ``SparkJoin._digest``). The
#: sums are HUGEINT, which ``fetchdf`` would round to float64; BIGINT is exact.
JOIN_DIGEST_SQL = ('SELECT count(*) AS rows, sum(R.k)::BIGINT AS k, sum(vr)::BIGINT AS vr, '
                   'sum(vs)::BIGINT AS vs, sum(R.k * vr)::BIGINT AS "k*vr", '
                   'sum(R.k * vs)::BIGINT AS "k*vs" FROM R JOIN S ON R.k = S.k')


def join_inputs(n: int, seed: int) -> Dict[str, pd.DataFrame]:
    """Dense <key, value> relations R(k, vr) and S(k, vs) of ``n`` rows."""
    return {"R": dense_kv_pdf(n, value_field="vr", seed=10 * seed + 1),
            "S": dense_kv_pdf(n, value_field="vs", seed=10 * seed + 2)}


def expected_digest(pdfs: Dict[str, pd.DataFrame]) -> Dict[str, int]:
    row = duckdb_frame(JOIN_DIGEST_SQL, pdfs).iloc[0]
    return {c: int(row[c]) for c in sorted(row.index)}


class Workload:
    name = ""
    #: per-layer metrics ``traced_extras`` returns; the others read 0
    per_layer: tuple = ()

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.sizes: Dict[str, int] = {}
        self.setup_parts: Dict[str, object] = {}
        self.want = None

    def setup(self) -> float:
        """Build inputs and run one untimed warm-up query; returns the
        set-up seconds reported as ``setup_s``."""
        raise NotImplementedError

    def expected(self):
        """The DuckDB answer each query is checked against."""
        raise NotImplementedError

    def query(self) -> Query:
        raise NotImplementedError

    def traced_extras(self, tracer, untraced) -> Dict[str, float]:
        """Per-layer metrics from the traced run's spans; the cost of
        modularity compares the untraced loop ``untraced`` instead."""
        raise NotImplementedError

    def environment(self) -> Dict[str, object]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# simulated MPI cluster
# ---------------------------------------------------------------------------

class SimJoin(Workload):
    """Fig. 6a: the compressed radix hash join on 4 simulated ranks."""

    name = "sim-join"
    cfg = JoinConfig(n_net=4, loc_bits=4, compress=True, p_bits=27)
    per_layer = (*(f"phase.{p}_s" for p in PHASES),
                 "mpi.bytes_put", "mpi.puts", "mpi.windows", "mpi.bytes_per_input_row",
                 "ref.monolithic_s.p50", "ref.modularity_overhead_pct",
                 "ref.modularity_overhead_exec_pct")
    #: set-ups per run; ``setup_s`` is their median
    setup_reps = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.modular.join import distributed_join_plan

        self.sizes["rows_per_side"] = 1 << (12 if tiny else 21)
        self.sizes["input_rows"] = 2 * self.sizes["rows_per_side"]
        self.plan = distributed_join_plan(self.cfg)

    def setup(self) -> float:
        from repro.mpi.thread_backend import run_on_sim

        secs = []
        for _ in range(self.setup_reps):
            t0 = perf_counter()
            self.rels = join_inputs(self.sizes["rows_per_side"], self.seed)
            run_on_sim(self.plan, SIM_RANKS, self.rels)
            secs.append(perf_counter() - t0)
        self.setup_parts = {"reps_s": secs}
        return median(secs)

    def expected(self):
        return expected_digest(self.rels)

    def query(self) -> Query:
        from repro.mpi.thread_backend import run_on_sim

        def run(tracer):
            with tracer.span("run_on_sim") as rec:
                out, info = run_on_sim(self.plan, SIM_RANKS, self.rels, profile=tracer.enabled)
                rec.update(info)
            return out

        return Query(self.name, self.sizes["input_rows"], run,
                     lambda out: check_digest(sums_digest(out, key="k"), self.want))

    def traced_extras(self, tracer, untraced):
        from repro.monolithic import run_monolithic_join

        spans = tracer.named("run_on_sim")
        out = {f"phase.{p}_s": median([s["phase_seconds"].get(p, 0.0) for s in spans])
               for p in PHASES}
        for key, name in (("bytes_put", "mpi.bytes_put"), ("puts", "mpi.puts"),
                          ("windows", "mpi.windows")):
            out[name] = median([s[key] for s in spans])
        out["mpi.bytes_per_input_row"] = out["mpi.bytes_put"] / self.sizes["input_rows"]

        r, s = self.rels["R"], self.rels["S"]
        secs = []
        for _ in range(REF_REPS):
            with tracer.span("ref.monolithic"):
                dt, (mono_out, _) = timed(lambda: run_monolithic_join(SIM_RANKS, r, s, self.cfg))
            check_digest(sums_digest(mono_out, key="k"), self.want)
            secs.append(dt)
        mono = median(secs)
        out["ref.monolithic_s.p50"] = mono
        # no lowering on this substrate: both overheads compare the same time
        pct = 100.0 * (median(untraced.latencies) - mono) / mono
        out["ref.modularity_overhead_pct"] = pct
        out["ref.modularity_overhead_exec_pct"] = pct
        return out


# ---------------------------------------------------------------------------
# Spark lowering
# ---------------------------------------------------------------------------

class SparkJoin(Workload):
    """Fig. 6b: the distributed radix hash join lowered onto Spark."""

    name = "spark-join"
    cfg = JoinConfig(n_net=8, loc_bits=3, compress=True, p_bits=27)
    per_layer = ("lower.s.p50", "lower.spark_jobs", "exec.s.p50", "exec.spark_jobs",
                 "exec.pre_exchange_s.p50", "exec.histogram_s.p50", "exec.driver_cpu_s.p50",
                 "ref.monolithic_s.p50", "ref.modularity_overhead_pct",
                 "ref.modularity_overhead_exec_pct")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        from repro.modular.join import distributed_join_plan

        self.sizes["rows_per_side"] = 1 << (10 if tiny else 18)
        self.sizes["input_rows"] = 2 * self.sizes["rows_per_side"]
        self.plan = distributed_join_plan(self.cfg)
        self.spark = None

    def start_spark(self) -> None:
        """A local[nproc] session whose scratch files stay in the checkout."""
        root = Path(__file__).resolve().parents[1]
        scratch = root / ".bench_out" / "spark"
        tmp = scratch / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        master = f"local[{len(os.sched_getaffinity(0))}]"
        src = str(root / "src")
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        os.environ["SPARK_MASTER"] = master
        os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(SPARK_SHUFFLE_PARTITIONS)
        os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "local")
        os.environ["TMPDIR"] = str(tmp)
        # what get_session cannot set: both act when the driver JVM starts
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
            "--driver-memory", SPARK_DRIVER_MEMORY,
            "--conf", shlex.quote(f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} {JVM_OPTIONS}"),
            "pyspark-shell",
        ])
        from repro.spark_session import get_session

        self.spark = get_session("perfbench")
        self.spark.sparkContext.setLogLevel("ERROR")

    def setup(self) -> float:
        t0 = perf_counter()
        self.start_spark()
        t1 = perf_counter()
        self.pdfs = join_inputs(self.sizes["rows_per_side"], self.seed)
        self.dfs = {k: self.spark.createDataFrame(v).cache() for k, v in self.pdfs.items()}
        for df in self.dfs.values():
            df.count()
        t2 = perf_counter()
        self.run_query(NullTracer())
        t3 = perf_counter()
        self.setup_parts = {"session_s": t1 - t0, "load_s": t2 - t1, "warmup_s": t3 - t2}
        return t3 - t0

    @staticmethod
    def _digest(df) -> Dict[str, int]:
        """The query's action: one Spark job that forces the whole plan and
        returns the digest ``sums_digest(out, key="k")`` computes."""
        from pyspark.sql import functions as F

        pairs = [F.sum(F.col("k") * F.col(c)).alias(f"k*{c}") for c in df.columns if c != "k"]
        row = df.agg(F.count(F.lit(1)).alias("rows"), *[F.sum(c).alias(c) for c in df.columns],
                     *pairs).collect()[0]
        return {k: int(v) for k, v in sorted(row.asDict().items())}

    def run_query(self, tracer) -> Dict[str, int]:
        """One query: ``lower_distributed_plan``, then ``Lowered.result`` and
        the action. Traced, each half runs in its own Spark job group."""
        from repro.core.lower import lower_distributed_plan

        sc = self.spark.sparkContext
        with tracer.span("lower_distributed_plan") as rec:
            if tracer.enabled:
                rec["job_group"] = f"{tracer.query_id}/lower"
                sc.setJobGroup(rec["job_group"], "lowering")
            lo = lower_distributed_plan(self.spark, self.plan, self.dfs)
        with tracer.span("Lowered.result") as rec:
            if tracer.enabled:
                rec["job_group"] = f"{tracer.query_id}/exec"
                sc.setJobGroup(rec["job_group"], "execution")
            cpu0 = process_time()
            out = self._digest(lo.result())
            rec["driver_cpu_s"] = process_time() - cpu0
        return out

    def expected(self):
        return expected_digest(self.pdfs)

    def query(self) -> Query:
        return Query(self.name, self.sizes["input_rows"], self.run_query,
                     lambda got: check_digest(got, self.want))

    def probe_stages(self, tracer) -> None:
        """Run the lowered stages no query times on its own: each
        pre-exchange pipeline into a noop sink, and the histograms."""
        from repro.core.lower import lower_distributed_plan

        lo = lower_distributed_plan(self.spark, self.plan, self.dfs)
        with tracer.span("Lowered.pre"):
            for df in lo.pre:
                df.write.format("noop").mode("overwrite").save()
        with tracer.span("Lowered.histograms"):
            for h in lo.histograms:
                h.collect()

    def traced_extras(self, tracer, untraced):
        from repro.monolithic.spark import run_monolithic_join_spark

        sc = self.spark.sparkContext
        sc.setJobGroup("probe", "stage probes and references")
        for _ in range(REF_REPS):
            self.probe_stages(tracer)
        secs = []
        for _ in range(REF_REPS):
            with tracer.span("ref.monolithic"):
                dt, got = timed(lambda: self._digest(
                    run_monolithic_join_spark(self.spark, self.dfs["R"], self.dfs["S"], self.cfg)))
            check_digest(got, self.want)
            secs.append(dt)
        mono = median(secs)

        # the status tracker learns of jobs through the listener bus
        sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
        tracker = sc.statusTracker()

        def jobs(name):
            return median([len(tracker.getJobIdsForGroup(s["job_group"])) for s in tracer.named(name)])

        exec_s = median(tracer.durations("Lowered.result"))
        return {
            "lower.s.p50": median(tracer.durations("lower_distributed_plan")),
            "lower.spark_jobs": jobs("lower_distributed_plan"),
            "exec.s.p50": exec_s,
            "exec.spark_jobs": jobs("Lowered.result"),
            "exec.pre_exchange_s.p50": median(tracer.durations("Lowered.pre")),
            "exec.histogram_s.p50": median(tracer.durations("Lowered.histograms")),
            "exec.driver_cpu_s.p50": median([s["driver_cpu_s"] for s in tracer.named("Lowered.result")]),
            "ref.monolithic_s.p50": mono,
            "ref.modularity_overhead_pct": 100.0 * (median(untraced.latencies) - mono) / mono,
            # a traced Spark query differs only by its job-group calls
            "ref.modularity_overhead_exec_pct": 100.0 * (exec_s - mono) / mono,
        }

    def environment(self):
        if self.spark is None:
            return {}
        sc = self.spark.sparkContext
        conf = self.spark.conf
        return {
            "spark_master": sc.master,
            "spark_driver_memory": sc.getConf().get("spark.driver.memory"),
            "spark_shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "spark_arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
            "jvm_options": JVM_OPTIONS,
            "java": sc._jvm.System.getProperty("java.version"),
            "pyspark": self.spark.version,
        }

    def close(self) -> None:
        """Stop the session, then wait for the driver JVM, which exits when
        its stdin closes, so that no process outlives the run."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        proc = SparkContext._gateway.proc
        self.spark.stop()
        self.spark = None
        proc.stdin.close()
        proc.wait()


WORKLOADS = {w.name: w for w in (SparkJoin, SimJoin)}
