"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py`` and ``README.md``) as a closed
loop of one client for ``--seconds`` seconds and prints, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they
are its per-layer metrics, from a traced loop run after an untraced one.
The line before it holds the environment and the loop details; the same
record plus every span is written to ``.bench_out/``.

The program under test is imported from ``src/`` next to this directory;
without it the command exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reset_peak_rss() -> bool:
    """Reset this process's resident-memory high-water mark (VmHWM), so
    that set-up and the oracle do not count towards the loop's peak.
    Returns False where the kernel does not allow it."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """VmHWM: the peak resident memory since the last reset."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> list:
    """Aggregate /proc/stat CPU counters; the steal share over the loop
    shows how much the host took from this machine while it ran."""
    return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]


def source_identity() -> dict:
    """Git commit when the tree is a repository, and always a digest of
    the program sources, so a result names the code it measured."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def environment(w, seed: int) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyarrow
    import pyspark

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "pyspark": pyspark.__version__,
        "java": None,  # only the Spark workloads start a JVM
        "seed": seed,
        "sizes": dict(w.sizes),
    }
    env.update(source_identity())
    env.update(w.environment())
    return env


def measure(w, seconds: float, trace: bool) -> dict:
    """Set up, compute the expected answers, run the untraced closed loop,
    and for a traced run a second, traced loop plus the layer probes and
    references."""
    from harness import NullTracer, Tracer, closed_loop, median, tail

    spec = load_spec()
    try:
        setup_s = w.setup()
        w.want = w.expected()
        query = w.query()
        rss_reset = reset_peak_rss()
        cpu0 = cpu_times()
        loop = closed_loop(query, seconds, NullTracer())
        cpu = [b - a for a, b in zip(cpu0, cpu_times())]
        rss = peak_rss_mb()
        lat = loop.latencies
        tail_s, tail_p = tail(lat)
        details = {
            "workload": w.name, "trace": int(trace), "setup_parts": w.setup_parts,
            "samples": len(lat), "tail_percentile": tail_p, "peak_rss_reset": rss_reset,
            "attempted": loop.attempted, "failed": loop.failed,
            "failed_frac": loop.failed / loop.attempted,
            "latencies_s": loop.latencies, "loop_wall_s": loop.wall_s,
            "loop_cpu_steal_frac": cpu[7] / max(1, sum(cpu)),
        }
        attempted, failed = loop.attempted, loop.failed
        tracer = None
        if not trace:
            metrics = {
                "query_s.p50": median(lat),
                "query_s.tail": tail_s,
                "input_rows_per_s": loop.rows / loop.wall_s,
                "setup_s": setup_s,
                "peak_rss_mb": rss,
            }
            wanted = spec["end_to_end"]
        else:
            from repro import sloc

            tracer = Tracer()
            traced = closed_loop(query, seconds, tracer)
            attempted += traced.attempted
            failed += traced.failed
            details["traced"] = {"samples": len(traced.latencies), "attempted": traced.attempted,
                                 "failed": traced.failed, "latencies_s": traced.latencies}
            metrics = w.traced_extras(tracer, loop)
            if set(metrics) != set(w.per_layer):
                raise KeyError(f"{w.name} returned {sorted(metrics)}, declares {sorted(w.per_layer)}")
            metrics["trace.overhead_s"] = median(traced.latencies) - median(lat)
            s = sloc.summary()
            metrics["sloc.modular_total"] = s["modular_total"]
            metrics["sloc.platform_specific"] = s["platform_specific"]
            wanted = spec["per_layer"]
        details["env"] = environment(w, w.seed)
    finally:
        w.close()

    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # a layer this workload does not exercise (not in its ``per_layer``) did no work: it reads 0
    details["not_exercised"] = sorted(set(units) - set(metrics))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in units.items()},
    }
    return {"result": result, "details": details, "spans": tracer.spans if tracer else []}


def run_all(args) -> int:
    """Every workload, untraced then traced, one subprocess each."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"[perfbench] {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for m, v in res["metrics"].items():
                merged["metrics"][f"{name}/{m}"] = v
                print(f"{name:12s} {m:36s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test only)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"[perfbench] program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    w = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    out = measure(w, args.seconds, bool(args.trace))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": out["details"], "spans": out["spans"]}, default=str))
    print(json.dumps({"details": {k: v for k, v in out["details"].items()
                                  if not k.startswith("latencies")}}, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
