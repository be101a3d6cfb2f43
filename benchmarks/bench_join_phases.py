"""Benchmark: Fig. 6a — distributed join on the simulated MPI cluster,
monolithic vs model (isolated sub-operators) vs full Modularis plan."""
import pytest

from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan
from repro.modular.model import model_phase_times
from repro.monolithic import run_monolithic_join
from repro.mpi.thread_backend import run_on_sim
from repro.synth_data import dense_kv_pdf

N = 1 << 21  # large enough that per-operator constants amortize (see fig6a)
N_FIXED = 1 << 10  # small enough that per-invocation overhead is the time
MACHINES = 4


@pytest.fixture(scope="module")
def workload():
    cfg = JoinConfig(n_net=MACHINES, loc_bits=4, compress=True, p_bits=27)
    r = dense_kv_pdf(N, value_field="vr", seed=80)
    s = dense_kv_pdf(N, value_field="vs", seed=81)
    return cfg, r, s


def test_fig6a_monolithic(benchmark, workload):
    cfg, r, s = workload
    out, _ = benchmark.pedantic(
        lambda: run_monolithic_join(MACHINES, r, s, cfg), rounds=3, iterations=1
    )
    assert len(out) == N


def test_fig6a_model(benchmark, workload):
    cfg, r, s = workload
    benchmark.pedantic(lambda: model_phase_times(MACHINES, r, s, cfg), rounds=3, iterations=1)


def test_fig6a_modularis(benchmark, workload):
    cfg, r, s = workload
    plan = distributed_join_plan(cfg)
    out, _ = benchmark.pedantic(
        lambda: run_on_sim(plan, MACHINES, {"R": r, "S": s}), rounds=3, iterations=1
    )
    assert len(out) == N


def test_fig6a_modularis_fixed_cost(benchmark):
    """The same 4-rank plan at 2**10 rows/side: almost all of the time is
    the fixed cost of the operator and nested-plan invocations."""
    cfg = JoinConfig(n_net=MACHINES, loc_bits=4, compress=True, p_bits=27)
    r = dense_kv_pdf(N_FIXED, value_field="vr", seed=80)
    s = dense_kv_pdf(N_FIXED, value_field="vs", seed=81)
    plan = distributed_join_plan(cfg)
    out, _ = benchmark.pedantic(
        lambda: run_on_sim(plan, MACHINES, {"R": r, "S": s}), rounds=20, iterations=1,
        warmup_rounds=2,
    )
    assert len(out) == N_FIXED
