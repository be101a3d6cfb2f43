"""Unit tests for the network sub-operators on the simulated MPI cluster."""
import numpy as np
import pandas as pd
import pytest

from repro.core import Plan, RowVector
from repro.core.compression import CompressionSpec
from repro.core.expr import col, pmod
from repro.core.ops import (
    LocalHistogram,
    MaterializeRowVector,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    RowScan,
)
from repro.core.ops.base import ExecContext
from repro.core.ops.network import owner_of
from repro.core.types import INT64, TupleType
from repro.modular.common import JoinConfig
from repro.modular.join import distributed_join_plan
from repro.monolithic import run_monolithic_join
from repro.mpi.simcluster import SimCluster
from repro.mpi.thread_backend import make_rank_inputs, run_on_sim, split_relation
from repro.synth_data import dense_kv_pdf
from tests.helpers import params_of, source


def kv(n, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame({"k": g.integers(0, 64, n), "v": np.arange(n)})


def hist_plan(n_buckets):
    return LocalHistogram(source("T"), n_buckets, pmod(col("k"), n_buckets))


def on_one_rank(plan, **frames):
    """``plan``'s result on a one-rank cluster, the parameter tuple holding
    ``frames``."""
    return SimCluster(1).run(lambda comm, p: plan.collect(ExecContext(comm=comm), params=p),
                             [params_of(**frames)])[0]


class TestMpiHistogram:
    def test_single_rank_equals_local(self):
        plan = Plan(MpiHistogram(hist_plan(4), 4))
        data = kv(100)
        out = on_one_rank(plan, T=data)
        expect = np.bincount(data["k"] % 4, minlength=4)
        assert out["count"].tolist() == list(expect)

    def test_allreduce_across_ranks(self):
        data = kv(100)
        parts = split_relation(data, 4)
        cluster = SimCluster(4)

        def prog(comm, pdf):
            ctx = ExecContext(comm=comm)
            plan = Plan(MpiHistogram(hist_plan(8), 8))
            return plan.collect(ctx, params=params_of(T=pdf)).to_pandas()

        outs = cluster.run(prog, parts)
        expect = list(np.bincount(data["k"] % 8, minlength=8))
        for out in outs:
            assert list(out["count"]) == expect

    def test_wrong_histogram_size_rejected(self):
        plan = Plan(MpiHistogram(hist_plan(4), 8))
        with pytest.raises(RuntimeError, match="exactly 8"):
            on_one_rank(plan, T=kv(10))

    def test_without_communicator_fails_by_name(self):
        plan = Plan(MpiHistogram(hist_plan(2), 2))
        with pytest.raises(RuntimeError, match="MpiHistogram has no rank communicator"):
            plan.collect(params=params_of(T=kv(10)))


def exchange_plan(n_parts, compression=None):
    data = source("T")
    pid = pmod(col("k"), n_parts)
    gh = MpiHistogram(LocalHistogram(data, n_parts, pid), n_parts)
    return Plan(MpiExchange(data, gh, n_parts, pid, compression=compression))


class TestMpiExchange:
    def run_exchange(self, n_ranks, n_parts, data, compression=None):
        cluster = SimCluster(n_ranks)
        parts = split_relation(data, n_ranks)

        def prog(comm, pdf):
            ctx = ExecContext(comm=comm)
            return exchange_plan(n_parts, compression).collect(ctx, params=params_of(T=pdf))

        return cluster.run(prog, parts), cluster

    def test_partitions_land_on_owner(self):
        data = kv(200)
        outs, _ = self.run_exchange(4, 8, data)
        for rank, out in enumerate(outs):
            assert out["partition_id"].tolist() == [p for p in range(8) if owner_of(p, 4) == rank]

    def test_no_tuples_lost_and_keys_match_partition(self):
        data = kv(333)
        outs, _ = self.run_exchange(3, 5, data)
        total = 0
        for out in outs:
            for pid, part in zip(out["partition_id"], out["partition_data"]):
                total += len(part)
                assert (part["k"] % 5 == pid).all()
        assert total == len(data)

    def test_single_rank_local_fallback(self):
        data = kv(50)
        out = on_one_rank(exchange_plan(4), T=data)
        assert out["partition_id"].tolist() == [0, 1, 2, 3]
        assert sum(len(part) for part in out["partition_data"]) == 50

    def test_compressed_wire_format(self):
        spec = CompressionSpec(p_bits=20, f_bits=2, key_field="k", value_field="v")
        data = kv(100)
        outs, cluster = self.run_exchange(2, 4, data, compression=spec)
        seen = []
        for out in outs:
            for pid, part in zip(out["partition_id"], out["partition_data"]):
                assert part.columns == ("kv",)
                k, v = spec.decompress(part["kv"], pid)
                assert (k % 4 == pid).all()
                seen.append(pd.DataFrame({"k": k, "v": v}))
        merged = pd.concat(seen).sort_values(["k", "v"]).reset_index(drop=True)
        expect = data.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(merged, expect, check_dtype=False)

    def test_compression_halves_wire_bytes(self):
        spec = CompressionSpec(p_bits=20, f_bits=2, key_field="k", value_field="v")
        data = kv(400)
        _, c_plain = self.run_exchange(2, 4, data)
        _, c_comp = self.run_exchange(2, 4, data, compression=spec)
        assert c_comp.total_bytes_put() * 2 == c_plain.total_bytes_put()

    def test_histogram_disagreeing_with_pids_raises(self):
        """The local histogram buckets by k // 4 % 4, the exchange by
        k % 4: the global histogram is not the sum of the partition sizes
        the exchange counts."""
        data = source("T")
        lh = LocalHistogram(data, 4, (col("k") >> 2) & 3)
        ex = MpiExchange(data, MpiHistogram(lh, 4), 4, pmod(col("k"), 4))
        T = pd.DataFrame({"k": np.arange(8), "v": np.arange(8)})
        want = r"global histogram \[4, 4, 0, 0\] is not the sum \[2, 2, 2, 2\]"
        with pytest.raises(RuntimeError, match=want):
            on_one_rank(Plan(ex), T=T)

    @pytest.mark.parametrize("n_ranks", [1, 2])
    @pytest.mark.parametrize("global_counts", [[3, 1], [1, 3]])
    def test_wrong_global_histogram_raises(self, n_ranks, global_counts):
        """A global histogram that is not the sum of the local ones would
        size the windows' regions wrongly; on one rank, [1, 3] used to
        return an unwritten slot as a row, with no error."""
        data = source("T")
        pid = pmod(col("k"), 2)
        ex = MpiExchange(data, source("G"), 2, pid)
        T = pd.DataFrame({"k": np.arange(4), "v": np.arange(4) * 10})  # counts [2, 2]
        G = pd.DataFrame({"bucket_id": [0, 1], "count": global_counts})

        def prog(comm, t):
            return Plan(ex).collect(ExecContext(comm=comm), params=params_of(T=t, G=G))

        want = rf"global histogram \[{global_counts[0]}, {global_counts[1]}\] is not the sum \[2, 2\]"
        with pytest.raises(RuntimeError, match=want):
            SimCluster(n_ranks).run(prog, split_relation(T, n_ranks))

    def test_wire_bytes_of_every_column_kind(self):
        """8 bytes per int64, float64 and datetime64 cell, the string
        length per object cell; the columns come back with their dtypes."""
        n = 60
        data = pd.DataFrame({
            "k": np.arange(n, dtype=np.int64),
            "x": np.linspace(0.0, 1.0, n),
            "d": pd.date_range("1995-01-01", periods=n, freq="D"),
            "s": ["ab" * (i % 4) for i in range(n)],  # empty strings included
        })
        outs, cluster = self.run_exchange(2, 4, data)
        assert cluster.total_bytes_put() == 8 * 3 * n + sum(len(v) for v in data["s"])
        got = pd.concat([part.to_pandas() for out in outs for part in out["partition_data"]])
        pd.testing.assert_frame_equal(got.sort_values("k").reset_index(drop=True), data)

    def test_without_communicator_fails_by_name(self):
        """Fed a histogram that needs no communicator, the exchange itself
        names the missing one."""
        data, pid = source("T"), pmod(col("k"), 2)
        plan = Plan(MpiExchange(data, LocalHistogram(data, 2, pid), 2, pid))
        with pytest.raises(RuntimeError, match="MpiExchange has no rank communicator"):
            plan.collect(params=params_of(T=kv(10)))

    def test_fanout_mismatch_rejected(self):
        spec = CompressionSpec(p_bits=20, f_bits=2)
        with pytest.raises(ValueError, match="fan-out"):
            exchange_plan(8, compression=spec)


class TestMpiExecutor:
    def test_runs_nested_plan_per_rank_in_order(self):
        from repro.core.ops import Map, ParameterLookup, Projection, ReduceByKey

        # nested plan: count rows of this rank's slice
        scan = RowScan(Projection(ParameterLookup(), ["T"]), "T")
        cnt = Map(scan, lambda b: RowVector({"one": np.ones(len(b), dtype=np.int64)}),
                  TupleType([("one", INT64)]))
        from repro.core.ops import Reduce

        red = Reduce(cnt, {"one": "sum"})
        nested = Plan(MaterializeRowVector(red, field="rank_result"))

        me = MpiExecutor(source("rank_inputs"), nested)
        plan = Plan(RowScan(me, "rank_result"))
        data = kv(100)
        params = make_rank_inputs(4, T=data)
        out = plan.collect(params=params)
        assert len(out) == 4 and out["one"].sum() == 100

    def test_nested_plan_must_return_one_tuple(self):
        from repro.core.ops import ParameterLookup, Projection

        scan = RowScan(Projection(ParameterLookup(), ["T"]), "T")
        nested = Plan(scan)
        me = MpiExecutor(source("rank_inputs"), nested)
        with pytest.raises(RuntimeError, match="exactly one"):
            Plan(me).collect(params=make_rank_inputs(2, T=kv(10)))


@pytest.mark.parametrize("impl", ["modular", "monolithic"])
def test_compressed_join_wire_counters(impl):
    """The counters ``sim-join`` reports at 2^21 rows/side on 4 ranks, at
    2^12: each rank puts one run per partition and side (4 x 4 x 2), opens
    one window per side, and sends one 8-byte word per input row."""
    n = 1 << 12
    cfg = JoinConfig(n_net=4, loc_bits=4, compress=True, p_bits=27)
    rels = {"R": dense_kv_pdf(n, value_field="vr", seed=41),
            "S": dense_kv_pdf(n, value_field="vs", seed=42)}
    if impl == "modular":
        _, info = run_on_sim(distributed_join_plan(cfg), 4, rels)
    else:
        _, info = run_monolithic_join(4, rels["R"], rels["S"], cfg)
    assert (info["puts"], info["windows"], info["bytes_put"]) == (32, 8, 8 * 2 * n)
