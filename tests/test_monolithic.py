"""Tests for the monolithic baselines: correctness vs pandas reference and
equivalence with the modular plans (same algorithm, different structure)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import radix
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.monolithic import run_monolithic_groupby, run_monolithic_join
from repro.mpi.thread_backend import run_on_sim
from repro.oracle import assert_equivalent
from repro.synth_data import dense_kv_pdf


def sorted_frame(pdf, cols):
    return pdf[cols].sort_values(cols).reset_index(drop=True).astype("int64")


class TestMonolithicJoin:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    @pytest.mark.parametrize("compress", [False, True])
    def test_matches_pandas(self, n_ranks, compress):
        n = 1 << 10
        r = dense_kv_pdf(n, value_field="vr", seed=30)
        s = dense_kv_pdf(n, value_field="vs", seed=31)
        cfg = JoinConfig(n_net=max(2, n_ranks), loc_bits=2, compress=compress, p_bits=20)
        out, info = run_monolithic_join(n_ranks, r, s, cfg)
        expect = r.merge(s, on="k")
        pd.testing.assert_frame_equal(
            sorted_frame(out, ["k", "vr", "vs"]), sorted_frame(expect, ["k", "vr", "vs"])
        )
        assert set(info["phase_seconds"]) >= {
            "local_histogram", "global_histogram", "network_partitioning",
            "local_partitioning", "build_probe", "materialize",
        }

    def test_duplicates_in_build_side(self):
        r = dense_kv_pdf(512, value_field="vr", multiplicity=2, seed=32)
        s = dense_kv_pdf(512, value_field="vs", multiplicity=2, seed=33)
        cfg = JoinConfig(n_net=2, loc_bits=2)
        out, _ = run_monolithic_join(2, r, s, cfg)
        expect = r.merge(s, on="k")
        assert len(out) == len(expect)
        pd.testing.assert_frame_equal(
            sorted_frame(out, ["k", "vr", "vs"]), sorted_frame(expect, ["k", "vr", "vs"])
        )

    def test_modular_and_monolithic_agree(self):
        n = 1 << 9
        r = dense_kv_pdf(n, value_field="vr", seed=34)
        s = dense_kv_pdf(n, value_field="vs", seed=35)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=16)
        mono, _ = run_monolithic_join(4, r, s, cfg)
        modular, _ = run_on_sim(distributed_join_plan(cfg), 4, {"R": r, "S": s})
        pd.testing.assert_frame_equal(
            sorted_frame(mono, ["k", "vr", "vs"]), sorted_frame(modular, ["k", "vr", "vs"])
        )

    def test_same_bytes_on_the_wire_as_modular(self):
        # the modular plan must not shuffle more data than the fused one
        n = 1 << 9
        r = dense_kv_pdf(n, value_field="vr", seed=36)
        s = dense_kv_pdf(n, value_field="vs", seed=37)
        cfg = JoinConfig(n_net=2, loc_bits=1, compress=True, p_bits=16)
        _, mono_info = run_monolithic_join(2, r, s, cfg)
        _, mod_info = run_on_sim(distributed_join_plan(cfg), 2, {"R": r, "S": s})
        assert mono_info["bytes_put"] == mod_info["bytes_put"]


    @pytest.mark.parametrize("impl", ["modular", "monolithic"])
    def test_fig6a_join_never_falls_back_to_sort_merge(self, impl, monkeypatch):
        """The Fig. 6a geometry at 2**12 rows/side on 4 ranks: every local
        partition's build keys take the direct-address table, so the join
        matches DuckDB with the sort-merge disabled."""
        def no_sort_merge(*args):
            raise AssertionError("join_indices fell back to the sort-merge")

        monkeypatch.setattr(radix, "_sorted_rows", no_sort_merge)
        n = 1 << 12
        r = dense_kv_pdf(n, value_field="vr", seed=38)
        s = dense_kv_pdf(n, value_field="vs", seed=39)
        cfg = JoinConfig(n_net=4, loc_bits=4, compress=True, p_bits=27)
        if impl == "modular":
            out, _ = run_on_sim(distributed_join_plan(cfg), 4, {"R": r, "S": s})
        else:
            out, _ = run_monolithic_join(4, r, s, cfg)
        assert_equivalent(out[["k", "vr", "vs"]], "SELECT R.k, vr, vs FROM R JOIN S ON R.k = S.k", R=r, S=s)

class TestMonolithicGroupBy:
    @pytest.mark.parametrize("compress", [False, True])
    def test_matches_pandas(self, compress):
        t = dense_kv_pdf(1 << 10, multiplicity=4, seed=38)
        cfg = JoinConfig(n_net=4, loc_bits=2, compress=compress, p_bits=20)
        out, _ = run_monolithic_groupby(4, t, cfg)
        expect = t.groupby("k", as_index=False)["v"].sum()
        pd.testing.assert_frame_equal(
            sorted_frame(out, ["k", "v"]), sorted_frame(expect, ["k", "v"])
        )

    def test_int64_sums_above_2_53_are_exact(self):
        """Sums beyond float64's exact integers: 2**60+1 + 2**60+2 once
        read 2**61, and 2**60+9 read 2**60."""
        t = pd.DataFrame({"k": [0, 0, 3, 1], "v": [2**60 + 1, 2**60 + 2, 2**60 + 9, 5]})
        cfg = JoinConfig(n_net=2, loc_bits=1)
        expect = t.groupby("k", as_index=False)["v"].sum()
        assert expect["v"].tolist() == [2**61 + 3, 5, 2**60 + 9]
        for out in (run_monolithic_groupby(2, t, cfg)[0],
                    run_on_sim(distributed_groupby_plan(cfg), 2, {"T": t})[0]):
            pd.testing.assert_frame_equal(
                sorted_frame(out, ["k", "v"]), sorted_frame(expect, ["k", "v"])
            )

    def test_modular_and_monolithic_agree(self):
        t = dense_kv_pdf(1 << 9, multiplicity=2, seed=39)
        cfg = JoinConfig(n_net=2, loc_bits=2)
        mono, _ = run_monolithic_groupby(2, t, cfg)
        modular, _ = run_on_sim(distributed_groupby_plan(cfg), 2, {"T": t})
        pd.testing.assert_frame_equal(
            sorted_frame(mono, ["k", "v"]), sorted_frame(modular, ["k", "v"])
        )
