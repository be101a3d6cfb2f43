"""Tests for the exclusive-time profiler."""
import time

import pandas as pd
import pytest

from repro.core import Plan, vectorized
from repro.core.expr import col, pmod
from repro.core.ops import Filter, LocalHistogram, Map
from repro.core.ops.base import ExecContext
from repro.core.profiling import PHASES, Profiler
from tests.helpers import params_of, source


class TestProfiler:
    def test_exclusive_time_attribution(self):
        prof = Profiler()
        prof.push("a")
        time.sleep(0.02)
        prof.push("b")  # nested: time now accrues to b, not a
        time.sleep(0.02)
        prof.pop()
        prof.pop()
        t = prof.breakdown()
        assert t["a"] >= 0.015 and t["b"] >= 0.015
        assert t["a"] < 0.06  # a must not absorb b's time twice

    def test_wrap_attributes_operator_phase(self):
        df = pd.DataFrame({"k": range(100)})
        hist = LocalHistogram(source("t"), 4, bucket=pmod(col("k"), 4))
        prof = Profiler()
        ctx = ExecContext(profiler=prof)
        vectorized.run_rows(Plan(hist), ctx, params=params_of(t=df))
        assert "local_histogram" in prof.breakdown()

    def test_vectorized_profile_covers_other(self):
        df = pd.DataFrame({"k": range(100)})
        m = Map(source("t"), lambda p: p)
        prof = Profiler()
        ctx = ExecContext(profiler=prof)
        vectorized.run_to_pdf(Plan(m), ctx, params=params_of(t=df))
        assert prof.breakdown().get("other", 0) >= 0

    def test_raising_operator_pops_its_phase(self):
        df = pd.DataFrame({"k": range(10)})

        def boom(pdf):
            raise ValueError("boom")

        m = LocalHistogram(Map(source("t"), boom), 2, bucket=col("k") & 0)
        prof = Profiler()
        ctx = ExecContext(profiler=prof)
        with pytest.raises(ValueError, match="boom"):
            vectorized.run_to_pdf(Plan(m), ctx, params=params_of(t=df))
        assert prof._state().stack == []

    def test_phase_names_are_known(self):
        for p in ("local_histogram", "global_histogram", "network_partitioning",
                  "local_partitioning", "build_probe", "materialize", "other"):
            assert p in PHASES

    def test_thread_safety(self):
        import threading

        prof = Profiler()

        def work():
            for _ in range(100):
                prof.push("x")
                prof.pop()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.breakdown()["x"] >= 0
