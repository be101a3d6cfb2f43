"""Unit + property tests for the radix partitioning and join kernels."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import radix


class TestPartitionIds:
    def test_low_bits(self):
        assert list(radix.partition_ids(np.array([0, 1, 8, 9]), 3)) == [0, 1, 0, 1]


class TestHistogram:
    def test_counts(self):
        h = radix.histogram(np.array([0, 0, 2]), 4)
        assert list(h) == [2, 0, 1, 0]

    def test_empty(self):
        assert list(radix.histogram(np.array([], dtype=np.int64), 3)) == [0, 0, 0]


class TestScatter:
    def test_partitions_contiguous_and_stable(self):
        pdf = pd.DataFrame({"k": [3, 1, 2, 1, 3], "seq": [0, 1, 2, 3, 4]})
        pids = pdf["k"].to_numpy() % 2
        parts = radix.scatter(pdf, pids, 2)
        assert sorted(parts[0]["k"]) == [2]
        assert list(parts[1]["seq"]) == [0, 1, 3, 4]  # stability preserved

    def test_empty_input(self):
        pdf = pd.DataFrame({"k": pd.Series([], dtype="int64")})
        parts = radix.scatter(pdf, np.array([], dtype=np.int64), 3)
        assert len(parts) == 3 and all(len(p) == 0 for p in parts)

    def test_scatter_arrays_matches_scatter(self):
        ks = np.array([5, 6, 7, 8, 9])
        vs = np.array([50, 60, 70, 80, 90])
        pids = ks % 4
        by_arrays = radix.scatter_arrays([ks, vs], pids, 4)
        by_frame = radix.scatter(pd.DataFrame({"k": ks, "v": vs}), pids, 4)
        for p in range(4):
            assert list(by_arrays[p][0]) == list(by_frame[p]["k"])
            assert list(by_arrays[p][1]) == list(by_frame[p]["v"])


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(0, 1 << 30), max_size=200),
    bits=st.integers(1, 6),
)
def test_scatter_partition_property(keys, bits):
    ks = np.array(keys, dtype=np.int64)
    pdf = pd.DataFrame({"k": ks})
    pids = radix.partition_ids(ks, bits)
    n = 1 << bits
    parts = radix.scatter(pdf, pids, n)
    # every row lands in the partition matching its low bits; none lost
    assert sum(len(p) for p in parts) == len(ks)
    for p, frame in enumerate(parts):
        if len(frame):
            assert (radix.partition_ids(frame["k"].to_numpy(), bits) == p).all()


class TestScatterRejectsOutOfRange:
    @pytest.mark.parametrize(
        "pids, n, span",
        [
            ([0, 1, 2, 3, 1, 0], 2, r"\[0, 3\]"),  # used to lose two rows
            ([-1, 0], 2, r"\[-1, 0\]"),
            ([0, 256], 256, r"\[0, 256\]"),  # would wrap to 0 as uint8
            ([65536], 65536, r"\[65536, 65536\]"),  # would wrap to 0 as uint16
        ],
    )
    def test_raises_naming_the_range(self, pids, n, span):
        pids = np.array(pids, dtype=np.int64)
        with pytest.raises(ValueError, match=span):
            radix.scatter(pd.DataFrame({"v": np.arange(len(pids))}), pids, n)
        with pytest.raises(ValueError, match=span):
            radix.scatter_arrays([np.arange(len(pids))], pids, n)
        with pytest.raises(ValueError, match=span):
            radix.histogram(pids, n)


@pytest.mark.parametrize("n", [1, 256, 257, 65537])  # uint8, uint8, uint16, uint32 ids
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scatter_matches_int64_stable_argsort(n, data):
    pid = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    pids = np.array(data.draw(st.lists(pid, max_size=120)), dtype=np.int64)
    vals = np.arange(len(pids)) * 7
    order = np.argsort(pids, kind="stable")
    sizes = np.bincount(pids, minlength=n)
    parts = radix.scatter_arrays([vals], pids, n)
    assert [len(p[0]) for p in parts] == list(sizes)
    assert np.array_equal(np.concatenate([p[0] for p in parts]), vals[order])
    if n <= 257:  # one frame per partition: keep the 65 537-way case cheap
        frames = radix.scatter(pd.DataFrame({"v": vals}), pids, n)
        assert np.array_equal(np.concatenate([f["v"].to_numpy() for f in frames]), vals[order])


# --- join_indices ------------------------------------------------------------

INT64_RANGE = (-(1 << 63), (1 << 63) - 1)
UINT64_RANGE = (0, (1 << 64) - 1)


def merge_pairs(build, probe) -> Counter:
    """Oracle: ``pd.merge`` over the keys as Python ints (object columns),
    so no dtype promotion can round or wrap them."""
    b = pd.DataFrame({"k": pd.Series([int(x) for x in build], dtype=object),
                      "b": np.arange(len(build))})
    p = pd.DataFrame({"k": pd.Series([int(x) for x in probe], dtype=object),
                      "p": np.arange(len(probe))})
    m = b.merge(p, on="k")
    return Counter(zip(m["b"].tolist(), m["p"].tolist()))


def kernel_pairs(build, probe) -> Counter:
    bi, pi = radix.join_indices(build, probe)
    return Counter(zip(bi.tolist(), pi.tolist()))


@st.composite
def join_sides(draw):
    """Two key columns drawn from one small pool, so both sides repeat keys
    and share some; the pool mixes small (also negative) keys, keys near
    2**40 and keys anywhere in int64 ∪ uint64, whose span forces the
    argsort fallback. Each side is int64 or uint64 and keeps the pool
    values its dtype holds."""
    pool = draw(st.lists(
        st.one_of(st.integers(-4, 4), st.integers(1 << 40, (1 << 40) + 8),
                  st.integers(INT64_RANGE[0], UINT64_RANGE[1])),
        min_size=1, max_size=8,
    ))
    sides = []
    for _ in range(2):
        dtype = draw(st.sampled_from([np.int64, np.uint64]))
        lo, hi = INT64_RANGE if dtype is np.int64 else UINT64_RANGE
        fits = [v for v in pool if lo <= v <= hi] or [0]
        sides.append(np.array(draw(st.lists(st.sampled_from(fits), max_size=40)), dtype=dtype))
    return sides


@settings(max_examples=300, deadline=None)
@given(sides=join_sides())
def test_join_indices_equals_merge(sides):
    build, probe = sides
    assert kernel_pairs(build, probe) == merge_pairs(build, probe)


class TestJoinIndices:
    def test_duplicates_on_both_sides(self):
        build = np.array([5, 1, 5, 5, 2])
        probe = np.array([5, 5, 3, 1])
        assert kernel_pairs(build, probe) == merge_pairs(build, probe)
        assert sum(kernel_pairs(build, probe).values()) == 3 * 2 + 1

    @pytest.mark.parametrize("build, probe", [([], [1, 2]), ([1, 2], []), ([], [])])
    def test_empty_sides(self, build, probe):
        bi, pi = radix.join_indices(np.array(build, dtype=np.int64), np.array(probe, dtype=np.int64))
        assert len(bi) == len(pi) == 0

    def test_no_matches(self):
        bi, pi = radix.join_indices(np.array([-3, -1, 7]), np.array([0, 2, 8, -2]))
        assert len(bi) == len(pi) == 0

    def test_negative_keys(self):
        build = np.array([-5, -5, 0, 3])
        probe = np.array([-5, 3, -4])
        assert kernel_pairs(build, probe) == Counter({(0, 0): 1, (1, 0): 1, (3, 1): 1})

    def test_both_sort_paths_agree_with_stable_argsort(self):
        g = np.random.default_rng(3)
        small = g.integers(-50, 50, 500)  # packed np.sort path
        wide = np.concatenate([small, [INT64_RANGE[0], INT64_RANGE[1]]])  # argsort path
        ref = np.argsort(small, kind="stable")
        sorted_keys, order = radix._sorted_rows(small, small.min())
        assert np.array_equal(order, ref)
        assert np.array_equal(sorted_keys + small.min(), small[ref])
        # a span of 2**64 - 1 does not fit the packed words: argsort path
        wide = np.concatenate([small, [INT64_RANGE[0], INT64_RANGE[1]]])
        bi, pi = radix.join_indices(wide, wide[::-1].copy())
        assert Counter(zip(bi.tolist(), pi.tolist())) == merge_pairs(wide, wide[::-1])

    def test_uint64_above_int64_and_mixed_dtypes_are_exact(self):
        top = (1 << 64) - 1
        build = np.array([top, 1 << 63, 5, top], dtype=np.uint64)
        # top and top - 1 are the same float64: an exact path tells them apart
        probe = np.array([top - 1, top, 1 << 63], dtype=np.uint64)
        assert kernel_pairs(build, probe) == Counter({(0, 1): 1, (3, 1): 1, (1, 2): 1})
        signed = np.array([-1, 5, (1 << 63) - 1], dtype=np.int64)
        assert kernel_pairs(signed, build) == Counter({(1, 2): 1})
        assert kernel_pairs(build, signed) == Counter({(2, 1): 1})

    def test_rejects_non_integer_keys(self):
        with pytest.raises(TypeError, match="integers"):
            radix.join_indices(np.array([1.0]), np.array([1]))
