"""Unit + property tests for the radix partitioning and join kernels."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import radix


class TestHistogram:
    def test_counts(self):
        h = radix.histogram(np.array([0, 0, 2]), 4)
        assert list(h) == [2, 0, 1, 0]

    def test_empty(self):
        assert list(radix.histogram(np.array([], dtype=np.int64), 3)) == [0, 0, 0]


class TestScatter:
    def test_partitions_contiguous_and_stable(self):
        ks = np.array([3, 1, 2, 1, 3])
        parts = radix.scatter_arrays([ks, np.arange(5)], ks % 2, 2)
        assert sorted(parts[0][0]) == [2]
        assert list(parts[1][1]) == [0, 1, 3, 4]  # stability preserved

    def test_empty_input(self):
        parts = radix.scatter_arrays([np.array([], dtype=np.int64)], np.array([], dtype=np.int64), 3)
        assert len(parts) == 3 and all(len(p[0]) == 0 and p[0].dtype == np.int64 for p in parts)

    def test_scatter_arrays_matches_scatter(self):
        """Every column moves with its row: the partitions of ``[k, v]``
        are those of ``k`` and of ``v`` scattered alone."""
        ks = np.array([5, 6, 7, 8, 9])
        vs = np.array([50, 60, 70, 80, 90])
        pids = ks % 4
        both = radix.scatter_arrays([ks, vs], pids, 4)
        by_k = radix.scatter_arrays([ks], pids, 4)
        by_v = radix.scatter_arrays([vs], pids, 4)
        for p in range(4):
            assert list(both[p][0]) == list(by_k[p][0]) == [k for k in ks if k % 4 == p]
            assert list(both[p][1]) == list(by_v[p][0]) == [v for k, v in zip(ks, vs) if k % 4 == p]

    def test_ids_and_rows_must_match(self):
        with pytest.raises(ValueError, match="3 partition ids for 2 rows"):
            radix.scatter_arrays([np.arange(2)], np.array([0, 1, 0]), 2)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(0, 1 << 30), max_size=200),
    bits=st.integers(1, 6),
)
def test_scatter_partition_property(keys, bits):
    ks = np.array(keys, dtype=np.int64)
    pids = ks & ((1 << bits) - 1)
    n = 1 << bits
    parts = radix.scatter_arrays([ks], pids, n)
    # every row lands in the partition matching its low bits; none lost
    assert sum(len(p[0]) for p in parts) == len(ks)
    for p, (part_keys,) in enumerate(parts):
        if len(part_keys):
            assert (part_keys & ((1 << bits) - 1) == p).all()


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
            radix.scatter_arrays([np.arange(len(pids))], pids, n)
        with pytest.raises(ValueError, match=span):
            radix.scatter_arrays([np.arange(len(pids)), np.zeros(len(pids), object)], pids, n)
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
    parts = radix.scatter_arrays([vals, vals.astype(str).astype(object)], pids, n)
    assert [len(p[0]) for p in parts] == list(sizes)
    assert np.array_equal(np.concatenate([p[0] for p in parts]), vals[order])
    # an object column follows its rows exactly as an int64 column does
    assert list(np.concatenate([p[1] for p in parts])) == [str(v) for v in vals[order]]


# --- join_indices ------------------------------------------------------------

INT64_RANGE = (-(1 << 63), (1 << 63) - 1)


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
    """Two int64 key columns drawn from one small pool, so both sides
    repeat keys and share some; the pool mixes small (also negative) keys,
    keys near 2**40 and keys anywhere in int64, whose span forces the
    argsort fallback."""
    pool = draw(st.lists(
        st.one_of(st.integers(-4, 4), st.integers(1 << 40, (1 << 40) + 8),
                  st.integers(*INT64_RANGE)),
        min_size=1, max_size=8,
    ))
    return [np.array(draw(st.lists(st.sampled_from(pool), max_size=40)), dtype=np.int64)
            for _ in range(2)]


@settings(max_examples=300, deadline=None)
@given(sides=join_sides())
def test_join_indices_equals_merge(sides):
    build, probe = sides
    assert kernel_pairs(build, probe) == merge_pairs(build, probe)


def table_rows(build):
    """The direct-address table's length, or None when the kernel falls
    back to the sort-merge; the table never exceeds its stated bound."""
    direct = radix._direct_table(build)
    if direct is None:
        return None
    assert len(direct[0]) <= radix.DIRECT_SLOTS_PER_ROW * len(build) + 1
    return len(direct[0])


@st.composite
def direct_sides(draw):
    """Unique build keys ``base + slot << s`` whose slots fill at least a
    ``1 / DIRECT_SLOTS_PER_ROW`` share of their range, so the table path
    runs, with any stride ``2**s`` and any base, negative included; probe
    keys mix build keys with keys below, above and between them (not
    aligned to the stride) and the int64 extremes."""
    n = draw(st.integers(1, 40))
    slots = draw(st.lists(st.integers(0, radix.DIRECT_SLOTS_PER_ROW * n - 1),
                          min_size=n, max_size=n, unique=True))
    stride_bits = draw(st.integers(0, 54))  # the span stays below 2**62
    stride = 1 << stride_bits
    top = radix.DIRECT_SLOTS_PER_ROW * n * stride
    base = draw(st.integers(INT64_RANGE[0], INT64_RANGE[1] - top))
    build = [base + slot * stride for slot in slots]
    near = st.sampled_from(build).flatmap(lambda k: st.sampled_from([
        k - stride, k + stride, k + stride // 2, k + 1, k - 1, k + stride - 1,
    ]))
    probe_key = st.one_of(
        st.sampled_from(build), near, st.integers(*INT64_RANGE),
        st.sampled_from([INT64_RANGE[0], INT64_RANGE[1], base - 1, build[-1]]),
    )
    probe = [k for k in draw(st.lists(probe_key, max_size=60)) if INT64_RANGE[0] <= k <= INT64_RANGE[1]]
    return np.array(build, dtype=np.int64), np.array(probe, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(sides=direct_sides())
def test_direct_table_equals_merge(sides):
    build, probe = sides
    assert table_rows(build) is not None
    assert kernel_pairs(build, probe) == merge_pairs(build, probe)


@st.composite
def fallback_sides(draw):
    """Build keys the table refuses: a repeated key, a span of 2**62 or
    more (the guard; 2**62 itself would make a two-slot table), the int64
    extremes, or unique keys too sparse for the table."""
    kind = draw(st.sampled_from(["repeat", "guard", "extremes", "sparse"]))
    lo = draw(st.integers(INT64_RANGE[0], INT64_RANGE[1] - (1 << 62)))
    if kind == "repeat":
        keys = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
        build = keys + [draw(st.sampled_from(keys))]
    elif kind == "guard":
        hi = draw(st.integers(lo + (1 << 62), INT64_RANGE[1]))
        build = [lo, hi] + draw(st.lists(st.sampled_from([lo, hi]), max_size=4))
    elif kind == "extremes":
        build = list(INT64_RANGE) + draw(st.lists(st.integers(*INT64_RANGE), max_size=10))
    else:
        n = draw(st.integers(2, 30))  # lo and lo + 1: no common low bits
        build = [lo + i for i in range(n)] + [lo + radix.DIRECT_SLOTS_PER_ROW * (n + 1)]
    build = np.array(draw(st.permutations(build)), dtype=np.int64)
    probe_key = st.one_of(st.sampled_from(build.tolist()), st.integers(*INT64_RANGE),
                          st.sampled_from(list(INT64_RANGE)))
    return build, np.array(draw(st.lists(probe_key, max_size=60)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(sides=fallback_sides())
def test_sort_merge_fallback_equals_merge(sides):
    build, probe = sides
    assert table_rows(build) is None
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

    def test_table_bound_is_inclusive(self):
        """Three rows may address 3 * DIRECT_SLOTS_PER_ROW slots, not one
        more."""
        top = 3 * radix.DIRECT_SLOTS_PER_ROW
        assert table_rows(np.array([0, 1, top - 1])) == top + 1  # + the miss slot
        assert table_rows(np.array([0, 1, top])) is None

    def test_sparse_repeat_falls_back(self):
        """Build keys that repeat one key but still span at least one slot
        per row (the radix stride 2, 22 rows over 22 slots) pass the
        slot-count test, so the table is built, then refused for the
        repeat; the sort-merge joins both copies of the key."""
        build = np.concatenate([np.arange(0, 40, 2), [42, 10]])
        assert (build.max() - build.min()) // 2 + 1 >= len(build)
        assert radix._direct_table(build) is None
        probe = np.arange(-2, 46)
        assert kernel_pairs(build, probe) == merge_pairs(build, probe)
        assert sum(kernel_pairs(build, probe).values()) == len(build)

    def test_rejects_non_integer_keys(self):
        # no atom is unsigned: uint64 keys raise too, instead of wrapping to int64
        top = np.array([(1 << 64) - 1], dtype=np.uint64)
        for build, probe in [(np.array([1.0]), np.array([1])), (top, np.array([1])),
                             (np.array([1]), top)]:
            with pytest.raises(TypeError, match="integers"):
                radix.join_indices(build, probe)
