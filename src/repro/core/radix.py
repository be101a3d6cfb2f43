"""Radix partitioning, join and aggregation kernels shared by the
operators and the monolithic baselines.

The paper's monolithic join uses software-write-combining radix
partitioning; the numpy equivalent here is a stable counting scatter:
``partition_order`` sorts rows by partition id, and ``scatter_arrays``
reorders the rows of numpy columns so each partition is a contiguous slice
whose extent comes from a histogram.
``join_indices`` is the build/probe kernel, an equi-join over one integer
key column. Its main path is the paper's: a table over the build keys
probed with one gather, the identity hash on the key bits above the radix
bits (Balkesen et al.), here a direct-address table, since inside a radix
partition the unique keys of a dense relation fill their range. Build
keys that repeat or spread too wide fall back to a sort-merge.
``reduce_by_key`` is the grouping kernel: a sort by the key, then one
``ufunc.reduceat`` per aggregate.

The modular ``BuildProbe``/``LocalPartitioning``/``MpiExchange``/
``ReduceByKey`` operators and the monolithic baselines call these same
kernels, so the cost of modularity compares plans, not kernels. On the
simulated cluster the ranks are threads, so the kernels keep their bulk
work in numpy calls that release the GIL: the table's scatter and gather,
``np.sort`` and the stable (radix) sort of 8/16-bit partition ids.
numpy's SIMD ``argsort`` holds the GIL and is only the sort-merge's
fallback for key spans too wide to pack.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd

from repro.core.types import RowVector


def histogram(pids: np.ndarray, n: int) -> np.ndarray:
    """Dense partition-size histogram of length ``n``; ids outside
    ``[0, n)`` raise, as in :func:`scatter_arrays`."""
    return np.bincount(_checked_ids(pids, n), minlength=n).astype(np.int64)


def _checked_ids(pids: np.ndarray, n: int) -> np.ndarray:
    """``pids`` as an array; ids outside ``[0, n)`` raise instead of being
    dropped or wrapped into a wrong partition."""
    pids = np.asarray(pids)
    if len(pids):
        lo, hi = int(pids.min()), int(pids.max())
        if lo < 0 or hi >= n:
            raise ValueError(f"partition ids span [{lo}, {hi}], outside [0, {n})")
    return pids


def partition_order(pids: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stable row order grouping rows by partition id, and the partition
    boundaries (length ``n + 1``).

    The ids are range-checked, then narrowed to the smallest unsigned type
    that holds ``n - 1`` (uint8 up to 256 partitions, uint16 up to 65 536),
    for which numpy's stable sort is a radix sort."""
    narrow = _checked_ids(pids, n).astype(np.min_scalar_type(max(n - 1, 0)), copy=False)
    order = np.argsort(narrow, kind="stable")
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(narrow, minlength=n), out=bounds[1:])
    return order, bounds


def scatter_arrays(
    arrays: Sequence[np.ndarray], pids: np.ndarray, n: int
) -> List[List[np.ndarray]]:
    """Stable-partition the rows of the columns ``arrays`` into ``n``
    partitions ordered by partition id: one fancy-index per column, then
    zero-copy views per partition. Element ``[p][i]`` is column ``i`` of
    partition ``p``."""
    for a in arrays:
        if len(a) != len(pids):
            raise ValueError(f"{len(pids)} partition ids for {len(a)} rows")
    order, bounds = partition_order(pids, n)
    reordered = [a[order] for a in arrays]
    return [[a[bounds[p] : bounds[p + 1]] for a in reordered] for p in range(n)]


def join_indices(build_keys: np.ndarray, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join two integer key columns: returns ``(build_idx, probe_idx)``
    with one entry per matching (build row, probe row) pair, duplicates on
    both sides included.

    Build/probe over a direct-address table (``_direct_table``) when the
    build keys are unique and dense enough, as they are inside a radix
    partition; otherwise a sort-merge: both sides are sorted
    (``_sorted_rows``), the sorted probe keys are located among the
    distinct build keys with one ``searchsorted``, and every hit expands
    to its run of equal build keys.

    No order of the pairs is guaranteed: the table emits them in probe-row
    order, the sort-merge in ascending key order (within a key by probe
    row, then build row). Every caller treats them as a set: ``BuildProbe``
    (which appends its outer join's unmatched probe rows after the pairs),
    and the monolithic join."""
    bk, pk = _widen(build_keys), _widen(probe_keys)
    empty = np.zeros(0, dtype=np.int64)
    if not len(bk) or not len(pk):
        return empty, empty
    direct = _direct_table(bk)
    if direct is not None:
        return _probe_table(*direct, pk)
    base = min(bk.min(), pk.min())
    span = int(max(bk.max(), pk.max())) - int(base)
    # both sides take the same path, so their sorted keys compare
    if span >= 1 << (63 - (max(len(bk), len(pk)) - 1).bit_length()):
        base = None
    b_key, b_order = _sorted_rows(bk, base)
    p_key, p_order = _sorted_rows(pk, base)

    # distinct build keys: the first row of every run of equal sorted keys
    first = np.flatnonzero(np.concatenate(([True], b_key[1:] != b_key[:-1])))
    distinct = b_key[first]
    pos = np.minimum(np.searchsorted(distinct, p_key), len(distinct) - 1)
    hit = distinct[pos] == p_key
    if len(first) == len(b_key):
        # unique build keys: each hit is exactly one pair
        build_idx, probe_idx = b_order[pos[hit]], p_order[hit]
    else:
        cnt = np.where(hit, np.diff(first, append=len(b_key))[pos], 0)
        # position in sorted build order = run start + rank inside the run
        step = np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        build_idx = b_order[np.repeat(first[pos], cnt) + step]
        probe_idx = np.repeat(p_order, cnt)
    return build_idx, probe_idx


#: Slots a direct-address table may hold per build row. The table of ``n``
#: build rows then takes at most 32 bytes per row, no more than the sorted
#: key/row copies the sort-merge makes of the build side. Measured with
#: unique keys drawn from a span of ``d`` slots per row (4 cores, numpy
#: 1.26, as many probe rows): at ``d`` <= 4 build/probe takes 0.3-0.6x the
#: sort-merge's time from 2**15 to 2**20 build rows; once the table leaves
#: the cache (2**18 rows and more) the two break even at ``d`` = 16 to 32.
DIRECT_SLOTS_PER_ROW = 4


def _direct_table(bk: np.ndarray) -> Optional[Tuple[np.ndarray, np.int64, int]]:
    """The direct-address table over unique build keys, as ``(table, lo,
    shift)``, or None when the keys repeat or spread too wide.

    The table is the identity hash on the key bits above the bits all
    build keys share: ``key - lo`` with ``lo`` the smallest key, shifted
    right by ``shift``, the number of trailing zero bits common to all of
    ``key - lo`` (inside a radix partition, the radix bits). It holds
    ``(max - lo) >> shift`` + 1 slots, at most ``DIRECT_SLOTS_PER_ROW`` per
    build row, each the build row whose key it addresses or -1, plus one
    more -1 slot that every non-matching probe key reads."""
    lo = bk.min()
    span = int(bk.max()) - int(lo)
    if span >= 1 << 62:  # so that key - lo cannot overflow an int64
        return None
    offset = bk - lo
    common = int(np.bitwise_or.reduce(offset))
    shift = (common & -common).bit_length() - 1 if common else 0
    n_slots = (span >> shift) + 1
    # fewer slots than rows: some key repeats, known before any table is built
    if not len(bk) <= n_slots <= DIRECT_SLOTS_PER_ROW * len(bk):
        return None
    slot = offset >> shift
    rows = np.arange(len(bk), dtype=np.int64)
    table = np.full(n_slots + 1, -1, dtype=np.int64)
    table[slot] = rows
    # a repeated key keeps only its last row in the table
    if not np.array_equal(table[slot], rows):
        return None
    return table, lo, shift


def _probe_table(
    table: np.ndarray, lo: np.int64, shift: int, pk: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Probe ``_direct_table``'s table with one gather; pairs in probe-row
    order. ``pk - lo`` wraps modulo 2**64 for probe keys far from the
    build range; read as unsigned, it is exact for keys in ``[lo, max]``
    and larger than ``max - lo`` for every other key, whose slot is
    clamped to the -1 slot. So is a key in range whose low ``shift`` bits
    differ from the build keys'."""
    miss = np.uint64(len(table) - 1)
    offset = (pk - lo).view(np.uint64)
    slot = np.minimum(offset >> np.uint64(shift), miss)
    if shift:
        slot[(offset & np.uint64((1 << shift) - 1)) != 0] = miss
    build_idx = table[slot]
    hit = build_idx >= 0
    return build_idx[hit], np.flatnonzero(hit)


def _sorted_rows(keys: np.ndarray, base) -> Tuple[np.ndarray, np.ndarray]:
    """Keys in ascending order (as ``key - base``) and the stable row order
    that sorts them.

    The caller passes a ``base`` only when ``key - base`` and the row number
    fit together in 63 bits: one ``np.sort`` of ``(key - base) << b | row``
    then gives both at once (distinct values, so any sort is stable).
    Without a base, a stable ``argsort`` of the keys themselves."""
    if base is None:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    b = max(len(keys) - 1, 0).bit_length()
    packed = np.sort(((keys - base).astype(np.int64) << b) | np.arange(len(keys), dtype=np.int64))
    return packed >> b, packed & ((1 << b) - 1)


def _widen(keys: np.ndarray) -> np.ndarray:
    """Signed integer keys as int64; any other dtype (unsigned, which the
    type system has no atom for, or non-integer) raises."""
    keys = np.asarray(keys)
    if keys.dtype.kind != "i":
        raise TypeError(f"join keys must be signed integers, got {keys.dtype}")
    return keys.astype(np.int64, copy=False)


_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def reduce_by_key(batch: RowVector, key: str, aggs: Dict[str, str]) -> RowVector:
    """GROUP BY ``key``: one tuple per distinct non-NULL key, in ascending
    key order and the input's column order, every other column reduced by
    ``aggs`` (:func:`aggregate`). A batch without groups passes on as is."""
    if len(batch) and batch[key].dtype.kind in "fmMO":
        batch = batch.take(~pd.isna(batch[key]))
    if not len(batch):
        return batch
    order = np.argsort(batch[key], kind="stable")
    keys = batch[key][order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    groups = np.cumsum(first) - 1
    out = {c: aggregate(batch[c][order], groups, int(groups[-1]) + 1, a) for c, a in aggs.items()}
    out[key] = keys[first]
    return RowVector({c: out[c] for c in batch.columns})


def aggregate(values: np.ndarray, groups: np.ndarray, n: int, agg: str) -> np.ndarray:
    """``agg`` ('sum', 'count', 'min' or 'max') of ``values`` per group
    ``0..n-1`` (``groups``, ascending), as in SQL: NULLs (NaN, NaT, None)
    are skipped, and 'sum'/'min'/'max' over none are NULL."""
    if values.dtype.kind in "fmMO":
        ok = ~pd.isna(values)
        values, groups = values[ok], groups[ok]
    counts = np.bincount(groups, minlength=n)
    if agg == "count":
        return counts
    has = counts > 0
    out = _UFUNCS[agg].reduceat(values, (np.cumsum(counts) - counts)[has])
    if out.dtype == object:  # an object column's NULL is None, as in DuckDB
        filled = np.full(n, None, dtype=object)
        filled[has] = out
        return filled
    return pd.api.extensions.take(out, np.where(has, np.cumsum(has) - 1, -1), allow_fill=True)
