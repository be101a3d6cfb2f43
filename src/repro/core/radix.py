"""Radix partitioning and join kernels shared by every join implementation.

The paper's monolithic join uses software-write-combining radix
partitioning; the numpy equivalent here is a stable counting scatter:
``partition_ids`` extracts the low ``bits`` of the key (identity hash, as in
the compression scheme of Barthels et al.), and ``scatter`` reorders rows so
each partition is a contiguous slice whose extent comes from a histogram.
``join_indices`` is the build/probe kernel: a sort-merge equi-join over one
integer key column.

The modular ``BuildProbe``/``LocalPartitioning``/``MpiExchange`` operators
and the monolithic baselines call these same kernels, so the cost of
modularity compares plans, not kernels. On the simulated cluster the ranks
are threads, so the kernels keep their bulk work in numpy calls that release
the GIL: ``np.sort`` and the stable (radix) sort of 8/16-bit partition ids.
numpy's SIMD ``argsort`` holds the GIL and is only the fallback for key
spans too wide to pack.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd


def partition_ids(keys: np.ndarray, bits: int) -> np.ndarray:
    """Radix partition id = low ``bits`` bits of the (identity-hashed) key."""
    return (np.asarray(keys).astype(np.int64, copy=False)) & ((1 << bits) - 1)


def histogram(pids: np.ndarray, n: int) -> np.ndarray:
    """Dense partition-size histogram of length ``n``; ids outside
    ``[0, n)`` raise, as in :func:`scatter`."""
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


def _partition_order(pids: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
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


def scatter(pdf: pd.DataFrame, pids: np.ndarray, n: int) -> List[pd.DataFrame]:
    """Stable-partition ``pdf`` into ``n`` frames ordered by partition id.

    Works column-wise on raw numpy arrays (one fancy-index per column, then
    zero-copy views per partition) — the frame-level equivalent of the
    monolithic ``scatter_arrays``."""
    if len(pids) != len(pdf):
        raise ValueError(f"{len(pids)} partition ids for {len(pdf)} rows")
    if not len(pdf):
        return [pdf.iloc[:0] for _ in range(n)]
    order, bounds = _partition_order(pids, n)
    cols = {c: pdf[c].to_numpy()[order] for c in pdf.columns}
    return [
        pd.DataFrame({c: a[bounds[p] : bounds[p + 1]] for c, a in cols.items()}, copy=False)
        for p in range(n)
    ]


def scatter_arrays(
    arrays: Sequence[np.ndarray], pids: np.ndarray, n: int
) -> List[List[np.ndarray]]:
    """Like :func:`scatter` but over raw numpy columns (monolithic fast path)."""
    order, bounds = _partition_order(pids, n)
    reordered = [a[order] for a in arrays]
    return [[a[bounds[p] : bounds[p + 1]] for a in reordered] for p in range(n)]


def join_indices(build_keys: np.ndarray, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join two integer key columns: returns ``(build_idx, probe_idx)``
    with one entry per matching (build row, probe row) pair, duplicates on
    both sides included.

    Sort-merge: both sides are sorted (``_sorted_rows``), the sorted probe
    keys are located among the distinct build keys with one
    ``searchsorted``, and every hit expands to its run of equal build keys.
    Pairs come out in ascending key order; within a key they are ordered
    by probe row, then by build row."""
    bk, pk, b_rows, p_rows = _comparable_keys(build_keys, probe_keys)
    empty = np.zeros(0, dtype=np.int64)
    if not len(bk) or not len(pk):
        return empty, empty
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
    if b_rows is not None:
        build_idx = b_rows[build_idx]
    if p_rows is not None:
        probe_idx = p_rows[probe_idx]
    return build_idx, probe_idx


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


def _comparable_keys(
    build: np.ndarray, probe: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Both key columns in one 64-bit integer dtype, without the float64
    round trip numpy would take for an int64/uint64 pair.

    Returns the keys and, for each side, the input rows they come from
    (``None`` = all rows): when neither dtype holds the other side's keys,
    negative signed keys and unsigned keys >= 2**63 can match nothing and
    are left out."""
    build, probe = _widen(build), _widen(probe)
    if build.dtype == probe.dtype:
        return build, probe, None, None
    swap = build.dtype == np.uint64
    signed, unsigned = (probe, build) if swap else (build, probe)
    s_rows = u_rows = None
    if not len(signed) or signed.min() >= 0:
        signed = signed.astype(np.uint64)
    elif not len(unsigned) or int(unsigned.max()) < 1 << 63:
        unsigned = unsigned.astype(np.int64)
    else:
        s_rows = np.flatnonzero(signed >= 0)
        u_rows = np.flatnonzero(unsigned < np.uint64(1 << 63))
        signed, unsigned = signed[s_rows], unsigned[u_rows].astype(np.int64)
    return (unsigned, signed, u_rows, s_rows) if swap else (signed, unsigned, s_rows, u_rows)


def _widen(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise TypeError(f"join keys must be integers, got {keys.dtype}")
    return keys.astype(np.int64 if keys.dtype.kind == "i" else np.uint64, copy=False)
