"""Temporal resolution inference and join alignment (reference A6/J3/K5).

Mirrors lib_profiler/datamart_profiler/temporal.py:15-71: resolutions
are tried coarse-to-fine (year, quarter, month, week, day, hour,
minute, second); the first whose buckets hold < 1.05 distinct values on
average wins; a single value falls through to its finest nonzero field.
`coarser_resolution` reproduces the join alignment priority
(apiserver/search/join.py:17-20: both sides re-keyed to the coarser).

Vectorized over numpy datetime64 — no per-value Python in the bucket
counting.
"""

from __future__ import annotations

import numpy as np

RESOLUTION_ORDER = [
    "year", "quarter", "month", "week", "day", "hour", "minute", "second",
]


def _bucket_codes(vals_s: np.ndarray, resolution: str) -> np.ndarray:
    """Integer bucket id per value (datetime64[s] input)."""
    if resolution == "year":
        return vals_s.astype("datetime64[Y]").astype(np.int64)
    if resolution == "quarter":
        months = vals_s.astype("datetime64[M]").astype(np.int64)
        return months // 3
    if resolution == "month":
        return vals_s.astype("datetime64[M]").astype(np.int64)
    if resolution == "week":
        days = vals_s.astype("datetime64[D]").astype(np.int64)
        # 1970-01-01 was a Thursday; align to Monday starts
        return (days + 3) // 7
    if resolution == "day":
        return vals_s.astype("datetime64[D]").astype(np.int64)
    if resolution == "hour":
        return vals_s.astype("datetime64[h]").astype(np.int64)
    if resolution == "minute":
        return vals_s.astype("datetime64[m]").astype(np.int64)
    return vals_s.astype(np.int64)  # second


def get_temporal_resolution(values: np.ndarray) -> str:
    """values: datetime64 array (any unit). Reference algorithm with a
    5% tolerance (avg distinct values per bucket < 1.05)."""
    vals = np.unique(np.asarray(values).astype("datetime64[s]"))
    if vals.size == 0:
        return "day"
    if vals.size == 1:
        sec = vals.astype(np.int64)[0]
        if sec % 60:
            return "second"
        if (sec // 60) % 60:
            return "minute"
        if (sec // 3600) % 24:
            return "hour"
        return "day"
    for resolution in RESOLUTION_ORDER:
        codes = _bucket_codes(vals, resolution)
        n_buckets = np.unique(codes).size
        if vals.size / n_buckets < 1.05:
            return resolution
    return "second"


def coarser_resolution(a: str, b: str) -> str:
    """Join alignment: both sides bucket at the coarser side's resolution
    (K5; apiserver/search/join.py:17-20)."""
    return a if RESOLUTION_ORDER.index(a) <= RESOLUTION_ORDER.index(b) else b
