"""Spatial operators: geohash encode/decode, prefix-trie coverage sketch,
k-means coverage ranges, bounding-box overlap scoring.

Reference semantics (lib_profiler/datamart_profiler/spatial.py in
/root/reference):
  * hash_location (:406-476): interleave longitude/latitude halving bits
    (longitude first — base=32 gives standard Geohash strings, base=4 a
    quadtree) — here `hash_locations`, vectorized over numpy arrays;
  * decode_hash (:478-509): hash -> (min_lat, max_lat, min_long, max_long);
  * Geohasher (:524-631): self-limiting prefix trie (<= `number` nodes
    per level; overflowing a level caps the precision) — re-expressed as
    a MERGEABLE sketch so per-batch partials combine in a final reduce
    (the partial+final aggregation pattern the reference's per-process
    tree cannot do).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

GEOHASH_CHARS = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_VALUE = {c: i for i, c in enumerate(GEOHASH_CHARS)}


def _base_bits(base: int) -> int:
    bb = base.bit_length() - 1
    if 2**bb != base:
        raise ValueError("base must be a power of 2")
    return bb


def hash_locations(
    lats: np.ndarray, longs: np.ndarray, base: int = 4, precision: int = 16
) -> list[str]:
    """Geohash strings of coordinate arrays (the reference's hash_location,
    vectorized)."""
    bb = _base_bits(base)
    nbits = bb * precision
    n = len(lats)
    lat_lo = np.full(n, -90.0)
    lat_hi = np.full(n, 90.0)
    lon_lo = np.full(n, -180.0)
    lon_hi = np.full(n, 180.0)
    bits = np.zeros((n, nbits), dtype=np.uint8)
    next_long = True
    for i in range(nbits):
        if next_long:
            mid = (lon_lo + lon_hi) / 2.0
            hi = longs > mid
            bits[:, i] = hi
            lon_lo = np.where(hi, mid, lon_lo)
            lon_hi = np.where(hi, lon_hi, mid)
        else:
            mid = (lat_lo + lat_hi) / 2.0
            hi = lats > mid
            bits[:, i] = hi
            lat_lo = np.where(hi, mid, lat_lo)
            lat_hi = np.where(hi, lat_hi, mid)
        next_long = not next_long
    # bits -> chars
    weights = (1 << np.arange(bb - 1, -1, -1)).astype(np.int64)
    codes = bits.reshape(n, precision, bb).astype(np.int64) @ weights
    return ["".join(GEOHASH_CHARS[v] for v in row) for row in codes]


def decode_hash(h: str, base: int = 4) -> tuple[float, float, float, float]:
    """hash -> (min_lat, max_lat, min_long, max_long)."""
    bb = _base_bits(base)
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    next_long = True
    for c in h:
        v = _CHAR_VALUE[c]
        for i in reversed(range(bb)):
            bit = (v >> i) & 1
            if next_long:
                mid = (lon_lo + lon_hi) / 2.0
                lon_lo, lon_hi = (mid, lon_hi) if bit else (lon_lo, mid)
            else:
                mid = (lat_lo + lat_hi) / 2.0
                lat_lo, lat_hi = (mid, lat_hi) if bit else (lat_lo, mid)
            next_long = not next_long
    return lat_lo, lat_hi, lon_lo, lon_hi


class GeohashSketch:
    """Self-limiting, MERGEABLE geohash prefix sketch.

    Holds per-level hash->count maps up to `precision`; if a level
    exceeds `number` distinct cells the effective precision caps there
    (reference Geohasher behavior). Unlike the reference's pointer trie,
    level maps merge by plain counter addition, so per-batch sketches
    combine in a final reduce.
    """

    def __init__(self, number: int = 100, base: int = 4, precision: int = 16):
        self.number = number
        self.base = base
        self.precision = precision
        self.levels: list[dict[str, int]] = [dict() for _ in range(precision)]
        self.total = 0
        # deepest level this sketch (or any merge participant) is
        # allowed to SELECT — see truncate_at_overflow
        self.level_cap = precision

    def add_points(self, lats: np.ndarray, longs: np.ndarray) -> None:
        hashes = hash_locations(lats, longs, self.base, self.precision)
        self.total += len(hashes)
        for lvl in range(self.precision):
            m = self.levels[lvl]
            for h in hashes:
                key = h[: lvl + 1]
                m[key] = m.get(key, 0) + 1

    def merge(self, other: "GeohashSketch") -> "GeohashSketch":
        assert (self.base, self.precision) == (other.base, other.precision)
        for lvl in range(self.precision):
            m = self.levels[lvl]
            for k, v in other.levels[lvl].items():
                m[k] = m.get(k, 0) + v
        self.total += other.total
        self.level_cap = min(self.level_cap, other.level_cap)
        return self

    def truncate_at_overflow(self) -> int:
        """Drop level maps at/above this sketch's own first-overflow
        level and return that cap — partials then ship ~cap*number
        entries instead of all `precision` maps (multi-MB rows for
        dense batches). EXACT under merge: prefix distinct counts are
        monotone in depth, so any level >= one participant's overflow
        level overflows in the merged sketch too and could never be
        selected; merge() takes the min cap so selection never reads a
        level some participant truncated."""
        cap = self.effective_precision()
        for lvl in range(cap, self.precision):
            self.levels[lvl] = {}
        self.level_cap = min(self.level_cap, cap)
        return cap

    def effective_precision(self) -> int:
        cap = min(self.level_cap, self.precision)
        for lvl in range(cap):
            if len(self.levels[lvl]) > self.number:
                return lvl  # this level overflowed; use the one above
        return cap

    def get_hashes(self) -> list[tuple[str, int]]:
        p = self.effective_precision()
        if p == 0:
            return [("", self.total)]
        return sorted(self.levels[p - 1].items())


def spatial_ranges_kmeans(
    lats: np.ndarray, longs: np.ndarray, k: int = 3, min_share: float = 0.1,
) -> list[tuple[float, float, float, float]]:
    """A3 spatial coverage: k<=3 2-D k-means bounding boxes with 5th-95th
    percentile bounds per cluster, clusters under 10% of points dropped,
    and degenerate (zero-area) boxes inflated by 1e-4 — reference
    get_spatial_ranges (lib_profiler/spatial.py:49-106; Lucene needs
    non-degenerate shapes). Quantile-seeded Lloyd iteration replaces
    sklearn KMeans(random_state=0) (sklearn absent; deterministic).

    Returns [(min_lat, max_lat, min_long, max_long)] sorted.
    """
    pts = np.stack([lats, longs], axis=1).astype(np.float64)
    pts = pts[np.isfinite(pts).all(axis=1)]
    if pts.shape[0] == 0:
        return []
    k = min(k, np.unique(pts, axis=0).shape[0])
    # seed centers on the diagonal quantiles (deterministic)
    qs = np.linspace(0.1, 0.9, k)
    centers = np.stack(
        [np.quantile(pts[:, 0], qs), np.quantile(pts[:, 1], qs)], axis=1
    )
    for _ in range(50):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new = np.stack(
            [
                pts[assign == j].mean(axis=0) if (assign == j).any() else centers[j]
                for j in range(k)
            ]
        )
        if np.allclose(new, centers):
            break
        centers = new
    boxes = []
    for j in range(k):
        cluster = pts[assign == j]
        if cluster.shape[0] < min_share * pts.shape[0]:
            continue
        lat_lo, lat_hi = np.quantile(cluster[:, 0], [0.05, 0.95])
        lon_lo, lon_hi = np.quantile(cluster[:, 1], [0.05, 0.95])
        if lat_hi - lat_lo < 1e-4:  # inflate degenerate boxes (points/lines)
            lat_lo, lat_hi = lat_lo - 5e-5, lat_hi + 5e-5
        if lon_hi - lon_lo < 1e-4:
            lon_lo, lon_hi = lon_lo - 5e-5, lon_hi + 5e-5
        boxes.append((float(lat_lo), float(lat_hi), float(lon_lo), float(lon_hi)))
    return sorted(boxes)


def bbox_overlap_scores(boxes_ds, query_boxes, coverage: float | None = None,
                        id_col: str = "dataset_id"):
    """J6 spatial join search: score candidate coverage boxes by
    intersection area with the query envelopes.

    Reference: ES geo_shape envelope intersection with a painless
    script_score  ``((n_max_lon-n_min_lon)*(n_max_lat-n_min_lat)) /
    coverage``  summed over ranges (apiserver/search/join.py:255-358);
    coverage = total area of the query envelopes.

    boxes_ds: Dataset with (id_col, min_lat, max_lat, min_lon, max_lon)
    — one row per candidate coverage box (a dataset may own several).
    query_boxes: [(min_lat, max_lat, min_lon, max_lon)], broadcast.
    Returns a Dataset (id_col, score) with score = sum of
    intersection_area/coverage over all (candidate box, query box)
    pairs, keeping only ids with score > 0 (ES minimum_should_match=1).
    """
    import ray
    from ray.data.aggregate import Sum

    qb = np.asarray(query_boxes, dtype=np.float64).reshape(-1, 4)
    if coverage is None:
        coverage = float(((qb[:, 1] - qb[:, 0]) * (qb[:, 3] - qb[:, 2])).sum())
    ref = ray.put((qb, coverage))

    def score(batch: pa.Table) -> pa.Table:
        q, cov = ray.get(ref)
        lo_lat = batch["min_lat"].to_numpy(zero_copy_only=False).astype(np.float64)
        hi_lat = batch["max_lat"].to_numpy(zero_copy_only=False).astype(np.float64)
        lo_lon = batch["min_lon"].to_numpy(zero_copy_only=False).astype(np.float64)
        hi_lon = batch["max_lon"].to_numpy(zero_copy_only=False).astype(np.float64)
        total = np.zeros(len(lo_lat), np.float64)
        for j in range(q.shape[0]):  # few query envelopes; vector per box
            dlat = np.minimum(hi_lat, q[j, 1]) - np.maximum(lo_lat, q[j, 0])
            dlon = np.minimum(hi_lon, q[j, 3]) - np.maximum(lo_lon, q[j, 2])
            inter = np.where((dlat > 0) & (dlon > 0), dlat * dlon, 0.0)
            total += inter
        return pa.table(
            {
                id_col: batch[id_col],
                "score": pa.array(total / cov),
            }
        )

    return (
        boxes_ds.map_batches(score, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("score", alias_name="score"))
        .filter(expr="score > 0")
    )
