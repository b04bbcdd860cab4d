"""Similarity search over embedding columns (list<float>).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(`ray.put`), each map_batches task does one numpy matmul per batch and
emits its local top-k; a final small sort-limit merges. Scale path:
LSH-bucketed search (random hyperplane signatures -> candidates only
from matching buckets), same broadcast pattern.

The reference's nearest-neighbor machinery is the KDTree spatial join
(lib_augmentation/datamart_augmentation/augmentation.py:342-370 —
build small side once, query per chunk); the broadcast-index-into-
map_batches shape here is the same idea at embedding scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _to_matrix(list_arr) -> np.ndarray:
    if isinstance(list_arr, pa.ChunkedArray):
        list_arr = list_arr.combine_chunks()
    flat = np.asarray(list_arr.flatten(), dtype=np.float64)
    n = len(list_arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(ds, query_vecs: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding"):
    """Dataset of embeddings -> top-k cosine matches per query.

    Returns a Dataset with (query_id, vec_id, cosine) — exactly k rows
    per query (fewer if the corpus is smaller), cosine in float64.
    """
    import ray

    q = np.ascontiguousarray(query_vecs, dtype=np.float64)
    qn = _normalize(q)
    ref = ray.put(qn)

    def local_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(batch[vec_col]))
        if m.size == 0:
            # empty block typed from the INPUT id column (hardcoded
            # int64 schema-conflicted with string vec_ids downstream)
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 id_col: pa.nulls(0, batch.schema.field(id_col).type),
                 "cosine": pa.array([], pa.float64())}
            )
        sims = qm @ m.T  # (n_q, n_batch)
        kk = min(k, sims.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            # top-k by (cosine desc, vec_id asc): partial select then sort
            idx = np.argpartition(-row, kk - 1)[:kk]
            idx = idx[np.lexsort((ids[idx], -row[idx]))]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_id.append(ids[idx])
            out_s.append(row[idx])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "cosine": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow", batch_size=4096)

    def merge(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        sims = group["cosine"].to_numpy(zero_copy_only=False)
        kk = min(k, len(ids))
        idx = np.lexsort((ids, -sims))[:kk]
        qid = group["query_id"][0].as_py()
        return pa.table(
            {
                "query_id": pa.array(np.full(kk, qid, dtype=np.int64)),
                id_col: pa.array(ids[idx]),
                "cosine": pa.array(sims[idx], pa.float64()),
            }
        )

    return partials.groupby("query_id").map_groups(merge, batch_format="pyarrow")


def adaptive_n_planes(n_rows: int, target_bucket: int = 256,
                      lo: int = 4, hi: int = 30) -> int:
    """Plane count sized to the corpus: 2^planes buckets keep the
    EXPECTED bucket population near `target_bucket`, so the quadratic
    within-bucket work stays bounded as the corpus grows (round-1's
    fixed 2^8 buckets meant ~0.4 TB per bucket at 100 TB)."""
    import math

    if n_rows <= target_bucket:
        return lo
    return int(min(hi, max(lo, math.ceil(math.log2(n_rows / target_bucket)))))


class HyperplaneLSH:
    """Random-hyperplane signatures for bucketed ANN (scale path).

    Signature = sign pattern of `n_planes` seeded Gaussian projections;
    near vectors collide with high probability. `n_tables` independent
    plane sets (banded LSH) trade work for recall: a vector lands in one
    bucket PER TABLE and a pair is a candidate if it collides in ANY
    table. The bucket key folds the table index into the high bits, so
    downstream groupbys see one flat key column. Actor state: the plane
    tensor, built once per actor.
    """

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 89,
                 id_col: str = "vec_id", vec_col: str = "embedding",
                 n_tables: int = 1):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.planes = rng.standard_normal((n_tables, n_planes, dim))
        self.n_planes = n_planes
        self.n_tables = n_tables
        self.id_col = id_col
        self.vec_col = vec_col

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        """(n, dim) -> (n, n_tables) folded bucket keys."""
        out = np.empty((m.shape[0], self.n_tables), np.int64)
        for t in range(self.n_tables):
            bits = (m @ self.planes[t].T) > 0
            b = (bits.astype(np.int64) << np.arange(self.n_planes)).sum(axis=1)
            out[:, t] = b | (np.int64(t) << np.int64(self.n_planes))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Explode each row into n_tables (lsh_bucket, row) entries."""
        m = _to_matrix(batch[self.vec_col])
        n = m.shape[0] if m.size else 0
        if n == 0:
            return batch.append_column(
                "lsh_bucket", pa.array(np.empty(0, np.int64))
            )
        buckets = self.bucket_of(m)  # (n, T)
        if self.n_tables == 1:
            return batch.append_column("lsh_bucket", pa.array(buckets[:, 0]))
        idx = np.repeat(np.arange(n), self.n_tables)
        out = batch.take(pa.array(idx))
        return out.append_column("lsh_bucket", pa.array(buckets.ravel()))


def lsh_topk(ds, query_vecs: np.ndarray, k: int = 10, dim: int | None = None,
             n_planes: int | None = None, seed: int = 89,
             id_col: str = "vec_id", vec_col: str = "embedding",
             n_tables: int = 4, n_rows: int | None = None):
    """Bucketed ANN: only rows whose LSH bucket matches a query's bucket
    in ANY of the `n_tables` banded tables are scored (approximate —
    recall grows with n_tables; the brute-force path is the correctness
    baseline). n_planes defaults to the corpus-adaptive size."""
    q = np.ascontiguousarray(query_vecs, dtype=np.float64)
    if dim is None:
        dim = q.shape[1]
    if n_planes is None:
        # ds.count() is metadata-only for an untransformed parquet read
        # (the driver-query shape); for a TRANSFORMED dataset it executes
        # the pipeline once just for sizing — pass n_rows explicitly
        # there to avoid the extra corpus pass
        n_planes = adaptive_n_planes(n_rows if n_rows is not None else ds.count())
    hasher = HyperplaneLSH(dim, n_planes, seed, id_col, vec_col, n_tables)
    q_buckets = set(hasher.bucket_of(_normalize(q)).ravel().tolist())
    bucket_arr = pa.array(sorted(q_buckets), pa.int64())

    def keep_candidates(batch: pa.Table) -> pa.Table:
        """One hash pass, no explode: keep a row if any table collides,
        then drop the bucket column (dedup-free candidate set)."""
        m = _to_matrix(batch[vec_col])
        if m.size == 0:
            return batch
        buckets = hasher.bucket_of(m)  # (n, T)
        from auctus_ray.util import sorted_membership

        qb = np.asarray(bucket_arr)
        hit = np.zeros(m.shape[0], bool)
        for t in range(buckets.shape[1]):
            mask, _ = sorted_membership(qb, buckets[:, t])
            hit |= mask
        return batch.filter(pa.array(hit))

    cand = ds.map_batches(keep_candidates, batch_format="pyarrow")
    return brute_force_topk(cand, query_vecs, k=k, id_col=id_col, vec_col=vec_col)


# ------------------------------------------------------------------ IVF


class IVFIndexParams:
    """Trained coarse quantizer for IVF search: `centroids` (k, dim),
    unit-normalized. Train ONCE on a sample (driver-side numpy k-means,
    seeded Lloyd on quantile-ish init), broadcast via ray.put; every
    stage (assignment, query) is a vectorized matmul against it."""

    __slots__ = ("centroids",)

    def __init__(self, centroids: np.ndarray):
        self.centroids = centroids


def train_ivf(ds, n_centroids: int = 64, sample_size: int = 20000,
              n_iters: int = 20, seed: int = 89,
              vec_col: str = "embedding") -> IVFIndexParams:
    """Coarse quantizer from a bounded sample of the corpus (spherical
    k-means: cosine assignment, mean + renormalize update). The sample
    is the only thing that leaves the cluster; training is O(sample)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_rows = ds.count()
    take = min(sample_size, n_rows)
    sample_rows = ds.limit(take).take_all()
    m = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in sample_rows])
    m = _normalize(m)
    k = min(n_centroids, m.shape[0])
    centroids = m[rng.choice(m.shape[0], k, replace=False)]
    for _ in range(n_iters):
        sims = m @ centroids.T
        assign = sims.argmax(axis=1)
        new = np.empty_like(centroids)
        for j in range(k):
            members = m[assign == j]
            if members.shape[0]:
                c = members.mean(axis=0)
                nc = np.linalg.norm(c)
                new[j] = c / nc if nc else centroids[j]
            else:  # dead centroid: reseed deterministically
                new[j] = m[int(rng.integers(0, m.shape[0]))]
        if np.allclose(new, centroids, atol=1e-9):
            centroids = new
            break
        centroids = new
    return IVFIndexParams(centroids)


def ivf_topk(ds, query_vecs: np.ndarray, k: int = 10,
             params: IVFIndexParams | None = None, n_centroids: int = 64,
             nprobe: int = 8, seed: int = 89,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """IVF approximate top-k: score only rows whose coarse list is among
    each query's `nprobe` nearest centroids (the classic
    inverted-file ANN layout; recall grows with nprobe, exact at
    nprobe == n_centroids). Rows outside every query's probe set are
    dropped inside the map — the scan is corpus-wide but the exact
    distance work (and any shuffle) is nprobe/n_centroids of it."""
    import ray

    if params is None:
        params = train_ivf(
            ds, n_centroids=n_centroids, seed=seed, vec_col=vec_col
        )
    q = _normalize(np.ascontiguousarray(query_vecs, dtype=np.float64))
    qsims = q @ params.centroids.T
    npb = min(nprobe, params.centroids.shape[0])
    probe = np.argpartition(-qsims, npb - 1, axis=1)[:, :npb]
    probe_set = np.unique(probe.ravel())
    cref = ray.put((params.centroids, probe_set))

    def keep_probed(batch: pa.Table) -> pa.Table:
        cents, probed = ray.get(cref)
        m = _normalize(_to_matrix(batch[vec_col]))
        if m.size == 0:
            return batch
        from auctus_ray.util import sorted_membership

        lists = (m @ cents.T).argmax(axis=1)
        hit, _ = sorted_membership(probed, lists)
        return batch.filter(pa.array(hit))

    cand = ds.map_batches(keep_probed, batch_format="pyarrow")
    return brute_force_topk(cand, query_vecs, k=k, id_col=id_col, vec_col=vec_col)
