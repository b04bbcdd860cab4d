"""Deduplication operators over document tables, Ray-Data-first.

The reference's near-dup machinery is Lazo (MinHash containment sketches
served by an external Java service, client calls at
lib_profiler/datamart_profiler/core.py:475-521 + join-search re-scoring
apiserver/search/join.py:462-554); its exact-dedup is set-based
(augmentation.py:418-421). Re-expressed here as Dataset transforms:

  * minhash_signatures — k-shingle -> minhash inside map_batches, fully
                         vectorized: token hashes amortized over the batch
                         vocabulary (dictionary encode), shingle hashes as
                         a windowed polynomial over the flat token-hash
                         array, per-doc minima via np.minimum.reduceat
  * lsh_candidate_pairs— band the signatures into single-column bucket
                         keys, distributed hot-bucket semi-join
                         (Dataset.join against the n>=2 count table — no
                         driver-side bucket set), pairs within bucket
  * verify stage       — exact hashed-shingle Jaccard computed from
                         candidate-only sketches joined onto the pairs
                         (Dataset.join twice) — never materializes the
                         corpus text on the driver
  * simhash64          — 64-bit simhash per doc, vectorized (segment sums
                         of per-occurrence bit signs), hamming pairing
  * embedding_near_dup — cosine-over-threshold pairs via normalized
                         matmul within hash buckets

Shingle identity: a k-shingle is hashed as a degree-(k-1) polynomial in
a fixed odd 64-bit constant over per-token blake2b hashes (uint64
wrap-around). Collision probability ~2^-64, so hashed-shingle Jaccard
is exact n-gram Jaccard for any practical corpus, and the whole chain
(signature, LSH, verify, the `jaccard` helper used by tests) shares one
definition.

All randomness is seeded; all pair outputs are (id_a < id_b) sorted so
results are deterministic and order-insensitive-comparable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from auctus_ray.tokenize import tokenize_array

# polynomial base for shingle hashing (odd => invertible mod 2^64)
_POLY_C = np.uint64(0x9E3779B97F4A7C15)
_MIX_C = np.uint64(0xBF58476D1CE4E5B9)


from auctus_ray.util import join_partitions as _join_partitions


def _perm_params(n_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd multipliers + offsets for 64-bit multiply-shift permutations
    (native uint64 wrap-around — fully vectorizable in numpy, unlike
    mod-Mersenne bigint math)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, 2**63, n_perm, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2**63, n_perm, dtype=np.uint64)
    return a, b


def content_hash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append sha256(text) — the exact-dedup key. Hashes the Arrow value
    buffer by offsets (util.sha256_hex_array): no per-row Python strings
    in this corpus-wide stage."""
    from auctus_ray.util import sha256_hex_array

    return batch.append_column("content_sha256", sha256_hex_array(batch[text_col]))


# ------------------------------------------------ vectorized shingle hashing


def _token_hashes(flat_tokens: pa.Array) -> np.ndarray:
    """blake2b-8 hash per token, amortized over the batch vocabulary:
    dictionary-encode, hash each UNIQUE token once, gather back."""
    if len(flat_tokens) == 0:
        return np.empty(0, np.uint64)
    if isinstance(flat_tokens, pa.ChunkedArray):
        flat_tokens = flat_tokens.combine_chunks()
    enc = flat_tokens.dictionary_encode()
    vocab = enc.dictionary.to_pylist()
    uh = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(), "big")
            for t in vocab
        ),
        dtype=np.uint64,
        count=len(vocab),
    )
    idx = enc.indices.to_numpy(zero_copy_only=False)
    return uh[idx]


def _poly_pows(k: int) -> np.ndarray:
    p = np.empty(k, np.uint64)
    p[0] = np.uint64(1)
    with np.errstate(over="ignore"):  # uint64 wrap-around is the hash
        for i in range(1, k):
            p[i] = p[i - 1] * _POLY_C
    return p


def _shingle_hashes(th: np.ndarray, offsets: np.ndarray, k: int):
    """Windowed polynomial hash over a flat token-hash array.

    th       — uint64 flat token hashes (all docs concatenated)
    offsets  — int64 doc boundaries, len n_docs+1
    returns  (flat shingle hashes uint64, shingle offsets int64):
    doc with L>=k tokens -> L-k+1 window hashes; 0<L<k -> one hash over
    all L tokens (degree L-1); L==0 -> none. Entirely vectorized except
    a loop over the (few) distinct short-doc lengths.
    """
    offsets = np.asarray(offsets, np.int64)
    lengths = np.diff(offsets)
    n_docs = lengths.size
    pows = _poly_pows(k)

    # full windows: S[i] = sum_j th[i+j] * C^(k-1-j), for i in [0, N-k]
    n_tok = th.size
    if n_tok >= k:
        S = np.zeros(n_tok - k + 1, np.uint64)
        for j in range(k):
            S += th[j : n_tok - k + 1 + j] * pows[k - 1 - j]
    else:
        S = np.empty(0, np.uint64)

    cnt_full = np.maximum(lengths - k + 1, 0).astype(np.int64)
    fc = np.where(lengths >= k, cnt_full, (lengths > 0).astype(np.int64))
    out_off = np.concatenate([[0], np.cumsum(fc)])
    out = np.empty(int(out_off[-1]), np.uint64)

    # scatter full-doc windows (contiguous per doc, in doc order)
    total_full = int(cnt_full.sum())
    if total_full:
        base = np.concatenate([[0], np.cumsum(cnt_full)[:-1]])
        intra = np.arange(total_full, dtype=np.int64) - np.repeat(base, cnt_full)
        starts = np.repeat(offsets[:-1], cnt_full) + intra
        dest = np.repeat(out_off[:-1], cnt_full) + intra
        out[dest] = S[starts]

    # short docs (0 < L < k): one polynomial of degree L-1, grouped by L
    short = np.flatnonzero((lengths > 0) & (lengths < k))
    if short.size:
        for L in np.unique(lengths[short]):
            docs = short[lengths[short] == L]
            st = offsets[docs]
            val = np.zeros(docs.size, np.uint64)
            for j in range(int(L)):
                val += th[st + j] * pows[int(L) - 1 - j]
            out[out_off[docs]] = val
    return out, out_off


def shingle_hash_sets(texts: pa.Array, k: int = 5):
    """Per-doc SORTED UNIQUE shingle-hash arrays (as int63 after >>1, so
    they fit Arrow int64). Returns (flat int64, offsets int64)."""
    toks = tokenize_array(texts, "simple")
    th = _token_hashes(toks.flatten())
    toff = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    toff = toff - toff[0]
    sh, soff = _shingle_hashes(th, toff, k)
    sh = (sh >> np.uint64(1)).astype(np.int64)
    # per-doc sort + unique, vectorized with one global lexsort trick:
    # sort (doc, hash) pairs, then drop consecutive equals within a doc
    n_docs = soff.size - 1
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(soff))
    order = np.lexsort((sh, doc_of))
    sh_s, doc_s = sh[order], doc_of[order]
    if sh_s.size:
        keep = np.concatenate(
            [[True], (sh_s[1:] != sh_s[:-1]) | (doc_s[1:] != doc_s[:-1])]
        )
        sh_u, doc_u = sh_s[keep], doc_s[keep]
    else:
        sh_u, doc_u = sh_s, doc_s
    cnts = np.bincount(doc_u, minlength=n_docs).astype(np.int64)
    return sh_u, np.concatenate([[0], np.cumsum(cnts)])


def shingle_hash_positions(texts: pa.Array, k: int = 5):
    """Per-POSITION (non-unique) shingle hashes for each doc — the raw
    `_shingle_hashes` output re-exported for operators that count gram
    occurrences (e.g. benchmark decontamination) rather than compare
    sets. Returns (flat uint64 hashes, int64 doc offsets)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = tokenize_array(texts, "simple")
    th = _token_hashes(toks.flatten())
    toff = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return _shingle_hashes(th, toff - toff[0], k)


def shingles(text: str, k: int = 5) -> set[int]:
    """Token k-shingle hash set for ONE doc — same definition as the
    vectorized pipeline (polynomial over blake2b token hashes, >>1)."""
    sh, _ = shingle_hash_sets(pa.array([text or ""], pa.string()), k)
    return set(int(x) for x in sh)


class MinHasher:
    """Actor-pool map_batches callable: permutation params built once per
    actor (__init__), signatures per batch (__call__) — the reference's
    external Lazo sketch server as an in-process stateful stage (T1).
    The batch path is fully vectorized: shingle hashes for the whole
    batch in one pass, then blocked (a*x+b)>>1 minima via
    np.minimum.reduceat per doc segment."""

    _PERM_BLOCK = 16  # permutations per numpy block (bounds transient mem)

    def __init__(self, n_perm: int = 128, k_shingle: int = 5, seed: int = 89,
                 id_col: str = "doc_id", text_col: str = "text"):
        self.a, self.b = _perm_params(n_perm, seed)
        self.n_perm = n_perm
        self.k = k_shingle
        self.id_col = id_col
        self.text_col = text_col

    def signature(self, text: str) -> np.ndarray:
        """Single-doc signature (query/test path; same math as batch)."""
        return self._signatures_from_text(pa.array([text or ""], pa.string()))[0]

    def _signatures_from_text(self, texts: pa.Array) -> np.ndarray:
        toks = tokenize_array(texts, "simple")
        th = _token_hashes(toks.flatten())
        toff = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        sh, soff = _shingle_hashes(th, toff - toff[0], self.k)
        n_docs = soff.size - 1
        out = np.full((n_docs, self.n_perm), np.iinfo(np.int64).max, np.int64)
        nonempty = np.flatnonzero(np.diff(soff) > 0)
        if nonempty.size == 0:
            return out
        seg_starts = soff[nonempty]
        for p0 in range(0, self.n_perm, self._PERM_BLOCK):
            p1 = min(p0 + self._PERM_BLOCK, self.n_perm)
            vals = (
                (self.a[p0:p1, None] * sh[None, :] + self.b[p0:p1, None])
                >> np.uint64(1)
            ).astype(np.int64)
            out[nonempty, p0:p1] = np.minimum.reduceat(vals, seg_starts, axis=1).T
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col]
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        arr = self._signatures_from_text(texts)
        flat = pa.array(arr.ravel(), pa.int64())
        offs = pa.array(
            np.arange(0, (arr.shape[0] + 1) * self.n_perm, self.n_perm, dtype=np.int32)
        )
        return pa.table(
            {self.id_col: ids, "minhash": pa.ListArray.from_arrays(offs, flat)}
        )


def minhash_signatures(ds, n_perm: int = 128, k_shingle: int = 5, seed: int = 89,
                       id_col: str = "doc_id", text_col: str = "text",
                       concurrency: int | None = None):
    return ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={
            "n_perm": n_perm,
            "k_shingle": k_shingle,
            "seed": seed,
            "id_col": id_col,
            "text_col": text_col,
        },
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency or (1, 8),
    )


def _fold_band_keys(mat: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, n_perm) signature matrix -> (n_bands, n_docs) int63 bucket
    keys: splitmix-style fold of each band's columns, band index in the
    seed so one flat key column suffices (no composite groupby key)."""
    n, n_perm = mat.shape
    rows_per_band = n_perm // n_bands
    u = mat.view(np.uint64) if mat.dtype == np.int64 else mat.astype(np.uint64)
    keys = np.empty((n_bands, n), np.int64)
    for b in range(n_bands):
        h = np.full(n, (np.uint64(b + 1) * _POLY_C), np.uint64)
        for c in range(b * rows_per_band, (b + 1) * rows_per_band):
            h = (h ^ u[:, c]) * _MIX_C
            h ^= h >> np.uint64(31)
        keys[b] = (h >> np.uint64(1)).astype(np.int64)
    return keys


def lsh_candidate_pairs(sig_ds, n_bands: int = 16, id_col: str = "doc_id",
                        bucket_cap: int = 1000, num_partitions: int = 32,
                        broadcast_bytes: int = 32 << 20,
                        input_bytes: int | None = None):
    """Signatures -> candidate (id_a, id_b) pairs via banded LSH,
    fully distributed:

      explode (bkey, id) rows  (bkey = folded band hash, band in seed)
      -> count per bkey, keep n>=2   (Dataset groupby, stays distributed)
      -> semi-join banded rows against hot keys (Dataset.join — no
         driver-side bucket set, unlike round 1)
      -> pairs within bucket (map_groups over genuine collision buckets
         only; quadratic emission capped at `bucket_cap` ids and the cut
         is visible as a truncated bucket)
      -> dedup pairs produced by multiple bands (vectorized aggregate)
    """
    import ray
    from ray.data.aggregate import Count

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sigs = batch["minhash"]
        if isinstance(sigs, pa.ChunkedArray):
            sigs = sigs.combine_chunks()
        n = len(ids)
        if n == 0:
            return pa.table(
                {"bkey": pa.array([], pa.int64()), id_col: pa.array([], pa.int64())}
            )
        mat = np.asarray(sigs.flatten()).reshape(n, -1)
        keys = _fold_band_keys(mat, n_bands)
        return pa.table(
            {
                "bkey": pa.array(keys.ravel()),
                id_col: pa.array(np.tile(ids, n_bands)),
            }
        )

    banded = sig_ds.map_batches(to_bands, batch_format="pyarrow")

    # most buckets are singletons: the per-bucket Python step must only
    # touch genuine collision buckets. The n>=2 count runs distributed
    # (groupby aggregate); the semi-join back onto the banded rows picks
    # its strategy by the hot-key set's MEASURED byte size
    # (util.broadcast_plan) — broadcast searchsorted filter while it
    # fits `broadcast_bytes` (one sorted int64 array in the object
    # store), Dataset.join once it does not (the 100-TB path).
    # The n_docs x n_bands explode is consumed twice (count + semi-join).
    # cache_dataset picks object-store materialize while the SOURCE size
    # estimate (`input_bytes`, the docs Parquet file size) is sandbox-
    # small, and the FS checkpoint (zstd Parquet, per-block files — the
    # round-3 scale fix) beyond it or when the size is unknown.
    from auctus_ray.util import cache_dataset

    banded = cache_dataset(banded, "lsh_bands", est_bytes=input_bytes)
    hot = (
        banded.groupby("bkey")
        .aggregate(Count(alias_name="n"))
        .filter(expr="n >= 2")
        .select_columns(["bkey"])
    )
    from auctus_ray.util import broadcast_plan

    hot, _n_hot, _hb, fits = broadcast_plan(hot, broadcast_bytes)
    hot_keys = None
    if fits:
        hot_keys = np.sort(
            np.concatenate(
                [
                    b["bkey"].to_numpy(zero_copy_only=False)
                    for b in hot.iter_batches(batch_format="pyarrow")
                ]
                or [np.empty(0, np.int64)]
            )
        )
    if hot_keys is not None:
        if hot_keys.size == 0:
            return ray.data.from_arrow(
                pa.table(
                    {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
                )
            )
        href = ray.put(hot_keys)

        def only_hot(batch: pa.Table) -> pa.Table:
            from auctus_ray.util import sorted_membership

            hk = ray.get(href)
            b = batch["bkey"].to_numpy(zero_copy_only=False)
            mask, _ = sorted_membership(hk, b)
            return batch.filter(pa.array(mask))

        hot_rows = banded.map_batches(only_hot, batch_format="pyarrow")
    else:
        hot_rows = banded.join(
            hot, "inner", num_partitions=_join_partitions(num_partitions), on=("bkey",)
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = np.unique(group[id_col].to_numpy(zero_copy_only=False))
        if ids.size < 2:
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
            )
        a_idx, b_idx = np.triu_indices(min(ids.size, bucket_cap), k=1)
        return pa.table({"id_a": pa.array(ids[a_idx]), "id_b": pa.array(ids[b_idx])})

    pairs = hot_rows.groupby("bkey").map_groups(bucket_pairs, batch_format="pyarrow")
    return (
        pairs.groupby(["id_a", "id_b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["id_a", "id_b"])
    )


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact hashed-shingle Jaccard — the verification step after LSH.
    Same shingle definition as the distributed pipeline."""
    sa, sb = shingles(text_a, k), shingles(text_b, k)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _sketch_table(sub: pa.Table, id_col: str, text_col: str, k: int) -> pa.Table:
    """(id, text) rows -> (id, sh) rows: per-doc sorted unique shingle
    hashes packed as binary blobs (Acero, the join kernel under
    Dataset.join, rejects list-typed non-key fields)."""
    texts = sub[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    sh, soff = shingle_hash_sets(texts, k)
    blobs = [sh[soff[i] : soff[i + 1]].tobytes() for i in range(len(soff) - 1)]
    return pa.table(
        {
            id_col: sub[id_col],
            "sh": pa.array(blobs, pa.large_binary()),
        }
    )


def _jaccard_pairs_vec(flat_a: np.ndarray, len_a: np.ndarray,
                       flat_b: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """Per-pair Jaccard of sorted-unique int64 segments, fully
    vectorized across the batch: one np.unique over the combined
    values, one searchsorted membership probe over composite
    (pair, value-rank) keys, per-pair counts via bincount — no Python
    loop over pairs. Both inputs are segment-concatenated in pair
    order with each segment sorted, so the composite B keys are
    globally sorted (value rank is monotone in value)."""
    n = len_a.size
    ja = np.zeros(n, np.float64)
    ja[(len_a == 0) & (len_b == 0)] = 1.0  # two empty sets: defined as 1
    if flat_a.size == 0 or flat_b.size == 0:
        return ja
    comb = np.concatenate([flat_a, flat_b])
    uniq, inv = np.unique(comb, return_inverse=True)
    m = np.int64(uniq.size)
    pair_a = np.repeat(np.arange(n, dtype=np.int64), len_a)
    pair_b = np.repeat(np.arange(n, dtype=np.int64), len_b)
    ka = pair_a * m + inv[: flat_a.size]
    kb = pair_b * m + inv[flat_a.size:]
    pos = np.searchsorted(kb, ka)
    hit = (pos < kb.size) & (kb[np.minimum(pos, kb.size - 1)] == ka)
    inter = np.bincount(pair_a[hit], minlength=n).astype(np.int64)
    union = len_a + len_b - inter
    nz = union > 0
    ja[nz] = inter[nz] / union[nz]
    return ja


def candidate_shingle_sets(docs_ds, id_arr: np.ndarray, id_col: str,
                           text_col: str, k: int):
    """Docs filtered to the candidate id set (sorted-array membership via
    searchsorted inside map_batches — no Python set), then per-doc sorted
    unique shingle hashes as binary blobs. Broadcast-side variant; the
    join-side variant is `candidate_shingle_sets_join`."""
    import ray

    ids_sorted = np.sort(np.asarray(id_arr, np.int64))
    ref = ray.put(ids_sorted)

    def keep_and_sketch(batch: pa.Table) -> pa.Table:
        from auctus_ray.util import sorted_membership

        wanted = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mask, _ = sorted_membership(wanted, ids)
        return _sketch_table(batch.filter(pa.array(mask)), id_col, text_col, k)

    return docs_ds.select_columns([id_col, text_col]).map_batches(
        keep_and_sketch, batch_format="pyarrow"
    )


def candidate_shingle_sets_join(docs_ds, cand_ds, id_col: str,
                                text_col: str, k: int, num_partitions: int):
    """Join-side variant: semi-join the docs against the distinct
    candidate-id Dataset (hash shuffle — the 100-TB shape; no id array
    ever leaves the cluster), then sketch the survivors in place."""
    sub = docs_ds.select_columns([id_col, text_col]).join(
        cand_ds,
        "inner",
        num_partitions=_join_partitions(num_partitions),
        on=(id_col,),
        right_on=("cid",),
    )
    return sub.map_batches(
        lambda t: _sketch_table(t, id_col, text_col, k), batch_format="pyarrow"
    )


def verify_pairs_jaccard(pairs_ds, docs_ds, threshold: float = 0.8,
                         id_col: str = "doc_id", text_col: str = "text", k: int = 5,
                         num_partitions: int = 32,
                         broadcast_bytes: int = 32 << 20,
                         input_bytes: int | None = None):
    """Exact Jaccard >= threshold filter over LSH candidate pairs.

    Scale path (round-3 rewrite): neither the corpus text NOR the
    candidate-pairs table ever reaches the driver. The pairs Dataset is
    cached once (it is consumed twice: id explode + verify; FS
    checkpoint beyond the size estimate) and the distinct candidate ids
    come from a DISTRIBUTED aggregate over it. Strategy selection is a
    TWO-STAGE byte budget (round-4: bytes, not row counts): the id set
    must fit `broadcast_bytes`, and then the REAL sketch payload is
    materialized and measured — if it also fits, the sketches broadcast
    once via ray.put and one map over the pairs Dataset verifies; if
    either measure blows the budget the docs semi-join the candidate
    ids and the (already-computed, when available) sketches hash-join
    onto the pairs twice (id_a side, id_b side) — no driver
    materialization on either path. The Jaccard itself is sorted-array
    intersection per pair in both paths.
    """
    import ray
    from ray.data.aggregate import Count

    from auctus_ray.util import cache_dataset

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    pairs_ds = cache_dataset(
        pairs_ds.select_columns(["id_a", "id_b"]), "lsh_pairs", est_bytes=input_bytes
    )
    if pairs_ds.count() == 0:
        return ray.data.from_arrow(empty)

    def explode_ids(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cid": pa.array(
                    np.concatenate(
                        [
                            t["id_a"].to_numpy(zero_copy_only=False),
                            t["id_b"].to_numpy(zero_copy_only=False),
                        ]
                    )
                )
            }
        )

    # distinct candidate ids: DISTRIBUTED aggregate (bounded by LSH
    # collisions, not corpus size); materialized+measured because it
    # feeds both the count and the plan — O(candidates), not O(n_docs)
    from auctus_ray.util import broadcast_plan

    cand_ds, _n_cand, _cb, ids_fit = broadcast_plan(
        pairs_ds.map_batches(explode_ids, batch_format="pyarrow")
        .groupby("cid")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["cid"]),
        broadcast_bytes,
    )

    sketches_for_join = None
    if ids_fit:
        # broadcast path: candidate sketches (bounded by the LSH
        # collision set, not corpus size) go to the object store once;
        # one map over the pairs Dataset does vectorized lookups. The
        # REAL payload is measured first — long documents can blow the
        # budget even with few candidates, in which case the computed
        # sketch Dataset is reused by the join path below.
        cand_ids = np.sort(
            np.concatenate(
                [
                    b["cid"].to_numpy(zero_copy_only=False)
                    for b in cand_ds.iter_batches(batch_format="pyarrow")
                ]
                or [np.empty(0, np.int64)]
            )
        )
        sketches, _n_sk, _sb, sk_fit = broadcast_plan(
            candidate_shingle_sets(docs_ds, cand_ids, id_col, text_col, k),
            broadcast_bytes,
        )
        if not sk_fit:
            sketches_for_join = sketches

    if ids_fit and sketches_for_join is None:
        # broadcast payload = the codebase's standard (sorted ids,
        # offsets, concatenated blob) array triple — built straight off
        # the Arrow buffers (no per-row to_pylist, no dict), shipped as
        # three numpy arrays, looked up via searchsorted per batch.
        tabs = list(sketches.iter_batches(batch_format="pyarrow"))
        skt = (
            pa.concat_tables(tabs).combine_chunks().sort_by(id_col)
            if tabs
            else pa.table({id_col: pa.array([], pa.int64()),
                           "sh": pa.array([], pa.large_binary())})
        )
        sk_ids = skt[id_col].to_numpy(zero_copy_only=False)
        sh = skt["sh"]
        if isinstance(sh, pa.ChunkedArray):
            sh = sh.combine_chunks()
        bufs = sh.buffers()
        sk_offs = np.frombuffer(
            bufs[1], np.int64, count=len(sh) + 1, offset=sh.offset * 8
        ).copy() if bufs[1] is not None else np.zeros(1, np.int64)
        sk_blob = (
            np.frombuffer(bufs[2], np.uint8).copy()
            if bufs[2] is not None
            else np.empty(0, np.uint8)
        )
        skref = ray.put((sk_ids, sk_offs, sk_blob))
        _empty64 = np.empty(0, np.int64)

        def _gather_segments(vals, offs, pos, found):
            """Concatenate the (sorted) extents at `pos` in pair order:
            (flat values, per-pair lengths) — one vectorized gather."""
            if offs.size <= 1:  # empty sketch set: nothing to gather
                return _empty64, np.zeros(len(pos), np.int64)
            starts = np.where(found, offs[pos] // 8, 0)
            lens = np.where(found, (offs[pos + 1] - offs[pos]) // 8, 0)
            total = int(lens.sum())
            if total == 0:
                return _empty64, lens
            base = np.repeat(starts, lens)
            cum = np.concatenate(([0], np.cumsum(lens)[:-1]))
            idx = base + (np.arange(total) - np.repeat(cum, lens))
            return vals[idx], lens

        def verify_bcast(batch: pa.Table) -> pa.Table:
            from auctus_ray.util import sorted_membership

            ids_s, offs, blob = ray.get(skref)
            vals = blob.view(np.int64) if blob.size else _empty64
            a = batch["id_a"].to_numpy(zero_copy_only=False)
            b_ = batch["id_b"].to_numpy(zero_copy_only=False)
            ma, pos_a = sorted_membership(ids_s, a)
            mb, pos_b = sorted_membership(ids_s, b_)
            flat_a, len_a = _gather_segments(vals, offs, pos_a, ma)
            flat_b, len_b = _gather_segments(vals, offs, pos_b, mb)
            ja = _jaccard_pairs_vec(flat_a, len_a, flat_b, len_b)
            out = pa.table(
                {"id_a": batch["id_a"], "id_b": batch["id_b"], "jaccard": pa.array(ja)}
            )
            return out.filter(pc.greater_equal(out["jaccard"], threshold))

        out = pairs_ds.map_batches(verify_bcast, batch_format="pyarrow")
        return out.sort(["id_a", "id_b"])

    # join path (the 100-TB shape): docs semi-join the candidate ids,
    # sketches hash-join onto the pairs — everything stays a Dataset
    sketches = (
        sketches_for_join
        if sketches_for_join is not None
        else candidate_shingle_sets_join(
            docs_ds, cand_ds, id_col, text_col, k, num_partitions
        )
    )
    sk_a = sketches.map_batches(
        lambda t: t.rename_columns(["id_a", "sh_a"]), batch_format="pyarrow"
    )
    sk_b = sketches.map_batches(
        lambda t: t.rename_columns(["id_b", "sh_b"]), batch_format="pyarrow"
    )
    nparts = _join_partitions(num_partitions)
    joined = pairs_ds.join(sk_a, "inner", num_partitions=nparts, on=("id_a",))
    joined = joined.join(sk_b, "inner", num_partitions=nparts, on=("id_b",))

    def _views(col):
        # (byte offsets, int64 view of the values buffer) straight off
        # the large_binary Arrow buffers — no per-row bytes objects;
        # sketch payloads are int64-serialized, so every extent is a
        # multiple of 8
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        bufs = arr.buffers()
        offs = (
            np.frombuffer(bufs[1], np.int64, count=len(arr) + 1, offset=arr.offset * 8)
            if bufs[1] is not None
            else np.zeros(1, np.int64)
        )
        nvals = int(offs[-1]) // 8 if len(offs) else 0
        vals = (
            np.frombuffer(bufs[2], np.int64, count=nvals)
            if bufs[2] is not None
            else np.empty(0, np.int64)
        )
        return offs, vals

    def verify(batch: pa.Table) -> pa.Table:
        oa, va = _views(batch["sh_a"])
        ob, vb = _views(batch["sh_b"])
        # extents are already concatenated in row (= pair) order: slice
        # the flat value views once and hand the whole batch to the
        # vectorized kernel — no per-pair Python loop
        ja = _jaccard_pairs_vec(
            va[oa[0] // 8 : oa[-1] // 8], np.diff(oa) // 8,
            vb[ob[0] // 8 : ob[-1] // 8], np.diff(ob) // 8,
        )
        out = pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                "jaccard": pa.array(ja),
            }
        )
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    out = joined.map_batches(verify, batch_format="pyarrow")
    return out.sort(["id_a", "id_b"])


# -------------------------------------------------------------- simhash


class SimHasher:
    """64-bit SimHash per doc (term-frequency weighted), vectorized:
    per-occurrence bit signs (+1/-1) from the batch vocabulary's token
    hashes, per-doc segment sums via cumulative-sum differences, sign
    bits re-packed into one uint64 per doc. Token hash = blake2b-8, the
    same as round 1, so simhash values are unchanged."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col

    @staticmethod
    def _batch_simhash(texts: pa.Array) -> np.ndarray:
        toks = tokenize_array(texts, "simple")
        flat = toks.flatten()
        toff = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        toff = toff - toff[0]
        n_docs = toff.size - 1
        if len(flat) == 0:
            return np.zeros(n_docs, np.uint64)
        # token hash shared with the minhash/shingle chain (_token_hashes)
        th = _token_hashes(flat)
        bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
            np.int8
        )
        occ = (bits * 2 - 1).astype(np.int32)  # (n_flat, 64) signs
        csum = np.zeros((occ.shape[0] + 1, 64), np.int64)
        np.cumsum(occ, axis=0, out=csum[1:])
        acc = csum[toff[1:]] - csum[toff[:-1]]  # (n_docs, 64)
        bitsel = (acc > 0).astype(np.uint64)
        return (bitsel << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )

    @staticmethod
    def simhash64(text: str) -> int:
        return int(SimHasher._batch_simhash(pa.array([text or ""], pa.string()))[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        hs = self._batch_simhash(texts)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "simhash": pa.array(hs.view(np.int64)),
            }
        )


_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount via a 16-bit lookup table (numpy<2 compatible)."""
    x = x.view(np.uint64) if x.dtype == np.int64 else x
    r = _POP16[(x & np.uint64(0xFFFF)).astype(np.int64)].astype(np.int64)
    for s in (16, 32, 48):
        r += _POP16[((x >> np.uint64(s)) & np.uint64(0xFFFF)).astype(np.int64)]
    return r


def simhash_near_dup_pairs(ds, max_hamming: int = 3,
                           id_col: str = "doc_id", text_col: str = "text",
                           bucket_cap: int = 2000):
    """SimHash pairs within hamming distance, via 4-segment blocking
    (pigeonhole: any pair within hamming<=3 shares one exact 16-bit
    segment), then exact popcount verify inside each bucket.

    ``bucket_cap`` bounds the quadratic per-bucket verify (the LSH
    operator's discipline): a skewed segment bucket — e.g. near-empty
    docs all simhashing to 0 — keeps only its first `bucket_cap` ids
    (deterministic ascending), trading tail recall for bounded work;
    the cut is visible as the capped bucket's id range."""
    sigs = ds.map_batches(
        SimHasher,
        fn_constructor_kwargs={"id_col": id_col, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=(1, 8),
        batch_size=256,
    )

    def to_segments(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        segs, keys, oids, hs = [], [], [], []
        for s in range(4):
            seg = ((h >> np.uint64(16 * s)) & np.uint64(0xFFFF)).astype(np.int64)
            segs.append(np.full(len(ids), s, dtype=np.int32))
            keys.append(seg)
            oids.append(ids)
            hs.append(h.view(np.int64))
        return pa.table(
            {
                "seg": pa.array(np.concatenate(segs)),
                "seg_key": pa.array(np.concatenate(keys)),
                id_col: pa.array(np.concatenate(oids)),
                "simhash": pa.array(np.concatenate(hs)),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        h = group["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        order = np.argsort(ids)
        ids, h = ids[order][:bucket_cap], h[order][:bucket_cap]
        n = len(ids)
        out_a, out_b, out_d = [], [], []
        for i in range(n - 1):
            d = _popcount64(h[i] ^ h[i + 1 :])
            hit = np.flatnonzero(d <= max_hamming)
            if hit.size:
                out_a.append(np.full(hit.size, ids[i]))
                out_b.append(ids[i + 1 + hit])
                out_d.append(d[hit])
        if not out_a:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a)),
                "id_b": pa.array(np.concatenate(out_b)),
                "hamming": pa.array(np.concatenate(out_d)),
            }
        )

    pairs = (
        sigs.map_batches(to_segments, batch_format="pyarrow")
        .groupby(["seg", "seg_key"])
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )
    # cross-segment dedup (a pair can collide in up to 4 segments) as a
    # vectorized aggregate, not per-pair map_groups; hamming is identical
    # across copies so Min is deterministic
    from ray.data.aggregate import Min

    return pairs.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


# -------------------------------------------------------------- embedding near-dup


def embedding_near_dup_pairs(ds, threshold: float = 0.95, n_planes: int | None = None,
                             seed: int = 89, id_col: str = "vec_id",
                             vec_col: str = "embedding", n_tables: int = 4,
                             n_rows: int | None = None):
    """Embedding-cosine near-dup: banded multi-table hyperplane LSH (near
    vectors collide in >=1 of `n_tables` tables), then exact normalized
    matmul within each (table, bucket) — emit (id_a < id_b, cosine) pairs
    above threshold, deduped across tables. `n_planes` defaults to the
    corpus-adaptive size (buckets ~256 rows), so the quadratic
    within-bucket step stays bounded as the corpus grows — round 1's
    fixed 2^8 global buckets did not."""
    from auctus_ray.functions.ann import (
        HyperplaneLSH,
        _normalize,
        _to_matrix,
        adaptive_n_planes,
    )

    def _empty_pairs():
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        )

    try:
        first = ds.take_batch(1, batch_format="pyarrow")
    except ValueError:  # empty Dataset: a legitimate pipeline state —
        return _empty_pairs()  # match the other dedup operators' shape
    if first.num_rows == 0 or not first[vec_col][0].is_valid:
        return _empty_pairs()
    dim = len(first[vec_col][0].as_py())
    if n_planes is None:
        n_planes = adaptive_n_planes(n_rows if n_rows is not None else ds.count())

    bucketed = ds.map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs={
            "dim": dim, "n_planes": n_planes, "seed": seed,
            "id_col": id_col, "vec_col": vec_col, "n_tables": n_tables,
        },
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        m = _normalize(_to_matrix(group[vec_col]))
        order = np.argsort(ids)
        ids, m = ids[order], m[order]
        sims = m @ m.T
        iu, ju = np.triu_indices(len(ids), k=1)
        keep = sims[iu, ju] >= threshold
        return pa.table(
            {
                "id_a": pa.array(ids[iu[keep]]),
                "id_b": pa.array(ids[ju[keep]]),
                "cosine": pa.array(sims[iu[keep], ju[keep]], pa.float64()),
            }
        )

    pairs = bucketed.groupby("lsh_bucket").map_groups(
        bucket_pairs, batch_format="pyarrow"
    )
    if n_tables > 1:
        # a pair can collide in several tables: dedup with a VECTORIZED
        # aggregate (cosine is identical for every copy of a pair, so
        # Max is a deterministic pick), not a per-pair map_groups call
        from ray.data.aggregate import Max

        pairs = pairs.groupby(["id_a", "id_b"]).aggregate(
            Max("cosine", alias_name="cosine")
        )
    return pairs


# ------------------------------------------------- exact n-gram Jaccard


def ngram_jaccard_pairs(
    docs_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    threshold: float = 0.8,
    max_shingle_df: int = 64,
    num_partitions: int | None = None,
):
    """EXACT n-gram (k-token shingle) Jaccard near-dup pairs via an
    inverted shingle join — the classic set-similarity self-join
    (id, shingle) explode -> hash-join on shingle -> per-pair
    intersection count -> size join. No sketches: this is the
    SQL-checkable exact member of the near-dup family (MinHash-LSH is
    the sub-quadratic scale path; this one's cost is bounded by the
    shingle-join fan-out).

    ``max_shingle_df`` drops stop-shingles (df > cap) from PAIR
    GENERATION only — set sizes stay exact, so Jaccard is slightly
    UNDERESTIMATED for pairs sharing hot shingles (at the default cap
    this touches nothing in the test corpora; the SQL oracle applies
    the identical cap). The shingle definition (simple-analyzer tokens,
    windowed polynomial over blake2b token hashes, short-doc collapse)
    is shared with the whole dedup chain, so hash-set Jaccard equals
    string-set Jaccard modulo 63-bit collisions.

    Returns a Dataset (id_a, id_b, jaccard) with jaccard >= threshold,
    sorted by (id_a, id_b).
    """
    from ray.data.aggregate import Count as _Count

    nparts = _join_partitions(num_partitions or 32)

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        sh, soff = shingle_hash_sets(texts, k)
        counts = np.diff(soff)
        ids = np.repeat(
            batch[id_col].to_numpy(zero_copy_only=False), counts
        )
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "sh": pa.array(sh, pa.int64())}
        )

    def sizes_batch(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        _, soff = shingle_hash_sets(texts, k)
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "n_sh": pa.array(np.diff(soff), pa.int64()),
            }
        )

    sh_ds = docs_ds.map_batches(explode, batch_format="pyarrow")
    # stop-shingle cap: distributed df count, keep df <= cap (semi-join)
    keep = (
        sh_ds.groupby("sh")
        .aggregate(_Count(alias_name="_df"))
        .map_batches(
            lambda t: t.filter(
                pc.less_equal(t["_df"], max_shingle_df)
            ).select(["sh"]),
            batch_format="pyarrow",
        )
    )
    sh_kept = sh_ds.join(keep, "inner", num_partitions=nparts, on=("sh",))

    a = sh_kept.map_batches(
        lambda t: pa.table({"id_a": t["doc_id"], "sh": t["sh"]}),
        batch_format="pyarrow",
    )
    b = sh_kept.map_batches(
        lambda t: pa.table({"id_b": t["doc_id"], "sh": t["sh"]}),
        batch_format="pyarrow",
    )
    inter = (
        a.join(b, "inner", num_partitions=nparts, on=("sh",))
        .map_batches(
            lambda t: t.filter(pc.less(t["id_a"], t["id_b"])),
            batch_format="pyarrow",
        )
        .groupby(["id_a", "id_b"])
        .aggregate(_Count(alias_name="inter"))
    )

    sizes = docs_ds.map_batches(sizes_batch, batch_format="pyarrow")
    sz_a = sizes.map_batches(
        lambda t: t.rename_columns(["id_a", "n_a"]), batch_format="pyarrow"
    )
    sz_b = sizes.map_batches(
        lambda t: t.rename_columns(["id_b", "n_b"]), batch_format="pyarrow"
    )
    joined = inter.join(sz_a, "inner", num_partitions=nparts, on=("id_a",))
    joined = joined.join(sz_b, "inner", num_partitions=nparts, on=("id_b",))

    def score(batch: pa.Table) -> pa.Table:
        it = batch["inter"].to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch["n_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch["n_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        j = it / (na + nb - it)
        out = pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                "jaccard": pa.array(j, pa.float64()),
            }
        )
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    return joined.map_batches(score, batch_format="pyarrow").sort(
        ["id_a", "id_b"]
    )
