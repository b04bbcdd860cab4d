"""Index build pipeline: Parquet corpus -> sharded inverted index.

The Ray-Data restatement of the reference's indexing pipeline
(discover -> profile -> ES bulk index; profiler/profiler.py:90-160 +
lib_core/datamart_core/common.py:369-467 in /root/reference), with
Elasticsearch's internal Lucene machinery made explicit:

  stage tokenize   read_parquet(group) -> map_batches(tokenize, Arrow,
                   zero-copy) -> per-doc rows (key_hash, bucket, sha256,
                   dl, terms[], tfs[]) -> checkpointed Parquet per input
                   group (the resumable partition unit)
  stage bucket     pre-aggregated narrow pass (bucket, dl columns only)
                   -> per-bucket row counts + token totals -> docID
                   offsets (driver prefix sum) + global avgdl
  stage encode     THE wide shuffle: groupby(bucket).map_groups — each
                   bucket task (a) dense-ranks its rows into
                   deterministic docIDs (distributed rank,
                   index/docid.py), (b) writes its forward-map slice,
                   (c) explodes postings in memory and (d) encodes
                   delta+varint posting blocks with skip metadata and
                   per-block max-score, writing one shard file
                   (shard == docID-range bucket). This is phase 1 of
                   the salted two-phase term aggregation: the docID
                   range is the salt, so a heavy term ("the", "def",
                   "license") is built by n_buckets independent tasks
                   instead of one straggler.
  stage termstats  groupby(term) over the per-shard df partials ->
                   global df / n_blocks (phase 2: merges the salted
                   partials; only index-sized metadata reshuffles,
                   postings blobs never move again)
  stage global     single-row global stats (N, avgdl, vocab, shards)

Shards are docID ranges (like Elasticsearch's document-partitioned
shards): every shard scores its own documents for any query, so query
fan-out is per-shard top-k + a final merge-sort reduce (index/search.py).
One wide shuffle total: the tokenized rows move once, into their bucket.

Every stage writes to a temp path then renames (atomic) and records a
(stage, partition, fingerprint) line in manifest.jsonl — restart skips
completed work (state/manifest.py). At 10^12-file scale the knobs are
n_buckets (bounds per-task memory: corpus_tokens / n_buckets) and
files_per_group (tokenize checkpoint granularity); all stages stream.
"""

from __future__ import annotations

import glob
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Sum

from auctus_ray.index.codec import encode_shard_postings
from auctus_ray.index.docid import N_DOCID_BUCKETS, bucket_of, key_hash_array
from auctus_ray.state.manifest import (
    Manifest,
    atomic_output_dir,
    file_fingerprint,
    fingerprint,
)
from auctus_ray.tokenize import tokenize_array


@dataclass
class BuildResult:
    index_dir: str
    n_docs: int
    n_tokens: int
    avgdl: float
    n_terms: int
    n_shards: int
    metrics: dict = field(default_factory=dict)


# ---------------------------------------------------------------- tokenize


def apply_column_map(
    batch: pa.Table, column_map: dict[str, str] | tuple | None
) -> pa.Table:
    """Project an arbitrary input batch onto the corpus schema
    (repo/path/commit/lang/content) by renaming — and, for the metadata
    columns, casting to string — per batch, zero driver involvement.
    Values of ``column_map`` are INPUT column names; one input column may
    feed several corpus columns (e.g. a single unique id serving as both
    ``path`` and ``commit``)."""
    if not column_map:
        return batch
    if not isinstance(column_map, dict):
        column_map = dict(column_map)  # hashable tuple-of-pairs via fn_kwargs
    cols: dict[str, pa.Array | pa.ChunkedArray] = {}
    for out_name, in_name in column_map.items():
        col = batch[in_name]
        typ = col.type
        if out_name != "content" and not (
            pa.types.is_string(typ) or pa.types.is_large_string(typ)
        ):
            col = pc.cast(col, pa.string())
        cols[out_name] = col
    return pa.table(cols)


def tokenize_batch(
    batch: pa.Table,
    *,
    analyzer: str,
    n_buckets: int,
    content_col: str = "content",
    column_map: dict[str, str] | None = None,
    attrs: tuple = (),
) -> pa.Table:
    """Per-batch vectorized tokenize + per-doc tf + sha256 + key hash.

    Pure function over a zero-copy Arrow batch; no per-row Python in the
    token path (Arrow regex kernels + numpy run-length tf counting). The
    sha256-per-row loop is C-speed hashlib and doubles as the per-row
    invariant required by the graft contract.

    ``attrs`` names input columns carried VERBATIM through the shuffle
    into the forward map (typed per-doc metadata — numeric coverage
    bounds, keyword fields — served by the Searcher's filter context,
    the ES doc-values shape).
    """
    raw = batch
    batch = apply_column_map(batch, column_map)
    n = batch.num_rows
    content = batch[content_col].combine_chunks() if isinstance(
        batch[content_col], pa.ChunkedArray
    ) else batch[content_col]

    toks = tokenize_array(content, analyzer)
    lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)

    flat = toks.flatten()
    if len(flat) > 0:
        enc = flat.dictionary_encode()
        idxs = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_rep = np.repeat(np.arange(n, dtype=np.int64), lengths)
        order = np.lexsort((idxs, doc_rep))
        d_s, t_s = doc_rep[order], idxs[order]
        change = np.empty(d_s.size, dtype=bool)
        change[0] = True
        change[1:] = (d_s[1:] != d_s[:-1]) | (t_s[1:] != t_s[:-1])
        starts = np.flatnonzero(change)
        tf = np.diff(np.append(starts, d_s.size)).astype(np.int32)
        u_doc = d_s[starts]
        u_tok = t_s[starts]
        terms_per_doc = np.bincount(u_doc, minlength=n)
        offsets = np.concatenate([[0], np.cumsum(terms_per_doc)]).astype(np.int32)
        term_values = enc.dictionary.take(pa.array(u_tok))
        terms_list = pa.ListArray.from_arrays(pa.array(offsets), term_values)
        tfs_list = pa.ListArray.from_arrays(pa.array(offsets), pa.array(tf))
    else:
        offsets = np.zeros(n + 1, dtype=np.int32)
        terms_list = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array([], type=pa.string())
        )
        tfs_list = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array([], type=pa.int32())
        )

    # sha256(content): the per-row invariant (reference analogue: sha1 cache
    # keys, apiserver/profile.py:54-56; contract requires sha256). One
    # fused pass hashing the Arrow value buffer directly — the content
    # strings are never materialized as Python objects; the snippet
    # decodes only its own 560-byte prefix (4 bytes/char upper bound for
    # the 140-char truncation window).
    from auctus_ray.functions.scalars import truncate_string
    from auctus_ray.util import string_buffer_view

    coffs, cbuf = string_buffer_view(content)
    base = 0  # value-buffer offsets are absolute into cbuf
    sha = np.empty(n, dtype=object)
    snips = np.empty(n, dtype=object)
    for i in range(n):
        lo, hi = int(coffs[i]) - base, int(coffs[i + 1]) - base
        sha[i] = hashlib.sha256(cbuf[lo:hi]).hexdigest()
        if hi - lo <= 560:
            s_pref = str(cbuf[lo:hi], "utf-8")
        else:
            # a prefix cut can split a UTF-8 codepoint; drop the partial
            # trailing bytes (they are beyond the truncation window)
            s_pref = str(cbuf[lo : lo + 560], "utf-8", "ignore")
        snips[i] = truncate_string(s_pref, 140)
    snippets = pa.array(snips, pa.string())

    kh = key_hash_array(batch["repo"], batch["path"], batch["commit"])
    buckets = bucket_of(kh, n_buckets).astype(np.int32)

    out = {
        "key_hash": pa.array(kh),
        "bucket": pa.array(buckets),
        "repo": batch["repo"],
        "path": batch["path"],
        "commit": batch["commit"],
        "lang": batch["lang"],
        "sha256": pa.array(sha, type=pa.string()),
        "snippet": snippets,
        "dl": pa.array(lengths),
        "terms": terms_list,
        "tfs": tfs_list,
    }
    for a in attrs or ():
        out[a] = raw[a]
    return pa.table(out)


_ENCODE_PARALLEL_CACHE: int | None = None


def _probe_encode_parallel(cores: int) -> int:
    """Pick the concurrent-encoder count from MEASURED DRAM bandwidth.

    Encode streams ~1.2 GB/s per task; running more tasks than the
    memory bus feeds degrades all of them (observed 3x on a ~9 GB/s
    bus). The probe sums a 200 MB array on 1 and then 4 threads
    (numpy releases the GIL, so 4 threads genuinely stream in
    parallel, ~0.8 s once per process):
      * 4-thread aggregate scaling near-linearly (> 3x single) means
        the bus is not the binding resource -> use every core;
      * otherwise the aggregate IS the bus -> size encoders to
        aggregate_bw / 1.2 GB/s.
    """
    global _ENCODE_PARALLEL_CACHE
    if cores <= 8:
        # <=8 encoders never exceed any bus we would probe; skip the
        # probe's serial ~0.7 s (it is inside the timed build)
        return cores
    if _ENCODE_PARALLEL_CACHE is not None:
        return _ENCODE_PARALLEL_CACHE
    import time as _time
    from concurrent.futures import ThreadPoolExecutor

    a = np.random.rand(25_000_000)

    def stream() -> float:
        t0 = _time.time()
        n = 0
        while _time.time() - t0 < 0.35:
            a.sum()
            n += 1
        return n * a.nbytes / (_time.time() - t0)

    b1 = stream()
    with ThreadPoolExecutor(4) as ex:
        b4 = sum(f.result() for f in [ex.submit(stream) for _ in range(4)])
    if b4 > 3.0 * b1:
        par = cores
    else:
        par = int(max(4, min(cores, b4 / 1.2e9)))
    _ENCODE_PARALLEL_CACHE = par
    return par


# ---------------------------------------------------------------- encode (the wide stage)


def _assign_doc_ids_group(
    group: pa.Table, offsets: dict[int, int], bucket: int | None = None
) -> np.ndarray:
    """Dense docIDs within one hash bucket (distributed rank leg).
    Bit-identical to index/docid.py assign_doc_ids_local over the union
    of buckets. Raises on duplicate (repo, path, commit) keys."""
    kh = group["key_hash"].to_numpy(zero_copy_only=False)
    repo = np.asarray(group["repo"].to_pylist(), dtype=object)
    path = np.asarray(group["path"].to_pylist(), dtype=object)
    commit = np.asarray(group["commit"].to_pylist(), dtype=object)
    order = np.lexsort((commit, path, repo, kh))
    rs, ps, cs, ks = repo[order], path[order], commit[order], kh[order]
    dup = (ks[1:] == ks[:-1]) & (rs[1:] == rs[:-1]) & (ps[1:] == ps[:-1]) & (
        cs[1:] == cs[:-1]
    )
    if dup.any():
        i = int(np.flatnonzero(dup)[0])
        raise ValueError(
            f"duplicate corpus row key (repo,path,commit)=({rs[i]},{ps[i]},{cs[i]})"
        )
    if bucket is None:
        bucket = int(group["bucket"][0].as_py())
    doc_ids = np.empty(len(kh), dtype=np.int64)
    doc_ids[order] = offsets[bucket] + np.arange(len(kh), dtype=np.int64)
    return doc_ids


def encode_bucket_group(
    group: pa.Table,
    *,
    offsets: dict[int, int],
    avgdl: float,
    docmap_dir: str,
    postings_dir: str,
    termstats_dir: str,
    bucket: int | None = None,
) -> pa.Table:
    """One bucket = one shard: rank docIDs, write the forward-map slice,
    explode + encode postings, write the shard file. Returns a one-row
    summary with build metrics (terms/sec, postings/sec)."""
    t0 = time.time()
    shard = int(group["bucket"][0].as_py()) if bucket is None else bucket
    doc_ids = _assign_doc_ids_group(group, offsets, bucket=shard)

    # forward map slice (docID -> identity + sha256 + dl), docID-sorted;
    # any column beyond the standard tokenize output is a carried attr
    # (tokenize_batch attrs) and rides into the docmap for filter context
    fwd_cols = {
        "doc_id": pa.array(doc_ids),
        "repo": group["repo"],
        "path": group["path"],
        "commit": group["commit"],
        "lang": group["lang"],
        "sha256": group["sha256"],
        "snippet": group["snippet"],
        "dl": group["dl"],
    }
    _std = set(fwd_cols) | {"key_hash", "bucket", "terms", "tfs"}
    for name in group.schema.names:
        if name not in _std:
            fwd_cols[name] = group[name]
    fwd = pa.table(fwd_cols).sort_by("doc_id")
    _atomic_write_table(fwd, os.path.join(docmap_dir, f"bucket={shard:05d}.parquet"))

    # explode postings in memory (numpy; no second shuffle)
    terms = group["terms"].combine_chunks() if isinstance(
        group["terms"], pa.ChunkedArray
    ) else group["terms"]
    tfs_col = group["tfs"].combine_chunks() if isinstance(
        group["tfs"], pa.ChunkedArray
    ) else group["tfs"]
    lengths = pc.list_value_length(terms).to_numpy(zero_copy_only=False).astype(np.int64)
    dl = group["dl"].to_numpy(zero_copy_only=False)
    doc_rep = np.repeat(doc_ids, lengths)
    dl_rep = np.repeat(dl.astype(np.int32), lengths)
    tf_flat = np.asarray(tfs_col.flatten())  # int32
    term_flat = terms.flatten()
    enc = term_flat.dictionary_encode()
    t_idx = enc.indices.to_numpy(zero_copy_only=False)  # int32

    # single composite-key sort: (term_code, local docID) packs into one
    # int64 (bucket-local docIDs are dense < 2^32 by construction);
    # (term, doc) pairs are unique so a non-stable sort is deterministic
    base = int(doc_ids.min()) if doc_ids.size else 0
    local = (doc_rep - base).astype(np.int64)
    key = (t_idx.astype(np.int64) << np.int64(32)) | local
    order = np.argsort(key)
    t_s = t_idx[order].astype(np.int64)
    d_s = doc_rep[order].astype(np.uint64)
    tf_s = tf_flat[order].astype(np.uint64)
    dl_s = dl_rep[order].astype(np.uint64)

    encoded = encode_shard_postings(t_s, d_s, tf_s, dl_s, avgdl)
    term_of_block = enc.dictionary.take(pa.array(encoded["term_code"]))
    term_of_term = enc.dictionary.take(pa.array(encoded["t_term_code"]))

    nblocks = len(encoded["block_id"])
    blocks_table = pa.table(
        {
            "shard": pa.array(np.full(nblocks, shard, dtype=np.int32)),
            "term": term_of_block,
            "block_id": pa.array(encoded["block_id"]),
            "first_docid": pa.array(encoded["first_docid"]),
            "last_docid": pa.array(encoded["last_docid"]),
            "n": pa.array(encoded["n"]),
            "blob": encoded["blobs"],
            "max_tfnorm": pa.array(encoded["max_tfnorm"]),
        }
    )
    # term-sorted rows -> parquet row-group min/max stats prune term lookups
    blocks_table = blocks_table.sort_by([("term", "ascending"), ("block_id", "ascending")])
    nterms = len(encoded["t_df"])
    ts_table = pa.table(
        {
            "shard": pa.array(np.full(nterms, shard, dtype=np.int32)),
            "term": term_of_term,
            "df": pa.array(encoded["t_df"]),
            "n_blocks": pa.array(encoded["t_n_blocks"]),
            "max_tfnorm": pa.array(encoded["t_max_tfnorm"]),
        }
    ).sort_by("term")

    _atomic_write_table(
        blocks_table, os.path.join(postings_dir, f"shard={shard:05d}.parquet"),
        row_group_size=4096,
    )
    _atomic_write_table(ts_table, os.path.join(termstats_dir, f"shard={shard:05d}.parquet"))
    secs = time.time() - t0
    total_bytes = encoded["blobs"].nbytes if nblocks else 0
    return pa.table(
        {
            "shard": pa.array([shard], pa.int32()),
            "n_docs": pa.array([group.num_rows], pa.int64()),
            "n_terms": pa.array([nterms], pa.int64()),
            "n_postings": pa.array([int(t_s.size)], pa.int64()),
            "bytes": pa.array([int(total_bytes)], pa.int64()),
            "seconds": pa.array([secs], pa.float64()),
        }
    )


def _atomic_write_table(table: pa.Table, path: str, **kw) -> None:
    tmp = path + ".tmp"
    # zstd-3 over snappy: ~1.5-3x smaller files for ~equal CPU. Disk
    # bandwidth is the one resource that does NOT scale with cores on a
    # node, so smaller artifacts buy scaling efficiency directly.
    kw.setdefault("compression", "zstd")
    kw.setdefault("compression_level", 3)
    pq.write_table(table, tmp, **kw)
    os.replace(tmp, path)


# ---------------------------------------------------------------- driver


def resolve_input_paths(input_paths: list[str] | str) -> list[str]:
    """Input parquet files: a list as given, or, for a string, the
    directory's parquet files (recursively when none sit at the top),
    else the string itself as a glob pattern or a single file."""
    if isinstance(input_paths, str):
        input_paths = sorted(
            glob.glob(os.path.join(input_paths, "*.parquet"))
            or glob.glob(os.path.join(input_paths, "**/*.parquet"), recursive=True)
            or glob.glob(input_paths)
        )
    if not input_paths:
        raise ValueError("no input parquet files")
    return list(input_paths)


def build_index(
    input_paths: list[str] | str,
    index_dir: str,
    *,
    analyzer: str = "code",
    n_shards: int | None = None,
    n_buckets: int = N_DOCID_BUCKETS,
    files_per_group: int = 64,
    resume: bool = True,
    tokenize_batch_size: int = 512,
    tokenize_concurrency: int | None = None,
    content_col: str = "content",
    column_map: dict[str, str] | None = None,
    attrs: list[str] | tuple | None = None,
) -> BuildResult:
    """Run the full checkpointed build. Ray must already be initialized
    by the caller (driver contract: this function never calls ray.init).

    ``n_shards`` is accepted for API compatibility and, when given, sets
    ``n_buckets`` (shard == docID bucket in this design). ``attrs``
    names input columns carried verbatim into the docmap for filter
    context (tokenize_batch docstring).
    """
    if n_shards is not None:
        n_buckets = n_shards
    attrs = tuple(attrs or ())
    input_paths = resolve_input_paths(input_paths)
    os.makedirs(index_dir, exist_ok=True)
    man = Manifest(index_dir)
    params_fp = fingerprint(
        analyzer, n_buckets, content_col,
        repr(sorted((column_map or {}).items())), repr(attrs), "v4"
    )
    # prune the read to only the mapped input columns (a documents-style
    # table carries payload columns the index never touches)
    read_columns = (
        sorted(set(column_map.values()) | set(attrs)) if column_map else None
    )

    # ---- stage tokenize (per input-file group; the resumable unit) ----
    groups = [
        input_paths[i : i + files_per_group]
        for i in range(0, len(input_paths), files_per_group)
    ]
    tokenized_dir = os.path.join(index_dir, "tokenized")
    os.makedirs(tokenized_dir, exist_ok=True)
    # rebuilding into an existing index_dir with a smaller/regrouped
    # input set must not leave stale tokenized group dirs behind: the
    # bucket_stats and encode stages glob tokenized/*/bucket=*
    # unconditionally and would count phantom docs (or crash on
    # duplicate corpus row keys). Also sweeps partial *.tmp dirs from a
    # hard crash whose group no longer exists.
    import shutil as _shutil

    current_groups = {f"group-{gi:04d}" for gi in range(len(groups))}
    for p in glob.glob(os.path.join(tokenized_dir, "*")):
        if os.path.basename(p) not in current_groups:
            _shutil.rmtree(p, ignore_errors=True)
    # their journal records go stale too, so Manifest.metrics() counts
    # only the groups this build tokenized
    for rec in man.records():
        if (rec["stage"], rec["status"]) == ("tokenize", "done") and (
            rec["partition"] not in current_groups
        ):
            man.mark("tokenize", rec["partition"], rec["fingerprint"], "stale")
    tok_fps = []
    for gi, gfiles in enumerate(groups):
        part = f"group-{gi:04d}"
        fp = fingerprint(file_fingerprint(gfiles), params_fp)
        tok_fps.append(fp)
        out_dir = os.path.join(tokenized_dir, part)
        if resume and man.is_done("tokenize", part, fp) and os.path.exists(out_dir):
            continue
        t0 = time.time()
        ds = ray.data.read_parquet(gfiles, columns=read_columns)
        ds = ds.map_batches(
            tokenize_batch,
            fn_kwargs={
                "analyzer": analyzer,
                "n_buckets": n_buckets,
                "content_col": content_col,
                # tuple-of-pairs: dicts defeat Ray's fn_kwargs schema hashing
                "column_map": tuple(sorted(column_map.items())) if column_map else None,
                "attrs": attrs,
            },
            batch_format="pyarrow",
            batch_size=tokenize_batch_size,
            zero_copy_batch=True,
            concurrency=tokenize_concurrency,
        )
        with atomic_output_dir(out_dir) as tmp:
            # hive-partitioned by bucket: the wide "shuffle" happens on
            # the filesystem — the encode stage reads each bucket's files
            # directly instead of moving rows through the object store
            # zstd-3: the tokenize shuffle is the largest artifact the
            # build writes AND re-reads (observed 2.9x smaller vs snappy
            # on token lists); disk is the non-scaling resource
            ds.write_parquet(
                tmp,
                partition_cols=["bucket"],
                compression="zstd",
                compression_level=3,
            )
        man.mark(
            "tokenize", part, fp, "done",
            {"tokenize_seconds": time.time() - t0, "files": len(gfiles)},
        )

    tok_all_fp = fingerprint(*tok_fps)

    # ---- stage bucket stats (distributed over file paths: footer row
    # counts + the tiny dl column per file; a Dataset scan would pay
    # discovery + per-fragment overhead on thousands of small shuffle
    # files for a 2-column pass) ----
    def _file_stats(batch: pa.Table) -> pa.Table:
        buckets, cnts, dl_sums = [], [], []
        for f, b in zip(batch["file"].to_pylist(), batch["bucket"].to_pylist()):
            pf = pq.ParquetFile(f)
            buckets.append(b)
            cnts.append(pf.metadata.num_rows)
            dl_sums.append(
                int(
                    np.sum(
                        pf.read(columns=["dl"])["dl"].to_numpy(zero_copy_only=False)
                    )
                )
                if pf.metadata.num_rows
                else 0
            )
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int32()),
                "cnt": pa.array(cnts, pa.int64()),
                "dl_sum": pa.array(dl_sums, pa.int64()),
            }
        )

    stats_path = os.path.join(index_dir, "bucket_stats.parquet")
    fp = fingerprint(tok_all_fp, "bucket_stats")
    if not (resume and man.is_done("bucket_stats", "all", fp) and os.path.exists(stats_path)):
        t0 = time.time()
        shuffle_files = sorted(
            glob.glob(os.path.join(tokenized_dir, "*", "bucket=*", "*.parquet"))
        )
        items = [
            {
                "file": f,
                "bucket": int(os.path.basename(os.path.dirname(f)).split("=", 1)[1]),
            }
            for f in shuffle_files
        ]
        partials = (
            ray.data.from_items(items)
            .map_batches(_file_stats, batch_format="pyarrow", batch_size=64)
            .to_pandas()
        )
        agg = partials.groupby("bucket", as_index=False).sum()
        tbl = pa.table(
            {
                "bucket": pa.array(agg["bucket"].to_numpy().astype(np.int32)),
                "cnt": pa.array(agg["cnt"].to_numpy().astype(np.int64)),
                "dl_sum": pa.array(agg["dl_sum"].to_numpy().astype(np.int64)),
            }
        )
        _atomic_write_table(tbl, stats_path)
        man.mark("bucket_stats", "all", fp, "done", {"bucket_stats_seconds": time.time() - t0})
    bstats = pq.read_table(stats_path)
    b_ids = bstats["bucket"].to_numpy(zero_copy_only=False)
    b_cnt = bstats["cnt"].to_numpy(zero_copy_only=False)
    b_dl = bstats["dl_sum"].to_numpy(zero_copy_only=False)
    order = np.argsort(b_ids)
    b_ids, b_cnt, b_dl = b_ids[order], b_cnt[order], b_dl[order]
    n_docs = int(b_cnt.sum())
    n_tokens = int(b_dl.sum())
    avgdl = n_tokens / n_docs if n_docs else 0.0
    offs = np.concatenate([[0], np.cumsum(b_cnt)[:-1]])
    offsets = {int(b): int(o) for b, o in zip(b_ids, offs)}

    # ---- stage encode (filesystem shuffle: per-bucket rank + forward map
    # + postings; resumable per bucket) ----
    docmap_dir = os.path.join(index_dir, "docmap")
    postings_dir = os.path.join(index_dir, "postings")
    termstats_dir = os.path.join(index_dir, "termstats")
    summary_path = os.path.join(index_dir, "shard_summary.parquet")
    fp = fingerprint(tok_all_fp, "encode", n_buckets, n_docs, round(avgdl, 9))
    bucket_files: dict[int, list[str]] = {}
    for p in glob.glob(os.path.join(tokenized_dir, "*", "bucket=*", "*.parquet")):
        b = int(os.path.basename(os.path.dirname(p)).split("=", 1)[1])
        bucket_files.setdefault(b, []).append(p)
    all_buckets = sorted(bucket_files)

    if not (resume and man.is_done("encode", "all", fp) and os.path.exists(summary_path)):
        t0 = time.time()
        for d in (docmap_dir, postings_dir, termstats_dir):
            os.makedirs(d, exist_ok=True)
        # rebuilding into an existing index_dir with a smaller bucket set
        # must not leave stale shard/docmap/termstats files behind — the
        # Searcher globs shard=*.parquet unconditionally and would score
        # phantom documents under the old docID assignment
        current = set(all_buckets)
        for d, prefix in (
            (docmap_dir, "bucket="),
            (postings_dir, "shard="),
            (termstats_dir, "shard="),
        ):
            for p in glob.glob(os.path.join(d, f"{prefix}*.parquet")):
                b = int(os.path.basename(p)[len(prefix):].split(".", 1)[0])
                if b not in current:
                    os.remove(p)
        pending = [
            b
            for b in all_buckets
            if not (resume and man.is_done("encode", f"bucket={b:05d}", fp))
        ]
        if pending:
            files_ref = ray.put({b: sorted(bucket_files[b]) for b in pending})

            def _encode_from_files(batch: pa.Table) -> pa.Table:
                from concurrent.futures import ThreadPoolExecutor

                files_by_bucket = ray.get(files_ref)
                outs = []
                for b in batch["bucket"].to_pylist():
                    flist = files_by_bucket[int(b)]
                    # the shuffle layout is many small files (one per
                    # tokenize block x bucket): thread the reads, sized to
                    # this task's CPU reservation (parquet decompression is
                    # CPU work — unbounded threads would oversubscribe)
                    n_threads = min(2 * encode_cpus, max(1, len(flist)))
                    with ThreadPoolExecutor(n_threads) as ex:
                        tables = list(ex.map(pq.read_table, flist))
                    tbl = pa.concat_tables(tables).combine_chunks()
                    outs.append(
                        encode_bucket_group(
                            tbl,
                            offsets=offsets,
                            avgdl=avgdl,
                            docmap_dir=docmap_dir,
                            postings_dir=postings_dir,
                            termstats_dir=termstats_dir,
                            bucket=int(b),
                        )
                    )
                return pa.concat_tables(outs)

            # encode tasks are DRAM-bandwidth-bound, not CPU-bound:
            # reserve several CPUs per task so concurrency tracks the
            # measured memory bus (a one-shot bandwidth probe), not the
            # core count.
            avail = int(ray.cluster_resources().get("CPU", 8))
            enc_parallel = _probe_encode_parallel(avail)
            encode_cpus = max(1, avail // max(1, enc_parallel))
            summaries = (
                ray.data.from_arrow(
                    pa.table({"bucket": pa.array(pending, pa.int32())})
                )
                .repartition(len(pending))
                .map_batches(
                    _encode_from_files, batch_format="pyarrow", batch_size=1,
                    num_cpus=encode_cpus,
                )
            )
            for row in summaries.to_pandas().to_dict("records"):
                man.mark(
                    "encode",
                    f"bucket={int(row['shard']):05d}",
                    fp,
                    "done",
                    {k: (float(v) if k == "seconds" else int(v)) for k, v in row.items()},
                )
        # assemble the stage summary from per-bucket manifest records
        recs = [
            r["metrics"]
            for r in man.records()
            if r["stage"] == "encode"
            and r["partition"].startswith("bucket=")
            and r["fingerprint"] == fp
        ]
        summary = pa.Table.from_pylist(
            [
                {
                    "shard": int(m["shard"]),
                    "n_docs": int(m["n_docs"]),
                    "n_terms": int(m["n_terms"]),
                    "n_postings": int(m["n_postings"]),
                    "bytes": int(m["bytes"]),
                    "seconds": float(m["seconds"]),
                }
                for m in recs
            ]
        )
        _atomic_write_table(summary, summary_path)
        secs = time.time() - t0
        n_post = int(summary["n_postings"].to_numpy(zero_copy_only=False).sum()) if summary.num_rows else 0
        n_trm = int(summary["n_terms"].to_numpy(zero_copy_only=False).sum()) if summary.num_rows else 0
        man.mark(
            "encode", "all", fp, "done",
            {
                "encode_seconds": secs,
                "n_postings": n_post,
                "postings_per_sec": n_post / secs if secs > 0 else 0.0,
                "terms_per_sec": n_trm / secs if secs > 0 else 0.0,
            },
        )
    summary = pq.read_table(summary_path)

    # ---- stage termstats (phase 2: merge salted partials per term) ----
    termstats_global_dir = os.path.join(index_dir, "term_stats")
    fp = fingerprint(tok_all_fp, "termstats_global", n_buckets)
    if not (
        resume and man.is_done("termstats", "all", fp) and os.path.exists(termstats_global_dir)
    ):
        t0 = time.time()
        ts = (
            ray.data.read_parquet(termstats_dir, columns=["term", "df", "n_blocks"])
            .groupby("term")
            .aggregate(
                Sum("df", alias_name="df"),
                Sum("n_blocks", alias_name="n_blocks"),
            )
        )
        with atomic_output_dir(termstats_global_dir) as tmp:
            ts.write_parquet(tmp)
        man.mark("termstats", "all", fp, "done", {"termstats_seconds": time.time() - t0})

    n_terms = int(
        sum(
            pq.ParquetFile(p).metadata.num_rows
            for p in glob.glob(os.path.join(termstats_global_dir, "*.parquet"))
        )
    )

    # ---- stage global stats + skew metrics ----
    gs_path = os.path.join(index_dir, "global_stats.parquet")
    gs = pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_tokens": pa.array([n_tokens], pa.int64()),
            "avgdl": pa.array([avgdl], pa.float64()),
            "n_terms": pa.array([n_terms], pa.int64()),
            "n_shards": pa.array([n_buckets], pa.int32()),
            "analyzer": pa.array([analyzer], pa.string()),
        }
    )
    _atomic_write_table(gs, gs_path)
    if summary.num_rows:
        per_shard = summary["n_postings"].to_numpy(zero_copy_only=False).astype(np.float64)
        skew = float(per_shard.max() / per_shard.mean()) if per_shard.mean() > 0 else 1.0
    else:
        skew = 1.0
    man.mark(
        "global", "all", fingerprint(tok_all_fp, "global"), "done",
        {"shard_skew_max_over_mean": skew, "n_docs": n_docs, "n_terms": n_terms},
    )

    return BuildResult(
        index_dir=index_dir,
        n_docs=n_docs,
        n_tokens=n_tokens,
        avgdl=avgdl,
        n_terms=n_terms,
        n_shards=n_buckets,
        metrics=man.metrics(),
    )
