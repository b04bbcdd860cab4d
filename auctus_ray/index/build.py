"""Index build pipeline: Parquet corpus -> sharded inverted index.

The Ray-Data restatement of the reference's indexing pipeline
(discover -> profile -> ES bulk index; profiler/profiler.py:90-160 +
lib_core/datamart_core/common.py:369-467 in /root/reference), with
Elasticsearch's internal Lucene machinery made explicit:

  stage tokenize   one Ray Data job per input group (the resumable
                   partition unit), one MapBatches operator over
                   plan_tokenize_tasks(group): the group's input row
                   groups cut into at most one run per CPU slot, of
                   about equal rows (from the parquet footers), one
                   block and one task each. A task (tokenize_row_groups)
                   reads its row groups in TOKENIZE_BATCH_ROWS batches,
                   tokenizes them into per-doc rows (key_hash, sha256,
                   dl, terms[], tfs[]; Arrow, zero-copy) and streams
                   them, SHUFFLE_FLUSH_BYTES at a time, into
                   _BucketSink, which writes one shuffle file per (task,
                   bucket), tokenized/group-NNNN/bucket=B/
                   part-<digest>.parquet. The tasks return only their
                   (bucket, cnt, dl_sum) rows; the driver stores them as
                   the group's counts.parquet, so a resumed build never
                   rescans shuffle files. The docID base of each bucket
                   is the prefix sum of the per-bucket counts
                   (bucket_offsets); avgdl follows.
  stage encode     the second Ray Data job: from_items(pending buckets)
                   in one block per encode slot (the CPUs over the
                   CPUs each encoder reserves), no repartition. Each
                   task encodes its buckets of the filesystem shuffle
                   one at a time — per bucket it (a) dense-ranks the
                   rows into deterministic docIDs (distributed rank,
                   index/docid.py), (b) writes its forward-map slice,
                   (c) explodes postings in memory and (d) encodes
                   delta+varint (docID, tf) blocks into one flat
                   postings file per shard (shard == docID-range
                   bucket), followed by the shard's dl norms
                   (index/codec.py), plus a termstats partial giving
                   each term's df and byte range in that file. This is
                   phase 1 of the salted two-phase term aggregation: the
                   docID range is the salt, so a heavy term ("the",
                   "def", "license") is built by n_buckets independent
                   buckets instead of one straggler. Encode re-sorts
                   every bucket by docID, so the index files do not
                   depend on how tokenize split the rows into files.
  stage termstats  phase 2, on the driver (finish_index): one pass over
                   the per-shard partials writes the index's one term
                   table, the term dictionary postings/terms.bin
                   (term-sorted zstd blocks of varint rows, a block
                   index and a footer; index/codec.py), which gives
                   every (term, shard) its df and byte range; a term's
                   corpus df is the sum of its rows.
                   Only index-sized metadata is read; postings blobs
                   never move again.
  stage global     single-row global stats (N, avgdl, vocab, shards)

Shards are docID ranges (like Elasticsearch's document-partitioned
shards): every shard scores its own documents for any query, so query
fan-out is per-shard top-k + a final merge-sort reduce (index/search.py).
One wide shuffle total: the tokenized rows move once, into their bucket.

Every stage writes to a temp path then renames (atomic) and records a
(stage, partition, fingerprint) line in manifest.jsonl — restart skips
completed work (state/manifest.py). tokenized/ stays after the index
commits: a lost encode output (a docmap bucket, a postings shard) is
re-encoded from it without re-tokenizing any group, which
tests/test_index_build.py::test_resume_is_byte_identical pins; an
incremental build re-tokenizes only its new groups the same way. The
stage records carry each job's task count and summed task seconds
(tokenize_tasks, tokenize_task_seconds, tokenize_files_written,
encode_tasks, encode_task_seconds): task seconds over the stage's wall
is its effective parallelism. At 10^12-file scale the knobs are
n_shards (bounds an encode task's memory: corpus_tokens / n_shards) and
files_per_group (tokenize checkpoint granularity); a tokenize task
holds at most SHUFFLE_FLUSH_BYTES of tokenized rows (plus one batch).
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import time
import uuid
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from auctus_ray.index.codec import (
    TermDictionary, dictionary_file_bytes, encode_shard_postings, shard_file_bytes,
)
from auctus_ray.index.docid import N_DOCID_BUCKETS, bucket_of, key_hash_array
from auctus_ray.state.manifest import (
    Manifest,
    atomic_output_dir,
    file_fingerprint,
    fingerprint,
)
from auctus_ray.tokenize import tokenize_array


# the on-disk index format, part of every build fingerprint: an index
# directory of another format is rebuilt, never resumed
INDEX_FORMAT = "v8"

# rows per tokenize_batch call: each tokenize task reads its input
# row groups in batches of this many rows. A sweep of 256-2048 rows
# found none clearly ahead of 512. The job runs as tasks, since an actor
# costs every build its start-up, and as few of them as there are CPU
# slots (plan_tokenize_tasks): each Ray Data task costs about 50 ms on 1
# CPU, and every task writes its own shuffle file per bucket.
TOKENIZE_BATCH_ROWS = 512

# tokenized bytes a tokenize task holds before it writes them out; each
# write is one row group of every bucket's shuffle file. Large enough
# that a small group writes one row group per file (writing per 512-row
# batch cost 0.69 s per 10k docs, against 0.16 s in one write), and a
# bound on a task's memory whatever its share of the group.
SHUFFLE_FLUSH_BYTES = 64 << 20


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


def index_read_columns(
    column_map: dict[str, str] | None, content_col: str, attrs: tuple
) -> list[str]:
    """The input columns ``tokenize_batch`` reads: the corpus columns
    (their sources through ``column_map``) and the ``attrs``. Every build
    prunes its read to them, so payload columns the index never touches
    are neither read nor required to agree across input files."""
    needed = (
        column_map.values() if column_map
        else ("repo", "path", "commit", "lang", content_col)
    )
    return sorted(set(needed) | set(attrs))


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
    token path (``tokenize_array``, then tf counting: one int64 key
    ``doc * n_terms + term`` per token over the batch's dictionary
    encoding, sorted, whose runs are the (doc, term) pairs in (doc,
    term) order and whose run lengths are the tfs). The
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
        # one int64 key per token, doc-major: sorted, its runs are the
        # (doc, term) pairs in (doc, term) order and their lengths the tfs
        n_terms = len(enc.dictionary)
        key = np.repeat(np.arange(n, dtype=np.int64) * n_terms, lengths)
        key += enc.indices.to_numpy(zero_copy_only=False)
        key.sort()
        change = np.empty(key.size, dtype=bool)
        change[0] = True
        np.not_equal(key[1:], key[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        tf = np.diff(np.append(starts, key.size)).astype(np.int32)
        u_doc, u_tok = np.divmod(key[starts], n_terms)
        terms_per_doc = np.bincount(u_doc, minlength=n)
        offsets = np.concatenate([[0], np.cumsum(terms_per_doc)]).astype(np.int32)
        # string terms whatever the content's string type, so a
        # large_string column writes the same term tables
        term_values = enc.dictionary.take(pa.array(u_tok)).cast(pa.string())
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


def plan_tokenize_tasks(files: list[str], slots: int) -> list[pa.Table]:
    """The tokenize job's blocks, one per task: the non-empty row groups
    of ``files`` as (path, row_group) rows in input order, cut into at
    most ``slots`` contiguous runs of about equal row counts, read from
    the parquet footers. Cutting by rows, not files, lets a group of a
    few large files, or a single file, use as many CPU slots as it has
    row groups."""
    units = [
        (f, i, md.row_group(i).num_rows)
        for f in files
        for md in (pq.read_metadata(f),)
        for i in range(md.num_row_groups)
        if md.row_group(i).num_rows
    ]
    if not units:
        return []
    rows = np.array([n for _, _, n in units], np.int64)
    # a run is the units whose first row falls in the same slot-th of
    # the group's rows
    task = (np.cumsum(rows) - rows) * min(len(units), slots) // rows.sum()
    return [
        pa.table({
            "path": [units[j][0] for j in np.flatnonzero(task == t)],
            "row_group": pa.array([units[j][1] for j in np.flatnonzero(task == t)], pa.int32()),
        })
        for t in np.unique(task)
    ]


def tokenize_row_groups(batch: pa.Table, *, out_dir: str, columns: list[str], **kw) -> pa.Table:
    """One tokenize task: read the input row groups that ``batch``
    lists (plan_tokenize_tasks) in TOKENIZE_BATCH_ROWS-row batches of
    ``columns``, tokenize them with ``tokenize_batch`` (``kw`` are its
    keyword arguments) and write them through _BucketSink into
    ``out_dir`` whenever SHUFFLE_FLUSH_BYTES of them are held, and at
    the end. Returns the shuffle files' COUNTS_SCHEMA rows, tagged with
    the task (_tag_task)."""
    t0 = time.perf_counter()

    def tokenized():
        held, held_bytes, pf, path = [], 0, None, None
        for p, rg in zip(batch["path"].to_pylist(), batch["row_group"].to_pylist()):
            if p != path:
                pf, path = pq.ParquetFile(p), p
            for rb in pf.iter_batches(
                batch_size=TOKENIZE_BATCH_ROWS, row_groups=[rg], columns=columns
            ):
                held.append(tokenize_batch(pa.Table.from_batches([rb]), **kw))
                held_bytes += held[-1].nbytes
                if held_bytes >= SHUFFLE_FLUSH_BYTES:
                    yield pa.concat_tables(held)
                    held, held_bytes = [], 0
        if held:
            yield pa.concat_tables(held)

    return _tag_task(_BucketSink(out_dir).write(tokenized(), None), t0)


def _tag_task(out: pa.Table, t0: float) -> pa.Table:
    """``out`` with the running Ray task's id and its seconds since
    ``t0`` on every row: a job's rows give its stage record the task
    count and summed task seconds (_task_metrics)."""
    n = out.num_rows
    task = ray.get_runtime_context().get_task_id()
    out = out.append_column("task", pa.array([task] * n, pa.string()))
    return out.append_column(
        "task_seconds", pa.array([time.perf_counter() - t0] * n, pa.float64())
    )


def _task_metrics(rows: list[dict]) -> tuple[int, float]:
    """(tasks, summed task seconds) of a job's _tag_task rows."""
    secs = {r["task"]: r["task_seconds"] for r in rows}
    return len(secs), sum(secs.values())


COUNTS_SCHEMA = pa.schema(
    [("bucket", pa.int32()), ("cnt", pa.int64()), ("dl_sum", pa.int64()),
     ("file", pa.string())]
)


def bucket_counts(tok: pa.Table) -> pa.Table:
    """(bucket, cnt, dl_sum) rows of a tokenized table, one per bucket
    present, with ``file`` left null."""
    ids, inv, cnt = np.unique(
        tok["bucket"].to_numpy(zero_copy_only=False),
        return_inverse=True, return_counts=True,
    )
    dl_sum = np.zeros(len(ids), np.int64)
    np.add.at(dl_sum, inv, tok["dl"].to_numpy(zero_copy_only=False))
    return pa.table(
        [pa.array(ids, pa.int32()), pa.array(cnt, pa.int64()),
         pa.array(dl_sum), pa.nulls(len(ids), pa.string())],
        schema=COUNTS_SCHEMA,
    )


class _BucketFile:
    """One shuffle file being written: a bucket's rows, appended one
    row group per ``write``, under a temporary name until ``close``
    names it by the digest of every row it holds."""

    def __init__(self, out_dir: str, bucket: int, schema: pa.Schema):
        self.out_dir, self.bucket = out_dir, bucket
        bucket_dir = os.path.join(out_dir, f"bucket={bucket}")
        os.makedirs(bucket_dir, exist_ok=True)
        self.tmp = os.path.join(bucket_dir, f"part-{uuid.uuid4().hex}.parquet.tmp")
        self.writer = pq.ParquetWriter(
            self.tmp, schema, compression="zstd", compression_level=3
        )
        self.digest = hashlib.sha256()
        self.cnt = self.dl_sum = 0

    def write(self, part: pa.Table, dl_sum: int) -> None:
        self.writer.write_table(part, row_group_size=part.num_rows)
        self.digest.update(part["key_hash"].to_numpy(zero_copy_only=False).tobytes())
        self.digest.update("".join(part["sha256"].to_pylist()).encode())
        self.cnt += part.num_rows
        self.dl_sum += dl_sum

    def close(self) -> dict:
        self.writer.close()
        name = f"bucket={self.bucket}/part-{self.digest.hexdigest()[:16]}.parquet"
        os.replace(self.tmp, os.path.join(self.out_dir, name))
        return {"bucket": self.bucket, "cnt": self.cnt, "dl_sum": self.dl_sum, "file": name}


def write_buckets(tables: pa.Table | Iterable[pa.Table], out_dir: str) -> pa.Table:
    """Stream tokenized rows, split by docID bucket, into one file per
    bucket, ``out_dir/bucket=B/part-<digest>.parquet`` (the hive layout
    encode globs), and return one COUNTS_SCHEMA row per file written.
    ``tables`` is one table or an iterable of them; each table's share
    of a bucket becomes one row group of that bucket's file, so only one
    table is held at a time. zstd-3: the shuffle is the largest artifact
    the build writes and re-reads (2.9x smaller than snappy on token
    lists).

    The digest covers the rows' key hashes and content sha256s in
    order, so a retried task rewrites the same files rather than adding
    duplicates."""
    if isinstance(tables, pa.Table):
        tables = [tables]
    files: dict[int, _BucketFile] = {}
    for tok in tables:
        if tok.num_rows == 0:
            continue
        counts = bucket_counts(tok)
        # one stable sort makes each bucket's rows a contiguous slice,
        # in input order
        tok = tok.take(pc.sort_indices(tok["bucket"])).drop_columns(["bucket"])
        start = 0
        for b, n, dl in zip(*(counts[c].to_pylist() for c in ("bucket", "cnt", "dl_sum"))):
            part = tok.slice(start, n)
            start += n
            if b not in files:
                files[b] = _BucketFile(out_dir, b, part.schema)
            files[b].write(part, dl)
    rows = [files[b].close() for b in sorted(files)]
    return pa.Table.from_pylist(rows, schema=COUNTS_SCHEMA)


class _BucketSink:
    """Where a tokenize job's rows land, in the two steps of Ray Data's
    Datasink protocol: ``write`` runs in each tokenize task and streams
    the task's tokenized tables through write_buckets, so the task holds
    one table at a time and writes one shuffle file per bucket;
    ``on_write_complete`` runs on the driver over the tasks' returns and
    collects them as ``counts``. The job calls them itself rather than
    through Dataset.write_datasink, because Ray Data's write operator
    keeps every block a task wrote until the task ends."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.counts = COUNTS_SCHEMA.empty_table()

    def write(self, blocks: Iterable[pa.Table], ctx=None) -> pa.Table:
        return write_buckets(blocks, self.out_dir)

    def on_write_complete(self, write_result: ray.data.datasource.WriteResult) -> None:
        self.counts = pa.concat_tables([self.counts, *write_result.write_returns])
        # the temporary files of task attempts that died mid-write
        for p in glob.glob(os.path.join(self.out_dir, "bucket=*", "*.tmp")):
            os.remove(p)
        files = self.counts["file"].to_pylist()
        if len(set(files)) < len(files):
            # two write tasks holding the same rows wrote one file
            raise ValueError("duplicate corpus row key: an input block repeats")


def bucket_offsets(counts: pa.Table, n_buckets: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(docs per bucket, docID base per bucket, total tokens) from
    (bucket, cnt, dl_sum) rows. The bases are the exclusive prefix sum
    of the counts: bucket b's docIDs follow every doc of the buckets
    below it."""
    cnt = np.zeros(n_buckets, np.int64)
    np.add.at(
        cnt, counts["bucket"].to_numpy(zero_copy_only=False),
        counts["cnt"].to_numpy(zero_copy_only=False),
    )
    n_tokens = int(counts["dl_sum"].to_numpy(zero_copy_only=False).sum())
    return cnt, np.cumsum(cnt) - cnt, n_tokens


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
    group: pa.Table, offsets: np.ndarray, bucket: int | None = None
) -> np.ndarray:
    """Dense docIDs within one hash bucket (distributed rank leg).
    Bit-identical to index/docid.py assign_doc_ids_local over the union
    of buckets. Raises on duplicate (repo, path, commit) keys.

    The rows are ordered by ``key_hash`` alone (a stable int64 sort);
    only a run of equal hashes, which a repeated key or a 63-bit hash
    collision makes, is ordered by (repo, path, commit), from the few
    rows it holds."""
    kh = group["key_hash"].to_numpy(zero_copy_only=False)
    order = np.argsort(kh, kind="stable")
    same = np.diff(kh[order]) == 0
    if same.any():
        edges = np.diff(np.concatenate(([0], same.astype(np.int8), [0])))
        cols = [group[c] for c in ("repo", "path", "commit")]
        for s, e in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1):
            rows = order[s:e]
            keys = list(zip(*(c.take(pa.array(rows)).to_pylist() for c in cols)))
            by_key = sorted(range(len(rows)), key=keys.__getitem__)
            for i, j in zip(by_key, by_key[1:]):
                if keys[i] == keys[j]:
                    r, p, c = keys[i]
                    raise ValueError(
                        f"duplicate corpus row key (repo,path,commit)=({r},{p},{c})"
                    )
            order[s:e] = rows[by_key]
    if bucket is None:
        bucket = int(group["bucket"][0].as_py())
    doc_ids = np.empty(len(kh), dtype=np.int64)
    doc_ids[order] = offsets[bucket] + np.arange(len(kh), dtype=np.int64)
    return doc_ids


# one row per shard: encode_bucket_group's summary, shard_summary.parquet
SUMMARY_SCHEMA = pa.schema(
    [("shard", pa.int32()), ("n_docs", pa.int64()), ("n_terms", pa.int64()),
     ("n_postings", pa.int64()), ("bytes", pa.int64()), ("seconds", pa.float64())]
)


# encode_bucket_group's termstats partial, one row per term of a shard
# with the term's byte range in the shard's postings file, plus the
# shard (its file name) once finish_index reads the partials back
TERMSTATS_SCHEMA = pa.schema(
    [("term", pa.string()), ("df", pa.int64()), ("offset", pa.int64()),
     ("nbytes", pa.int64()), ("shard", pa.int32())]
)


# the docmap's columns after doc_id, as a tokenized row carries them;
# carried attrs follow
DOC_COLUMNS = ("repo", "path", "commit", "lang", "sha256", "snippet", "dl")

# docmap columns unique per row, stored without dictionary encoding;
# doc_id, sorted and dense, is delta-encoded (DELTA_BINARY_PACKED)
DOCMAP_PLAIN = ("doc_id", "path", "commit", "sha256", "snippet")


def encode_bucket_group(
    group: pa.Table,
    *,
    offsets: np.ndarray,
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
    fwd_cols = {"doc_id": pa.array(doc_ids), **{c: group[c] for c in DOC_COLUMNS}}
    _std = set(fwd_cols) | {"key_hash", "bucket", "terms", "tfs"}
    for name in group.schema.names:
        if name not in _std:
            fwd_cols[name] = group[name]
    fwd = pa.table(fwd_cols).sort_by("doc_id")
    # written for point reads: per-row-unique columns are stored plain
    # (a dictionary of distinct values only adds pages), doc_id as
    # deltas (a dense run packs to a few bits per row) and snippets
    # carry no min/max statistics; the columns filters and deletes push
    # down on keep both
    _atomic_write_table(
        fwd, os.path.join(docmap_dir, f"bucket={shard:05d}.parquet"),
        use_dictionary=[c for c in fwd.column_names if c not in DOCMAP_PLAIN],
        column_encoding={"doc_id": "DELTA_BINARY_PACKED"},
        write_statistics=[c for c in fwd.column_names if c != "snippet"],
    )

    # explode postings in memory (numpy; no second shuffle)
    terms = group["terms"].combine_chunks() if isinstance(
        group["terms"], pa.ChunkedArray
    ) else group["terms"]
    tfs_col = group["tfs"].combine_chunks() if isinstance(
        group["tfs"], pa.ChunkedArray
    ) else group["tfs"]
    lengths = pc.list_value_length(terms).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_rep = np.repeat(doc_ids, lengths)
    tf_flat = np.asarray(tfs_col.flatten())  # int32
    enc = terms.flatten().dictionary_encode()
    # term codes renumbered to the terms' sorted order, so the shard
    # file's blocks and the dictionary rows are both term-sorted
    sorted_codes = pc.sort_indices(enc.dictionary).to_numpy()
    vocab = enc.dictionary.take(sorted_codes)
    rank = np.empty(sorted_codes.size, dtype=np.int64)
    rank[sorted_codes] = np.arange(sorted_codes.size)
    t_idx = rank[enc.indices.to_numpy(zero_copy_only=False)]

    # single composite-key sort: (term rank, local docID) packs into one
    # int64 (bucket-local docIDs are dense < 2^32 by construction);
    # (term, doc) pairs are unique so a non-stable sort is deterministic
    base = int(offsets[shard])
    key = (t_idx << np.int64(32)) | (doc_rep - base)
    order = np.argsort(key)
    t_s = t_idx[order]
    encoded = encode_shard_postings(
        t_s, doc_rep[order].astype(np.uint64), tf_flat[order].astype(np.uint64)
    )
    # norms: dl per docID, dense from the bucket's docID base
    norms = np.empty(group.num_rows, dtype=np.int64)
    norms[doc_ids - base] = group["dl"].to_numpy(zero_copy_only=False)
    blob = shard_file_bytes(encoded["buf"], norms, base)
    nterms = len(encoded["t_df"])
    ts_table = pa.table(
        {
            "term": vocab.take(pa.array(encoded["t_term_code"])),
            "df": pa.array(encoded["t_df"]),
            "offset": pa.array(encoded["t_offset"]),
            "nbytes": pa.array(encoded["t_nbytes"]),
        }
    )

    _atomic_write_bytes(blob, os.path.join(postings_dir, f"shard={shard:05d}.bin"))
    # term rows are distinct and sorted: plain encoding + zstd is smaller
    # than dictionary encoding
    _atomic_write_table(
        ts_table, os.path.join(termstats_dir, f"shard={shard:05d}.parquet"),
        use_dictionary=False,
    )
    secs = time.time() - t0
    return pa.Table.from_pylist(
        [{"shard": shard, "n_docs": group.num_rows, "n_terms": nterms,
          "n_postings": int(t_s.size), "bytes": len(encoded["buf"]), "seconds": secs}],
        schema=SUMMARY_SCHEMA,
    )


def _atomic_write_bytes(data: bytes, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


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


def finish_index(
    index_dir: str, *, analyzer: str, n_buckets: int, n_docs: int,
    n_tokens: int, merge: bool = True,
) -> int:
    """Phase 2 of the salted term aggregation, then the global stats.
    One pass over ``termstats/shard=*.parquet`` writes the index's one
    term table (index-sized metadata, merged in one process as Lucene
    merges per-segment term stats): ``postings/terms.bin``, the term
    dictionary (index/codec.py `dictionary_file_bytes`), which gives
    every (term, shard) a term occurs in its df and byte range, in
    term-sorted blocks of DICT_BLOCK_TERMS terms. A term's corpus df is
    the sum of its rows.

    Then it writes ``global_stats.parquet``. ``merge=False`` keeps the
    existing dictionary. Returns the vocabulary size: the dictionary's
    distinct terms."""
    dict_path = os.path.join(index_dir, "postings", "terms.bin")
    if merge:
        parts = []
        for f in sorted(glob.glob(os.path.join(index_dir, "termstats", "shard=*.parquet"))):
            t = pq.read_table(f)
            shard = int(os.path.basename(f)[len("shard="):].split(".", 1)[0])
            parts.append(t.append_column(
                "shard", pa.array(np.full(t.num_rows, shard, np.int32))
            ))
        rows = pa.concat_tables([TERMSTATS_SCHEMA.empty_table(), *parts]).sort_by(
            [("term", "ascending"), ("shard", "ascending")]
        )
        os.makedirs(os.path.dirname(dict_path), exist_ok=True)
        _atomic_write_bytes(dictionary_file_bytes(
            rows["term"].combine_chunks(),
            *(rows[c].to_numpy() for c in ("shard", "df", "offset", "nbytes")),
        ), dict_path)
        n_terms = pc.count_distinct(rows["term"]).as_py()
        # older formats' term tables, left by a build of this directory
        # before v8; nothing reads them
        shutil.rmtree(os.path.join(index_dir, "term_stats"), ignore_errors=True)
        if os.path.exists(old := os.path.join(index_dir, "postings", "terms.parquet")):
            os.remove(old)
    else:
        n_terms = TermDictionary(dict_path).n_terms
    gs = pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_tokens": pa.array([n_tokens], pa.int64()),
            "avgdl": pa.array([n_tokens / n_docs if n_docs else 0.0], pa.float64()),
            "n_terms": pa.array([n_terms], pa.int64()),
            "n_shards": pa.array([n_buckets], pa.int32()),
            "analyzer": pa.array([analyzer], pa.string()),
        }
    )
    _atomic_write_table(gs, os.path.join(index_dir, "global_stats.parquet"))
    return n_terms


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
    files_per_group: int = 64,
    resume: bool = True,
    content_col: str = "content",
    column_map: dict[str, str] | None = None,
    attrs: list[str] | tuple | None = None,
) -> BuildResult:
    """Run the full checkpointed build. Ray must already be initialized
    by the caller (driver contract: this function never calls ray.init).

    ``n_shards`` is the number of docID buckets (shard == docID bucket
    in this design), ``N_DOCID_BUCKETS`` when not given. ``attrs``
    names input columns carried verbatim into the docmap for filter
    context (tokenize_batch docstring).
    """
    # imported here, not with the module: a Searcher opens index files
    # through this module and would otherwise import Ray Data with it
    import ray.data
    from ray.data.datasource import WriteResult

    n_buckets = n_shards or N_DOCID_BUCKETS
    attrs = tuple(attrs or ())
    input_paths = resolve_input_paths(input_paths)
    os.makedirs(index_dir, exist_ok=True)
    man = Manifest(index_dir)
    params_fp = fingerprint(
        analyzer, n_buckets, content_col,
        repr(sorted((column_map or {}).items())), repr(attrs), INDEX_FORMAT
    )
    read_columns = index_read_columns(column_map, content_col, attrs)

    # ---- stage tokenize (per input-file group; the resumable unit) ----
    groups = [
        input_paths[i : i + files_per_group]
        for i in range(0, len(input_paths), files_per_group)
    ]
    tokenized_dir = os.path.join(index_dir, "tokenized")
    os.makedirs(tokenized_dir, exist_ok=True)
    # rebuilding into an existing index_dir with a smaller/regrouped
    # input set must not leave stale tokenized group dirs behind: the
    # encode stage globs tokenized/*/bucket=* unconditionally and would
    # index phantom docs (or crash on duplicate corpus row keys). Also
    # sweeps partial *.tmp dirs from a hard crash whose group no longer
    # exists.
    current_groups = {f"group-{gi:04d}" for gi in range(len(groups))}
    for p in glob.glob(os.path.join(tokenized_dir, "*")):
        if os.path.basename(p) not in current_groups:
            shutil.rmtree(p, ignore_errors=True)
    # their journal records go stale too, so Manifest.metrics() counts
    # only the groups this build tokenized
    for rec in man.records():
        if (rec["stage"], rec["status"]) == ("tokenize", "done") and (
            rec["partition"] not in current_groups
        ):
            man.mark("tokenize", rec["partition"], rec["fingerprint"], "stale")
    tok_fps, group_counts = [], []
    # the CPU slots both Ray Data jobs size their tasks to
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    for gi, gfiles in enumerate(groups):
        part = f"group-{gi:04d}"
        fp = fingerprint(file_fingerprint(gfiles), params_fp)
        tok_fps.append(fp)
        counts_path = os.path.join(tokenized_dir, part, "counts.parquet")
        if resume and man.is_done("tokenize", part, fp) and os.path.exists(counts_path):
            group_counts.append(pq.read_table(counts_path))
            continue
        t0 = time.time()
        with atomic_output_dir(os.path.dirname(counts_path)) as tmp:
            # the wide "shuffle" happens on the filesystem: each task
            # puts its rows into their bucket's directory, and the
            # encode stage reads each bucket's files directly instead of
            # moving rows through the object store
            plan = plan_tokenize_tasks(gfiles, cpus)
            rows = []
            if plan:
                rows = ray.data.from_arrow(plan).map_batches(
                    tokenize_row_groups,
                    fn_kwargs={
                        "out_dir": tmp,
                        "columns": read_columns,
                        "analyzer": analyzer,
                        "n_buckets": n_buckets,
                        "content_col": content_col,
                        # tuple-of-pairs: dicts defeat Ray's fn_kwargs schema hashing
                        "column_map": tuple(sorted(column_map.items())) if column_map else None,
                        "attrs": attrs,
                    },
                    batch_format="pyarrow",
                    batch_size=None,
                ).take_all()
            sink = _BucketSink(tmp)
            sink.on_write_complete(WriteResult(
                num_rows=sum(r["cnt"] for r in rows), size_bytes=0,
                write_returns=[pa.Table.from_pylist(rows, schema=COUNTS_SCHEMA)],
            ))
            counts = sink.counts
            # the counts commit with the group's files (one rename)
            _atomic_write_table(counts, os.path.join(tmp, "counts.parquet"))
        group_counts.append(counts)
        n_tasks, task_seconds = _task_metrics(rows)
        man.mark(
            "tokenize", part, fp, "done",
            {
                "tokenize_seconds": time.time() - t0, "files": len(gfiles),
                "tokenize_tasks": n_tasks,
                "tokenize_task_seconds": task_seconds,
                "tokenize_files_written": counts.num_rows,
            },
        )

    tok_all_fp = fingerprint(*tok_fps)
    cnt, offsets, n_tokens = bucket_offsets(pa.concat_tables(group_counts), n_buckets)
    n_docs = int(cnt.sum())
    avgdl = n_tokens / n_docs if n_docs else 0.0

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
    outputs = (
        (docmap_dir, "bucket=", ".parquet"),
        (postings_dir, "shard=", ".bin"),
        (termstats_dir, "shard=", ".parquet"),
    )

    def _encoded(b: int) -> bool:
        return man.is_done("encode", f"bucket={b:05d}", fp) and all(
            os.path.exists(os.path.join(d, f"{prefix}{b:05d}{ext}"))
            for d, prefix, ext in outputs
        )

    pending = [b for b in all_buckets if not (resume and _encoded(b))]
    if pending or not (
        resume and man.is_done("encode", "all", fp) and os.path.exists(summary_path)
    ):
        t0 = time.time()
        for d in (docmap_dir, postings_dir, termstats_dir):
            os.makedirs(d, exist_ok=True)
        # rebuilding into an existing index_dir with a smaller bucket set
        # must not leave stale shard/docmap/termstats files behind — the
        # Searcher globs shard=*.bin unconditionally and would score
        # phantom documents under the old docID assignment. Files of
        # another format (an older build's shard=N.parquet) and partial
        # *.tmp writes go too.
        current = set(all_buckets)
        for d, prefix, ext in outputs:
            for p in glob.glob(os.path.join(d, f"{prefix}*")):
                name = os.path.basename(p)
                b = int(name[len(prefix):].split(".", 1)[0])
                if b not in current or not name.endswith(ext):
                    os.remove(p)
        rows = []
        if pending:
            files_ref = ray.put({b: sorted(bucket_files[b]) for b in pending})

            def _encode_buckets(batch: pa.Table) -> pa.Table:
                """One encode task: its share of the pending buckets,
                encoded one at a time, as summary rows tagged with the
                task's id and wall seconds."""
                from concurrent.futures import ThreadPoolExecutor

                t_task = time.perf_counter()
                files_by_bucket = ray.get(files_ref)
                outs = []
                for b in batch["bucket"].to_pylist():
                    flist = files_by_bucket[int(b)]
                    # one shuffle file per tokenize task: thread the
                    # reads, sized to this task's CPU reservation
                    # (parquet decompression is CPU work — unbounded
                    # threads would oversubscribe)
                    n_threads = min(2 * encode_cpus, max(1, len(flist)))
                    with ThreadPoolExecutor(n_threads) as ex:
                        tables = list(ex.map(pq.read_table, flist))
                    tbl = pa.concat_tables(tables).combine_chunks()
                    outs.append(
                        encode_bucket_group(
                            tbl,
                            offsets=offsets,
                            docmap_dir=docmap_dir,
                            postings_dir=postings_dir,
                            termstats_dir=termstats_dir,
                            bucket=int(b),
                        )
                    )
                return _tag_task(pa.concat_tables(outs), t_task)

            # encode tasks are DRAM-bandwidth-bound, not CPU-bound:
            # reserve several CPUs per task so concurrency tracks the
            # measured memory bus (a one-shot bandwidth probe), not the
            # core count; one block, so one task, per encode slot
            enc_parallel = _probe_encode_parallel(cpus)
            encode_cpus = max(1, cpus // max(1, enc_parallel))
            rows = ray.data.from_items(
                [{"bucket": b} for b in pending],
                override_num_blocks=min(len(pending), max(1, cpus // encode_cpus)),
            ).map_batches(
                _encode_buckets, batch_format="pyarrow", batch_size=None,
                num_cpus=encode_cpus,
            ).take_all()
            for row in rows:
                man.mark(
                    "encode",
                    f"bucket={int(row['shard']):05d}",
                    fp,
                    "done",
                    {k: (float(row[k]) if k == "seconds" else int(row[k]))
                     for k in SUMMARY_SCHEMA.names},
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
            [{k: m[k] for k in SUMMARY_SCHEMA.names} for m in recs], schema=SUMMARY_SCHEMA
        )
        _atomic_write_table(summary, summary_path)
        secs = time.time() - t0
        n_tasks, task_seconds = _task_metrics(rows)
        n_post = int(summary["n_postings"].to_numpy(zero_copy_only=False).sum())
        n_trm = int(summary["n_terms"].to_numpy(zero_copy_only=False).sum())
        man.mark(
            "encode", "all", fp, "done",
            {
                "encode_seconds": secs,
                "n_postings": n_post,
                "postings_per_sec": n_post / secs if secs > 0 else 0.0,
                "terms_per_sec": n_trm / secs if secs > 0 else 0.0,
                "encode_tasks": n_tasks,
                "encode_task_seconds": task_seconds,
            },
        )
    summary = pq.read_table(summary_path)

    # ---- stage termstats (phase 2: merge salted partials per term) +
    # global stats ----
    fp = fingerprint(tok_all_fp, "termstats_global", n_buckets)
    merge = not (
        resume and man.is_done("termstats", "all", fp)
        and os.path.exists(os.path.join(postings_dir, "terms.bin"))
    )
    t0 = time.time()
    n_terms = finish_index(
        index_dir, analyzer=analyzer, n_buckets=n_buckets, n_docs=n_docs,
        n_tokens=n_tokens, merge=merge,
    )
    if merge:
        man.mark("termstats", "all", fp, "done", {"termstats_seconds": time.time() - t0})
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
