"""Incremental (multi-segment) indexing: add datasets to a live index
without a full rebuild, rank-identical to a monolithic one.

The reference never rebuilds its index: every profiled dataset is added
to Elasticsearch incrementally (`add_dataset_to_index`,
lib_core/datamart_core/common.py:451-467) and removed the same way
(`delete_dataset_from_index`, common.py:522-561); ES/Lucene serve that
stream with immutable on-disk segments, live-docs deletes, and
background merges. This module re-expresses that shape over
`build_index`:

  * each ``add_segment`` call builds one immutable SEGMENT — a complete
    index directory (itself built distributed + checkpointed by
    `build_index`, so a crashed add resumes); segment names derive from
    the input content fingerprint, so re-adding the same content is
    idempotent;
  * ``segments.json`` is the atomic commit point (tmp + rename),
    rewritten under the root's one ``flock``: a segment is visible to
    searches only once registered;
  * ``index.search.Searcher`` opens a root and searches the union of
    its segments with GLOBALLY MERGED statistics — df summed across
    segments, n_docs/avgdl from the merged corpus — so BM25 scores are
    bit-identical to a monolithic rebuild (Lucene's
    IndexSearcher-over-MultiReader contract). This module owns the root
    layout it reads (``load_segments``, ``load_deleted``);
  * ``delete_docs`` resolves values once, against the segments
    registered then, into each hit segment's sorted deleted local
    docIDs (``deleted-<gen>.bin``, Lucene's ``.liv``); searches mask
    them like a filter, and they count in df/avgdl until compaction. A
    later segment is untouched, so delete-then-add is an update by key;
  * ``compact`` merges segments into one from their encoded files, as
    Lucene's SegmentMerger does — the background merge that purges
    deletes. Each source bucket's live docmap rows and the (term, tf)
    lists decoded from its shard's postings file (its blocks, read
    with the (term, df) rows of the file's own term section) are
    re-bucketed and re-encoded in process, one target bucket at a
    time. No document is re-analyzed, no corpus file is opened and no
    Ray task starts, at any root size. Every writer (build_index,
    add_segment's in-process path and compact) leaves the same files:
    per bucket its postings file and its two docmap files, then the
    term dictionary and the global stats.

Scale shape: a segment is the natural unit of incremental ingest on a
cluster (one discovered dataset -> one segment build, each internally
sharded/checkpointed); per-query work is per-segment-per-shard, and
`index.search.DistributedSearcher` fans it out to actors that each hold
a Searcher restricted to one docID-bucket group.
"""

from __future__ import annotations

import contextlib
import fcntl
import glob
import heapq
import itertools
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from auctus_ray.index.build import (
    DOC_COLUMNS, INDEX_FORMAT, N_DOCID_BUCKETS, BuildResult,
    build_index, check_format, encode_bucket_group,
    finish_index, index_read_columns, resolve_input_paths, tokenize_batch,
)
from auctus_ray.index.codec import (
    FOOTER, STORED_CHUNK_DOCS, STORED_COLUMNS, TermDictionary, block_counts,
    decode_blocks_concat, read_stored, take_stored,
)
from auctus_ray.index.docid import bucket_of
from auctus_ray.index.search import Searcher, _read_docmap, _stored_file
from auctus_ray.state.manifest import (
    Manifest, atomic_output_dir, file_fingerprint, fingerprint,
)

SEGMENTS_FILE = "segments.json"
SEG_DIR = "segments"


def _atomic_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
    os.replace(tmp, path)


def load_segments(root: str) -> list[dict]:
    p = os.path.join(root, SEGMENTS_FILE)
    if not os.path.exists(p):
        return []
    with open(p, encoding="utf-8") as f:
        return json.load(f)


@contextlib.contextmanager
def _root_lock(root: str):
    """The root's one exclusive lock, held by every read-modify-write of
    segments.json, so none overwrites another's entries."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "segments.lock"), "a") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        yield


def refuse_value_tombstones(root: str) -> None:
    """Raise on a root whose deletes are still values: ignoring them
    would bring the deleted documents back."""
    p = os.path.join(root, "deletes.json")
    if os.path.exists(p):
        raise ValueError(
            f"{p} holds delete values of an older root format; to migrate, move "
            "it aside, then re-issue each column's values through delete_docs"
        )


def _deleted_file(seg_dir: str, gen: int) -> str:
    return os.path.join(seg_dir, f"deleted-{gen}.bin")


def _check_formats(root: str, entries: list[dict]) -> None:
    """Raise ValueError unless every registered segment of ``root`` is
    of INDEX_FORMAT (build.check_format): a merge decodes its sources'
    files, and a root of mixed formats cannot be searched."""
    for e in entries:
        check_format(os.path.join(root, SEG_DIR, e["name"]))


def load_deleted(seg_dir: str, entry: dict) -> np.ndarray:
    """The sorted local docIDs deleted from one registered segment: its
    ``deleted-<gen>.bin`` at the generation its entry records."""
    gen = entry.get("deleted")
    if not gen:
        return np.empty(0, "<i8")
    return np.fromfile(_deleted_file(seg_dir, gen), dtype="<i8")


# Below this many input bytes a segment builds IN-PROCESS (the Lucene
# in-memory-flush analog): the distributed build's fixed costs (shuffle
# files, two Ray Data jobs) dominate tiny segments, and the
# continuous-ingest path adds many of them. Output layout and every
# number (docIDs, postings, stats) are bit-identical to build_index —
# pytest-enforced. The driver-side read is bounded by this threshold.
SMALL_SEGMENT_BYTES = 16 << 20


def builds_in_process(paths) -> bool:
    """The one size test of this module: an ``add_segment`` of inputs
    under SMALL_SEGMENT_BYTES builds in process; larger inputs run the
    distributed build (so ``cli seg add`` starts Ray only then)."""
    return sum(os.path.getsize(p) for p in paths) < SMALL_SEGMENT_BYTES


def _write_segment(index_dir: str, groups, *, analyzer: str, n_buckets: int) -> BuildResult:
    """The one in-process index writer, file-identical to build_index
    over the same rows. ``groups`` yields (bucket, tokenized rows) for
    each non-empty docID bucket in ascending bucket order; each is
    encoded as its shard (docIDs continue from the buckets below it),
    then ``finish_index``'s term dictionary and global stats are
    written."""
    docmap_dir, postings_dir = dirs = [
        os.path.join(index_dir, d) for d in ("docmap", "postings")
    ]
    for d in dirs:
        os.makedirs(d, exist_ok=True)
    offsets = np.zeros(n_buckets, np.int64)
    n_docs = n_tokens = 0
    for b, group in groups:
        offsets[b] = n_docs
        encode_bucket_group(
            group.combine_chunks(), offsets=offsets, docmap_dir=docmap_dir,
            postings_dir=postings_dir, bucket=b,
        )
        n_docs += group.num_rows
        n_tokens += int(pc.sum(group["dl"]).as_py())
    n_terms = finish_index(
        index_dir, analyzer=analyzer, n_buckets=n_buckets, n_docs=n_docs,
        n_tokens=n_tokens,
    )
    return BuildResult(
        index_dir=index_dir, n_docs=n_docs, n_tokens=n_tokens,
        avgdl=n_tokens / n_docs if n_docs else 0.0, n_terms=n_terms,
        n_shards=n_buckets,
    )


def _segment_result(seg_dir: str, metrics: dict | None = None) -> BuildResult:
    """BuildResult of a finished segment directory, from its global
    stats: what a resumed or retried build returns."""
    gs = pq.read_table(
        os.path.join(seg_dir, "global_stats.parquet"),
        columns=["n_docs", "n_tokens", "avgdl", "n_terms", "n_shards"],
    ).to_pylist()[0]
    return BuildResult(index_dir=seg_dir, metrics=metrics or {}, **gs)


def _build_small_segment(
    paths: list[str],
    seg_dir: str,
    *,
    analyzer: str,
    n_buckets: int,
    column_map: dict[str, str] | None,
    content_col: str,
    params_fp: str,
    attrs: tuple = (),
) -> BuildResult:
    """In-process segment build, output-identical to build_index: the
    same tokenize function, then ``_write_segment``. docID assignment is
    order-independent (per-bucket lexsort on the row key), so parity
    with the distributed build is exact."""
    man = Manifest(seg_dir)
    if man.is_done("smallbuild", "all", params_fp) and os.path.exists(
        os.path.join(seg_dir, "global_stats.parquet")
    ):
        return _segment_result(seg_dir, man.metrics())
    t0 = time.time()
    # inputs may differ in the columns the index never reads
    read_columns = index_read_columns(column_map, content_col, attrs)
    tbl = pa.concat_tables([pq.read_table(p, columns=read_columns) for p in paths])
    tok = tokenize_batch(
        tbl, analyzer=analyzer, n_buckets=n_buckets,
        content_col=content_col, column_map=column_map, attrs=attrs,
    )
    groups = (
        (int(b), tok.filter(pc.equal(tok["bucket"], pa.scalar(int(b), pa.int32()))))
        for b in np.unique(tok["bucket"].to_numpy())
    )
    res = _write_segment(seg_dir, groups, analyzer=analyzer, n_buckets=n_buckets)
    man.mark(
        "smallbuild", "all", params_fp, "done",
        {"smallbuild_seconds": time.time() - t0, "n_docs": res.n_docs},
    )
    res.metrics = man.metrics()
    return res


def add_segment(
    root: str,
    input_paths: list[str] | str,
    *,
    analyzer: str = "code",
    n_shards: int | None = None,
    column_map: dict[str, str] | None = None,
    content_col: str = "content",
    attrs: list[str] | tuple | None = None,
) -> BuildResult:
    """Build + register one immutable segment. Content-fingerprinted
    name: re-adding identical content resumes/reuses the segment and
    registration is idempotent; a crash between build and registration
    is healed by the next identical add (build resumes via its own
    manifest, registration is retried). Inputs under
    SMALL_SEGMENT_BYTES build in-process (output-identical fast path);
    larger ones run the distributed checkpointed build. ``attrs``
    columns ride into the docmap for filter context (build_index)."""
    paths = resolve_input_paths(input_paths)
    attrs = tuple(attrs or ())
    fp = fingerprint(
        file_fingerprint(paths), analyzer, n_shards or 0,
        repr(sorted((column_map or {}).items())), content_col, repr(attrs),
        INDEX_FORMAT,
    )
    name = f"seg-{fp[:12]}"
    seg_dir = os.path.join(root, SEG_DIR, name)
    entries = load_segments(root)
    _check_formats(root, entries)
    for e in entries:
        if e["name"] == name and os.path.exists(
            os.path.join(seg_dir, "global_stats.parquet")
        ):
            # identical content already registered and intact:
            # idempotent no-op (previously the small path re-read
            # and re-wrote every file of the live segment)
            return _entry_result(seg_dir, e)
        if name in (e.get("absorbed") or ()):
            # identical content was folded into a merged segment by
            # a prior compact: re-registering it would DUPLICATE
            # every surviving doc (and resurrect the purged deleted
            # ones) — no-op, pointing at the merged segment. An
            # update by key adds the new version's rows, a new
            # segment that earlier deletes never touch (the
            # discovery drain's chained versions), never a
            # redundant add.
            return _entry_result(
                os.path.join(root, SEG_DIR, e["name"]), e
            )
    if entries:
        ref = entries[0]
        if (analyzer, column_map or None, content_col) != (
            ref["analyzer"], ref["column_map"], ref["content_col"]
        ):
            # mixed-analyzer roots produce silently-wrong merged
            # scores (each segment would tokenize the query its own
            # way); compact() already refuses them — refuse here too
            raise ValueError(
                "segment disagrees with the root's registered "
                f"analyzer/column_map (root: {ref['analyzer']!r})"
            )
    if builds_in_process(paths):
        res = _build_small_segment(
            paths, seg_dir, analyzer=analyzer,
            n_buckets=n_shards or N_DOCID_BUCKETS, column_map=column_map,
            content_col=content_col, params_fp=fp, attrs=attrs,
        )
    else:
        res = build_index(
            paths, seg_dir, analyzer=analyzer, n_shards=n_shards,
            column_map=column_map, content_col=content_col, attrs=attrs,
        )
    with _root_lock(root):
        entries = load_segments(root)
        if not any(e["name"] == name for e in entries):
            entries.append(
                _segment_entry(
                    name, paths, analyzer, column_map, content_col, attrs, res
                )
            )
            _atomic_json(os.path.join(root, SEGMENTS_FILE), entries)
    return res


def _entry_result(seg_dir: str, entry: dict) -> BuildResult:
    """Summary BuildResult for an already-registered (or absorbed)
    segment — the idempotent-add short-circuit's return value."""
    n_docs = int(entry["n_docs"])
    return BuildResult(
        index_dir=seg_dir,
        n_docs=n_docs,
        n_tokens=int(entry["n_tokens"]),
        avgdl=(entry["n_tokens"] / n_docs) if n_docs else 0.0,
        n_terms=-1,  # not re-derived on the no-op path
        n_shards=0,
        metrics={"noop_existing_segment": True},
    )


def _segment_entry(name, paths, analyzer, column_map, content_col, attrs, res):
    return {
        "name": name,
        "inputs": paths,
        "analyzer": analyzer,
        "column_map": column_map,
        "content_col": content_col,
        "attrs": list(attrs),
        "n_docs": res.n_docs,
        "n_tokens": res.n_tokens,
    }


def delete_docs(root: str, values: list, column: str = "path") -> int:
    """Delete the documents whose docmap ``column`` holds one of
    ``values`` (``path`` carries the documents corpus's doc_id) from the
    segments registered now; returns how many it newly deleted. A hit
    segment gets a new immutable ``deleted-<gen>.bin`` (its sorted
    deleted local docIDs, int64 LE), and every new generation lands in
    one segments.json swap. Reference: delete_dataset_from_index
    (common.py:522-561)."""
    refuse_value_tombstones(root)
    if not values:
        return 0
    value_set = pa.array(values)
    n_new, superseded = 0, []
    with _root_lock(root):
        entries = load_segments(root)
        for e in entries:
            seg_dir = os.path.join(root, SEG_DIR, e["name"])
            old = load_deleted(seg_dir, e)
            hits = [old]
            for path in glob.glob(os.path.join(seg_dir, "docmap", "bucket=*.parquet")):
                t = _read_docmap(path, ["doc_id", column])
                if column in t.column_names:
                    hit = pc.is_in(t[column], value_set=value_set)
                    hits.append(t["doc_id"].filter(hit).to_numpy())
            ids = np.unique(np.concatenate(hits)).astype("<i8")
            if ids.size == old.size:
                continue
            n_new += ids.size - old.size
            if old.size:
                superseded.append(_deleted_file(seg_dir, e["deleted"]))
            e["deleted"] = e.get("deleted", 0) + 1
            out = _deleted_file(seg_dir, e["deleted"])
            ids.tofile(out + ".tmp")
            os.replace(out + ".tmp", out)
        if n_new:
            _atomic_json(os.path.join(root, SEGMENTS_FILE), entries)
    for p in superseded:
        os.remove(p)
    return n_new


def _bucket_rows(
    seg_dir: str, docmap_path: str, attrs: tuple, deleted: np.ndarray
) -> pa.Table:
    """One source bucket as the live tokenized rows it was encoded
    from: its docmap rows (key hash among them) minus the ``deleted``
    local docIDs, their snippets from its stored-fields file, and each
    doc's (term, tf) lists decoded from the shard's postings file with
    the (term, df) rows of its term section. The postings file's
    blocks, every term's after the previous term's, decode in one pass
    over its whole blob region, their counts following from the dfs."""
    shard = os.path.basename(docmap_path)[len("bucket="):].split(".", 1)[0]
    docs = _read_docmap(docmap_path, [*DOC_COLUMNS, *attrs])
    shard_file = os.path.join(seg_dir, "postings", f"shard={shard}.bin")
    terms, _, dfs, _, _ = TermDictionary(shard_file, FOOTER.size).rows()
    with open(shard_file, "rb") as f:
        data = f.read()
    norms_at, base, n = FOOTER.unpack_from(data, len(data) - FOOTER.size)
    if n != docs.num_rows:
        raise ValueError(f"{docmap_path} holds {docs.num_rows} rows, its postings footer {n}")
    doc_ids, tfs = decode_blocks_concat([data[:norms_at]], block_counts(dfs))
    # docmap row i is the bucket's docID base + i; a stable sort by doc
    # keeps each doc's terms in term order
    local = doc_ids.astype(np.int64) - base
    order = np.argsort(local, kind="stable")
    offsets = pa.array(np.concatenate(
        [[0], np.cumsum(np.bincount(local, minlength=n))]
    ).astype(np.int32))
    codes = np.repeat(np.arange(dfs.size), dfs)[order]
    cols = {c: docs[c] for c in DOC_COLUMNS}
    # every chunk of the stored-fields file, row after row
    _, raws = read_stored(_stored_file(docmap_path), n, base)
    rows = np.arange(n)
    cols["snippet"] = take_stored(
        raws, np.minimum(n - STORED_CHUNK_DOCS * np.arange(len(raws)), STORED_CHUNK_DOCS),
        rows // STORED_CHUNK_DOCS, rows % STORED_CHUNK_DOCS,
    )[STORED_COLUMNS.index("snippet")]
    cols["terms"] = pa.ListArray.from_arrays(offsets, terms.take(codes))
    cols["tfs"] = pa.ListArray.from_arrays(offsets, pa.array(tfs[order].astype(np.int32)))
    cols.update((a, docs[a]) for a in attrs)
    return pa.table(cols).filter(pa.array(~np.isin(np.arange(base, base + n), deleted)))


def _source_pieces(root: str, entry: dict, n_buckets: int, attrs: tuple):
    """One registered source segment's live rows (its deleted docIDs
    dropped) as (target bucket, rows) pieces in ascending target bucket
    order. Buckets are monotone key-hash ranges
    and a docmap bucket is sorted by key hash, so each source bucket
    splits into runs of target buckets; only one source bucket is
    decoded at a time."""
    seg_dir = os.path.join(root, SEG_DIR, entry["name"])
    deleted = load_deleted(seg_dir, entry)
    for path in sorted(glob.glob(os.path.join(seg_dir, "docmap", "bucket=*.parquet"))):
        rows = _bucket_rows(seg_dir, path, attrs, deleted)
        target = bucket_of(rows["key_hash"].to_numpy(), n_buckets)
        # the first row of each run, then the end
        cuts = np.flatnonzero(np.diff(target, prepend=-1, append=n_buckets))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            yield int(target[lo]), rows.slice(lo, hi - lo)


def compact(
    root: str, *, only: list[str] | None = None, n_shards: int | None = None
) -> BuildResult:
    """Merge segments into one, dropping their deleted docs — the Lucene
    background merge. It is written in process from the sources'
    encoded files, one target bucket at a time (``_source_pieces`` into
    ``_write_segment``), file-identical to build_index over the
    surviving rows with ``n_shards`` buckets (N_DOCID_BUCKETS when not
    given). It reads no corpus file and starts no Ray task; memory holds
    one target bucket plus one decoded bucket per source segment. Named
    from its sources, their delete generations and ``n_shards``, it is
    renamed into place from a temp dir, so a retry after a crash reuses
    it. ``only`` restricts the merge to the named segments (tiered
    merge: small segments fold together, big ones stay untouched).

    The merge runs unlocked; then, under the root lock, the merged
    segment replaces its sources in the segments.json of that moment,
    so segments added meanwhile stay. If a delete moved a source's
    generation meanwhile, the output is removed and the merge reruns."""
    refuse_value_tombstones(root)
    while True:
        entries = load_segments(root)
        if not entries:
            raise ValueError(f"no segments registered under {root}")
        _check_formats(root, entries)
        if only is None:
            sel = entries
        else:
            want = set(only)
            if not want:
                raise ValueError("'only' selects no segments")
            sel = [e for e in entries if e["name"] in want]
            if len(sel) != len(want):
                raise ValueError("unknown segment name in 'only'")
        analyzer = sel[0]["analyzer"]
        column_map = sel[0]["column_map"]
        content_col = sel[0]["content_col"]
        for e in sel[1:]:
            if (e["analyzer"], e["column_map"], e["content_col"]) != (
                analyzer, column_map, content_col,
            ):
                raise ValueError("segments disagree on analyzer/column_map")
        # attrs may legitimately differ across segments after an engine
        # upgrade added attr columns: merge with the INTERSECTION — dropped
        # attrs behave as missing fields (never match a filter) until their
        # datasets re-profile
        attrs = tuple(sorted(set.intersection(*(set(e.get("attrs") or ()) for e in sel))))
        n_buckets = n_shards or N_DOCID_BUCKETS
        gens = {e["name"]: e.get("deleted", 0) for e in sel}
        fp = fingerprint(sorted(gens.items()), n_buckets, INDEX_FORMAT)
        merged_name = f"seg-{fp[:12]}"
        seg_dir = os.path.join(root, SEG_DIR, merged_name)
        # built UNREGISTERED, then swapped in by a single atomic
        # segments.json write (merged in, sources out) — a crash before the
        # swap leaves only an orphan directory, never a state where merged
        # + sources are both registered (duplicate docs, inflated df/n_docs)
        if os.path.exists(os.path.join(seg_dir, "global_stats.parquet")):
            res = _segment_result(seg_dir)
        else:
            sources = [
                _source_pieces(root, e, n_buckets, attrs)
                for e in sorted(sel, key=lambda e: e["name"])
            ]
            groups = (
                (t, pa.concat_tables([rows for _, rows in pieces]))
                for t, pieces in itertools.groupby(
                    heapq.merge(*sources, key=lambda p: p[0]), key=lambda p: p[0]
                )
            )
            with atomic_output_dir(seg_dir) as tmp:
                res = _write_segment(tmp, groups, analyzer=analyzer, n_buckets=n_buckets)
            res.index_dir = seg_dir
        merged = _segment_entry(
            merged_name, sorted({p for e in sel for p in e["inputs"]}), analyzer,
            column_map, content_col, attrs, res,
        )
        # remember which content fingerprints this merge swallowed (chained
        # through prior merges): a later add_segment of the SAME content
        # must no-op instead of registering a duplicate full segment next
        # to the merged copy
        merged["absorbed"] = sorted(
            set(gens) | {a for e in sel for a in (e.get("absorbed") or [])}
        )
        with _root_lock(root):
            current = load_segments(root)
            if {e["name"]: e.get("deleted", 0) for e in current if e["name"] in gens} == gens:
                kept = [e for e in current if e["name"] not in gens]
                _atomic_json(os.path.join(root, SEGMENTS_FILE), kept + [merged])
                break
        # a source's deletes moved (or it was merged away) during the merge
        shutil.rmtree(seg_dir, ignore_errors=True)
    # superseded dirs go last, so a crash leaves only harmless orphans,
    # never a registered-but-missing segment
    for name in gens:
        shutil.rmtree(os.path.join(root, SEG_DIR, name), ignore_errors=True)
    return res


def maybe_compact(
    root: str, max_segments: int = 32, n_shards: int | None = None
) -> BuildResult | None:
    """Tiered merge-lite: when more than ``max_segments`` are
    registered, fold the SMALLEST segments (by doc count) into one,
    leaving the ``max_segments - 1`` largest untouched — continuous
    ingest then costs O(small) per merge instead of rebuilding the big
    segments every time (the Lucene TieredMergePolicy intent)."""
    entries = load_segments(root)
    if len(entries) <= max_segments:
        return None
    big = sorted(entries, key=lambda e: -e["n_docs"])[: max_segments - 1]
    big_names = {e["name"] for e in big}
    small = [e["name"] for e in entries if e["name"] not in big_names]
    return compact(root, only=small, n_shards=n_shards)


# The old name of the one local searcher, kept only because the
# benchmark harness (perfbench/workloads.py) opens segment roots by it.
SegmentedSearcher = Searcher
