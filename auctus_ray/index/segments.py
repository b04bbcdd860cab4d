"""Incremental (multi-segment) indexing: add datasets to a live index
without a full rebuild, rank-identical to a monolithic one.

The reference never rebuilds its index: every profiled dataset is added
to Elasticsearch incrementally (`add_dataset_to_index`,
lib_core/datamart_core/common.py:451-467) and removed the same way
(`delete_dataset_from_index`, common.py:522-561); ES/Lucene serve that
stream with immutable on-disk segments, tombstoned deletes, and
background merges. This module re-expresses that shape over
`build_index`:

  * each ``add_segment`` call builds one immutable SEGMENT — a complete
    index directory (itself built distributed + checkpointed by
    `build_index`, so a crashed add resumes); segment names derive from
    the input content fingerprint, so re-adding the same content is
    idempotent (D5 delete-then-reinsert stays safe);
  * ``segments.json`` is the atomic commit point (tmp + rename): a
    segment is visible to searches only once registered;
  * ``index.search.Searcher`` opens a root and searches the union of
    its segments with GLOBALLY MERGED statistics — df summed across
    segments, n_docs/avgdl from the merged corpus — so BM25 scores are
    bit-identical to a monolithic rebuild (Lucene's
    IndexSearcher-over-MultiReader contract). This module owns the root
    layout it reads (``load_segments``, ``load_deletes``,
    ``_tombstoned_ids``);
  * ``delete_docs`` journals tombstones; searches mask them like a
    filter. Deleted docs still count in
    df/avgdl until compaction — exactly Lucene's live-docs semantics;
  * ``compact`` merges all segments into one (rebuilding from the
    recorded segment inputs, minus tombstoned docs, as one distributed
    build) — the background merge that purges deletes.

Scale shape: a segment is the natural unit of incremental ingest on a
cluster (one discovered dataset -> one segment build, each internally
sharded/checkpointed); per-query work is per-segment-per-shard, and
`index.search.DistributedSearcher` fans it out to actors that each hold
a Searcher restricted to one docID-bucket group.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from auctus_ray.index.build import BuildResult, build_index, resolve_input_paths
from auctus_ray.index.search import Searcher
from auctus_ray.state.manifest import file_fingerprint, fingerprint

SEGMENTS_FILE = "segments.json"
DELETES_FILE = "deletes.json"
SEG_DIR = "segments"


def _tombstoned_ids(index_dir: str, dels: dict[str, list]):
    """Resolve tombstone values -> sorted engine docIDs for ONE segment
    (docmap scan, filter-pushdown isin). Returns None when nothing
    matches."""
    if not dels:
        return None
    dm = pads.dataset(os.path.join(index_dir, "docmap"), format="parquet")
    ids: list[np.ndarray] = []
    for col, vals in dels.items():
        if col not in dm.schema.names or not vals:
            continue
        t = dm.to_table(columns=["doc_id"], filter=pc.field(col).isin(vals))
        ids.append(t["doc_id"].to_numpy(zero_copy_only=False))
    if not ids:
        return None
    return np.unique(np.concatenate(ids)).astype(np.int64)


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


def load_deletes(root: str) -> dict[str, list]:
    p = os.path.join(root, DELETES_FILE)
    if not os.path.exists(p):
        return {}
    with open(p, encoding="utf-8") as f:
        return json.load(f)


# Below this many input bytes a segment builds IN-PROCESS (the Lucene
# in-memory-flush analog): the distributed build's fixed costs (shuffle
# files, stats passes, task rounds) dominate tiny segments, and the
# continuous-ingest path adds many of them. Output layout and every
# number (docIDs, postings, stats) are bit-identical to build_index —
# pytest-enforced. The driver-side read is bounded by this threshold.
SMALL_SEGMENT_BYTES = 16 << 20


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
    """In-process segment build, output-identical to build_index: same
    tokenize/encode functions, same directory layout, same stats files.
    docID assignment is order-independent (per-bucket lexsort on the
    row key), so parity with the distributed build is exact."""
    import pyarrow.parquet as pq

    from auctus_ray.index.build import (
        _atomic_write_table, encode_bucket_group, tokenize_batch,
    )
    from auctus_ray.state.manifest import Manifest

    os.makedirs(seg_dir, exist_ok=True)
    man = Manifest(seg_dir)
    gs_path = os.path.join(seg_dir, "global_stats.parquet")
    if man.is_done("smallbuild", "all", params_fp) and os.path.exists(gs_path):
        gs = pq.read_table(gs_path)
        return BuildResult(
            index_dir=seg_dir,
            n_docs=int(gs["n_docs"][0].as_py()),
            n_tokens=int(gs["n_tokens"][0].as_py()),
            avgdl=float(gs["avgdl"][0].as_py()),
            n_terms=int(gs["n_terms"][0].as_py()),
            n_shards=int(gs["n_shards"][0].as_py()),
            metrics=man.metrics(),
        )
    t0 = __import__("time").time()
    read_columns = (
        sorted(set(column_map.values()) | set(attrs)) if column_map else None
    )
    tbl = pa.concat_tables([pq.read_table(p, columns=read_columns) for p in paths])
    tok = tokenize_batch(
        tbl, analyzer=analyzer, n_buckets=n_buckets,
        content_col=content_col, column_map=column_map, attrs=attrs,
    )
    buckets = tok["bucket"].to_numpy(zero_copy_only=False)
    b_ids, b_cnt = np.unique(buckets, return_counts=True)
    dl = tok["dl"].to_numpy(zero_copy_only=False)
    n_docs = int(tok.num_rows)
    n_tokens = int(dl.sum())
    avgdl = n_tokens / n_docs if n_docs else 0.0
    offs = np.concatenate([[0], np.cumsum(b_cnt)[:-1]])
    offsets = {int(b): int(o) for b, o in zip(b_ids, offs)}

    docmap_dir = os.path.join(seg_dir, "docmap")
    postings_dir = os.path.join(seg_dir, "postings")
    termstats_dir = os.path.join(seg_dir, "termstats")
    for d in (docmap_dir, postings_dir, termstats_dir):
        os.makedirs(d, exist_ok=True)
    summaries = []
    for b in b_ids:
        group = tok.filter(pc.equal(tok["bucket"], pa.scalar(int(b), pa.int32())))
        summaries.append(
            encode_bucket_group(
                group.combine_chunks(), offsets=offsets, avgdl=avgdl,
                docmap_dir=docmap_dir, postings_dir=postings_dir,
                termstats_dir=termstats_dir, bucket=int(b),
            )
        )
    summary = (
        pa.concat_tables(summaries) if summaries
        else pa.table(
            {
                "shard": pa.array([], pa.int32()),
                "n_docs": pa.array([], pa.int64()),
                "n_terms": pa.array([], pa.int64()),
                "n_postings": pa.array([], pa.int64()),
                "bytes": pa.array([], pa.int64()),
                "seconds": pa.array([], pa.float64()),
            }
        )
    )
    _atomic_write_table(summary, os.path.join(seg_dir, "shard_summary.parquet"))
    _atomic_write_table(
        pa.table(
            {
                "bucket": pa.array(b_ids.astype(np.int32)),
                "cnt": pa.array(b_cnt.astype(np.int64)),
                "dl_sum": pa.array(
                    np.array(
                        [int(dl[buckets == b].sum()) for b in b_ids], np.int64
                    )
                ),
            }
        ),
        os.path.join(seg_dir, "bucket_stats.parquet"),
    )
    # global term stats: merge the per-shard partials (same aggregate
    # the distributed build runs as a Ray groupby)
    ts_files = sorted(glob.glob(os.path.join(termstats_dir, "shard=*.parquet")))
    if ts_files:
        ts_all = pa.concat_tables(
            [pq.read_table(f, columns=["term", "df", "n_blocks"]) for f in ts_files]
        )
        ts = ts_all.group_by("term").aggregate(
            [("df", "sum"), ("n_blocks", "sum")]
        ).rename_columns(["term", "df", "n_blocks"])
    else:
        ts = pa.table(
            {
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "n_blocks": pa.array([], pa.int64()),
            }
        )
    tsg_dir = os.path.join(seg_dir, "term_stats")
    os.makedirs(tsg_dir, exist_ok=True)
    _atomic_write_table(ts, os.path.join(tsg_dir, "part-0.parquet"))
    n_terms = ts.num_rows
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
    man.mark(
        "smallbuild", "all", params_fp, "done",
        {"smallbuild_seconds": __import__("time").time() - t0, "n_docs": n_docs},
    )
    return BuildResult(
        index_dir=seg_dir, n_docs=n_docs, n_tokens=n_tokens, avgdl=avgdl,
        n_terms=n_terms, n_shards=n_buckets, metrics=man.metrics(),
    )


def add_segment(
    root: str,
    input_paths: list[str] | str,
    *,
    analyzer: str = "code",
    n_shards: int | None = None,
    column_map: dict[str, str] | None = None,
    content_col: str = "content",
    attrs: list[str] | tuple | None = None,
    _register: bool = True,
    **build_kwargs,
) -> BuildResult:
    """Build + register one immutable segment. Content-fingerprinted
    name: re-adding identical content resumes/reuses the segment and
    registration is idempotent; a crash between build and registration
    is healed by the next identical add (build resumes via its own
    manifest, registration is retried). Inputs under
    SMALL_SEGMENT_BYTES build in-process (output-identical fast path);
    larger ones run the distributed checkpointed build. ``attrs``
    columns ride into the docmap for filter context (build_index).

    ``_register=False`` builds WITHOUT touching segments.json — compact()
    uses it so the merged segment's registration and the source
    segments' removal happen in ONE atomic segments.json write (a crash
    can never leave merged + sources simultaneously registered)."""
    paths = resolve_input_paths(input_paths)
    attrs = tuple(attrs or ())
    fp = fingerprint(
        file_fingerprint(paths), analyzer, n_shards or 0,
        repr(sorted((column_map or {}).items())), content_col, repr(attrs),
    )
    name = f"seg-{fp[:12]}"
    seg_dir = os.path.join(root, SEG_DIR, name)
    if _register:
        entries = load_segments(root)
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
                # every surviving doc (and resurrect none of the
                # explicitly tombstone-purged ones) — no-op, pointing at
                # the merged segment. Explicit reinsert-after-delete
                # goes through undelete_docs or versioned doc keys (the
                # discovery drain's flow), never a redundant add.
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
    total_bytes = sum(os.path.getsize(p) for p in paths)
    if total_bytes < SMALL_SEGMENT_BYTES and not build_kwargs:
        from auctus_ray.index.build import N_DOCID_BUCKETS

        res = _build_small_segment(
            paths, seg_dir, analyzer=analyzer,
            n_buckets=n_shards or N_DOCID_BUCKETS, column_map=column_map,
            content_col=content_col, params_fp=fp, attrs=attrs,
        )
    else:
        res = build_index(
            paths, seg_dir, analyzer=analyzer, n_shards=n_shards,
            column_map=column_map, content_col=content_col, attrs=attrs,
            **build_kwargs,
        )
    if _register:
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
    """Tombstone documents by a docmap column value (for the documents
    corpus, ``path`` carries the original doc_id). Returns the total
    tombstone count. Reference: delete_dataset_from_index
    (common.py:522-561) — ES deletes are tombstones until merge."""
    dels = load_deletes(root)
    cur = set(dels.get(column, []))
    cur.update(values)
    dels[column] = sorted(cur)
    _atomic_json(os.path.join(root, DELETES_FILE), dels)
    return sum(len(v) for v in dels.values())


def undelete_docs(root: str, values: list, column: str = "path") -> int:
    """Remove tombstones (delete-then-REINSERT: a re-added dataset must
    become searchable again even when its content — and therefore its
    version fingerprint — is unchanged). Returns remaining tombstones."""
    dels = load_deletes(root)
    if column in dels:
        drop = set(values)
        kept = [v for v in dels[column] if v not in drop]
        if kept:
            dels[column] = kept
        else:
            del dels[column]
        _atomic_json(os.path.join(root, DELETES_FILE), dels)
    return sum(len(v) for v in dels.values())


def compact(
    root: str, *, only: list[str] | None = None, **build_kwargs
) -> BuildResult:
    """Merge segments into one, purging tombstones — the Lucene
    background merge. Rebuilds from the recorded segment inputs as ONE
    distributed build; when tombstones exist, the inputs are first
    re-written through a distributed filter (predicate pushed into the
    scan — streaming, no driver materialization).

    ``only`` restricts the merge to the named segments (tiered merge:
    small segments fold together while big ones stay untouched).
    Tombstones are cleared only on a FULL merge — after a partial one,
    values may still exist in unmerged segments; the merged segment has
    its copies baked out either way, and retained tombstones over it
    are harmless (the values no longer match anything)."""
    import ray.data

    entries = load_segments(root)
    if not entries:
        raise ValueError(f"no segments registered under {root}")
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
    # upgrade added attr columns (older indexsrc inputs lack the new
    # columns entirely, so a union rebuild cannot read them): merge
    # with the INTERSECTION — dropped attrs behave as missing fields
    # (never match a filter) until their datasets re-profile
    attr_sets = [set(e.get("attrs") or ()) for e in sel]
    attrs = tuple(sorted(set.intersection(*attr_sets))) if attr_sets else ()
    paths = sorted({p for e in sel for p in e["inputs"]})
    dels = load_deletes(root)

    if dels:
        # tombstoned rows must not survive the merge: re-write the union
        # of inputs minus deleted keys (delete columns are docmap names;
        # map back to source columns through the column_map)
        import pyarrow.dataset as _pads

        expr = None
        for col, vals in dels.items():
            src_col = (column_map or {}).get(col, col)
            e_ = ~_pads.field(src_col).isin(vals)
            expr = e_ if expr is None else (expr & e_)
        fp = fingerprint(file_fingerprint(paths), repr(sorted(dels.items())))
        src_dir = os.path.join(root, SEG_DIR, f"compact-src-{fp[:12]}")
        if not os.path.exists(src_dir):
            tmp = src_dir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            # predicate pushed into the scan (row-group pruning at read)
            ray.data.read_parquet(paths, filter=expr).write_parquet(tmp)
            if not glob.glob(os.path.join(tmp, "*.parquet")):
                # every selected row is tombstoned: Ray writes no file
                # for an empty dataset, so write one empty file and the
                # merge yields an empty (harmless) segment
                import pyarrow.parquet as pq

                os.makedirs(tmp, exist_ok=True)
                pq.write_table(
                    pq.read_schema(paths[0]).empty_table(),
                    os.path.join(tmp, "empty.parquet"),
                )
            os.replace(tmp, src_dir)
        build_inputs: list[str] | str = src_dir
    else:
        build_inputs = paths

    n_shards = build_kwargs.pop("n_shards", None)
    # build the merged segment UNREGISTERED, then swap registration in a
    # single atomic segments.json write (merged in, sources out) — a
    # crash before the swap leaves only an orphan directory, never a
    # state where merged + sources are both registered (duplicate docs,
    # inflated df/n_docs)
    res = add_segment(
        root, build_inputs, analyzer=analyzer, n_shards=n_shards,
        column_map=column_map, content_col=content_col, attrs=attrs,
        _register=False, **build_kwargs,
    )
    merged_name = os.path.basename(res.index_dir)
    entries = load_segments(root)
    sel_names = {e["name"] for e in sel}
    merged_entry = [e for e in entries if e["name"] == merged_name] or [
        _segment_entry(
            merged_name, resolve_input_paths(build_inputs), analyzer,
            column_map, content_col, attrs, res,
        )
    ]
    # remember which content fingerprints this merge swallowed (chained
    # through prior merges): a later add_segment of the SAME content
    # must no-op instead of registering a duplicate full segment next
    # to the merged copy
    absorbed = (
        set(merged_entry[0].get("absorbed") or [])
        | sel_names
        | {a for e in sel for a in (e.get("absorbed") or [])}
    ) - {merged_name}
    merged_entry[0]["absorbed"] = sorted(absorbed)
    kept = [
        e for e in entries
        if e["name"] not in sel_names and e["name"] != merged_name
    ]
    _atomic_json(os.path.join(root, SEGMENTS_FILE), kept + merged_entry)
    # a FULL merge bakes every tombstone out; partial merges keep them
    # (values may still live in unmerged segments). Superseded dirs go
    # last, so a crash leaves only harmless orphans, never a
    # registered-but-missing segment.
    if only is None:
        dp = os.path.join(root, DELETES_FILE)
        if os.path.exists(dp):
            os.remove(dp)
    for name in sel_names - {merged_name}:
        shutil.rmtree(os.path.join(root, SEG_DIR, name), ignore_errors=True)
    # superseded compact-src rewrite dirs: a filtered corpus copy is
    # materialized per tombstone-purging merge and stays referenced as
    # the merged segment's inputs — once NO registered segment points
    # into one, it is garbage (otherwise N delete+compact cycles keep
    # ~N corpus copies under the index root). Paths REALPATH-normalized
    # on both sides: the same root spelled relative vs absolute across
    # invocations must not delete a live dir.
    referenced = {
        os.path.realpath(p) for e in kept + merged_entry for p in e["inputs"]
    }
    for d_ in glob.glob(os.path.join(root, SEG_DIR, "compact-src-*")):
        real = os.path.realpath(d_)
        if not any(p.startswith(real + os.sep) for p in referenced):
            shutil.rmtree(d_, ignore_errors=True)
    return res


def maybe_compact(
    root: str, max_segments: int = 32, **build_kwargs
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
    return compact(root, only=small, **build_kwargs)


# The old name of the one local searcher, kept only because the
# benchmark harness (perfbench/workloads.py) opens segment roots by it.
SegmentedSearcher = Searcher
