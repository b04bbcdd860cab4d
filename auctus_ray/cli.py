"""Command-line entry points (ray-job-submittable).

    python -m auctus_ray.cli build  --input DIR --index DIR [--analyzer code]
                                    [--shards 32] [--no-resume]
    python -m auctus_ray.cli query  --index DIR --query "..." [--k 10]
                                    [--operator and|or] [--distributed N]
    python -m auctus_ray.cli gen    --out DIR --rows 5000 [--mean-tokens 120]
    python -m auctus_ray.cli verify --index DIR --input DIR
                                    (rank-identity + sha256 check vs oracle)

These own the Ray session (guarded init) — library code never does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _ray_up(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(
            address="local", include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    _ray_up(args.num_cpus)
    from auctus_ray.index.build import build_index

    t0 = time.time()
    res = build_index(
        args.input, args.index, analyzer=args.analyzer,
        n_shards=args.shards, resume=not args.no_resume,
    )
    out = {
        "index_dir": res.index_dir,
        "n_docs": res.n_docs,
        "n_tokens": res.n_tokens,
        "n_terms": res.n_terms,
        "n_shards": res.n_shards,
        "seconds": round(time.time() - t0, 3),
        "docs_per_sec": round(res.n_docs / max(1e-9, time.time() - t0), 1),
        "shard_skew": res.metrics.get("shard_skew_max_over_mean"),
    }
    print(json.dumps(out))
    return 0


def cmd_query(args) -> int:
    from auctus_ray.index.search import DistributedSearcher, Searcher

    if args.distributed:
        _ray_up(args.num_cpus)
        s = DistributedSearcher(args.index, n_actors=args.distributed)
    else:
        s = Searcher(args.index)
    kwargs = {}
    facets = None
    if getattr(args, "filter_lang", None):
        kwargs["filters"] = {"lang": args.filter_lang.split(",")}
    if getattr(args, "offset", 0):
        kwargs["offset"] = args.offset
    if getattr(args, "facets", None):
        kwargs["facet_by"] = args.facets
    t0 = time.time()
    if "*" in args.query and not kwargs:
        from auctus_ray.index.search import PrefixExpander

        out = PrefixExpander(s).search(args.query, k=args.k)
    else:
        out = s.search(args.query, k=args.k, operator=args.operator, **kwargs)
    if kwargs.get("facet_by"):
        doc_ids, scores, facets = out
    else:
        doc_ids, scores = out
    dt = time.time() - t0
    print(
        json.dumps(
            {
                "query": args.query,
                "k": args.k,
                "operator": args.operator,
                **({"facets": facets} if facets is not None else {}),
                "latency_ms": round(dt * 1000, 3),
                "hits": s.hydrate_hits(doc_ids, scores).to_pylist(),
            }
        )
    )
    return 0


def cmd_gen(args) -> int:
    from auctus_ray.sources.code_corpus import generate_corpus

    paths = generate_corpus(
        args.out, n_rows=args.rows, mean_tokens=args.mean_tokens,
        rows_per_file=max(100, args.rows // 64),
    )
    print(json.dumps({"out": args.out, "files": len(paths), "rows": args.rows}))
    return 0


def cmd_verify(args) -> int:
    """Rank-identity + per-row sha256 vs the brute-force oracle."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.index.oracle import OracleIndex
    from auctus_ray.index.search import Searcher
    from auctus_ray.sources.code_corpus import generate_query_set

    files = sorted(
        glob.glob(os.path.join(args.input, "*.parquet"))
        # --input may be a glob pattern or a single file, not a directory
        or glob.glob(args.input)
    )
    if not files:
        print(f"no parquet files under {args.input!r}")
        return 2
    corpus = pa.concat_tables([pq.read_table(p) for p in files])
    searcher = Searcher(args.index)
    oracle = OracleIndex(corpus, analyzer=searcher.analyzer)
    qs = generate_query_set()
    bad = 0
    for qid, q, k, op in zip(
        qs["qid"].to_pylist(), qs["query"].to_pylist(),
        qs["k"].to_pylist(), qs["operator"].to_pylist(),
    ):
        od, osc = oracle.search(q, k=k, operator=op)
        ed, esc = searcher.search(q, k=k, operator=op)
        if not (len(od) == len(ed) and (od == ed).all() and (osc == esc).all()):
            bad += 1
            print(f"MISMATCH qid={qid} {q!r}", file=sys.stderr)
    # sha256 invariant over the forward map
    import hashlib

    dm_files = sorted(
        glob.glob(os.path.join(args.index, "docmap", "**/*.parquet"), recursive=True)
    )
    fwd = pa.concat_tables(
        [pq.read_table(f, columns=["repo", "path", "commit", "sha256"]) for f in dm_files]
    )
    by_key = {
        (r, p, c): s
        for r, p, c, s in zip(
            fwd["repo"].to_pylist(), fwd["path"].to_pylist(),
            fwd["commit"].to_pylist(), fwd["sha256"].to_pylist(),
        )
    }
    sha_bad = 0
    for i in range(corpus.num_rows):
        key = (
            corpus["repo"][i].as_py(), corpus["path"][i].as_py(),
            corpus["commit"][i].as_py(),
        )
        want = hashlib.sha256((corpus["content"][i].as_py() or "").encode()).hexdigest()
        if by_key.get(key) != want:
            sha_bad += 1
    print(
        json.dumps(
            {
                "queries": len(qs),
                "rank_mismatches": bad,
                "rows": corpus.num_rows,
                "sha256_mismatches": sha_bad,
                "ok": bad == 0 and sha_bad == 0,
            }
        )
    )
    return 0 if bad == 0 and sha_bad == 0 else 1


def cmd_stats(args) -> int:
    """Index introspection: global stats, per-shard skew, bytes per
    index part, the term dictionary's size, build metrics."""
    import glob
    import os

    import pyarrow.parquet as pq

    from auctus_ray.index.codec import TermDictionary
    from auctus_ray.state.manifest import Manifest

    gs = pq.read_table(os.path.join(args.index, "global_stats.parquet")).to_pylist()[0]
    out = {"global": gs}

    def nbytes(*pattern: str) -> int:
        return sum(
            os.path.getsize(f)
            for f in glob.glob(os.path.join(args.index, *pattern), recursive=True)
            if os.path.isfile(f)
        )

    # tokenized/ is the build's shuffle, kept for resume; not served
    out["bytes"] = {
        "postings": nbytes("postings", "shard=*.bin"),
        "dictionary": nbytes("postings", "terms.bin"),
        "docmap": nbytes("docmap", "**"),
        "termstats": nbytes("termstats", "**"),
        "tokenized": nbytes("tokenized", "**"),
    }
    d = TermDictionary(os.path.join(args.index, "postings", "terms.bin"))
    out["dictionary"] = {"n_terms": d.n_terms, "n_blocks": d.n_blocks}
    sp = os.path.join(args.index, "shard_summary.parquet")
    if os.path.exists(sp):
        t = pq.read_table(sp)
        posts = t["n_postings"].to_numpy(zero_copy_only=False).astype(float)
        out["shards"] = {
            "n": t.num_rows,
            "postings_total": int(posts.sum()),
            "skew_max_over_mean": round(float(posts.max() / posts.mean()), 4) if posts.size else None,
            "bytes_total": int(t["bytes"].to_numpy(zero_copy_only=False).sum()),
        }
    man = Manifest(args.index)
    out["build_metrics"] = {
        k: (round(v, 2) if isinstance(v, float) else v)
        for k, v in man.metrics().items()
        if k.endswith(("_seconds", "_per_sec")) or k in (
            "n_postings", "shard_skew_max_over_mean",
            "tokenize_tasks", "tokenize_files_written", "encode_tasks",
        )
    }
    print(json.dumps(out))
    return 0


def cmd_profile_doc(args) -> int:
    """Print the reference-shaped profile document for one table."""
    import json

    import ray

    _ray_up(None)
    from auctus_ray.pipelines.document import profile_dataset_document

    doc = profile_dataset_document(args.input, include_sample=not args.no_sample)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_joinsearch(args) -> int:
    """Print the containment-ranked join candidates for the catalog."""
    import ray

    _ray_up(None)
    from auctus_ray.pipelines.joinsearch import join_search_textual

    t = join_search_textual(args.sf_dir)
    for d, c, sc in zip(
        t["dataset_id"].to_pylist(),
        t["column_name"].to_pylist(),
        t["containment"].to_pylist(),
    ):
        print(f"{sc:10.6f}  {d}.{c}")
    return 0


def cmd_unionsearch(args) -> int:
    """Ranked union-search candidates for a query table (J8 end-to-end:
    fuzzy column matching + greedy assignment + dataset scoring)."""
    import ray

    _ray_up(None)
    from auctus_ray.pipelines.unionsearch import union_search

    t = union_search(
        args.sf_dir, query_table=args.query_table, page=args.page, size=args.size
    )
    for r in t.to_pylist():
        score = r["sum_sim_e9"] / (r["n_query_cols"] * 1e9)
        print(
            f"#{r['rank']:<3} {r['cand_table']:<12} score={score:.6f} "
            f"pairs={r['n_pairs']} [{r['matched']}]"
        )
    return 0


def cmd_ingest(args) -> int:
    """Sniff a tabular file's format, print the conversion plan, and
    (optionally) convert it to Parquet — the reference's
    detect_format_convert_to_csv chain (detect.py:25-193)."""
    import json as _json

    from auctus_ray.sources.ingest import ingest_to_parquet, sniff_format

    plan = sniff_format(args.input)
    print(_json.dumps(plan))
    if args.out:
        import ray

        _ray_up(None)
        ds, _ = ingest_to_parquet(args.input, args.out, plan=plan)
        print(f"wrote {ds.count()} rows to {args.out}")
    return 0


def cmd_export_d3m(args) -> int:
    """Export any sniffable table as a D3M dataset directory — the
    reference's `format=d3m` materialization exit (d3m.py:220-287):
    detect -> read -> stream to tables/learningData.csv + datasetDoc.json."""
    import ray

    from auctus_ray.sources.d3m import write_d3m_dataset
    from auctus_ray.sources.ingest import read_table_auto

    _ray_up(None)
    ds = read_table_auto(args.input)
    write_d3m_dataset(
        ds, args.out, args.dataset_id,
        version=args.schema_version, need_d3mindex=args.d3mindex,
    )
    print(f"wrote D3M dataset {args.dataset_id!r} to {args.out}")
    return 0


def cmd_discover(args) -> int:
    """Sweep a directory with the LocalDirectoryDiscoverer plugin and
    drain the profile queue — the reference's discoverer -> AMQP ->
    profiler loop (lib_core/discovery.py:20-167) as one resumable
    command over a catalog journal."""
    import ray

    from auctus_ray.sources.discovery import LocalDirectoryDiscoverer

    _ray_up(None)
    d = LocalDirectoryDiscoverer(args.identifier, args.catalog, args.root)
    if args.reprocess:
        n = d.reprocess_all()
        print(f"re-queued {n} datasets for profiling")
    if args.backfill_sketches:
        ids = d.backfill_sketches()
        print(f"backfilled sketches for {len(ids)} datasets")
    found = d.discover_datasets()
    pending = [x["id"] for x in d.pending()]
    print(f"discovered {len(found)} datasets; {len(pending)} pending profile")
    if not args.no_profile:
        done = d.profile_pending(
            seg_root=args.index_root, include_sample=not args.no_sample
        )
        verb = "profiled+indexed" if args.index_root else "profiled"
        print(f"{verb} {len(done)}: {', '.join(done) if done else '(all current)'}")
    return 0


def cmd_dataset_search(args) -> int:
    """Dataset discovery search — the reference's POST /search surface
    (keyword query + source/temporal/spatial/granularity 'variables'
    filters, apiserver/search/__init__.py:55-330)."""
    import json as _json

    from auctus_ray.sources.discovery import search_datasets

    temporal = None
    if args.start or args.end:
        temporal = (args.start or None, args.end or None)
    bbox = tuple(args.bbox) if args.bbox else None
    hits = search_datasets(
        args.root, args.query, k=args.k,
        source=args.source.split(",") if args.source else None,
        temporal=temporal, bbox=bbox, granularity=args.granularity,
        facets=args.facets, page=args.page,
    )
    print(_json.dumps(hits, default=str))
    return 0


def cmd_catalog_joinsearch(args) -> int:
    """Joinable-dataset search across every profiled dataset in a
    discovery catalog, via the persisted per-column Lazo sketches
    (reference profiler -> Lazo server -> join search)."""
    import ray

    from auctus_ray.sources.discovery import join_search_catalog

    _ray_up(None)
    out = join_search_catalog(
        args.catalog, args.input, args.column, k=args.k,
        exclude=set(args.exclude.split(",")) if args.exclude else frozenset(),
    )
    print(json.dumps(out.to_pylist()))
    return 0


def cmd_catalog_unionsearch(args) -> int:
    """Unionable-dataset search across a discovery catalog's recorded
    schemas (reference union flow over profiled column listings)."""
    import ray

    from auctus_ray.sources.discovery import union_search_catalog

    _ray_up(None)
    out = union_search_catalog(
        args.catalog, args.input, k=args.k,
        exclude=set(args.exclude.split(",")) if args.exclude else frozenset(),
    )
    print(json.dumps(out.to_pylist()))
    return 0


def cmd_catalog_augsearch(args) -> int:
    """Combined join+union augmentation search over a discovery
    catalog (the reference search response with a data profile)."""
    import ray

    from auctus_ray.sources.discovery import augmentation_search_catalog

    _ray_up(None)
    out = augmentation_search_catalog(
        args.catalog, args.input, column=args.column, k=args.k,
        exclude=set(args.exclude.split(",")) if args.exclude else frozenset(),
    )
    print(json.dumps(out.to_pylist()))
    return 0


def cmd_cache_clean(args) -> int:
    """Watermark cache eviction (the reference cache_cleaner service,
    cache_cleaner/cache.py:40-140): report sizes, evict oldest `.cache`
    entries down to the low watermark when over the high one."""
    from auctus_ray.state.cache import clear_caches, measure_cache_dir

    for d in args.dirs:
        n, sz = measure_cache_dir(d)
        print(f"{d}: {n} entries, {sz} bytes")
    deleted = clear_caches(args.dirs, args.max_bytes, args.low_bytes)
    print(f"evicted {len(deleted)} entries")
    for p_ in deleted:
        print(f"  {p_}")
    return 0


def cmd_seg(args) -> int:
    """Incremental (multi-segment) index lifecycle — add / search /
    delete / compact (index/segments.py; the reference's continuous ES
    ingest, add_dataset_to_index common.py:451-467)."""
    from auctus_ray.index import segments as seg
    from auctus_ray.index.build import resolve_input_paths

    if args.action == "add":
        if not seg.builds_in_process(resolve_input_paths(args.input)):
            _ray_up(args.num_cpus)  # small adds build in-process, Ray-free
        cmap = None
        if args.column_map:
            cmap = dict(kv.split("=", 1) for kv in args.column_map.split(","))
        t0 = time.time()
        res = seg.add_segment(
            args.root, args.input, analyzer=args.analyzer,
            n_shards=args.shards, column_map=cmap,
            attrs=args.attrs.split(",") if args.attrs else None,
        )
        print(json.dumps({
            "segment": os.path.basename(res.index_dir),
            "n_docs": res.n_docs,
            "n_segments": len(seg.load_segments(args.root)),
            "seconds": round(time.time() - t0, 3),
        }))
    elif args.action == "search":
        from auctus_ray.index.search import DistributedSearcher, Searcher

        if args.distributed:
            _ray_up(args.num_cpus)
            s = DistributedSearcher(args.root, n_actors=args.distributed)
            stats = s.local.stats()
        else:
            s = Searcher(args.root)
            stats = s.stats()
        filters = None
        if args.filter:
            filters = {}
            for spec in args.filter:
                attr, val = spec.split("=", 1)
                if val.startswith((">=", "<=")):
                    filters[attr] = (val[:2], float(val[2:]))
                else:
                    filters[attr] = val.split("|")
        d, sc = s.search(
            args.query, k=args.k, operator=args.operator, filters=filters
        )
        print(json.dumps({
            "stats": stats,
            "hits": s.hydrate_hits(d, sc).to_pylist(),
        }, default=str))
    elif args.action == "delete":
        values = [v for v in args.values.split(",") if v]
        if not values:
            print(json.dumps({"error": "delete requires --values"}))
            return 2
        n = seg.delete_docs(args.root, values, column=args.column)
        print(json.dumps({"tombstones": n}))
    elif args.action == "compact":
        # a merge of encoded segments: in process, Ray-free at any size
        t0 = time.time()
        res = seg.compact(args.root, n_shards=args.shards)
        print(json.dumps({
            "segment": os.path.basename(res.index_dir),
            "n_docs": res.n_docs,
            "seconds": round(time.time() - t0, 3),
        }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="auctus_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the inverted index")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--analyzer", default="code",
                   choices=["code", "simple", "code_stem", "text_en"])
    b.add_argument("--shards", type=int, default=32)
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--num-cpus", type=int, default=None)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="BM25 top-k search")
    q.add_argument("--index", required=True,
                   help="index directory or segment root")
    q.add_argument("--query", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--operator", default="and", choices=["and", "or"])
    q.add_argument("--distributed", type=int, default=0,
                   help="shard-parallel search with N actors")
    q.add_argument("--offset", type=int, default=0, help="pagination offset")
    q.add_argument("--filter-lang", default=None,
                   help="comma-separated lang filter (keyword filter context)")
    q.add_argument("--facets", default=None,
                   help="attribute to facet-count over all matches")
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    g = sub.add_parser("gen", help="generate the synthetic code corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=5000)
    g.add_argument("--mean-tokens", type=int, default=120)
    g.set_defaults(fn=cmd_gen)

    st = sub.add_parser("stats", help="index stats + build metrics")
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    v = sub.add_parser("verify", help="rank-identity + sha256 vs oracle")
    v.add_argument("--index", required=True)
    v.add_argument("--input", required=True)
    v.set_defaults(fn=cmd_verify)

    pd = sub.add_parser(
        "profile-doc", help="assembled profile document (JSON) for a parquet table"
    )
    pd.add_argument("--input", required=True, help="path to a .parquet table")
    pd.add_argument("--no-sample", action="store_true")
    pd.set_defaults(fn=cmd_profile_doc)

    js = sub.add_parser(
        "joinsearch", help="containment-ranked joinable columns for an sf dir"
    )
    js.add_argument("--sf-dir", required=True)
    js.set_defaults(fn=cmd_joinsearch)

    ing = sub.add_parser(
        "ingest", help="sniff a tabular file's format; optionally convert to Parquet"
    )
    ing.add_argument("input", help="path to a csv/tsv/parquet/... file")
    ing.add_argument("--out", help="output Parquet directory (omit to only sniff)")
    ing.set_defaults(fn=cmd_ingest)

    us = sub.add_parser(
        "unionsearch", help="ranked unionable-table candidates for a query table"
    )
    us.add_argument("--sf-dir", required=True)
    us.add_argument("--query-table", default="customer")
    us.add_argument("--page", type=int, default=0)
    us.add_argument("--size", type=int, default=50)
    us.set_defaults(fn=cmd_unionsearch)

    d3 = sub.add_parser(
        "export-d3m", help="export a table as a D3M dataset directory"
    )
    d3.add_argument("input", help="path to a parquet/csv/tsv/xlsx table")
    d3.add_argument("--out", required=True, help="destination directory")
    d3.add_argument("--dataset-id", default="dataset")
    d3.add_argument("--schema-version", default="4.0.0",
                    choices=["3.2.0", "4.0.0"])
    d3.add_argument("--d3mindex", action="store_true",
                    help="generate the d3mIndex column")
    d3.set_defaults(fn=cmd_export_d3m)

    dc = sub.add_parser(
        "discover",
        help="sweep a directory for datasets, profile the pending ones",
    )
    dc.add_argument("--root", required=True, help="directory to sweep")
    dc.add_argument("--catalog", required=True, help="catalog journal dir")
    dc.add_argument("--identifier", default="localdir")
    dc.add_argument("--index-root", default=None,
                    help="segmented keyword-index root: profiled "
                         "datasets are also indexed (searchable via "
                         "'seg search')")
    dc.add_argument("--no-profile", action="store_true")
    dc.add_argument("--no-sample", action="store_true")
    dc.add_argument("--backfill-sketches", action="store_true",
                    help="write column sketches for datasets profiled "
                         "before the sketch catalog existed")
    dc.add_argument("--reprocess", action="store_true",
                    help="re-queue every live dataset first (the "
                         "reference's reprocess_all after a profiler "
                         "upgrade)")
    dc.set_defaults(fn=cmd_discover)

    dss = sub.add_parser(
        "dataset-search",
        help="keyword + coverage-filtered search over the metadata index",
    )
    dss.add_argument("--root", required=True, help="segmented index root")
    dss.add_argument("--query", required=True)
    dss.add_argument("-k", type=int, default=10)
    dss.add_argument("--source", default=None, help="comma-separated sources")
    dss.add_argument("--start", default=None, help="temporal filter start (ISO)")
    dss.add_argument("--end", default=None, help="temporal filter end (ISO)")
    dss.add_argument("--bbox", type=float, nargs=4, default=None,
                     metavar=("LON1", "LAT1", "LON2", "LAT2"))
    dss.add_argument("--granularity", default=None,
                     help="temporal resolution term filter (e.g. day)")
    dss.add_argument("--facets", action="store_true",
                     help="return source/license buckets + total")
    dss.add_argument("--page", type=int, default=1)
    dss.set_defaults(fn=cmd_dataset_search)

    cj = sub.add_parser(
        "catalog-joinsearch",
        help="rank profiled catalog datasets by join containment "
             "with a query column (persisted Lazo sketches)",
    )
    cj.add_argument("--catalog", required=True, help="catalog journal dir")
    cj.add_argument("--input", required=True, help="query table file")
    cj.add_argument("--column", required=True, help="query column")
    cj.add_argument("-k", type=int, default=None)
    cj.add_argument("--exclude", default=None,
                    help="comma-separated dataset ids to skip")
    cj.set_defaults(fn=cmd_catalog_joinsearch)

    cu = sub.add_parser(
        "catalog-unionsearch",
        help="rank profiled catalog datasets by fuzzy schema match "
             "with a query table",
    )
    cu.add_argument("--catalog", required=True, help="catalog journal dir")
    cu.add_argument("--input", required=True, help="query table file")
    cu.add_argument("-k", type=int, default=50)
    cu.add_argument("--exclude", default=None,
                    help="comma-separated dataset ids to skip")
    cu.set_defaults(fn=cmd_catalog_unionsearch)

    ca = sub.add_parser(
        "catalog-augsearch",
        help="combined join+union augmentation search over a catalog",
    )
    ca.add_argument("--catalog", required=True)
    ca.add_argument("--input", required=True, help="query table file")
    ca.add_argument("--column", default=None,
                    help="join column (default: best string column)")
    ca.add_argument("-k", type=int, default=50)
    ca.add_argument("--exclude", default=None)
    ca.set_defaults(fn=cmd_catalog_augsearch)

    cc = sub.add_parser(
        "cache-clean",
        help="evict oldest .cache entries down to the low watermark",
    )
    cc.add_argument("dirs", nargs="+", help="cache directories to sweep")
    cc.add_argument("--max-bytes", type=int, required=True,
                    help="high watermark (eviction trigger)")
    cc.add_argument("--low-bytes", type=int, default=None,
                    help="low watermark (default 0.33 * max)")
    cc.set_defaults(fn=cmd_cache_clean)

    sg = sub.add_parser(
        "seg",
        help="incremental index: add/search/delete/compact segments",
    )
    sg.add_argument("action", choices=["add", "search", "delete", "compact"])
    sg.add_argument("--root", required=True, help="segmented index root")
    sg.add_argument("--input", help="parquet file/dir/glob (add)")
    sg.add_argument("--attrs", default=None,
                    help="comma-separated input columns carried into "
                         "the docmap for filter context (add)")
    sg.add_argument("--filter", action="append", default=None,
                    metavar="ATTR=V1|V2 or ATTR=>=N / ATTR=<=N",
                    help="search filter: keyword terms or numeric "
                         "comparison over a docmap attr (repeatable)")
    sg.add_argument("--column-map", default=None,
                    help="corpus=source column mapping, e.g. "
                         "repo=source,path=doc_id,commit=doc_id,"
                         "lang=lang,content=text")
    sg.add_argument("--analyzer", default="code")
    sg.add_argument("--shards", type=int, default=None)
    sg.add_argument("--query", default="", help="query string (search)")
    sg.add_argument("-k", type=int, default=10)
    sg.add_argument("--operator", default="or", choices=["or", "and"])
    sg.add_argument("--distributed", type=int, default=0,
                    help="serve search through N docID-bucket-group "
                         "actors")
    sg.add_argument("--column", default="path", help="delete key column")
    sg.add_argument("--values", default="", help="comma-separated delete keys")
    sg.add_argument("--num-cpus", type=int, default=None)
    sg.set_defaults(fn=cmd_seg)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import sys as _sys

        # only shut Ray down if something actually imported it — the
        # non-Ray commands (gen/stats/cache-clean/sniff) skip the
        # multi-second import entirely
        if "ray" in _sys.modules:
            import ray

            if ray.is_initialized():
                ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
