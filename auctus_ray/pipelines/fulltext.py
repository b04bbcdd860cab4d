"""Full-text pipelines over the `documents` testdata table.

These drive the flagship engine (index build + BM25 search) against a
real table and cross-check it with pure-SQL DuckDB oracles. The
`simple` analyzer is used here because it is exactly expressible in SQL
(`regexp_extract_all(lower(text), '[a-z0-9]+')`); the code-aware
analyzer is exercised by the synthetic-corpus rank-identity tests.

Score comparability: BM25 scores are float64 everywhere; both engine
and oracle round half-away to 6 decimals at the very end (sub-ulp
library differences in ln() are far below 1e-6).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Sum

from auctus_ray.tokenize import tokenize_array

_CACHE_ROOT = "/tmp/auctus_ray_cache"


from auctus_ray.util import round6 as _round_half_away6  # one shared definition


# Corpus-schema projection of the documents table, applied PER BATCH
# inside the build's tokenize stage (index/build.py:apply_column_map) —
# no driver-side rewrite or adapter file exists; the index build reads
# documents.parquet directly with the read pruned to these 4 columns.
_DOCS_COLUMN_MAP = {
    "repo": "source",
    "path": "doc_id",   # doc_id is globally unique; serves as path AND
    "commit": "doc_id",  # commit so (repo,path,commit) keys stay unique
    "lang": "lang",
    "content": "text",
}


def docs_index(sf_dir: str, n_shards: int = 8):
    """Build (or reuse) the simple-analyzer index over documents.
    Caching = build_index's own manifest/resume (content-fingerprinted
    per input-file group), keyed per sf by the index_dir tag."""
    from auctus_ray.index.build import build_index

    tag = hashlib.sha256(sf_dir.encode()).hexdigest()[:12]
    # `.cache` suffix: the watermark sweeper (state/cache.py) recognizes
    # this as an evictable cache entry, the reference's naming contract
    idx_dir = os.path.join(_CACHE_ROOT, f"docs_index_{tag}.cache")
    src = os.path.join(sf_dir, "documents.parquet")
    return build_index(
        [src], idx_dir, analyzer="simple", n_shards=n_shards,
        files_per_group=4, column_map=_DOCS_COLUMN_MAP,
    )


def _translate_docids(index_dir: str, eng_ids: np.ndarray) -> np.ndarray:
    """engine docID -> original documents.doc_id (forward map `path`),
    via a FILTERED read of only the hit ids — the hydrate_hits shape
    (index/search.py), not a full docmap dict for k=10 hits."""
    import pyarrow.dataset as pads

    want = pa.array([int(d) for d in eng_ids], pa.int64())
    ds = pads.dataset(os.path.join(index_dir, "docmap"), format="parquet")
    t = ds.to_table(columns=["doc_id", "path"], filter=pads.field("doc_id").isin(want))
    lut = dict(zip(t["doc_id"].to_pylist(), t["path"].to_pylist()))
    return np.array([int(lut[int(d)]) for d in eng_ids], dtype=np.int64)


def _hits_table(orig_ids: np.ndarray, scores: np.ndarray) -> pa.Table:
    """(rank, doc_id, score) result shape — ONE definition for every
    BM25 driver query (the rounding/rank discipline lived in four
    copies before)."""
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(orig_ids) + 1, dtype=np.int64)),
            "doc_id": pa.array(orig_ids),
            "score": pa.array(_round_half_away6(scores), pa.float64()),
        }
    )


def _bm25_query(sf_dir: str, query: str, k: int, operator: str,
                filters: dict | None = None) -> pa.Table:
    from auctus_ray.index.search import Searcher

    res = docs_index(sf_dir)
    s = Searcher(res.index_dir)
    eng_ids, scores = s.search(query, k=k, operator=operator, filters=filters)
    return _hits_table(_translate_docids(res.index_dir, eng_ids), scores)


def bm25_topk_or(sf_dir: str) -> pa.Table:
    """Flagship: BM25 top-10, disjunctive, over documents."""
    return _bm25_query(sf_dir, "table scan query", k=10, operator="or")


def bm25_topk_and(sf_dir: str) -> pa.Table:
    """Conjunctive BM25 (the reference's operator:'and' multi_match)."""
    return _bm25_query(sf_dir, "hash join", k=10, operator="and")


def _bm25_sql(terms: list[str], k: int, operator: str) -> str:
    """DuckDB BM25 oracle. Tie-break parity: the ENGINE breaks equal
    scores by engine docID, whose order is (sha256 key-hash, repo,
    path, commit) — docid.py. The oracle reproduces it with the same
    sha256 over (source, doc_id, doc_id); the residual hex-vs->>1
    divergence needs two keys adjacent in the low hash bit AND a
    bit-equal score (~n^2/2^63) to matter."""
    vals = ", ".join(f"('{t}')" for t in sorted(set(terms)))
    n_terms = len(set(terms))
    having = (
        f"HAVING COUNT(*) = {n_terms}" if operator == "and" else ""
    )
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
),
dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok GROUP BY doc_id),
g AS (SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
             (SELECT CAST(SUM(dl) AS DOUBLE) FROM dl)
               / (SELECT COUNT(*) FROM documents) AS avgdl),
q(term) AS (VALUES {vals}),
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (g.n_docs - df.df + 0.5)/(df.df + 0.5)) *
         (tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / g.avgdl))) AS c
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN g
),
scores AS (SELECT doc_id, SUM(c) AS score FROM contrib GROUP BY doc_id {having})
SELECT CAST(ROW_NUMBER() OVER (ORDER BY score DESC, kh ASC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 6) AS score
FROM scores
JOIN (SELECT doc_id,
             substr(sha256(source || chr(0) || CAST(doc_id AS VARCHAR)
                           || chr(0) || CAST(doc_id AS VARCHAR)), 1, 16) AS kh
      FROM documents) USING (doc_id)
ORDER BY score DESC, kh ASC, doc_id ASC LIMIT {k}
"""


SQL_BM25_TOPK_OR = _bm25_sql(["table", "scan", "query"], 10, "or")
SQL_BM25_TOPK_AND = _bm25_sql(["hash", "join"], 10, "and")


# ------------------------------------------------ filter context + facets


def bm25_filtered_topk(sf_dir: str) -> pa.Table:
    """BM25 top-10 with a keyword filter (ES filter context — the
    reference ANDs source/type terms-filters with the text query,
    apiserver/search/__init__.py:81-107): lang in (en, fr). Scores are
    unchanged by the filter (it masks, it does not score)."""
    return _bm25_query(
        sf_dir, "table scan query", k=10, operator="or",
        filters={"lang": ["en", "fr"]},
    )


SQL_BM25_FILTERED_TOPK = """
WITH tok AS (
  SELECT doc_id, lang,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
),
dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok GROUP BY doc_id),
g AS (SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
             (SELECT CAST(SUM(dl) AS DOUBLE) FROM dl)
               / (SELECT COUNT(*) FROM documents) AS avgdl),
q(term) AS (VALUES ('table'), ('scan'), ('query')),
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok
       WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         ln(1 + (g.n_docs - df.df + 0.5)/(df.df + 0.5)) *
         (tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / g.avgdl))) AS c
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN g
),
scores AS (
  SELECT doc_id, SUM(c) AS score FROM contrib
  WHERE doc_id IN (SELECT doc_id FROM documents WHERE lang IN ('en', 'fr'))
  GROUP BY doc_id
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY score DESC, kh ASC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 6) AS score
FROM scores
JOIN (SELECT doc_id,
             substr(sha256(source || chr(0) || CAST(doc_id AS VARCHAR)
                           || chr(0) || CAST(doc_id AS VARCHAR)), 1, 16) AS kh
      FROM documents) USING (doc_id)
ORDER BY score DESC, kh ASC, doc_id ASC LIMIT 10
"""


def bm25_facets_lang(sf_dir: str) -> pa.Table:
    """Terms aggregation over ALL matching docs of a disjunctive query
    (ES facets, search/__init__.py:587-603): lang -> match count."""
    from auctus_ray.index.search import Searcher

    res = docs_index(sf_dir)
    s = Searcher(res.index_dir)
    _, _, facets = s.search(
        "table scan query", k=10, operator="or", facet_by="lang"
    )
    items = sorted(
        (lang, n) for lang, n in facets.items() if lang != "__missing__"
    )
    return pa.table(
        {
            "lang": pa.array([lang for lang, _ in items], pa.string()),
            "n_matches": pa.array([n for _, n in items], pa.int64()),
        }
    )


SQL_BM25_FACETS_LANG = """
WITH tok AS (
  SELECT doc_id, lang,
         unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS term
  FROM documents
),
matches AS (
  SELECT DISTINCT doc_id, lang FROM tok
  WHERE term IN ('table', 'scan', 'query')
)
SELECT lang, COUNT(*) AS n_matches FROM matches
GROUP BY lang ORDER BY lang
"""


# ------------------------------------------------------- incremental index


def _docs_segments_root(sf_dir: str) -> str:
    """Two-segment incremental index over documents: the corpus is split
    at the median doc_id by two DISTRIBUTED filtered reads (predicate
    pushed into the parquet scan; only footer metadata is read on the
    driver), each half indexed as its own immutable segment
    (index/segments.py add_segment). Cache keys include the source
    content fingerprint, so regenerated testdata invalidates."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from auctus_ray.index.segments import add_segment, load_segments
    from auctus_ray.state.manifest import file_fingerprint

    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.sha256(
        (sf_dir + file_fingerprint([src])).encode()
    ).hexdigest()[:12]
    split_dir = os.path.join(_CACHE_ROOT, f"docs_segsrc_{tag}.cache")
    if not os.path.isdir(split_dir):
        n = pq.ParquetFile(src).metadata.num_rows
        mid = n // 2
        tmp = split_dir + ".temp"  # .temp: protected from the cache sweeper
        # a crashed earlier attempt may have left partial blocks here;
        # writing fresh files NEXT TO them would commit duplicates
        # (compact() makes the same move on its rewrite dir)
        import shutil as _shutil

        _shutil.rmtree(tmp, ignore_errors=True)
        for name, expr in (
            ("a", pads.field("doc_id") < mid),
            ("b", pads.field("doc_id") >= mid),
        ):
            ray.data.read_parquet(src, filter=expr).write_parquet(
                os.path.join(tmp, name)
            )
        os.replace(tmp, split_dir)
    root = os.path.join(_CACHE_ROOT, f"docs_segroot_{tag}.cache")
    if len(load_segments(root)) < 2:
        for name in ("a", "b"):
            # no extra build kwargs: sandbox-sized halves take the
            # in-process fast path (output-identical, pytest-enforced);
            # corpus-sized halves run the distributed checkpointed build
            add_segment(
                root, os.path.join(split_dir, name), analyzer="simple",
                n_shards=4, column_map=_DOCS_COLUMN_MAP,
            )
    return root


def bm25_topk_incremental(sf_dir: str) -> pa.Table:
    """The flagship BM25 query served from the TWO-SEGMENT incremental
    index (merged df/n_docs/avgdl — the ES continuous-ingest shape,
    reference add_dataset_to_index common.py:451-467). Shares the
    monolithic query's SQL oracle: the whole point is that incremental
    indexing is rank-identical to a full rebuild."""
    from auctus_ray.index.search import Searcher

    s = Searcher(_docs_segments_root(sf_dir))
    eng_ids, scores = s.search("table scan query", k=10, operator="or")
    hits = s.hydrate_hits(eng_ids, scores)
    orig = np.array([int(p) for p in hits["path"].to_pylist()], dtype=np.int64)
    return _hits_table(orig, scores)


# ------------------------------------------------------------ cross_fields


def docs_index_field(sf_dir: str, field: str, n_shards: int = 8):
    """Per-field index over documents (same corpus, same docIDs, same
    analyzer — the cross_fields contract): `field` names the documents
    column serving as content."""
    from auctus_ray.index.build import build_index

    tag = hashlib.sha256(sf_dir.encode()).hexdigest()[:12]
    # `.cache` suffix: evictable by the watermark sweeper (state/cache.py)
    idx_dir = os.path.join(_CACHE_ROOT, f"docs_index_{field}_{tag}.cache")
    col_map = dict(_DOCS_COLUMN_MAP)
    col_map["content"] = field
    return build_index(
        [os.path.join(sf_dir, "documents.parquet")], idx_dir,
        analyzer="simple", n_shards=n_shards, files_per_group=4,
        column_map=col_map,
    )


CROSS_FIELDS_QUERY = "src3 merge"  # one term per field: genuinely cross


def docs_cross_fields(sf_dir: str) -> pa.Table:
    """ES `multi_match type=cross_fields, operator=and` over documents
    (fields src^2, text^1) — the reference's production keyword-query
    shape (apiserver/search/__init__.py:67-79), served through the
    per-shard actor fan-out (DistributedMultiFieldSearcher). 'src3'
    only exists in the source field and 'merge' only in text, so every
    hit is a cross-field conjunction no single field satisfies."""
    from auctus_ray.index.search import DistributedMultiFieldSearcher

    res_t = docs_index(sf_dir)
    res_s = docs_index_field(sf_dir, "source")
    dist = DistributedMultiFieldSearcher(
        {"src": (res_s.index_dir, 2.0), "text": (res_t.index_dir, 1.0)},
        mode="cross_fields", n_actors=4,
    )
    try:
        eng_ids, scores = dist.search(CROSS_FIELDS_QUERY, k=10, operator="and")
    finally:
        dist.shutdown()
    return _hits_table(_translate_docids(res_t.index_dir, eng_ids), scores)


# DuckDB oracle for blended cross_fields scoring: per-term df blended
# as MAX over fields, idf from the blended df, per-(term,doc) dismax of
# boost_f * idf_b * tfnorm_f (tie_breaker=0), AND = every term matched
# in >= 1 field. Field statistics (dl, avgdl) are per-field.
SQL_DOCS_CROSS_FIELDS = """
WITH tok_t AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
),
tok_s AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(source), '[a-z0-9]+')) AS term
  FROM documents
),
dl_t AS (SELECT doc_id, COUNT(*) AS dl FROM tok_t GROUP BY doc_id),
dl_s AS (SELECT doc_id, COUNT(*) AS dl FROM tok_s GROUP BY doc_id),
g AS (SELECT (SELECT COUNT(*) FROM documents) AS n_docs,
             (SELECT CAST(SUM(dl) AS DOUBLE) FROM dl_t)
               / (SELECT COUNT(*) FROM documents) AS avgdl_t,
             (SELECT CAST(SUM(dl) AS DOUBLE) FROM dl_s)
               / (SELECT COUNT(*) FROM documents) AS avgdl_s),
q(term) AS (VALUES ('src3'), ('merge')),
tf_t AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok_t
         WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
tf_s AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok_s
         WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term),
df AS (
  SELECT q.term,
         GREATEST(
           COALESCE((SELECT COUNT(*) FROM tf_t WHERE tf_t.term = q.term), 0),
           COALESCE((SELECT COUNT(*) FROM tf_s WHERE tf_s.term = q.term), 0)
         ) AS df_b
  FROM q
),
contrib AS (
  SELECT COALESCE(tf_t.doc_id, tf_s.doc_id) AS doc_id,
         COALESCE(tf_t.term, tf_s.term) AS term,
         GREATEST(
           COALESCE(1.0 * ln(1 + (g.n_docs - df.df_b + 0.5)/(df.df_b + 0.5)) *
             (tf_t.tf / (tf_t.tf + 1.2 * (1 - 0.75 + 0.75 * dl_t.dl / g.avgdl_t))),
             -1e308),
           COALESCE(2.0 * ln(1 + (g.n_docs - df.df_b + 0.5)/(df.df_b + 0.5)) *
             (tf_s.tf / (tf_s.tf + 1.2 * (1 - 0.75 + 0.75 * dl_s.dl / g.avgdl_s))),
             -1e308)
         ) AS c
  FROM tf_t
  FULL OUTER JOIN tf_s ON tf_t.doc_id = tf_s.doc_id AND tf_t.term = tf_s.term
  JOIN df ON df.term = COALESCE(tf_t.term, tf_s.term)
  LEFT JOIN dl_t ON dl_t.doc_id = tf_t.doc_id
  LEFT JOIN dl_s ON dl_s.doc_id = tf_s.doc_id
  CROSS JOIN g
  WHERE df.df_b > 0
),
scores AS (
  SELECT doc_id, SUM(c) AS score FROM contrib GROUP BY doc_id
  HAVING COUNT(*) = (SELECT COUNT(*) FROM q)
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY score DESC, kh ASC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 6) AS score
FROM scores
JOIN (SELECT doc_id,
             substr(sha256(source || chr(0) || CAST(doc_id AS VARCHAR)
                           || chr(0) || CAST(doc_id AS VARCHAR)), 1, 16) AS kh
      FROM documents) USING (doc_id)
ORDER BY score DESC, kh ASC, doc_id ASC LIMIT 10
"""


# ---------------------------------------------------------------- term df


def term_df_top100(sf_dir: str):
    """Document frequency per term, top-100 (df desc, term asc) — the
    distributed pre-aggregated term statistic (A4/A5 analogue: top-word
    histograms core.py:422-444)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        toks = tokenize_array(batch["text"], "simple")
        import pyarrow.compute as pc

        n = batch.num_rows
        flat = toks.flatten()
        lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(np.arange(n, dtype=np.int64), lengths)
        t = pa.table({"d": pa.array(doc_rep), "term": flat})
        # distinct (doc, term) then count per term = partial df
        dedup = t.group_by(["d", "term"]).aggregate([])
        g = dedup.group_by("term").aggregate([("d", "count")])
        return g.rename_columns(["term", "df_part"])

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df_part", alias_name="df"))
        .sort(["df", "term"], descending=[True, False])
        .limit(100)
    )
    return out


SQL_TERM_DF_TOP100 = """
WITH toks AS (
  SELECT doc_id, unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS term
  FROM documents
)
SELECT term, COUNT(*) AS df FROM toks GROUP BY term
ORDER BY df DESC, term ASC LIMIT 100
"""


# ---------------------------------------------------------------- doc length stats


def doc_length_stats(sf_dir: str):
    """Per-language doc/token totals (exact ints): the dl/avgdl statistics
    pass of the index build, surfaced as a query."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = tokenize_array(batch["text"], "simple")
        t = pa.table(
            {
                "lang": batch["lang"],
                "dl": pc.list_value_length(toks).cast(pa.int64()),
            }
        )
        g = t.group_by("lang").aggregate([("dl", "sum"), ("dl", "count")])
        return g.rename_columns(["lang", "sum_dl", "n_docs"])

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Sum("sum_dl", alias_name="sum_dl"), Sum("n_docs", alias_name="n_docs"))
    )


SQL_DOC_LENGTH_STATS = """
SELECT lang,
       CAST(SUM(len(regexp_extract_all(lower(text), '[a-z0-9]+'))) AS BIGINT) AS sum_dl,
       COUNT(*) AS n_docs
FROM documents GROUP BY lang
"""


QUERIES = {
    "bm25_topk_or": bm25_topk_or,
    "bm25_topk_and": bm25_topk_and,
    "bm25_topk_incremental": bm25_topk_incremental,
    "bm25_filtered_topk": bm25_filtered_topk,
    "bm25_facets_lang": bm25_facets_lang,
    "docs_cross_fields": docs_cross_fields,
    "term_df_top100": term_df_top100,
    "doc_length_stats": doc_length_stats,
}

SQL = {
    "bm25_topk_or": SQL_BM25_TOPK_OR,
    "bm25_topk_and": SQL_BM25_TOPK_AND,
    "bm25_topk_incremental": SQL_BM25_TOPK_OR,
    "bm25_filtered_topk": SQL_BM25_FILTERED_TOPK,
    "bm25_facets_lang": SQL_BM25_FACETS_LANG,
    "docs_cross_fields": SQL_DOCS_CROSS_FIELDS,
    "term_df_top100": SQL_TERM_DF_TOP100,
    "doc_length_stats": SQL_DOC_LENGTH_STATS,
}
