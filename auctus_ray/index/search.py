"""BM25 query serving: vectorized top-k over index shards.

Replaces the reference's Elasticsearch query path — `multi_match` with
`operator: and` over BM25-scored fields (apiserver/apiserver/search/
__init__.py:67-79) and `TOP_K_SIZE=50` (search/base.py:1) — with an
explicit scorer over our sharded Parquet index:

  * `Searcher` is the one local searcher. It opens an index directory or
    a segment root (index/segments.py; a plain index is one segment at
    docID base 0) and holds one flat shard list across every segment,
    with corpus-merged statistics (df summed over the segments'
    term_stats, n_docs/avgdl over all of them) — Lucene's IndexSearcher
    over a MultiReader;
  * shards are docID ranges (document-partitioned, as ES shards are), so
    every shard scores its own documents completely and the global top-k
    is one merge-sort reduce (`merge_topk`) of per-shard top-k arrays;
  * per (term, shard) posting lists are delta+varint blocks with skip
    metadata (first/last docID) and a per-block max_tfnorm bound;
  * one scoring kernel (`Searcher._scan_shard_vectorized`) serves OR and
    AND queries, filters, tombstones and facets: numpy block decode into
    cached dense per-term contribution spans, slice-adds in term order,
    then an argpartition shard-local top-k. Every block of the query
    terms is decoded; skipping blocks by their max_tfnorm bound is
    future work inside this kernel;
  * float discipline matches index/oracle.py: float64, contributions
    summed in lexicographic term order, ties broken by ascending docID.

Distributed serving has one shape. `DistributedSearcher` fans each
query out to `_BucketGroupWorker` actors, each holding a `Searcher`
restricted to one docID-bucket group of every segment; the calling
process reduces with `merge_topk` and hydrates through its own
`Searcher`.
`DistributedMultiFieldSearcher` runs the same actors over the
multi_match searchers. `BatchSearcher` is an actor-pool `map_batches`
callable — the index loads once per actor (`__init__`), query batches
stream through (`__call__`) — the reference's stateful-service pattern
(Lazo server / GeoData resolver, SURVEY.md §2.3 T1/T2) in Ray Data form.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from auctus_ray.index.codec import _tfnorm, bm25_idf, decode_blocks_concat
from auctus_ray.tokenize import tokenize_text
from auctus_ray.util import merge_facet_counts

# docmap columns a hydrated hit carries (those present in the index)
HIT_COLUMNS = ("doc_id", "repo", "path", "commit", "lang", "snippet")


def merge_topk(parts: list, k: int, offset: int = 0, facet_by=None):
    """The one top-k reduce every searcher shares: concatenate per-part
    ``(doc_ids, scores[, facet_counts])`` results, order by score desc
    then docID asc, and keep ranks [offset, offset + k). With facet_by
    set, a third element sums the parts' facet counts: {value: count},
    or {attr: {value: count}} when facet_by is a list of attributes."""
    if parts:
        doc_ids = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
    else:
        doc_ids, scores = np.empty(0, np.int64), np.empty(0, np.float64)
    order = np.lexsort((doc_ids, -scores))[offset : offset + k]
    if not facet_by:
        return doc_ids[order], scores[order]
    facets: dict = (
        {a: {} for a in facet_by} if isinstance(facet_by, (list, tuple)) else {}
    )
    for p in parts:
        merge_facet_counts(facets, p[2])
    return doc_ids[order], scores[order], facets


def _shard_bucket(path: str) -> str:
    """'.../postings/shard=7.parquet' -> '7' (docID bucket id)."""
    return os.path.basename(path).split("=", 1)[1].split(".", 1)[0]


def _shard_docmap(shard_file: str) -> str:
    """The shard's own forward-map slice, in the same index directory:
    <dir>/postings/shard=N.parquet -> <dir>/docmap/bucket=N.parquet."""
    index_dir = os.path.dirname(os.path.dirname(shard_file))
    return os.path.join(
        index_dir, "docmap", f"bucket={_shard_bucket(shard_file)}.parquet"
    )


def _term_dfs(term_stats: list, expr) -> dict[str, int]:
    """{term: df summed over the segments' term_stats datasets} for the
    terms matching ``expr`` (a filtered, row-group-pruned read)."""
    out: dict[str, int] = {}
    for ds in term_stats:
        if "term" not in ds.schema.names:
            # empty vocabulary (e.g. all-empty corpus): Ray wrote a
            # schema-less part file for the empty aggregate
            continue
        t = ds.to_table(columns=["term", "df"], filter=expr)
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            out[term] = out.get(term, 0) + int(df)
    return out


def _docmap_rows(index_dir: str, ids: list[int]) -> dict[int, dict]:
    """{doc_id: hit fields} for the requested docIDs of one index: a
    filtered docmap read (row groups without requested ids are pruned,
    snippets of non-hits never load)."""
    dm = pads.dataset(os.path.join(index_dir, "docmap"), format="parquet")
    cols = [c for c in HIT_COLUMNS if c in dm.schema.names]
    tbl = dm.to_table(columns=cols, filter=pc.field("doc_id").isin(ids))
    return {int(r["doc_id"]): r for r in tbl.to_pylist()}


def _hits_table(doc_ids, scores, metas) -> pa.Table:
    """Hit rows in rank order: the docmap fields found for each doc
    (``metas``, aligned with doc_ids; None when not found) plus its
    rank, doc_id and score."""
    rows = []
    for rank, (d, s, m) in enumerate(zip(doc_ids, scores, metas), start=1):
        r = dict(m or {})
        r.update({"rank": rank, "doc_id": int(d), "score": float(s)})
        rows.append(r)
    return pa.Table.from_pylist(rows)


def load_synonyms(path: str) -> dict[str, list[str]]:
    """Parse a Solr/ES-format synonyms file (the artifact the reference
    mounts into Elasticsearch: docker/synonyms.txt wired through
    elasticsearch.yml:16-31) into the Searcher's expansion dict.

    Supported syntax (Solr synonym_graph format):
      * '# ...' comments and blank lines are skipped;
      * 'a, b, c'    — equivalence group: each term expands to the rest;
      * 'a, b => c'  — explicit mapping: each LHS term expands to every
                       RHS term (RHS terms are not expanded back).
    """
    out: dict[str, list[str]] = {}

    def add(term: str, exps: list[str]) -> None:
        term = term.strip()
        cur = out.setdefault(term, [])
        for e in exps:
            e = e.strip()
            if e and e != term and e not in cur:
                cur.append(e)

    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=>" in line:
                lhs, rhs = line.split("=>", 1)
                rhs_terms = [t for t in rhs.split(",") if t.strip()]
                for term in lhs.split(","):
                    add(term, rhs_terms)
            else:
                group = [t.strip() for t in line.split(",") if t.strip()]
                for term in group:
                    add(term, group)
    return out


def _postings_entry_nbytes(e: dict | None) -> int:
    """Approximate heap size of one (shard, term) cache entry — block
    arrays + blobs (memoized on the entry: they never change) plus the
    dense span arrays when attached."""
    if e is None:
        return 64
    n = e.get("_nbytes_static")
    if n is None:
        n = (
            e["first"].nbytes + e["last"].nbytes + e["n"].nbytes
            + e["max_tfnorm"].nbytes
            + sum(len(b) for b in e["blobs"]) + 64
        )
        e["_nbytes_static"] = n
    d = e.get("_dense")
    if d is not None:
        n += d[1].nbytes + d[2].nbytes
    return n


class Searcher:
    """The one local searcher, over an index directory or a segment root.

    ``path`` holds registered ``segments.json`` entries (a segment root,
    index/segments.py), or ``global_stats.parquet`` and no
    ``segments.json`` (a plain index: one segment at docID base 0).
    Segments are docID ranges: a hit's global docID is its segment's
    base plus its local docID. Statistics are merged once here — df
    summed across the segments' term_stats, n_docs/avgdl over the whole
    corpus — so scores are bit-identical to a monolithic build of the
    same rows (build_index computes avgdl as n_tokens / n_docs too).
    Tombstones (``deletes.json``) mask hits like a filter and still
    count in df/avgdl until compaction (Lucene live-docs semantics).

    ``shard_files`` is one flat, assignable list of every segment's
    shards; a serving actor keeps only its docID-bucket group. Per
    (term, shard) posting blocks are read on demand with Parquet
    row-group pruning (files are term-sorted with small row groups) and
    cached. Used directly, in actor pools (`BatchSearcher`) and in
    every `DistributedSearcher` actor.
    """

    def __init__(self, path: str,
                 synonyms: dict[str, list[str]] | str | None = None,
                 postings_cache_bytes: int = 256 << 20):
        # segments.py owns the root layout (segments.json, deletes.json)
        # and imports this module, hence the function-level import
        from auctus_ray.index.segments import (
            SEG_DIR, SEGMENTS_FILE, _tombstoned_ids, load_deletes, load_segments,
        )

        self.root = path
        self.entries = load_segments(path)
        if self.entries:
            self.seg_dirs = [
                os.path.join(path, SEG_DIR, e["name"]) for e in self.entries
            ]
        elif not os.path.exists(os.path.join(path, SEGMENTS_FILE)) and (
            os.path.exists(os.path.join(path, "global_stats.parquet"))
        ):
            self.seg_dirs = [path]
        else:
            raise ValueError(f"no segments registered under {path}")
        dels = load_deletes(path)
        # per segment: docID base, term_stats dataset and sorted local
        # docIDs tombstoned (None when none)
        self.bases: list[int] = []
        self._term_stats = []
        self._deleted: list[np.ndarray | None] = []
        # shard file -> index of its segment
        self._shard_seg: dict[str, int] = {}
        self.n_docs = 0
        self.n_tokens = 0
        for si, d in enumerate(self.seg_dirs):
            gs = pq.read_table(os.path.join(d, "global_stats.parquet"))
            if si == 0:
                self.analyzer = gs["analyzer"][0].as_py()
            self.bases.append(self.n_docs)
            self.n_docs += int(gs["n_docs"][0].as_py())
            self.n_tokens += int(gs["n_tokens"][0].as_py())
            self._term_stats.append(
                pads.dataset(os.path.join(d, "term_stats"), format="parquet")
            )
            self._deleted.append(_tombstoned_ids(d, dels))
            for f in sorted(glob.glob(os.path.join(d, "postings", "shard=*.parquet"))):
                self._shard_seg[f] = si
        self.avgdl = self.n_tokens / self.n_docs if self.n_docs else 0.0
        self.shard_files = list(self._shard_seg)
        # search-time-only synonym expansion, mirroring the reference's
        # default_search analyzer (synonym_graph applied at query time
        # only, elasticsearch.yml:16-31). Simplification: term-level OR
        # expansion; each expanded term scores with its own idf. A str
        # value is a Solr-format synonyms.txt path (load_synonyms).
        if isinstance(synonyms, str):
            synonyms = load_synonyms(synonyms)
        # Keys are looked up by ANALYZED query token, so normalize each
        # entry key through the index analyzer (ES analyzes synonym_graph
        # entries with the same chain) — a raw 'Quick'/'speedy' key would
        # otherwise never match the lowercased/stemmed token. Expansion
        # VALUES stay raw: search() re-tokenizes them at query time.
        # Multi-token keys are term-level inexpressible and kept as-is
        # (inert), matching the term-level expansion simplification.
        norm: dict[str, list[str]] = {}
        for key, exps in (synonyms or {}).items():
            toks = tokenize_text(key, self.analyzer)
            nk = toks[0] if len(toks) == 1 else key
            norm.setdefault(nk, []).extend(
                e for e in exps if e not in norm.get(nk, ())
            )
        self.synonyms = norm
        self._df_cache: dict[str, int] = {}
        # (shard, attr[, "num"]) -> shard-local docmap attribute arrays
        self._attr_cache: dict[tuple, tuple] = {}
        # LRU with a byte budget: a long-lived serving actor otherwise
        # accumulates per-(shard, term) blocks PLUS their dense spans
        # (O(shard) float64 each) without bound and eventually OOMs
        from collections import OrderedDict

        self._postings_cache: "OrderedDict[tuple[str, str], dict | None]" = (
            OrderedDict()
        )
        self.postings_cache_bytes = postings_cache_bytes

    # ---------------- term metadata ----------------

    def analyze(self, query: str) -> list[str]:
        """The query's sorted, distinct index terms: analyzer tokens plus
        their synonym expansions (each expansion analyzed too)."""
        terms = set(tokenize_text(query, self.analyzer))
        for t in list(terms):
            for syn in self.synonyms.get(t, ()):
                terms.update(tokenize_text(syn, self.analyzer))
        return sorted(terms)

    def dfs(self, terms: list[str]) -> dict[str, int]:
        """Corpus-merged dfs: each segment's term_stats df, summed."""
        missing = [t for t in terms if t not in self._df_cache]
        if missing:
            found = _term_dfs(self._term_stats, pc.field("term").isin(missing))
            self._df_cache.update({t: found.get(t, 0) for t in missing})
        return {t: self._df_cache[t] for t in terms}

    # ---------------- postings ----------------

    def _shard_postings(self, shard_file: str, terms: list[str]) -> dict[str, dict]:
        """term -> block arrays for one shard (cached per term)."""
        out = {}
        missing = []
        for t in terms:
            key = (shard_file, t)
            if key in self._postings_cache:
                self._postings_cache.move_to_end(key)
                if self._postings_cache[key] is not None:
                    out[t] = self._postings_cache[key]
            else:
                missing.append(t)
        if missing:
            tbl = pq.read_table(
                shard_file,
                filters=pc.field("term").isin(missing),
                columns=["term", "block_id", "first_docid", "last_docid", "n", "blob", "max_tfnorm"],
            )
            tbl = tbl.sort_by([("term", "ascending"), ("block_id", "ascending")])
            terms_np = np.asarray(tbl["term"].to_pylist(), dtype=object)
            for t in missing:
                mask = terms_np == t
                if not mask.any():
                    self._postings_cache[(shard_file, t)] = None
                    continue
                idx = np.flatnonzero(mask)
                entry = {
                    "first": tbl["first_docid"].to_numpy(zero_copy_only=False)[idx],
                    "last": tbl["last_docid"].to_numpy(zero_copy_only=False)[idx],
                    "n": tbl["n"].to_numpy(zero_copy_only=False)[idx],
                    "blobs": [tbl["blob"][int(i)].as_py() for i in idx],
                    "max_tfnorm": tbl["max_tfnorm"].to_numpy(zero_copy_only=False)[idx],
                }
                self._postings_cache[(shard_file, t)] = entry
                out[t] = entry
            self._evict_postings_cache()
        return out

    def _evict_postings_cache(self) -> None:
        """Evict least-recently-used postings entries until the cache
        (blocks + attached dense spans) fits the byte budget. Entries
        returned by the CURRENT query survive: eviction only drops the
        dict reference, and the heaviest queries touch far fewer bytes
        than the budget."""
        total = sum(
            _postings_entry_nbytes(e) for e in self._postings_cache.values()
        )
        while total > self.postings_cache_bytes and len(self._postings_cache) > 1:
            _, e = self._postings_cache.popitem(last=False)
            total -= _postings_entry_nbytes(e)

    def terms_tfnorms(self, terms: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """{term: (doc_ids, tfnorm)} across shards — the idf-free BM25
        component tf/(tf + k1*(1-b+b*dl/avgdl)), used by multi-field
        scoring where the idf is applied separately. BATCHED: one
        filtered postings read per shard covers every requested term
        (not one read per (term, shard)). docIDs are global."""
        parts: dict[str, tuple[list, list]] = {t: ([], []) for t in terms}
        for sf in self.shard_files:
            base = self.bases[self._shard_seg[sf]]
            by_term = self._shard_postings(sf, list(terms))
            for t, e in by_term.items():
                d, tf, dl = decode_blocks_concat(e["blobs"], e["n"])
                parts[t][0].append(d.astype(np.int64) + base)
                parts[t][1].append(_tfnorm(
                    tf.astype(np.float64), dl.astype(np.float64), self.avgdl
                ))
        out = {}
        for t, (ds, ts) in parts.items():
            if ds:
                out[t] = (np.concatenate(ds), np.concatenate(ts))
            else:
                out[t] = (np.empty(0, np.int64), np.empty(0, np.float64))
        return out

    # ---------------- search ----------------

    def _shard_attr_codes(self, shard_file: str, attr: str):
        """Shard-LOCAL attribute codes from the shard's own forward-map
        slice (docmap/bucket=N.parquet): (base_docid, codes, values),
        docIDs local to the shard's segment.

        docIDs are dense ranks within a bucket, so the codes array is
        exactly the shard's row count — no n_docs-sized allocation
        anywhere (round-2 rewrite of the global dense _attr_codes; each
        shard actor in DistributedSearcher holds only its own slices,
        the per-shard keyword-field layout ES uses for filter context).
        """
        cached = self._attr_cache
        key = (shard_file, attr)
        if key not in cached:
            dm = _shard_docmap(shard_file)
            # a field no document carries (e.g. an older segment built
            # before the attr existed) leaves every doc missing — the
            # ES missing-field shape (code -1 = __missing__ bucket,
            # never matches a terms filter)
            has = attr in pq.read_schema(dm).names
            tbl = pq.read_table(dm, columns=["doc_id", attr] if has else ["doc_id"])
            dids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            base = int(dids.min()) if dids.size else 0
            codes = np.full(dids.size, -1, dtype=np.int32)
            values: list = []
            if has:
                enc = tbl[attr].combine_chunks().dictionary_encode()
                idx = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False)
                codes[dids - base] = idx.astype(np.int32)
                values = enc.dictionary.to_pylist()
            cached[key] = (base, codes, values)
        return cached[key]

    def _shard_attr_numeric(self, shard_file: str, attr: str):
        """Shard-LOCAL float64 attribute values from the shard's own
        forward-map slice: (base_docid, values) with NaN for null —
        the ES numeric doc-values shape backing range filters."""
        cached = self._attr_cache
        key = (shard_file, attr, "num")
        if key not in cached:
            dm = _shard_docmap(shard_file)
            # absent field: all-NaN = never matches (missing-field)
            has = attr in pq.read_schema(dm).names
            tbl = pq.read_table(dm, columns=["doc_id", attr] if has else ["doc_id"])
            dids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            base = int(dids.min()) if dids.size else 0
            vals = np.full(dids.size, np.nan, np.float64)
            if has:
                col = pc.cast(tbl[attr].combine_chunks(), pa.float64())
                vals[dids - base] = col.to_numpy(zero_copy_only=False)
            cached[key] = (base, vals)
        return cached[key]

    def _shard_doc_mask(self, shard_file: str, filters: dict[str, list] | None):
        """AND of keyword filters over ONE shard's docID span ->
        (base_docid, bool mask) or None (reference filter context,
        apiserver/search/__init__.py:81-107). The segment's tombstoned
        docIDs are masked out here too, so deletions apply exactly like
        a filter. docIDs are local to the shard's segment.

        Filter specs: a LIST is a keyword terms-filter; a TUPLE is a
        numeric comparison — ("<=", x), (">=", x) or ("range", lo, hi)
        — over a float-castable docmap attribute (the reference's
        temporal/spatial coverage range queries, search/__init__.py:
        212-330), or ("has", token) — token membership within a
        space-joined multi-valued keyword attr (the reference's nested
        per-column terms query, search/__init__.py:212-330: ANY column
        matching the term qualifies the doc). Docs with a null
        attribute never match (NaN compares false), the ES
        missing-field semantics."""
        deleted = self._deleted[self._shard_seg[shard_file]]
        if not filters and (deleted is None or deleted.size == 0):
            return None
        base = None
        mask = None
        for attr, allowed in (filters or {}).items():
            if isinstance(allowed, tuple) and allowed and allowed[0] == "has":
                b, codes, values = self._shard_attr_codes(shard_file, attr)
                tok = allowed[1]
                allowed_ids = np.array(
                    [
                        i for i, v in enumerate(values)
                        if v and tok in v.split()
                    ],
                    dtype=np.int32,
                )
                m = np.isin(codes, allowed_ids)
            elif isinstance(allowed, tuple) and allowed and allowed[0] in (
                "<=", ">=", "range",
            ):
                b, vals = self._shard_attr_numeric(shard_file, attr)
                with np.errstate(invalid="ignore"):
                    if allowed[0] == "<=":
                        m = vals <= float(allowed[1])
                    elif allowed[0] == ">=":
                        m = vals >= float(allowed[1])
                    else:
                        m = (vals >= float(allowed[1])) & (
                            vals <= float(allowed[2])
                        )
            else:
                b, codes, values = self._shard_attr_codes(shard_file, attr)
                allowed_set = set(allowed)
                allowed_ids = np.array(
                    [i for i, v in enumerate(values) if v in allowed_set],
                    dtype=np.int32,
                )
                m = np.isin(codes, allowed_ids)
            if mask is None:
                base, mask = b, m
            else:
                mask &= m
        if deleted is not None and deleted.size:
            if mask is None:
                # dl is always present in the docmap: cheapest way to the
                # shard's (base, row-count) span
                base, codes, _ = self._shard_attr_codes(shard_file, "dl")
                mask = np.ones(codes.size, dtype=bool)
            in_shard = deleted[
                np.searchsorted(deleted, base):
                np.searchsorted(deleted, base + mask.size)
            ]
            mask[in_shard - base] = False
        return base, mask

    def _shard_facet_counts(self, shard_file: str, attr: str,
                            docs: np.ndarray) -> dict:
        """value->count over the matching docs of ONE shard (ES terms
        aggs, search/__init__.py:587-603); -1 codes (null value) land in
        the explicit __missing__ bucket."""
        base, codes, values = self._shard_attr_codes(shard_file, attr)
        sel = codes[docs - base]
        valid = sel >= 0
        bc = np.bincount(sel[valid], minlength=len(values))
        counts = {values[i]: int(bc[i]) for i in np.flatnonzero(bc)}
        n_missing = int((~valid).sum())
        if n_missing:
            counts["__missing__"] = n_missing
        return counts

    def search(
        self,
        query: str,
        k: int = 10,
        operator: str = "and",
        filters: dict[str, list] | None = None,
        offset: int = 0,
        facet_by: str | list | None = None,
        pre_analyzed: bool = False,
    ):
        """Top-k (doc_ids, scores), score desc then docID asc, float64.

        filters: keyword-attribute constraints ANDed with the text query
        (e.g. {"lang": ["python"]}); offset: pagination (offset+k capped
        at 10000, mirroring the reference's page*size guard,
        search/__init__.py:576-577); facet_by: attribute whose value
        counts over ALL matching docs are returned as a third element
        (ES terms aggs, search/__init__.py:587-603). A LIST of
        attributes returns {attr: {value: count}} — the reference's
        multi-agg search body (source/license/type, :587-603). A falsy
        facet_by ('' or []) means no facets.

        Every searcher reaches this method, so the offset + k check here
        is the only one. docIDs are global: one loop over every
        (segment, shard) pair adds the segment's base to the kernel's
        local docIDs, then one `merge_topk`.
        """
        if offset + k > 10000:
            raise ValueError("offset + k must be <= 10000")
        if pre_analyzed:
            # whitespace-separated INDEX terms (e.g. dictionary
            # expansions from PrefixExpander): re-analysis would re-stem them —
            # Porter is not idempotent ('univers' -> 'univ') — and
            # silently zero out the query. ES likewise never analyzes
            # rewritten multi-term expansions.
            terms = sorted(set(query.split()))
        else:
            terms = self.analyze(query)
        dfs = self.dfs(terms)
        live = [t for t in terms if dfs[t] > 0]
        if not live or (operator == "and" and len(live) < len(terms)):
            return merge_topk([], k, offset, facet_by)
        idfs = {t: float(bm25_idf(float(dfs[t]), self.n_docs)) for t in live}
        facet_multi = isinstance(facet_by, (list, tuple))
        parts = []
        for sf in self.shard_files:
            postings = self._shard_postings(sf, live)
            if not postings or (operator == "and" and len(postings) < len(live)):
                continue
            # k=0 (a facet-/count-only query) still scores the shard: the
            # kernel collects every match for the terms aggs and returns
            # no hits
            matched: list | None = [] if facet_by else None
            ids, scores = self._scan_shard_vectorized(
                [(t, idfs[t], e) for t, e in postings.items()],
                self.avgdl, k + offset, operator,
                mask_info=self._shard_doc_mask(sf, filters),
                facet_docs=matched,
            )
            hits = (ids + self.bases[self._shard_seg[sf]], scores)
            if facet_by:
                counts: dict = {}
                if matched:
                    counts = {
                        a: self._shard_facet_counts(sf, a, matched[0])
                        for a in (facet_by if facet_multi else [facet_by])
                    }
                    counts = counts if facet_multi else counts[facet_by]
                hits = (*hits, counts)
            parts.append(hits)
        return merge_topk(parts, k, offset, facet_by)

    @staticmethod
    def _scan_shard_vectorized(
        term_entries: list[tuple[str, float, dict]], avgdl: float, k: int,
        operator: str,
        mask_info: tuple[int, np.ndarray] | None = None,
        facet_docs: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The scoring kernel: evaluate one shard exhaustively and return
        its top-k as (doc_ids, scores), score desc then docID asc. Every
        block of the query terms is decoded (numpy varint) into a dense
        per-term contribution span; spans are summed in lexicographic
        term order (identical float discipline to the oracle). The
        docIDs of ALL matches are appended to ``facet_docs`` when given.

        Cost: one decode per (shard, term) while it stays cached, then
        one slice-add per term over the shard's docID span and an
        argpartition over the matches."""
        # level-2 cache: per (shard, term) dense span arrays with idf
        # already applied (idf is a constant of the index). Query eval is
        # then pure vectorized slice-adds; adding the in-span zeros keeps
        # float64 results bit-identical (x + 0.0 == x), so rank identity
        # is preserved.
        dense = []
        for term, idf, e in sorted(term_entries, key=lambda x: x[0]):
            cached = e.get("_dense")
            if cached is None:
                d, tf, dl = decode_blocks_concat(e["blobs"], e["n"])
                tfn = _tfnorm(tf.astype(np.float64), dl.astype(np.float64), avgdl)
                d64 = d.astype(np.int64)
                tb = int(d64[0])
                span_t = int(d64[-1]) - tb + 1
                contrib = np.zeros(span_t, dtype=np.float64)
                contrib[d64 - tb] = idf * tfn
                present = np.zeros(span_t, dtype=np.int16)
                present[d64 - tb] = 1
                cached = (tb, contrib, present)
                e["_dense"] = cached
            dense.append(cached)
        # dense-span accumulation: a shard is a bounded docID range by
        # construction (shard == docID bucket), so span-sized arrays
        # beat sorting the posting union; with the level-2 cache the
        # per-query work is nterms slice-adds over the shard span
        base = min(tb for tb, _, _ in dense)
        hi = max(tb + c.size for tb, c, _ in dense)
        span = hi - base
        scores = np.zeros(span, dtype=np.float64)
        counts = np.zeros(span, dtype=np.int16)
        for tb, contrib, present in dense:  # already term-sorted
            lo = tb - base
            scores[lo : lo + contrib.size] += contrib
            counts[lo : lo + present.size] += present
        cond = counts == len(dense) if operator == "and" else counts > 0
        if mask_info is not None:
            mbase, mask = mask_info
            # posting docIDs lie inside the shard's docID range, so the
            # slice below is always within the shard-local mask
            cond &= mask[base - mbase : base - mbase + span]
        nz = np.flatnonzero(cond)
        if facet_docs is not None and nz.size:
            facet_docs.append(nz + base)
        kk = min(k, nz.size)
        if kk == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        # vectorized shard-local top-k (score desc, docID asc): argpartition
        # narrows to ~k candidates, ties at the boundary resolved by
        # ascending position in nz (== ascending docID), then a tiny
        # stable sort orders the survivors
        s_nz = scores[nz]
        if nz.size > 2 * kk + 64:
            part = np.argpartition(-s_nz, kk - 1)[:kk]
            v = s_nz[part].min()
            greater = np.flatnonzero(s_nz > v)
            equal = np.flatnonzero(s_nz == v)
            cand = np.concatenate([greater, equal[: kk - greater.size]])
        else:
            cand = np.arange(nz.size)
        sel = cand[np.argsort(-s_nz[cand], kind="stable")][:kk]
        return nz[sel] + base, s_nz[sel]

    def hydrate_hits(self, doc_ids, scores) -> pa.Table:
        """The module-level `hydrate_hits` contract with global docIDs:
        one filtered docmap read per segment hit, rows in rank order."""
        ids = np.asarray(doc_ids, dtype=np.int64)
        seg = np.searchsorted(self.bases, ids, side="right") - 1
        local = ids - np.asarray(self.bases, dtype=np.int64)[seg]
        meta: dict[tuple[int, int], dict] = {}
        for si in np.unique(seg).tolist():
            rows = _docmap_rows(self.seg_dirs[si], local[seg == si].tolist())
            meta.update(((si, d), r) for d, r in rows.items())
        return _hits_table(
            ids, scores, [meta.get(x) for x in zip(seg.tolist(), local.tolist())]
        )

    def stats(self) -> dict:
        return {
            "n_segments": len(self.seg_dirs),
            "n_docs": self.n_docs,
            "n_tokens": self.n_tokens,
            "avgdl": self.avgdl,
            "n_deleted": sum(int(d.size) for d in self._deleted if d is not None),
            "segments": [e["name"] for e in self.entries],
        }

    def topk_table(self, query_set: pa.Table) -> pa.Table:
        """TOPK_RESULT table for a QUERY_SET table (engine-side golden)."""
        qids, ranks, dids, scs = [], [], [], []
        for qid, q, k, op in zip(
            query_set["qid"].to_pylist(),
            query_set["query"].to_pylist(),
            query_set["k"].to_pylist(),
            query_set["operator"].to_pylist(),
        ):
            d, s = self.search(q, k=k, operator=op)
            for r in range(d.size):
                qids.append(qid)
                ranks.append(r)
                dids.append(int(d[r]))
                scs.append(float(s[r]))
        return pa.table(
            {
                "qid": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
                "score": pa.array(scs, pa.float64()),
            }
        )


class BatchSearcher:
    """Actor-pool `map_batches` callable: index loaded once per actor
    (__init__), query batches scored per __call__ — distributed query
    serving as a Ray Data pipeline over a QUERY_SET dataset.
    """

    def __init__(self, index_dir: str):
        self.searcher = Searcher(index_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.searcher.topk_table(batch)


def _index_searchers(searcher) -> list[Searcher]:
    """The per-index Searchers a local searcher is made of: itself, or
    a multi_match searcher's per-field ones."""
    return searcher.searchers if isinstance(searcher, _FieldsSearcher) else [searcher]


class _BucketGroupWorker:
    """The one serving actor: a local searcher, ``make(*args)``, whose
    per-index Searchers are all restricted to the same docID buckets.
    Index state loads once per actor (the reference's stateful-service
    pattern T1/T2) and is only a cache, so a restarted actor reloads it
    and answers the same."""

    def __init__(self, make, args: tuple, buckets: list[str]):
        self.searcher = make(*args)
        want = set(buckets)
        for s in _index_searchers(self.searcher):
            s.shard_files = [f for f in s.shard_files if _shard_bucket(f) in want]

    def search(self, query: str, k: int, **kw):
        return self.searcher.search(query, k=k, **kw)


class DistributedSearcher:
    """Per-query shard fan-out over an index directory or a segment root
    (index/segments.py; a plain index is a root with one segment). Each
    actor holds a `Searcher` restricted to one docID-bucket group
    (``buckets[i::n]``) of every segment: it merges its own dfs, applies
    the root's tombstones and returns its local top-k (plus facets).
    The caller reduces with `merge_topk` and hydrates through its own
    `Searcher` (``local``). Safe because (segment, bucket) pairs are
    disjoint docID ranges, each scored completely with the merged (df,
    n_docs, avgdl).

    A dead actor restarts once and the query it was serving is retried
    once; a second death of the same actor fails the query.
    """

    def __init__(self, path: str, n_actors: int = 4, synonyms=None):
        self.local = Searcher(path, synonyms=synonyms)
        self._start(Searcher, (path, synonyms), n_actors)

    def _start(self, make, args: tuple, n_actors: int) -> None:
        """Start actors running ``make(*args)`` over the docID buckets of
        ``self.local``'s Searchers, dealt round-robin."""
        import ray

        buckets = sorted(
            {
                _shard_bucket(f)
                for s in _index_searchers(self.local) for f in s.shard_files
            },
            key=int,
        )
        n = max(1, min(n_actors, len(buckets)))
        worker = ray.remote(max_restarts=1, max_task_retries=1)(_BucketGroupWorker)
        self.actors = [worker.remote(make, args, buckets[i::n]) for i in range(n)]

    def _fan_out(self, query: str, k: int, offset: int = 0, **kw):
        import ray

        parts = ray.get(
            [a.search.remote(query, k + offset, **kw) for a in self.actors]
        )
        return merge_topk(parts, k, offset, kw.get("facet_by"))

    def search(self, query: str, k: int = 10, **kw):
        """Same contract as Searcher.search, whose keyword arguments
        pass through as they are; docIDs are global."""
        return self._fan_out(query, k, **kw)

    def hydrate_hits(self, doc_ids, scores) -> pa.Table:
        """Driver-side hydration (filtered docmap reads, no actor round
        trip); the module-level `hydrate_hits` contract."""
        return self.local.hydrate_hits(doc_ids, scores)

    def shutdown(self):
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []


def hydrate_hits(index_dir: str, doc_ids, scores) -> pa.Table:
    """Resolve engine docIDs to hit metadata (repo, path, commit, lang,
    snippet) via the forward map — the reference returns dataset metadata
    + samples with search results (enhance_metadata.py:4-35, M14)."""
    ids = [int(d) for d in doc_ids]
    by_id = _docmap_rows(index_dir, ids)
    return _hits_table(ids, scores, [by_id.get(d) for d in ids])


class _FieldsSearcher:
    """The constructor the multi_match searchers share: one Searcher per
    field index, name-sorted for determinism, also listed in
    ``searchers``."""

    def __init__(self, fields: dict[str, tuple[str, float]]):
        # fields: name -> (index_dir, boost)
        self.fields = {
            name: (Searcher(d), boost) for name, (d, boost) in sorted(fields.items())
        }
        self.searchers = [s for s, _ in self.fields.values()]


class MultiFieldSearcher(_FieldsSearcher):
    """ES `multi_match` in `most_fields` mode with per-field boosts — the
    reference boosts fields in its query (`id^10`, `name^3`,
    apiserver/search/__init__.py:67-79). Each field has its own index
    (own df/dl/avgdl statistics, i.e. per-field BM25); docIDs are shared
    across indexes because identity is content-derived from
    (repo, path, commit) (index/docid.py), so per-field scores sum
    exactly. Accumulation order: fields sorted by name, then the field's
    own term-sorted discipline — mirrored by the test oracle.

    EXACT at any size (round-3 rewrite): instead of retrieving each
    field's top-10000 (whose cap silently truncated dense fields), the
    query terms' postings are fully decoded per field (terms_tfnorms,
    one batched read per shard) and the per-doc sums are vectorized
    reduceats — cost O(postings of the query terms), the same as the
    scan path, with no cap. The query is analyzed PER FIELD, so fields
    built with different analyzers score correctly; with mixed
    analyzers the AND conjunction requires every per-field token form
    somewhere in the doc (an approximation — ES applies AND per field).
    The per-shard fan-out of this scorer is
    DistributedMultiFieldSearcher(mode='most_fields'). The reference's
    actual query type
    (`cross_fields`) lives in CrossFieldsSearcher; this class is the
    `most_fields` variant.
    """

    def search(self, query: str, k: int = 10, operator: str = "or"):
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        field_docs: list[np.ndarray] = []
        field_scores: list[np.ndarray] = []
        # the query is analyzed PER FIELD (each field's own analyzer
        # chain, as ES analyzes a multi_match per mapped field); the
        # per-term docs for the AND filter are collected from whichever
        # field(s) produced that token
        per_term_docs: dict[str, list[np.ndarray]] = {}
        for name, (searcher, boost) in self.fields.items():  # name-sorted
            terms_f = searcher.analyze(query)
            if not terms_f:
                continue
            dfs = searcher.dfs(terms_f)
            live = [t for t in terms_f if dfs[t] > 0]
            tfn_by_term = searcher.terms_tfnorms(live)
            docs_parts, contrib_parts = [], []
            for t in live:  # sorted: the field's term-order discipline
                d, tfn = tfn_by_term[t]
                idf = float(bm25_idf(float(dfs[t]), searcher.n_docs))
                docs_parts.append(d)
                contrib_parts.append(idf * tfn)
                per_term_docs.setdefault(t, []).append(d)
            for t in terms_f:
                per_term_docs.setdefault(t, [])
            if not docs_parts:
                continue
            d = np.concatenate(docs_parts)
            c = np.concatenate(contrib_parts)
            if d.size == 0:
                # shard-restricted searcher: global df > 0 but no
                # postings in THIS shard for any live term
                continue
            order = np.argsort(d, kind="stable")  # stable: term order per doc
            d, c = d[order], c[order]
            starts = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
            field_docs.append(d[starts])
            field_scores.append(boost * np.add.reduceat(c, starts))
        if not field_docs:
            return empty
        alld = np.concatenate(field_docs)
        alls = np.concatenate(field_scores)
        order = np.argsort(alld, kind="stable")  # stable: field order per doc
        alld, alls = alld[order], alls[order]
        starts = np.flatnonzero(np.concatenate([[True], alld[1:] != alld[:-1]]))
        docs_u = alld[starts]
        scores = np.add.reduceat(alls, starts)
        if operator == "and":
            # cross-fields conjunction: every analyzed query term must
            # appear (in its field's form) in at least one field
            from auctus_ray.util import sorted_membership

            keep = np.ones(docs_u.size, dtype=bool)
            for t, parts in sorted(per_term_docs.items()):
                if not parts:
                    return empty
                tdocs = np.unique(np.concatenate(parts))
                hit, _ = sorted_membership(tdocs, docs_u)
                keep &= hit
            docs_u, scores = docs_u[keep], scores[keep]
        sel = np.lexsort((docs_u, -scores))[:k]
        return docs_u[sel], scores[sel]


class CrossFieldsSearcher(_FieldsSearcher):
    """ES `multi_match` in `cross_fields` mode — the reference's actual
    keyword-query type (`type: cross_fields, operator: and` over
    id^10/description/name^3/attribute_keywords,
    apiserver/search/__init__.py:67-79).

    Term-centric blended scoring (Lucene BlendedTermQuery with the
    default tie_breaker=0, i.e. dismax):
      * per query term, document frequency is BLENDED across fields:
        df_blended = max over fields of df_field(term), idf computed
        from it once (term statistics comparable across fields);
      * per (term, doc): score = max over fields of
        boost_field * idf_blended * tfnorm_field(term, doc);
      * document score = sum of per-term scores in lexicographic term
        order (the engine-wide float discipline);
      * operator='and': the doc must contain EVERY query term in at
        least one field (cross-field conjunction).

    All fields must index the same corpus (shared content-derived
    docIDs, index/docid.py) with the SAME analyzer — faithful to ES,
    where cross_fields groups fields by analyzer and blends only within
    a group (the query here is analyzed once with the first field's
    chain).
    """

    def search(self, query: str, k: int = 10, operator: str = "and"):
        first_searcher = next(iter(self.fields.values()))[0]
        n_docs = first_searcher.n_docs
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        terms = first_searcher.analyze(query)
        if not terms:
            return empty
        term_docs_list: list[np.ndarray] = []
        term_score_list: list[np.ndarray] = []
        # one batched term_stats scan + one batched postings read per
        # field covering every query term (not one per (term, field))
        field_dfs = {
            name: s.dfs(terms) for name, (s, _) in self.fields.items()
        }
        field_tfn = {
            name: s.terms_tfnorms([t for t in terms if field_dfs[name][t] > 0])
            for name, (s, _) in self.fields.items()
        }
        for t in terms:  # lexicographic: the float-discipline sum order
            df_b = max(dfs[t] for dfs in field_dfs.values())
            if df_b == 0:
                if operator == "and":
                    return empty
                continue
            idf_b = float(bm25_idf(float(df_b), n_docs))
            docs_parts, contrib_parts = [], []
            for name, (s, boost) in self.fields.items():  # name-sorted
                d, tfn = field_tfn[name].get(
                    t, (np.empty(0, np.int64), np.empty(0, np.float64))
                )
                docs_parts.append(d)
                contrib_parts.append(boost * idf_b * tfn)
            d = np.concatenate(docs_parts)
            c = np.concatenate(contrib_parts)
            if d.size == 0:
                # shard-restricted searcher: global df > 0 but no
                # postings in THIS shard — the term still counts for
                # the AND conjunction, with no local docs
                term_docs_list.append(np.empty(0, np.int64))
                term_score_list.append(np.empty(0, np.float64))
                continue
            order = np.argsort(d, kind="stable")
            d, c = d[order], c[order]
            starts = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
            term_docs_list.append(d[starts])
            term_score_list.append(np.maximum.reduceat(c, starts))  # dismax
        if not term_docs_list:
            return empty
        alld = np.concatenate(term_docs_list)
        alls = np.concatenate(term_score_list)
        if alld.size == 0:  # no local docs in this shard slice
            return empty
        order = np.argsort(alld, kind="stable")  # stable: term order per doc
        alld, alls = alld[order], alls[order]
        starts = np.flatnonzero(np.concatenate([[True], alld[1:] != alld[:-1]]))
        docs_u = alld[starts]
        counts = np.diff(np.append(starts, alld.size))
        scores = np.add.reduceat(alls, starts)  # sums in term order per doc
        if operator == "and":
            keep = counts == len(term_docs_list)
            docs_u, scores = docs_u[keep], scores[keep]
        sel = np.lexsort((docs_u, -scores))[:k]
        return docs_u[sel], scores[sel]


class DistributedMultiFieldSearcher(DistributedSearcher):
    """Per-shard fan-out for `multi_match` queries — `cross_fields`
    (the reference's production query type,
    apiserver/search/__init__.py:67-79) or `most_fields` — on the same
    actors as DistributedSearcher, each holding the mode's searcher.

    Exactness: shards are disjoint docID buckets SHARED across the
    field indexes (content-derived docIDs + the same bucket hash,
    index/docid.py), and every statistic the scorers blend (per-field
    df for the blended max, n_docs, avgdl) is GLOBAL per field
    (Searcher.dfs reads the global term_stats), so each actor scores
    its own documents bit-identically to the single-process searcher
    and the k-way merge of local top-k (score desc, docID asc) is the
    global top-k. The AND conjunction is per-document and therefore
    shard-local.
    """

    def __init__(self, fields: dict[str, tuple[str, float]],
                 mode: str = "cross_fields", n_actors: int = 4):
        make = CrossFieldsSearcher if mode == "cross_fields" else MultiFieldSearcher
        self.local = make(fields)
        self.mode = mode
        layouts = [
            sorted(map(_shard_bucket, s.shard_files)) for s in self.local.searchers
        ]
        for name, layout in zip(self.local.fields, layouts):
            if layout != layouts[0]:
                raise ValueError(
                    f"field {name!r} has a different shard layout; all "
                    "fields must index the same corpus with the same "
                    "n_shards (shared docID buckets)"
                )
        self._start(make, (fields,), n_actors)

    def search(self, query: str, k: int = 10, operator: str | None = None):
        if operator is None:
            operator = "and" if self.mode == "cross_fields" else "or"
        return self._fan_out(query, k, operator=operator)


def _prefix_upper_bound(prefix: str) -> str:
    return prefix + "￿"


class PrefixExpander:
    """Multi-term (prefix/wildcard) queries: expand `pars*` against the
    term dictionary (range-pruned reads of every segment's term_stats,
    dfs summed), cap the expansion at `max_terms` by descending df (ES's
    multi-term query expansion behavior), then run the expanded OR query
    through the normal scorer. A DistributedSearcher expands against
    its own ``local`` Searcher and scores through its actors.
    """

    def __init__(self, searcher: "Searcher | DistributedSearcher",
                 max_terms: int = 50):
        self.searcher = searcher
        self.local = (
            searcher.local if isinstance(searcher, DistributedSearcher) else searcher
        )
        self.max_terms = max_terms

    def expand(self, prefix: str) -> list[str]:
        dfs = _term_dfs(
            self.local._term_stats,
            (pc.field("term") >= prefix)
            & (pc.field("term") < _prefix_upper_bound(prefix)),
        )
        pairs = sorted(dfs.items(), key=lambda x: (-x[1], x[0]))[: self.max_terms]
        return sorted(t for t, _ in pairs)

    def search(self, query: str, k: int = 10):
        """Terms ending in '*' are prefix-expanded; the expanded term set
        runs as a disjunctive query (scores per expanded term, like ES
        rewritten multi-term queries)."""
        raw = query.split()
        terms: list[str] = []
        for w in raw:
            if w.endswith("*") and len(w) > 1:
                base = tokenize_text(w[:-1], self.local.analyzer)
                if base:
                    # the analyzer may split the wildcard word ('foo.bar*'
                    # -> ['foo','bar']): earlier tokens are exact terms,
                    # only the final token is the prefix to expand
                    terms.extend(base[:-1])
                    terms.extend(self.expand(base[-1]))
            else:
                terms.extend(tokenize_text(w, self.local.analyzer))
        if not terms:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return self.searcher.search(
            " ".join(sorted(set(terms))), k=k, operator="or",
            pre_analyzed=True,
        )
