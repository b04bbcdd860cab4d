"""BM25 query serving: vectorized top-k over index shards.

Replaces the reference's Elasticsearch query path — `multi_match` with
`operator: and` over BM25-scored fields (apiserver/apiserver/search/
__init__.py:67-79) and `TOP_K_SIZE=50` (search/base.py:1) — with an
explicit scorer over our sharded Parquet index:

  * `Searcher` is the one local searcher. It opens an index directory or
    a segment root (index/segments.py; a plain index is one segment at
    docID base 0) and holds one flat shard list across every segment,
    with corpus-merged statistics (df summed over the segments' term
    dictionary rows, n_docs/avgdl over all of them) — Lucene's
    IndexSearcher over a MultiReader;
  * shards are docID ranges (document-partitioned, as ES shards are), so
    every shard scores its own documents completely and the global top-k
    is one merge-sort reduce (`merge_topk`) of per-shard top-k arrays;
  * each segment's term dictionary (``postings/terms.bin``,
    term-sorted zstd blocks of varint rows, index/codec.py) gives every
    (term, shard) its df and byte range in the shard's flat postings
    file (``postings/shard=NNNNN.bin``). A Searcher reads each
    dictionary's footer and block index once, with one ``pread``; a
    query decodes only the blocks that can hold its terms, then reads
    one ``pread`` per (term, shard) and each shard's norms (dl per
    docID) once;
  * one search loop (`search_fields`, over (Searcher, boost) fields)
    serves `Searcher.search` (one field at boost 1.0) and `cross_fields`
    multi_match (`CrossFieldsSearcher`) alike: analysis, the offset + k
    cap, dfs, filters, tombstones, facets and pagination. It gathers
    the postings entries of every shard it will score, decodes those
    not yet cached in one numpy pass (`_attach_spans`: one varint
    decode over all their blocks, one dl gather, one BM25
    tf-normalization) into dense per-term contribution spans kept in
    the cache, then calls one scoring kernel per shard
    (`Searcher._scan_shard_vectorized`): a term's fields combined by an
    elementwise max, slice-adds in term order, then an argpartition
    shard-local top-k. Every block of the query terms in a scored shard
    is decoded, once while it stays cached. A shard's tombstone mask
    spans the docID range its postings footer gives, so a search opens
    no docmap file unless a filter or facet reads one;
  * float discipline matches index/oracle.py: float64, contributions
    summed in lexicographic term order, ties broken by ascending docID;
  * the fetch phase (`hydrate_hits`) reads stored fields for the top-k
    hits only: a bucket's docIDs are dense and sorted, so a hit is one
    row of its bucket's docmap file (``docmap/bucket=N.parquet``), at
    the offset from the bucket's docID base in its postings footer.
    Cold (module `hydrate_hits`), one ``ParquetFile`` read per bucket
    that holds a hit; other buckets' docmap files are never opened.
    Warm (`Searcher.hydrate_hits`, hence `DistributedSearcher` and
    `CrossFieldsSearcher`), a hit bucket's columns stay decoded in the
    Searcher's one byte-budgeted cache, with the postings, so a
    repeated hit bucket is a take from memory — ES serving fetches
    from a node's warm caches. Either way each hit's docID is checked
    against its bucket's row.

Distributed serving has one shape. `DistributedSearcher` fans each
query out to `_BucketGroupWorker` actors, each holding a `Searcher`
restricted to one docID-bucket group of every segment, through one Ray
compiled graph compiled when the searcher starts: a query is one write
to the graph's input channel and one read of every actor's output
channel, not an actor task per shard group. The calling process
analyzes the query once, with its own `Searcher`, and sends the index
terms as a pre-analyzed request, so no actor re-tokenizes; each actor
replies with its local top-k (and facet counts) pickled into one
``bytes`` object. The calling process unpacks the replies, reduces with
`merge_topk` and hydrates through its own `Searcher`.
`DistributedMultiFieldSearcher` runs the same actors and graph over
`CrossFieldsSearcher`.

A query holds at most MAX_CLAUSES distinct terms, analyzed plus
expanded; a larger one raises ValueError before any scoring (before
any round trip when distributed), like ES's max_clause_count.
"""

from __future__ import annotations

import glob
import os
import pickle
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from auctus_ray.index.codec import (
    DictBlock, TermDictionary, _tfnorm, block_counts, bm25_idf,
    decode_blocks_concat, read_footer, read_norms,
)
from auctus_ray.tokenize import tokenize_text
from auctus_ray.util import merge_facet_counts

# docmap columns a hydrated hit carries (those present in the index)
HIT_COLUMNS = ("doc_id", "repo", "path", "commit", "lang", "snippet")

# the most distinct terms one query may hold, analyzed plus expanded
# (synonyms, prefixes): ES 7.10's indices.query.bool.max_clause_count
MAX_CLAUSES = 1024


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
    """'.../postings/shard=7.bin' -> '7' (docID bucket id)."""
    return os.path.basename(path).split("=", 1)[1].split(".", 1)[0]


def _shard_docmap(shard_file: str) -> str:
    """The shard's own forward-map slice, in the same index directory:
    <dir>/postings/shard=N.bin -> <dir>/docmap/bucket=N.parquet."""
    index_dir = os.path.dirname(os.path.dirname(shard_file))
    return os.path.join(
        index_dir, "docmap", f"bucket={_shard_bucket(shard_file)}.parquet"
    )


def _read_docmap(path: str, columns) -> pa.Table:
    """The ones of ``columns`` present in one docmap bucket file
    (docmap/bucket=N.parquet), in that order: one ``ParquetFile`` read,
    no dataset layer."""
    pf = pq.ParquetFile(path)
    names = set(pf.schema_arrow.names)
    cols = [c for c in dict.fromkeys(columns) if c in names]
    return pf.read(columns=cols, use_threads=False)


def _shard_footer(shard_file: str) -> tuple[int, int]:
    """(docID base, doc count) of one shard postings file, local to its
    segment: one ``pread`` of its footer."""
    fd = os.open(shard_file, os.O_RDONLY)
    try:
        _, base, n = read_footer(fd)
    finally:
        os.close(fd)
    return base, n


def _docmap_buckets(shards) -> tuple[np.ndarray, ...]:
    """The docmap buckets of ``shards``, (segment docID base, shard
    postings file) pairs, as arrays ordered by first global docID:
    (first docID, doc count, segment base, docmap file). Each bucket's
    local base and count come from its postings footer; empty buckets
    are left out."""
    rows = []
    for seg_base, f in shards:
        base, n = _shard_footer(f)
        if n:
            rows.append((seg_base + base, n, seg_base, _shard_docmap(f)))
    rows.sort()
    starts, counts, seg_bases, paths = zip(*rows) if rows else ((),) * 4
    return (
        np.array(starts, np.int64), np.array(counts, np.int64),
        np.array(seg_bases, np.int64), np.array(paths, object),
    )


def _load_bucket(path: str, count: int) -> tuple[pa.Table, np.ndarray]:
    """One docmap bucket's HIT_COLUMNS and its doc_id array, read with
    one ``ParquetFile`` read: `_hydrate`'s uncached loader.

    Raises ValueError when the file's rows disagree with the bucket's
    postings footer (``count``)."""
    t = _read_docmap(path, HIT_COLUMNS)
    if t.num_rows != count:
        raise ValueError(
            f"{path} holds {t.num_rows} rows, its postings footer {count}"
        )
    return t, t["doc_id"].to_numpy()


def _hit_schema(path: str) -> pa.Schema:
    """The HIT_COLUMNS one docmap bucket file holds, with their types,
    from its footer: the columns of a zero-hit hydrate."""
    schema = pq.read_schema(path)
    return pa.schema([schema.field(c) for c in HIT_COLUMNS if c in schema.names])


def _hydrate(buckets: tuple[np.ndarray, ...], doc_ids, scores,
             load=_load_bucket, schema=_hit_schema) -> pa.Table:
    """Hit rows in rank order: the docmap's HIT_COLUMNS of each global
    docID, then its rank and score. docIDs are dense and sorted within
    a bucket, so hit d is row d - first docID of its bucket: one
    ``load(docmap file, footer row count)`` per bucket that holds a
    hit, then a take of the hit rows. No hits give a 0-row table with
    the same columns and types, ``schema(first docmap file)``.

    Raises ValueError for a docID outside every bucket, or a bucket file
    whose rows disagree with its postings footer or whose row at a
    hit's offset holds another docID."""
    ids = np.asarray(doc_ids, dtype=np.int64)
    starts, counts, seg_bases, paths = buckets
    if ids.size == 0:
        rows = (
            schema(paths[0]) if paths.size else pa.schema([("doc_id", pa.int64())])
        ).empty_table()
    else:
        b = np.searchsorted(starts, ids, side="right") - 1
        # b == -1 (below every bucket) wraps to the last bucket here and
        # is caught by the b < 0 test
        row = ids - starts[b] if starts.size else ids
        outside = (
            (b < 0) | (row >= counts[b]) if starts.size
            else np.ones(ids.size, bool)
        )
        if outside.any():
            raise ValueError(
                f"docID {int(ids[outside][0])} is outside every docmap bucket "
                f"(the index holds {int(counts.sum())} docs)"
            )
        # each hit bucket's hit rows, back to back; pos[i] are their hits
        pieces, pos = [], []
        for u in np.unique(b).tolist():
            sel = np.flatnonzero(b == u)
            t, dids = load(paths[u], int(counts[u]))
            want = ids[sel] - seg_bases[u]
            got = dids[row[sel]]
            if (got != want).any():
                i = int(np.flatnonzero(got != want)[0])
                raise ValueError(
                    f"docID {int(ids[sel][i])}: row {int(row[sel][i])} of "
                    f"{paths[u]} holds docID {int(got[i])}, not {int(want[i])}"
                )
            pieces.append(t.take(row[sel]))
            pos.append(sel)
        order = np.empty(ids.size, np.int64)
        order[np.concatenate(pos)] = np.arange(ids.size)
        rows = pa.concat_tables(pieces, promote_options="default").take(order)
    rows = rows.set_column(0, "doc_id", pa.array(ids))
    return rows.append_column(
        "rank", pa.array(np.arange(1, ids.size + 1, dtype=np.int64))
    ).append_column("score", pa.array(np.asarray(scores, dtype=np.float64)))


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


def _attr_codes(dids: np.ndarray, col: pa.ChunkedArray | None):
    """Shard-LOCAL attribute codes of one docmap bucket: (base_docid,
    codes, values), docIDs local to the shard's segment. docIDs are
    dense ranks within a bucket, so the codes array is exactly the
    bucket's row count: no n_docs-sized allocation anywhere, the
    per-shard keyword-field layout ES uses for filter context. A field
    no document carries (``col`` None, e.g. an older segment built
    before the attr existed) leaves every doc missing: the ES
    missing-field shape (code -1 = __missing__ bucket, never matches a
    terms filter)."""
    base = int(dids.min()) if dids.size else 0
    codes = np.full(dids.size, -1, dtype=np.int32)
    values: list = []
    if col is not None:
        enc = col.combine_chunks().dictionary_encode()
        idx = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False)
        codes[dids - base] = idx.astype(np.int32)
        values = enc.dictionary.to_pylist()
    return base, codes, values


def _attr_numeric(dids: np.ndarray, col: pa.ChunkedArray | None):
    """Shard-LOCAL float64 attribute values of one docmap bucket:
    (base_docid, values) with NaN for null, the ES numeric doc-values
    shape backing range filters. An absent field is all-NaN, which
    never matches (missing-field)."""
    base = int(dids.min()) if dids.size else 0
    vals = np.full(dids.size, np.nan, np.float64)
    if col is not None:
        vals[dids - base] = pc.cast(col.combine_chunks(), pa.float64()).to_numpy(
            zero_copy_only=False
        )
    return base, vals


def _value_nbytes(v) -> int:
    """Approximate heap size of a decoded docmap value: numpy arrays and
    Arrow tables by their buffers, a list of values at 64 bytes each."""
    if isinstance(v, (np.ndarray, pa.Table)):
        return v.nbytes
    if isinstance(v, tuple):
        return sum(map(_value_nbytes, v))
    if isinstance(v, list):
        return 64 * len(v)
    return 0


class _DocmapBucket:
    """What a Searcher has decoded from one docmap bucket file
    (docmap/bucket=N.parquet), kept as one entry of its byte-budgeted
    cache under the file's path: the doc_id column as numpy, the hit
    columns a hydrate takes rows from (``hit``) and the filter and facet
    attribute arrays (``attrs``, keyed by (attr, decode function)), each
    read on first use. A Searcher's docmap files never change, so an
    entry never goes stale."""

    __slots__ = ("path", "doc_id", "hit", "attrs")

    def __init__(self, path: str):
        self.path = path
        self.doc_id: np.ndarray | None = None
        self.hit: pa.Table | None = None
        self.attrs: dict[tuple, tuple] = {}

    def read(self, columns) -> pa.Table:
        """``columns`` of the file (those present), in one read that
        also takes the doc_id array the first time."""
        if self.doc_id is not None:
            return _read_docmap(self.path, columns)
        t = _read_docmap(self.path, ["doc_id", *columns])
        self.doc_id = t["doc_id"].to_numpy(zero_copy_only=False)
        return t

    def nbytes(self) -> int:
        return 64 + sum(
            map(_value_nbytes, (self.doc_id, self.hit, *self.attrs.values()))
        )


def _postings_entry_nbytes(e) -> int:
    """Approximate heap size of one entry of a Searcher's cache. A
    (shard, term) postings entry is its postings bytes and block counts,
    plus the dense span arrays when attached; the shard's norms are
    shared and kept apart. A `_DocmapBucket` is its decoded columns, a
    term dictionary block its arrays and terms."""
    if e is None:
        return 64
    if isinstance(e, _DocmapBucket):
        return e.nbytes()
    if isinstance(e, DictBlock):
        return sum(a.nbytes for a in e[1:]) + sum(len(t) + 56 for t in e.terms)
    n = len(e["blob"]) + e["n"].nbytes + 64
    d = e.get("_dense")
    if d is not None:
        n += d[1].nbytes + d[2].nbytes
    return n


# the most postings one decode batch holds; a longer posting list is a
# batch of its own. It bounds the transient arrays of a fresh query's
# decode pass, not the dense spans the pass attaches.
DECODE_BATCH_POSTINGS = 1 << 16


def _attach_spans(rows: list[tuple[dict, float, float]]) -> None:
    """Decode ``rows``, (postings entry, weight, avgdl), and attach each
    entry's dense span ``(tb, contrib, present)``: from tb, its first
    docID, ``contrib`` holds ``weight * tfnorm`` and ``present`` 1 at
    every docID of the list, 0 between them. docIDs are local to the
    entries' segments.

    Entries go in batches of at most DECODE_BATCH_POSTINGS postings.
    A batch is one `decode_blocks_concat` over its entries' blocks
    (delta chains restart at each block, so lists concatenate), one
    gather of every posting's dl from its shard's norms, and one BM25
    tf-normalization with per-posting weight and avgdl: per posting
    the float64 operations of decoding entry by entry, so spans are
    bit-identical to them."""
    dfs = [int(e["n"].sum()) for e, _, _ in rows]
    cuts, n = [], 0  # the first row of each batch
    for i, df in enumerate(dfs):
        if not cuts or n + df > DECODE_BATCH_POSTINGS:
            cuts.append(i)
            n = 0
        n += df
    for lo, hi in zip(cuts, [*cuts[1:], len(rows)]):
        entries = [e for e, _, _ in rows[lo:hi]]
        counts = np.array(dfs[lo:hi], np.int64)
        d, tf = decode_blocks_concat(
            [e["blob"] for e in entries], np.concatenate([e["n"] for e in entries])
        )
        d = d.astype(np.int64)
        # the batch's distinct shard norms back to back: entry i's
        # docID x has its dl at x + shift[i]
        norms: dict[int, tuple[int, np.ndarray]] = {}
        at = 0
        shift = np.empty(len(entries), np.int64)
        for i, e in enumerate(entries):
            nbase, dls = e["norms"]
            if id(dls) not in norms:
                norms[id(dls)] = (at, dls)
                at += dls.size
            shift[i] = norms[id(dls)][0] - nbase
        dl = np.concatenate([x for _, x in norms.values()])[d + np.repeat(shift, counts)]
        weight = np.repeat([w for _, w, _ in rows[lo:hi]], counts)
        avgdl = np.repeat([a for _, _, a in rows[lo:hi]], counts)
        vals = weight * _tfnorm(tf.astype(np.float64), dl.astype(np.float64), avgdl)
        ends = np.cumsum(counts).tolist()
        for e, start, end in zip(entries, [0, *ends[:-1]], ends):
            tb = int(d[start])
            pos = d[start:end] - tb
            contrib = np.zeros(int(pos[-1]) + 1, np.float64)
            present = np.zeros(contrib.size, np.int16)
            contrib[pos] = vals[start:end]
            present[pos] = 1
            e["_dense"] = (tb, contrib, present)


class Searcher:
    """The one local searcher, over an index directory or a segment root.

    ``path`` holds registered ``segments.json`` entries (a segment root,
    index/segments.py), or ``global_stats.parquet`` and no
    ``segments.json`` (a plain index: one segment at docID base 0).
    Segments are docID ranges: a hit's global docID is its segment's
    base plus its local docID. Statistics are merged once here — df
    summed across the segments' term dictionaries, n_docs/avgdl over
    the whole corpus — so scores are bit-identical to a monolithic
    build of the same rows (build_index computes avgdl as
    n_tokens / n_docs too). Tombstones (``deletes.json``) mask hits
    like a filter and still count in df/avgdl until compaction (Lucene
    live-docs semantics).

    ``shard_files`` is one flat, assignable list of every segment's
    shards; a serving actor keeps only its docID-bucket group, and its
    dictionary lookups then keep only those shards' byte ranges. A
    query term's dictionary rows are read once (`dfs`), and its
    postings are read on demand, one ``pread`` per (term, shard), and
    cached. Used directly, per field by `CrossFieldsSearcher`, and in
    every `DistributedSearcher` actor.

    ``postings_cache_bytes`` bounds the Searcher's one LRU cache: the
    postings entries with their dense spans, the term dictionary blocks
    that lookups decode, and the docmap columns that hydrates, filters
    and facets decode (`_DocmapBucket`).
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
        # per segment: docID base, open term dictionary and sorted local
        # docIDs tombstoned (None when none)
        self.bases: list[int] = []
        self._dicts: list[TermDictionary] = []
        self._deleted: list[np.ndarray | None] = []
        # shard file -> index of its segment; (segment, shard) -> file
        self._shard_seg: dict[str, int] = {}
        self._shard_file: dict[tuple[int, int], str] = {}
        self.n_docs = 0
        self.n_tokens = 0
        for si, d in enumerate(self.seg_dirs):
            gs = pq.ParquetFile(os.path.join(d, "global_stats.parquet")).read(
                columns=["n_docs", "n_tokens", "analyzer"], use_threads=False
            )
            if si == 0:
                self.analyzer = gs["analyzer"][0].as_py()
            self.bases.append(self.n_docs)
            self.n_docs += int(gs["n_docs"][0].as_py())
            self.n_tokens += int(gs["n_tokens"][0].as_py())
            dict_path = os.path.join(d, "postings", "terms.bin")
            if not os.path.exists(dict_path):
                raise ValueError(
                    f"{dict_path} is missing: the index predates the term "
                    "dictionary format v8; rebuild it, or compact its "
                    "segment root"
                )
            self._dicts.append(TermDictionary(dict_path))
            self._deleted.append(_tombstoned_ids(d, dels))
            for f in sorted(glob.glob(os.path.join(d, "postings", "shard=*.bin"))):
                self._shard_seg[f] = si
                self._shard_file[(si, int(_shard_bucket(f)))] = f
        self.avgdl = self.n_tokens / self.n_docs if self.n_docs else 0.0
        # (shard file, term) -> (offset, nbytes, df) in that shard's
        # postings file, for the searched shards; a term is in
        # _df_cache once its dictionary rows have been read
        self._locs: dict[tuple[str, str], tuple[int, int, int]] = {}
        self._df_cache: dict[str, int] = {}
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
        # every segment's docmap buckets, read on the first hydrate, and
        # the hit columns' schema, kept from the first bucket loaded
        self._hit_buckets: tuple[np.ndarray, ...] | None = None
        self._hit_columns: pa.Schema | None = None
        # shard file -> (docID base, dl per docID): the shard's norms
        self._norms: dict[str, tuple[int, np.ndarray]] = {}
        # the one LRU cache, with a byte budget: a long-lived serving
        # actor otherwise accumulates per-(shard, term) blocks PLUS their
        # dense spans (O(shard) float64 each) and decoded docmap columns
        # without bound and eventually OOMs. Keys are (shard file, term)
        # for postings entries, (terms.bin path, block id) for a decoded
        # term dictionary block and a docmap file's path for its
        # `_DocmapBucket`; _cache_sizes holds the size each entry was
        # last charged at, and _cache_nbytes their running total.
        from collections import OrderedDict

        self._postings_cache: "OrderedDict[tuple[str, str | int] | str, object]" = (
            OrderedDict()
        )
        self._cache_sizes: dict = {}
        self._cache_nbytes = 0
        self.postings_cache_bytes = postings_cache_bytes

    @property
    def shard_files(self) -> list[str]:
        return self._shard_files

    @shard_files.setter
    def shard_files(self, files) -> None:
        # dictionary lookups keep byte ranges only for the searched
        # shards, so a new shard list starts them afresh
        self._shard_files = list(files)
        self._searched = set(self._shard_files)
        self._locs.clear()
        self._df_cache.clear()

    # ---------------- term metadata ----------------

    def analyze(self, query: str) -> list[str]:
        """The query's sorted, distinct index terms: analyzer tokens plus
        their synonym expansions (each expansion analyzed too)."""
        terms = set(tokenize_text(query, self.analyzer))
        for t in list(terms):
            for syn in self.synonyms.get(t, ()):
                terms.update(tokenize_text(syn, self.analyzer))
        return sorted(terms)

    def _lookup(self, terms: list[str]) -> None:
        """Find the dictionary rows of the terms not yet looked up, in
        every segment's term dictionary (each block that can hold one
        decoded once): df summed over every shard, and the byte ranges
        in the searched shards."""
        missing = [t for t in terms if t not in self._df_cache]
        if not missing:
            return
        found = dict.fromkeys(missing, 0)
        for si, d in enumerate(self._dicts):
            rows = d.lookup(missing, self._dict_blocks(d))
            for j, shard, df, off, nbytes in zip(*(a.tolist() for a in rows)):
                t = missing[j]
                found[t] += df
                sf = self._shard_file.get((si, shard))
                if sf in self._searched:
                    self._locs[(sf, t)] = (off, nbytes, df)
        self._df_cache.update(found)

    def _dict_blocks(self, d: TermDictionary):
        """A decoder of term dictionary ``d``'s blocks through the cache:
        a block is decoded once while it stays cached."""

        def blocks(ids: list[int]) -> list[DictBlock]:
            cache = self._postings_cache
            new = [i for i in ids if (d.path, i) not in cache]
            for i, blk in zip(new, d.blocks(new)):
                cache[(d.path, i)] = blk
                self._charge((d.path, i))
            out = []
            for i in ids:
                cache.move_to_end((d.path, i))
                out.append(cache[(d.path, i)])
            self._evict_postings_cache()
            return out

        return blocks

    def dfs(self, terms: list[str]) -> dict[str, int]:
        """Corpus-merged dfs: each term's df summed over the segments'
        dictionary rows."""
        self._lookup(terms)
        return {t: self._df_cache[t] for t in terms}

    # ---------------- postings ----------------

    def _shard_postings(self, shard_file: str, terms: list[str]) -> dict[str, dict]:
        """term -> postings entry for one shard (cached per term): the
        term's blocks, read with one pread at the byte range the
        dictionary gives, their per-block posting counts and the shard's
        norms."""
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
            self._lookup(missing)
            fd = None
            try:
                for t in missing:
                    entry = None
                    loc = self._locs.get((shard_file, t))
                    if loc is not None:
                        if fd is None:
                            fd = os.open(shard_file, os.O_RDONLY)
                            if shard_file not in self._norms:
                                self._norms[shard_file] = read_norms(fd)
                        off, nbytes, df = loc
                        entry = out[t] = {
                            "blob": os.pread(fd, nbytes, off),
                            "n": block_counts(df),
                            "norms": self._norms[shard_file],
                        }
                    self._postings_cache[(shard_file, t)] = entry
                    self._charge((shard_file, t))
            finally:
                if fd is not None:
                    os.close(fd)
            self._evict_postings_cache()
        return out

    def _charge(self, key) -> None:
        """Charge a cached entry's current size to the running total: on
        insert, and whenever the entry grows (a dense span attached, a
        docmap column decoded). A key no longer cached is skipped: it was
        evicted while the query that grew it still held the entry."""
        if key in self._postings_cache:
            n = _postings_entry_nbytes(self._postings_cache[key])
            self._cache_nbytes += n - self._cache_sizes.get(key, 0)
            self._cache_sizes[key] = n

    def _evict_postings_cache(self) -> None:
        """Evict least-recently-used entries until the cache (postings
        blocks, attached dense spans and docmap columns) fits the byte
        budget. Entries held by the CURRENT query survive: eviction only
        drops the dict reference, and the heaviest queries touch far
        fewer bytes than the budget."""
        while (
            self._cache_nbytes > self.postings_cache_bytes
            and len(self._postings_cache) > 1
        ):
            key, _ = self._postings_cache.popitem(last=False)
            self._cache_nbytes -= self._cache_sizes.pop(key)

    # ---------------- docmap ----------------

    def _docmap_entry(self, path: str) -> _DocmapBucket:
        """The cache entry of one docmap bucket file, created empty."""
        e = self._postings_cache.get(path)
        if e is None:
            e = self._postings_cache[path] = _DocmapBucket(path)
            self._charge(path)
        else:
            self._postings_cache.move_to_end(path)
        return e

    def _hit_bucket(self, path: str, count: int) -> tuple[pa.Table, np.ndarray]:
        """`_hydrate`'s cached loader: a bucket's hit columns and doc_id
        array, read and checked against ``count`` once per entry."""
        e = self._docmap_entry(path)
        if e.hit is None:
            t, e.doc_id = _load_bucket(path, count)
            e.hit = t.combine_chunks()
            self._hit_columns = self._hit_columns or e.hit.schema
            self._charge(path)
        return e.hit, e.doc_id

    def _zero_hit_schema(self, path: str) -> pa.Schema:
        """`_hydrate`'s zero-hit columns: those of the first bucket this
        Searcher loaded, else ``path``'s, read once and kept."""
        if self._hit_columns is None:
            self._hit_columns = _hit_schema(path)
        return self._hit_columns

    def _shard_attr(self, shard_file: str, attr: str, decode):
        """``decode(doc_ids, column)`` (`_attr_codes` or `_attr_numeric`)
        over one shard's forward-map slice (docmap/bucket=N.parquet),
        computed once and kept in the bucket's cache entry. A hit column
        a hydrate already decoded (repo, lang) is not read again."""
        e = self._docmap_entry(_shard_docmap(shard_file))
        key = (attr, decode)
        if key not in e.attrs:
            hit = e.hit is not None and attr in HIT_COLUMNS
            t = e.hit if hit else e.read([attr])
            col = t[attr] if attr in t.column_names else None
            e.attrs[key] = decode(e.doc_id, col)
            self._charge(e.path)
        return e.attrs[key]

    def _shard_range(self, shard_file: str) -> tuple[int, int]:
        """(docID base, doc count) of one shard, local to its segment:
        from the norms `_shard_postings` read, else its footer."""
        norms = self._norms.get(shard_file)
        if norms is None:
            return _shard_footer(shard_file)
        return norms[0], norms[1].size

    # ---------------- search ----------------

    def _shard_doc_mask(self, shard_file: str, filters: dict[str, list] | None):
        """AND of keyword filters over ONE shard's docID span ->
        (base_docid, bool mask) or None (reference filter context,
        apiserver/search/__init__.py:81-107). The segment's tombstoned
        docIDs are masked out here too, so deletions apply exactly like
        a filter; without a filter the mask spans the shard's docID
        range (`_shard_range`), and no docmap file is read. docIDs are
        local to the shard's segment.

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
                b, codes, values = self._shard_attr(shard_file, attr, _attr_codes)
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
                b, vals = self._shard_attr(shard_file, attr, _attr_numeric)
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
                b, codes, values = self._shard_attr(shard_file, attr, _attr_codes)
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
                base, n = self._shard_range(shard_file)
                mask = np.ones(n, dtype=bool)
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
        base, codes, values = self._shard_attr(shard_file, attr, _attr_codes)
        sel = codes[docs - base]
        valid = sel >= 0
        bc = np.bincount(sel[valid], minlength=len(values))
        counts = {values[i]: int(bc[i]) for i in np.flatnonzero(bc)}
        n_missing = int((~valid).sum())
        if n_missing:
            counts["__missing__"] = n_missing
        return counts

    def search(self, query: str, k: int = 10, **kw):
        """Top-k (doc_ids, scores[, facets]) of this index: `search_fields`
        over the one field ``(self, 1.0)``, whose keyword arguments pass
        through as they are."""
        return search_fields([(self, 1.0)], query, k, **kw)

    @staticmethod
    def _scan_shard_vectorized(
        term_spans: list[tuple[str, tuple[int, np.ndarray, np.ndarray]]],
        k: int,
        operator: str,
        mask_info: tuple[int, np.ndarray] | None = None,
        facet_docs: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The scoring kernel: evaluate one shard exhaustively and return
        its top-k as (doc_ids, scores), score desc then docID asc.

        ``term_spans`` holds ``(term, dense span)`` rows: one per term
        for a single-field query, one per (term, field) for
        cross_fields. A span is the ``(tb, contrib, present)`` that
        `_attach_spans` decoded for one postings entry, its weight
        applied; the kernel decodes nothing. A term with several fields
        takes the elementwise max of their spans (dismax; contributions
        are > 0, so max with the in-span zeros is exact), and term spans
        are summed in lexicographic term order (identical float
        discipline to the oracle). The docIDs of ALL matches are
        appended to ``facet_docs`` when given.

        Cost: one slice-add per term over the shard's docID span and an
        argpartition over the matches."""
        by_term: dict[str, list] = {}
        for term, span in term_spans:
            by_term.setdefault(term, []).append(span)
        dense = []
        for term in sorted(by_term):
            fields = by_term[term]
            if len(fields) == 1:
                dense.append(fields[0])
                continue
            tb = min(b for b, _, _ in fields)
            span_t = max(b + c.size for b, c, _ in fields) - tb
            contrib = np.zeros(span_t, dtype=np.float64)
            present = np.zeros(span_t, dtype=np.int16)
            for b, c, p in fields:
                lo = b - tb
                np.maximum(contrib[lo : lo + c.size], c, out=contrib[lo : lo + c.size])
                present[lo : lo + p.size] |= p
            dense.append((tb, contrib, present))
        # dense-span accumulation: a shard is a bounded docID range by
        # construction (shard == docID bucket), so span-sized arrays
        # beat sorting the posting union; adding the in-span zeros keeps
        # float64 sums bit-identical (x + 0.0 == x)
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
        """The module-level `hydrate_hits` contract with global docIDs,
        served warm: a bucket of any segment that holds a hit is read
        once, and its hit columns and doc_id array stay decoded in the
        cache (charged to ``postings_cache_bytes``). Every call still
        checks each hit's docID against its bucket's row; a repeated hit
        bucket costs a take, not a read. Zero hits take their columns
        from the first bucket this Searcher loaded, so they read no file
        either once one has been."""
        if self._hit_buckets is None:
            self._hit_buckets = _docmap_buckets(
                (self.bases[si], f) for (si, _), f in self._shard_file.items()
            )
        out = _hydrate(
            self._hit_buckets, doc_ids, scores, self._hit_bucket,
            self._zero_hit_schema,
        )
        self._evict_postings_cache()
        return out

    def stats(self) -> dict:
        return {
            "n_segments": len(self.seg_dirs),
            "n_docs": self.n_docs,
            "n_tokens": self.n_tokens,
            "avgdl": self.avgdl,
            "n_deleted": sum(int(d.size) for d in self._deleted if d is not None),
            "segments": [e["name"] for e in self.entries],
        }


def search_fields(
    fields: list[tuple[Searcher, float]],
    query: str,
    k: int = 10,
    operator: str = "and",
    filters: dict[str, list] | None = None,
    offset: int = 0,
    facet_by: str | list | None = None,
    pre_analyzed: bool = False,
):
    """The one search loop: top-k (doc_ids, scores), score desc then
    docID asc, float64, over ``fields``, (Searcher, boost) pairs that
    index one corpus in one shard layout (`Searcher.search` passes
    itself at boost 1.0, `CrossFieldsSearcher` its fields).

    filters: keyword-attribute constraints ANDed with the text query
    (e.g. {"lang": ["python"]}), read from the first field's docmap;
    offset: pagination (offset+k capped at 10000, mirroring the
    reference's page*size guard, search/__init__.py:576-577); facet_by:
    attribute whose value counts over ALL matching docs are returned as
    a third element (ES terms aggs, search/__init__.py:587-603), from
    the first field's docmap. A LIST of attributes returns {attr:
    {value: count}} — the reference's multi-agg search body
    (source/license/type, :587-603). A falsy facet_by ('' or []) means
    no facets. pre_analyzed: the query is whitespace-separated index
    terms, not re-analyzed.

    The query is analyzed once, by the first field; more than
    MAX_CLAUSES distinct terms raise ValueError. A term's df is the
    max over fields of its df (one field: its own df) and each field's
    weight is ``boost * idf``; for one field 1.0 * idf is idf, bit for
    bit. The fields' shard lists are zipped, and a query runs in three
    steps:

      1. gather: the postings entries of every shard to score, one per
         (term, field); with operator 'and', a shard lacking a term is
         skipped here, so its lists are never decoded;
      2. decode once: every gathered entry without a dense span goes
         through `_attach_spans`, in batches of at most
         DECODE_BATCH_POSTINGS postings, and its span is charged to its
         Searcher's cache;
      3. scan: each shard is scored by the one kernel,
         `Searcher._scan_shard_vectorized`, over its entries' spans,
         masked by the filters and every field's tombstones.

    docIDs are global: the kernel's local docIDs plus the shard's
    segment base, then one `merge_topk`.
    """
    if offset + k > 10000:
        raise ValueError("offset + k must be <= 10000")
    first = fields[0][0]
    terms = _query_terms(first, query, pre_analyzed)
    field_dfs = [s.dfs(terms) for s, _ in fields]
    dfs = {t: max(d[t] for d in field_dfs) for t in terms}
    live = [t for t in terms if dfs[t] > 0]
    if not live or (operator == "and" and len(live) < len(terms)):
        return merge_topk([], k, offset, facet_by)
    idfs = {t: float(bm25_idf(float(dfs[t]), first.n_docs)) for t in live}
    # gather: every shard the kernel scans, with its (term, weight,
    # entry, Searcher, cache key) rows; weight = boost * idf, in the
    # oracle's multiplication order (boost * idf * tfnorm). A shard
    # that lacks an 'and' term is skipped here, before any decode.
    scans = []
    for shards in zip(*(s.shard_files for s, _ in fields)):
        rows = [
            (t, boost * idfs[t], e, s, (sf, t))
            for (s, boost), sf in zip(fields, shards)
            for t, e in s._shard_postings(sf, live).items()
        ]
        if rows and (
            operator != "and" or len({r[0] for r in rows}) == len(live)
        ):
            scans.append((shards, rows))
    # decode once: every gathered entry without a dense span, then
    # charge the spans to the cache
    fresh = [r for _, rows in scans for r in rows if "_dense" not in r[2]]
    _attach_spans([(e, w, s.avgdl) for _, w, e, s, _ in fresh])
    for _, _, _, s, key in fresh:
        s._charge(key)
    # scan: the kernel combines the cached spans of each shard
    facet_multi = isinstance(facet_by, (list, tuple))
    parts = []
    for shards, rows in scans:
        # the filters over the first field's docmap, ANDed with each
        # field root's tombstones: the fields index one corpus, so their
        # masks span the same local docIDs
        sf = shards[0]
        mask_info = first._shard_doc_mask(sf, filters)
        for (s, _), other in zip(fields[1:], shards[1:]):
            m = s._shard_doc_mask(other, None)
            if m is not None:
                mask_info = m if mask_info is None else (m[0], mask_info[1] & m[1])
        # k=0 (a facet-/count-only query) still scores the shard: the
        # kernel collects every match for the terms aggs and returns no
        # hits
        matched: list | None = [] if facet_by else None
        ids, scores = Searcher._scan_shard_vectorized(
            [(t, e["_dense"]) for t, _, e, _, _ in rows], k + offset, operator,
            mask_info=mask_info, facet_docs=matched,
        )
        hits = (ids + first.bases[first._shard_seg[sf]], scores)
        if facet_by:
            counts: dict = {}
            if matched:
                counts = {
                    a: first._shard_facet_counts(sf, a, matched[0])
                    for a in (facet_by if facet_multi else [facet_by])
                }
                counts = counts if facet_multi else counts[facet_by]
            hits = (*hits, counts)
        parts.append(hits)
    for s, _ in fields:
        # dense spans and docmap columns were charged after the last
        # eviction
        s._evict_postings_cache()
    return merge_topk(parts, k, offset, facet_by)


def _query_terms(searcher: Searcher, query: str, pre_analyzed: bool) -> list[str]:
    """The query's sorted, distinct index terms: ``searcher.analyze``,
    or, pre-analyzed, the whitespace-separated terms as they are.

    Pre-analyzed terms are INDEX terms (e.g. dictionary expansions from
    PrefixExpander, or a DistributedSearcher's request): re-analysis
    would re-stem them — Porter is not idempotent ('univers' -> 'univ')
    — and silently zero out the query. ES likewise never analyzes
    rewritten multi-term expansions.

    Raises ValueError when the query holds more than MAX_CLAUSES terms."""
    terms = sorted(set(query.split())) if pre_analyzed else searcher.analyze(query)
    if len(terms) > MAX_CLAUSES:
        raise ValueError(
            f"the query holds {len(terms)} distinct terms, over the "
            f"{MAX_CLAUSES} a query may hold (MAX_CLAUSES)"
        )
    return terms


def _index_searchers(searcher) -> list[Searcher]:
    """The per-index Searchers a local searcher is made of: itself, or
    a CrossFieldsSearcher's per-field ones."""
    return searcher.searchers if isinstance(searcher, CrossFieldsSearcher) else [searcher]


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

    def serve(self, request: tuple) -> bytes:
        """One fan-out request ``(terms, k, kw)``: the query's index terms,
        space-joined, with ``pre_analyzed=True`` in ``kw`` (a compiled
        graph binds positional arguments only, so the keywords travel as
        a dict). The reply is the local searcher's ``search`` result,
        ``(doc_ids, scores[, facets])``, pickled into one ``bytes``: the
        channel then carries one buffer, not a tuple of numpy arrays
        through Ray's out-of-band serializer."""
        query, k, kw = request
        return pickle.dumps(self.searcher.search(query, k=k, **kw), protocol=5)


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

    Queries reach the actors through one Ray compiled graph (``graph``:
    ``InputNode`` -> every actor's ``serve`` -> ``MultiOutputNode``),
    compiled once, so a query is a write to and a read from channels
    allocated up front, not one actor task per shard group. The request
    is ``(terms, offset + k, kw)``: the query analyzed once by the
    caller (the first Searcher of ``local``, outside the lock), its
    index terms space-joined, and the keyword arguments with
    ``pre_analyzed=True``; a query over MAX_CLAUSES terms raises
    ValueError before the request is sent. Each actor's reply is its
    ``(doc_ids, scores[, facets])`` pickled into one ``bytes``
    (`_BucketGroupWorker.serve`), unpacked by `_execute`. Calls are
    serialized by a lock; a query waits for its answer without a time
    limit.

    A dead actor restarts once. When the graph fails on an actor or
    channel error, it is torn down, every actor is awaited (the
    restarted one reloads its index state), the graph is recompiled and
    the query retried once; a second death of the same actor fails the
    query with RayActorError. An error the searcher itself raises (a
    ValueError for ``offset + k`` over the cap) passes through and
    leaves the graph as it is. After `shutdown` a search raises
    RuntimeError.
    """

    def __init__(self, path: str, n_actors: int = 4, synonyms=None):
        self.local = Searcher(path, synonyms=synonyms)
        self._start(Searcher, (path, synonyms), n_actors)

    def _start(self, make, args: tuple, n_actors: int) -> None:
        """Start actors running ``make(*args)`` over the docID buckets of
        ``self.local``'s Searchers, dealt round-robin, and compile the
        graph over them."""
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
        # a compiled graph's execute/get is not thread-safe: two threads'
        # writes to its input channel abort the process inside Ray
        self._lock = threading.Lock()
        self._compile()

    def _compile(self) -> None:
        from ray.dag import InputNode, MultiOutputNode

        with InputNode() as request:
            dag = MultiOutputNode([a.serve.bind(request) for a in self.actors])
        self.graph = dag.experimental_compile()

    def _execute(self, request: tuple) -> list:
        """Every actor's answer to ``request``, unpacked from its reply."""
        import ray

        # timeout=-1: no limit (the graph's own default is
        # RAY_CGRAPH_get_timeout), as a slow cold actor or a deep facet
        # query may need
        replies = ray.get(self.graph.execute(request), timeout=-1)
        return [pickle.loads(r) for r in replies]

    def _rebuild(self) -> None:
        """Tear the broken graph down, wait for every actor (a restarted
        one is ready once its index state is loaded; one past its
        restart raises RayActorError) and compile a new graph."""
        import ray

        self.graph.teardown()
        ray.get([a.__ray_ready__.remote() for a in self.actors])
        self._compile()

    def _fan_out(self, query: str, k: int, offset: int = 0, **kw):
        from ray.exceptions import (
            RayActorError, RayChannelTimeoutError, RaySystemError,
        )

        # analyzed once, here and outside the lock, so no actor re-tokenizes;
        # an oversized query fails before any round trip
        terms = _query_terms(
            _index_searchers(self.local)[0], query, kw.get("pre_analyzed", False)
        )
        request = (" ".join(terms), k + offset, {**kw, "pre_analyzed": True})
        with self._lock:
            if not self.actors:
                raise RuntimeError("DistributedSearcher is shut down")
            try:
                parts = self._execute(request)
            except RayChannelTimeoutError:
                raise
            except (RayActorError, RaySystemError):
                self._rebuild()
                parts = self._execute(request)
        return merge_topk(parts, k, offset, kw.get("facet_by"))

    def search(self, query: str, k: int = 10, **kw):
        """Same contract as Searcher.search, whose keyword arguments
        pass through as they are; docIDs are global."""
        return self._fan_out(query, k, **kw)

    def hydrate_hits(self, doc_ids, scores) -> pa.Table:
        """Driver-side hydration through ``local``, no actor round trip:
        its `Searcher.hydrate_hits` keeps the hit buckets' columns
        decoded, so a warm hydrate reads no file. The module-level
        `hydrate_hits` contract."""
        return self.local.hydrate_hits(doc_ids, scores)

    def shutdown(self):
        """Tear the graph down, then kill the actors. Idempotent."""
        import ray

        with self._lock:
            if self.graph is not None:
                self.graph.teardown()
                self.graph = None
            for a in self.actors:
                ray.kill(a)
            self.actors = []


def hydrate_hits(index_dir: str, doc_ids, scores) -> pa.Table:
    """Resolve engine docIDs to hit metadata (repo, path, commit, lang,
    snippet) via the forward map — the reference returns dataset metadata
    + samples with search results (enhance_metadata.py:4-35, M14). Reads
    the postings footers for the bucket bases, then one docmap bucket
    file per bucket that holds a hit, and keeps nothing: the cold path
    (a long-lived `Searcher.hydrate_hits` keeps the columns decoded).
    Columns doc_id, repo, path, commit, lang, snippet (those the docmap
    holds), rank, score in rank order; no hits give a 0-row table with
    the same columns."""
    shards = glob.glob(os.path.join(index_dir, "postings", "shard=*.bin"))
    return _hydrate(_docmap_buckets((0, f) for f in shards), doc_ids, scores)


def _shard_keys(searcher: Searcher) -> list[tuple[int, int]]:
    """(segment docID base, bucket) of each searched shard, in shard
    list order: the docID range each shard covers, comparable across
    the field indexes of one corpus."""
    return [
        (searcher.bases[searcher._shard_seg[f]], int(_shard_bucket(f)))
        for f in searcher.shard_files
    ]


class CrossFieldsSearcher:
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
        boost_field * idf_blended * tfnorm_field(term, doc), each field
        with its own dl and avgdl;
      * document score = sum of per-term scores in lexicographic term
        order (the engine-wide float discipline);
      * operator='and': the doc must contain EVERY query term in at
        least one field (cross-field conjunction).

    Each field has its own index, opened as a Searcher private to this
    object (so ``boost * idf_blended`` is a constant of its cached dense
    spans). The fields must index the same corpus (shared
    content-derived docIDs, index/docid.py) in the same shard layout,
    shard for shard in list order, and with the SAME analyzer —
    faithful to ES, where cross_fields groups fields by analyzer and
    blends only within a group; the query is analyzed once. A field set
    that breaks either rule raises ValueError. Queries run through
    `search_fields`, the loop `Searcher.search` runs, so filters, facets
    (both from the first field's docmap), pagination and the offset + k
    cap behave as there, and a document tombstoned in any field's root
    is masked out.
    """

    def __init__(self, fields: dict[str, tuple[str, float]]):
        # fields: name -> (index_dir, boost); name-sorted for determinism
        self.fields = {
            name: (Searcher(d), boost) for name, (d, boost) in sorted(fields.items())
        }
        self.searchers = [s for s, _ in self.fields.values()]
        first = self.searchers[0]
        # search_fields zips the fields' shard lists, so they must list
        # the same docID ranges in the same order
        layout = _shard_keys(first)
        for name, (s, _) in self.fields.items():
            if _shard_keys(s) != layout:
                raise ValueError(
                    f"field {name!r} has a different shard layout; all "
                    "fields must index the same corpus with the same "
                    "n_shards (shared docID buckets)"
                )
            if s.analyzer != first.analyzer:
                raise ValueError(
                    f"field {name!r} uses analyzer {s.analyzer!r}, not "
                    f"{first.analyzer!r}; cross_fields blends only fields "
                    "analyzed alike"
                )

    def search(self, query: str, k: int = 10, **kw):
        """`search_fields` over this searcher's (Searcher, boost) fields,
        whose keyword arguments pass through as they are."""
        return search_fields(list(self.fields.values()), query, k, **kw)

    def hydrate_hits(self, doc_ids, scores) -> pa.Table:
        """docIDs are shared across the field indexes (content-derived
        identity), so the first field's docmap hydrates every hit, from
        that Searcher's cache when warm."""
        return self.searchers[0].hydrate_hits(doc_ids, scores)


class DistributedMultiFieldSearcher(DistributedSearcher):
    """Per-shard fan-out for `cross_fields` `multi_match` queries (the
    reference's production query type, apiserver/search/__init__.py:
    67-79) on the same actors as DistributedSearcher, each holding a
    CrossFieldsSearcher restricted to its docID-bucket group.

    Exactness: shards are disjoint docID buckets SHARED across the
    field indexes (content-derived docIDs + the same bucket hash,
    index/docid.py), and every statistic the scorer blends (per-field
    df for the blended max, n_docs, avgdl) is GLOBAL per field
    (Searcher.dfs sums every shard's dictionary rows), so each actor
    scores its own documents bit-identically to the single-process
    searcher and the k-way merge of local top-k (score desc, docID asc)
    is the global top-k. The AND conjunction is per-document and
    therefore shard-local. Filters, facets, pagination and the offset
    + k cap are `CrossFieldsSearcher.search`'s, reached through the same
    graph.
    """

    def __init__(self, fields: dict[str, tuple[str, float]], n_actors: int = 4):
        self.local = CrossFieldsSearcher(fields)
        self._start(CrossFieldsSearcher, (fields,), n_actors)


class PrefixExpander:
    """Multi-term (prefix/wildcard) queries: expand `pars*` against the
    term dictionary (the blocks of every segment's postings/terms.bin
    whose term range can hold the prefix, dfs summed over the segments
    and each term's (shard) rows), cap the
    expansion at `max_terms` by descending df (ES's multi-term query
    expansion behavior), then run the expanded OR query
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
        dfs: dict[str, int] = {}
        for d in self.local._dicts:
            for t, df in d.prefix_dfs(prefix, self.local._dict_blocks(d)).items():
                dfs[t] = dfs.get(t, 0) + df
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
