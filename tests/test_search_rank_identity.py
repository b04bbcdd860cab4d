"""THE correctness gate: engine top-k must be rank-identical to the
brute-force oracle — same docIDs, bit-identical float64 BM25 scores,
ties broken by ascending docID — on the reference query set, for the
single-process and per-shard fan-out searchers."""

import numpy as np
import pyarrow as pa
import pytest

from auctus_ray.index.search import DECODE_BATCH_POSTINGS, Searcher
from auctus_ray.sources.code_corpus import generate_query_set


@pytest.fixture(scope="module")
def searcher(built_index):
    return Searcher(built_index.index_dir)


def _queries():
    qs = generate_query_set()
    return list(
        zip(
            qs["qid"].to_pylist(),
            qs["query"].to_pylist(),
            qs["k"].to_pylist(),
            qs["operator"].to_pylist(),
        )
    )


# Request shapes for the reference-query gate. The ids are the names of
# the scoring paths an earlier engine chose between; the one kernel left
# now serves the request shape that used to select each: "auto" the
# query as given, "scan" with facets (which forced the exhaustive scan),
# "wand" as a tight top-1 without facets (where pruning paid off).
REQUEST_SHAPES = {
    "auto": lambda k: {"k": k},
    "scan": lambda k: {"k": k, "facet_by": "lang"},
    "wand": lambda k: {"k": 1},
}


@pytest.mark.parametrize("shape", list(REQUEST_SHAPES))
def test_rank_identity_all_queries(searcher, oracle_small, shape):
    for qid, q, k, op in _queries():
        kw = REQUEST_SHAPES[shape](k)
        oout = oracle_small.search(q, operator=op, **kw)
        eout = searcher.search(q, operator=op, **kw)
        od, oscore = oout[:2]
        ed, escore = eout[:2]
        assert len(od) == len(ed), (qid, q)
        assert (od == ed).all(), (qid, q, od[:5], ed[:5])
        # bit-identical float64 (shared float discipline, SURVEY.md §7.4)
        assert (oscore == escore).all(), (qid, q)
        if "facet_by" in kw:
            assert eout[2] == oout[2], (qid, q)


def test_scores_sorted_and_ties_by_docid(searcher):
    d, s = searcher.search("the license", k=50, operator="or")
    assert (np.diff(s) <= 0).all()
    for i in range(len(s) - 1):
        if s[i] == s[i + 1]:
            assert d[i] < d[i + 1]


def test_absent_term_and_empty_query(searcher):
    d, s = searcher.search("zzznotaterm", k=10, operator="and")
    assert d.size == 0
    d, s = searcher.search("zzznotaterm the", k=10, operator="and")
    assert d.size == 0  # conjunctive: any missing term -> empty
    d, s = searcher.search("", k=10)
    assert d.size == 0
    d, s = searcher.search("!!!", k=10)
    assert d.size == 0


def test_or_with_missing_term_matches_present_term(searcher, oracle_small):
    od, osc = oracle_small.search("zzznotaterm license", k=10, operator="or")
    ed, esc = searcher.search("zzznotaterm license", k=10, operator="or")
    assert (od == ed).all() and (osc == esc).all()
    assert ed.size > 0


def test_k_larger_than_matches(searcher, oracle_small):
    od, osc = oracle_small.search("rareterm10x", k=50, operator="and")
    ed, esc = searcher.search("rareterm10x", k=50, operator="and")
    assert len(ed) == len(od) and len(ed) >= 1
    assert (od == ed).all() and (osc == esc).all()


def test_camelcase_query_matches_after_split(searcher, oracle_small):
    """'getHttpResponse' splits to [get, http, response] — reference
    expand_attribute_name semantics applied at query time too."""
    ed, _ = searcher.search("getHttpResponse", k=10, operator="and")
    od, _ = oracle_small.search("getHttpResponse", k=10, operator="and")
    assert (ed == od).all()


def test_distributed_shard_searcher(ray_session, built_index, oracle_small):
    """Per-query shard fan-out (actor tasks + merge-sort reduce) must be
    rank-identical to the oracle too."""
    from auctus_ray.index.search import DistributedSearcher

    ds = DistributedSearcher(built_index.index_dir, n_actors=3)
    try:
        for qid, q, k, op in _queries():
            od, osc = oracle_small.search(q, k=k, operator=op)
            ed, esc = ds.search(q, k=k, operator=op)
            assert len(od) == len(ed), (qid, q)
            assert (od == ed).all() and (osc == esc).all(), (qid, q)
    finally:
        ds.shutdown()


def test_randomized_queries_rank_identity(searcher, oracle_small):
    """Fuzz: 40 random queries drawn from the corpus vocabulary (plus
    absent terms), random k/operator — engine must stay bit-identical
    to the oracle."""
    import numpy as np

    rng = np.random.default_rng(1234)
    vocab = sorted(oracle_small.postings.keys())
    for trial in range(40):
        n_terms = int(rng.integers(1, 5))
        terms = list(rng.choice(vocab, n_terms, replace=False))
        if trial % 5 == 0:
            terms.append("zz_absent_term")
        q = " ".join(terms)
        k = int(rng.choice([1, 3, 10, 50]))
        op = "and" if rng.random() < 0.5 else "or"
        od, osc = oracle_small.search(q, k=k, operator=op)
        ed, esc = searcher.search(q, k=k, operator=op)
        assert len(od) == len(ed), (q, k, op)
        assert (od == ed).all(), (q, k, op)
        assert (osc == esc).all(), (q, k, op)


def test_filters_facets_pagination(searcher, oracle_small):
    """ES filter context / terms aggs / from+size, mirrored: filtered
    search, facet counts, and offset pagination all match the oracle."""
    # filters
    for q, op in [("the license", "or"), ("def return", "and")]:
        for langs in (["python"], ["python", "md"], ["go"]):
            od, osc = oracle_small.search(q, k=20, operator=op,
                                          filters={"lang": langs})
            ed, esc = searcher.search(q, k=20, operator=op,
                                      filters={"lang": langs})
            assert (od == ed).all() and (osc == esc).all(), (q, langs)
    # facets over all matches
    od, osc, ofac = oracle_small.search("license", k=5, operator="or",
                                        facet_by="lang")
    ed, esc, efac = searcher.search("license", k=5, operator="or",
                                    facet_by="lang")
    assert (od == ed).all() and ofac == efac and sum(efac.values()) > 0
    # pagination: page 2 == ranks 10..19 of a deep search
    full, _ = searcher.search("the", k=30, operator="or")
    page2, _ = searcher.search("the", k=10, operator="or", offset=10)
    assert (page2 == full[10:20]).all()
    op2, _ = oracle_small.search("the", k=10, operator="or", offset=10)
    assert (page2 == op2).all()
    import pytest as _pytest

    with _pytest.raises(ValueError):
        searcher.search("the", k=6000, offset=5000)


def test_distributed_filters_facets(ray_session, built_index, oracle_small):
    from auctus_ray.index.search import DistributedSearcher

    ds = DistributedSearcher(built_index.index_dir, n_actors=2)
    try:
        od, osc, ofac = oracle_small.search(
            "license", k=10, operator="or", filters={"lang": ["python", "go"]},
            facet_by="lang",
        )
        ed, esc, efac = ds.search(
            "license", k=10, operator="or", filters={"lang": ["python", "go"]},
            facet_by="lang",
        )
        assert (od == ed).all() and (osc == esc).all() and ofac == efac
        # the offset + k guard holds through the fan-out too
        graph = ds.graph
        with pytest.raises(ValueError):
            ds.search("the", k=6000, offset=5000)
        # an error the searcher raises is an answer, not a broken graph:
        # the next query is served by the same compiled graph, exactly
        od, osc = oracle_small.search("the license", k=10, operator="or")
        ed, esc = ds.search("the license", k=10, operator="or")
        assert (od == ed).all() and (osc == esc).all()
        assert ds.graph is graph
    finally:
        ds.shutdown()


def test_distributed_shutdown_is_final(ray_session, built_index):
    """A search after shutdown raises instead of merging zero parts into
    an empty answer, and a second shutdown is a no-op."""
    from auctus_ray.index.search import DistributedSearcher

    ds = DistributedSearcher(built_index.index_dir, n_actors=1)
    d, _ = ds.search("license", k=5, operator="or")
    assert d.size > 0
    ds.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        ds.search("license", k=5, operator="or")
    ds.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        ds.search("license", k=5, operator="or")


def test_distributed_concurrent_searches(ray_session, built_index, oracle_small):
    """Threads sharing one DistributedSearcher each get their own query's
    answer: the compiled graph's execute/get pairs never interleave."""
    import sys
    import threading

    from auctus_ray.index.search import DistributedSearcher

    queries = [(q, k, op) for _, q, k, op in _queries()][:8]
    want = [oracle_small.search(q, k=k, operator=op) for q, k, op in queries]
    ds = DistributedSearcher(built_index.index_dir, n_actors=2)
    errors: list = []

    def run(offset: int) -> None:
        try:
            for r in range(6):
                i = (offset + r) % len(queries)
                q, k, op = queries[i]
                d, sc = ds.search(q, k=k, operator=op)
                if d.tolist() != want[i][0].tolist() or sc.tolist() != want[i][1].tolist():
                    errors.append((offset, q))
        except Exception as e:  # noqa: BLE001 — reported by the assert below
            errors.append((offset, repr(e)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(t,), daemon=True) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        ds.shutdown()
    assert not errors, errors


def test_distributed_results_outgrow_channel_buffer(
    ray_session, built_index, small_corpus, oracle_small, tmp_path_factory
):
    """A fan-out answer larger than the compiled graph's initial channel
    buffer (k=1000 with facets) still arrives whole: DistributedSearcher
    matches the oracle and DistributedMultiFieldSearcher matches
    CrossFieldsSearcher."""
    from ray.dag import DAGContext

    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import (
        CrossFieldsSearcher, DistributedMultiFieldSearcher, DistributedSearcher,
    )

    _, paths = small_corpus
    idx_path = build_index(
        paths, str(tmp_path_factory.mktemp("index_small_path")), n_shards=8,
        files_per_group=2, content_col="path",
    ).index_dir
    fields = {"content": (built_index.index_dir, 1.0), "path": (idx_path, 3.0)}
    buffer = 1024
    ctx = DAGContext.get_current()
    saved = ctx.buffer_size_bytes
    ctx.buffer_size_bytes = buffer
    try:
        ds = DistributedSearcher(built_index.index_dir, n_actors=2)
        try:
            od, osc, ofac = oracle_small.search(
                "the license", k=1000, operator="or", facet_by="lang"
            )
            ed, esc, efac = ds.search(
                "the license", k=1000, operator="or", facet_by="lang"
            )
            assert ed.nbytes + esc.nbytes > 4 * buffer
            assert (od == ed).all() and (osc == esc).all() and ofac == efac
        finally:
            ds.shutdown()
        local = CrossFieldsSearcher(fields)
        dist = DistributedMultiFieldSearcher(fields, n_actors=2)
        try:
            ld, ls = local.search("the license", k=1000, operator="or")
            dd, dsc = dist.search("the license", k=1000, operator="or")
            assert dd.nbytes + dsc.nbytes > 4 * buffer
            assert ld.tolist() == dd.tolist() and ls.tolist() == dsc.tolist()
        finally:
            dist.shutdown()
    finally:
        ctx.buffer_size_bytes = saved


def test_prefix_wildcard_queries(searcher, oracle_small):
    """pars* expands against the term dictionary (df-capped) and scores
    as the equivalent OR query — identical to expanding via the oracle's
    vocabulary."""
    from auctus_ray.index.search import PrefixExpander

    pe = PrefixExpander(searcher, max_terms=5)
    expanded = pe.expand("re")
    assert expanded and all(t.startswith("re") for t in expanded)
    # oracle-side expansion from its own vocabulary, df-capped at 5
    vocab = sorted(t for t in oracle_small.postings if t.startswith("re"))
    by_df = sorted(vocab, key=lambda t: (-len(oracle_small.postings[t]), t))[:5]
    assert sorted(by_df) == expanded

    d, s = pe.search("re*", k=20)
    od, osc = oracle_small.search(" ".join(expanded), k=20, operator="or")
    assert (d == od).all() and (s == osc).all()

    # mixed literal + wildcard
    d2, s2 = pe.search("license re*", k=10)
    od2, osc2 = oracle_small.search(
        " ".join(sorted(set(expanded) | {"license"})), k=10, operator="or"
    )
    assert (d2 == od2).all() and (s2 == osc2).all()
    # no match
    d3, _ = pe.search("zzznope*", k=5)
    assert d3.size == 0


def test_filtered_rank_identity(searcher, oracle_small):
    """Filters are a score-time mask over the shard-local docmap slice:
    filtered top-k must stay rank-identical to the oracle's filtered
    top-k, for OR and AND queries and single- and multi-value filters."""
    for q, op in [("the license", "or"), ("def return", "and"),
                  ("import license copyright", "or")]:
        for langs in (["python"], ["python", "md", "go"],):
            od, osc = oracle_small.search(q, k=15, operator=op,
                                          filters={"lang": langs})
            ed, esc = searcher.search(q, k=15, operator=op,
                                      filters={"lang": langs})
            assert len(od) == len(ed) > 0, (q, op, langs)
            assert (od == ed).all() and (osc == esc).all(), (q, op, langs)
    # the per-shard layout keeps no n_docs-sized global attribute array:
    # the filter's codes live in the docmap bucket entries of the cache
    from auctus_ray.index.search import _attr_codes, _DocmapBucket

    assert not hasattr(searcher, "_doc_mask")
    cached = [
        v for e in searcher._postings_cache.values()
        if isinstance(e, _DocmapBucket)
        for (attr, decode), v in e.attrs.items() if decode is _attr_codes
    ]
    assert cached
    for base, codes, values in cached:
        assert codes.size < searcher.n_docs  # shard slice, not global


def _oracle_cross(oracles, query, k, operator):
    """The cross_fields oracle over OracleIndex internals, the blended
    formula: ``oracles`` are (OracleIndex, boost) fields; df is the max
    over fields, a term's score the max over fields of boost * idf *
    tfnorm, and a document's the sum of its terms' in term order."""
    from auctus_ray import B, K1
    from auctus_ray.index.codec import bm25_idf
    from auctus_ray.tokenize import tokenize_text

    terms = sorted(set(tokenize_text(query, "code")))
    per_doc: dict[int, list[float]] = {}
    n_terms = 0
    for term in terms:
        df_b = max(len(o.postings.get(term, {})) for o, _ in oracles)
        if df_b == 0:
            if operator == "and":
                return np.empty(0, np.int64), np.empty(0, np.float64)
            continue
        n_terms += 1
        idf_b = float(bm25_idf(float(df_b), oracles[0][0].n_docs))
        best: dict[int, float] = {}
        for o, boost in oracles:
            for did, tf in o.postings.get(term, {}).items():
                dl = float(o._dl_by_doc[did])
                tfn = tf / (tf + K1 * (1.0 - B + B * dl / o.avgdl))
                v = boost * idf_b * tfn
                if v > best.get(did, -1.0):
                    best[did] = v
        for did, v in best.items():
            per_doc.setdefault(did, []).append(v)
    items = []
    for did, vs in per_doc.items():
        if operator == "and" and len(vs) != n_terms:
            continue
        s = 0.0
        for v in vs:  # appended in term order
            s += v
        items.append((did, s))
    items.sort(key=lambda x: (-x[1], x[0]))
    items = items[:k]
    return (
        np.array([d for d, _ in items], np.int64),
        np.array([s for _, s in items], np.float64),
    )


def test_cross_fields_blended_scoring(ray_session, tmp_path):
    """ES cross_fields parity: blended df = max over fields, per-term
    dismax across fields, AND = every term in >=1 field. Verified
    bit-for-bit against a brute-force oracle computed from the
    OracleIndex internals with the same formula, on a hand-written
    corpus and on a 300-doc random one over an 8-word vocabulary, whose
    3-5-term queries sum several contributions per document: a
    per-document sum associated differently from the oracle's
    sequential one changes the low bits of those scores."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.index.build import build_index
    from auctus_ray.index.oracle import OracleIndex
    from auctus_ray.index.search import CrossFieldsSearcher

    def open_fields(rows, name):
        """(corpus table, CrossFieldsSearcher over content^1 and path^3,
        the same fields as (OracleIndex, boost) pairs) for one corpus."""
        t = pa.table({k: pa.array(v, pa.string()) for k, v in rows.items()})
        src = str(tmp_path / f"{name}.parquet")
        pq.write_table(t, src)
        idx_content = str(tmp_path / f"{name}_content")
        idx_path = str(tmp_path / f"{name}_path")
        build_index([src], idx_content, n_shards=2)
        build_index([src], idx_path, n_shards=2, content_col="path")
        cf = CrossFieldsSearcher(
            {"content": (idx_content, 1.0), "path": (idx_path, 3.0)}
        )
        t_path = t.set_column(
            t.schema.get_field_index("content"), "content", t["path"]
        )
        return t, cf, [(OracleIndex(t), 1.0), (OracleIndex(t_path), 3.0)]

    def assert_matches(cf, oracles, queries, ks):
        for q in queries:
            for op in ("and", "or"):
                for k in ks:
                    d, s = cf.search(q, k=k, operator=op)
                    od, osc = _oracle_cross(oracles, q, k, op)
                    assert d.tolist() == od.tolist(), (q, op, k)
                    assert s.tolist() == osc.tolist(), (q, op, k)

    rows = {
        "repo": [f"r/{i}" for i in range(8)],
        "path": [
            "search/engine.py", "search/index.py", "util/strings.py",
            "core/engine.py", "core/loop.py", "docs/search.md",
            "a/engine_test.py", "a/c.py",
        ],
        "commit": [f"c{i}" for i in range(8)],
        "lang": ["python"] * 8,
        "content": [
            "the search engine indexes documents",
            "index building for the engine",
            "string utilities and helpers",
            "engine core loop",
            "event loop internals",
            "how search works in the engine",
            "tests for the engine search paths",
            "miscellaneous",
        ],
    }
    t, cf, oracles = open_fields(rows, "cf")
    assert_matches(
        cf, oracles,
        ("search engine", "engine", "search core loop", "engine util"), (6,),
    )
    # a doc matching all terms only ACROSS fields must survive AND:
    # row 2 has 'util', 'strings', 'py' in its path but not in content
    from auctus_ray.index.docid import assign_doc_ids_local

    docid_row2 = int(assign_doc_ids_local(t)[2])
    d, _ = cf.search("util strings py", k=8, operator="and")
    assert docid_row2 in d.tolist()

    # every document holds several query terms, in one field or both
    vocab = ["alpha", "beta", "delta", "gamma", "kappa", "lambda", "omega", "sigma"]
    rng = np.random.default_rng(7)
    n = 300
    rows = {
        "repo": [f"r/{i}" for i in range(n)],
        "path": ["/".join(rng.choice(vocab, rng.integers(1, 4))) for _ in range(n)],
        "commit": [f"c{i}" for i in range(n)],
        "lang": ["python"] * n,
        "content": [" ".join(rng.choice(vocab, rng.integers(1, 9))) for _ in range(n)],
    }
    _, cf, oracles = open_fields(rows, "rnd")
    assert_matches(
        cf, oracles,
        (
            "alpha beta gamma",
            "delta gamma kappa omega",
            "beta delta kappa sigma",
            "alpha beta delta gamma kappa",
            "alpha gamma lambda omega sigma",
            "beta lambda omega zzabsent",  # AND: empty; OR: 3 live terms
        ),
        (3, 10, 50),
    )


def test_distributed_multifield_matches_local(ray_session, tmp_path):
    """DistributedMultiFieldSearcher (per-shard actor fan-out) returns
    bit-identical (docIDs, scores) to the single-process
    CrossFieldsSearcher — the blended/per-field statistics are global,
    so shard restriction must not change any score."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import (
        CrossFieldsSearcher,
        DistributedMultiFieldSearcher,
        hydrate_hits,
    )

    rows = {
        "repo": [f"r/{i}" for i in range(10)],
        "path": [
            "search/engine.py", "search/index.py", "util/strings.py",
            "core/engine.py", "core/loop.py", "docs/search.md",
            "a/engine_test.py", "a/c.py", "b/query_planner.py",
            "b/merge_sort.py",
        ],
        "commit": [f"c{i}" for i in range(10)],
        "lang": ["python"] * 10,
        "content": [
            "the search engine indexes documents",
            "index building for the engine",
            "string utilities and helpers",
            "engine core loop",
            "event loop internals",
            "how search works in the engine",
            "tests for the engine search paths",
            "miscellaneous",
            "query planning and the merge step",
            "merge sort for partial results",
        ],
    }
    t = pa.table({k: pa.array(v, pa.string()) for k, v in rows.items()})
    src = str(tmp_path / "dmf.parquet")
    pq.write_table(t, src)
    idx_content = str(tmp_path / "dmf_content")
    idx_path = str(tmp_path / "dmf_path")
    build_index([src], idx_content, n_shards=4)
    build_index([src], idx_path, n_shards=4, content_col="path")
    fields = {"content": (idx_content, 1.0), "path": (idx_path, 3.0)}

    local = CrossFieldsSearcher(fields)
    queries = (
        "search engine", "engine", "merge sort", "query engine util",
        "search engine merge sort py",
    )
    dist = DistributedMultiFieldSearcher(fields, n_actors=3)
    try:
        for q in queries:
            for op in ("and", "or"):
                ld, ls = local.search(q, k=6, operator=op)
                dd, ds_ = dist.search(q, k=6, operator=op)
                assert ld.tolist() == dd.tolist(), (q, op)
                assert ls.tolist() == ds_.tolist(), (q, op)
                # docIDs are shared across the field indexes: the
                # first field's docmap hydrates the hits
                assert dist.hydrate_hits(dd, ds_).to_pylist() == hydrate_hits(
                    idx_content, dd, ds_
                ).to_pylist(), (q, op)
    finally:
        dist.shutdown()

    # mismatched shard layouts and analyzers are rejected, not silently
    # mis-merged or mis-scored
    idx_bad = str(tmp_path / "dmf_bad")
    build_index([src], idx_bad, n_shards=2, content_col="path")
    import pytest as _pytest

    with _pytest.raises(ValueError, match="shard layout"):
        DistributedMultiFieldSearcher(
            {"content": (idx_content, 1.0), "path": (idx_bad, 3.0)}
        )
    # a stemming content field with a code-analyzed path field
    idx_en = str(tmp_path / "dmf_en")
    build_index([src], idx_en, n_shards=4, analyzer="text_en")
    with _pytest.raises(ValueError, match="analyzer"):
        DistributedMultiFieldSearcher(
            {"content": (idx_en, 1.0), "path": (idx_path, 3.0)}
        )


# keyword arguments beyond (k, operator) that every local searcher takes
CONTRACT_SHAPES = [
    {},
    {"filters": {"lang": ["python", "go"]}},
    {"facet_by": "lang"},
    {"facet_by": ["lang", "repo"]},
    {"offset": 3},
    {"k": 0, "facet_by": "lang"},
]


def test_single_field_cross_fields_matches_searcher(built_index, searcher):
    """A one-field CrossFieldsSearcher at boost 1.0 answers every
    reference query exactly as Searcher does: the same docIDs,
    bit-identical float64 scores and the same facets, with filters,
    facets on one attribute and on a list, an offset and k=0."""
    from auctus_ray.index.search import CrossFieldsSearcher

    cf = CrossFieldsSearcher({"content": (built_index.index_dir, 1.0)})
    for qid, q, k, op in _queries():
        for shape in CONTRACT_SHAPES:
            kw = {"k": k, "operator": op, **shape}
            want = searcher.search(q, **kw)
            got = cf.search(q, **kw)
            assert len(got) == len(want), (qid, kw)
            assert got[0].tolist() == want[0].tolist(), (qid, kw)
            assert got[1].tolist() == want[1].tolist(), (qid, kw)
            if "facet_by" in kw:
                assert got[2] == want[2], (qid, kw)


@pytest.fixture(scope="module")
def path_index(ray_session, small_corpus, tmp_path_factory):
    """The small corpus's path column indexed in built_index's shard
    layout: a cross_fields field whose avgdl differs from content's."""
    from auctus_ray.index.build import build_index

    _, paths = small_corpus
    return build_index(
        paths, str(tmp_path_factory.mktemp("index_small_paths")), n_shards=8,
        files_per_group=2, content_col="path",
    ).index_dir


def test_cross_fields_filters_facets_offset(ray_session, built_index, path_index):
    """CrossFieldsSearcher and DistributedMultiFieldSearcher take the
    keyword arguments Searcher.search takes: a filtered, faceted second
    page is the same through the actors as locally, and offset + k over
    10000 raises ValueError from both."""
    from auctus_ray.index.search import (
        CrossFieldsSearcher, DistributedMultiFieldSearcher,
    )

    fields = {"content": (built_index.index_dir, 1.0), "path": (path_index, 3.0)}
    langs = ["python", "go"]
    local = CrossFieldsSearcher(fields)
    with pytest.raises(ValueError, match="offset"):
        local.search("the license", k=10001, operator="or")
    with pytest.raises(ValueError, match="offset"):
        local.search("the license", k=6000, offset=5000, operator="or")
    dist = DistributedMultiFieldSearcher(fields, n_actors=2)
    try:
        with pytest.raises(ValueError, match="offset"):
            dist.search("the license", k=6000, offset=5000, operator="or")
        for q, op in [("the license", "or"), ("def return", "and")]:
            kw = {"operator": op, "filters": {"lang": langs}, "facet_by": "lang"}
            ld, ls, lf = local.search(q, k=5, offset=2, **kw)
            dd, dsc, dfac = dist.search(q, k=5, offset=2, **kw)
            assert ld.size > 0, (q, op)
            assert ld.tolist() == dd.tolist() and ls.tolist() == dsc.tolist()
            assert lf == dfac and set(lf) <= set(langs), (q, op)
            # the second page is ranks 2..6 of the unpaged answer
            fd, fs, _ = local.search(q, k=7, **kw)
            assert ld.tolist() == fd[2:].tolist() and ls.tolist() == fs[2:].tolist()
    finally:
        dist.shutdown()


def test_distributed_hydrate_matches_local(ray_session, built_index, searcher):
    """DistributedSearcher.hydrate_hits (through its local Searcher) ==
    module-level hydrate_hits (through the index directory)."""
    from auctus_ray.index.search import DistributedSearcher, hydrate_hits

    d, s = searcher.search("license", k=8, operator="or")
    assert d.size > 0
    local = hydrate_hits(built_index.index_dir, d, s)
    ds = DistributedSearcher(built_index.index_dir, n_actors=2)
    try:
        dist = ds.hydrate_hits(d, s)
    finally:
        ds.shutdown()
    lp = local.to_pandas().sort_index(axis=1)
    dp = dist.to_pandas().sort_index(axis=1)
    assert list(lp.columns) == list(dp.columns)
    assert lp.equals(dp)


def test_k0_facet_only_query(searcher):
    """Regression: k=0 (facet-/count-only) crashed the scoring kernel
    (empty-slice min). It returns no hits — OR with facets, AND without
    — and the same facet counts as a k>0 query."""
    d, s, counts0 = searcher.search(
        "the license", k=0, operator="or", facet_by="lang"
    )
    assert d.size == 0 and s.size == 0
    _, _, counts10 = searcher.search(
        "the license", k=10, operator="or", facet_by="lang"
    )
    assert counts0 == counts10 and counts0
    d, s = searcher.search("the license", k=0, operator="and")
    assert d.size == 0 and s.size == 0


def test_oracle_facet_missing_bucket(oracle_small):
    """Null attribute values bucket as '__missing__' in the oracle,
    matching the engine's facet key (regression: the oracle used None)."""
    import pyarrow.parquet as pq

    from auctus_ray.index.oracle import OracleIndex

    # rebuild a small oracle with one null lang
    tbl = oracle_small  # fixture is the oracle itself; build fresh corpus
    corpus = pa.table(
        {
            "repo": pa.array(["r1", "r1"], pa.string()),
            "path": pa.array(["a.py", "b.py"], pa.string()),
            "commit": pa.array(["c1", "c1"], pa.string()),
            "content": pa.array(["alpha beta", "alpha gamma"], pa.string()),
            "lang": pa.array(["py", None], pa.string()),
        }
    )
    o = OracleIndex(corpus)
    _, _, counts = o.search("alpha", k=10, operator="or", facet_by="lang")
    assert counts == {"py": 1, "__missing__": 1}


def test_prefix_wildcard_on_stemmed_index(ray_session, tmp_path):
    """Regression: expanded dictionary terms are already index terms;
    re-analyzing them re-stems (Porter is not idempotent: 'univers' ->
    'univ') and zeroed out wildcard queries on stemmed indexes."""
    import pyarrow.parquet as pq

    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import PrefixExpander, Searcher

    corpus = pa.table(
        {
            "repo": pa.array(["r"] * 4, pa.string()),
            "path": pa.array([f"f{i}.txt" for i in range(4)], pa.string()),
            "commit": pa.array(["c"] * 4, pa.string()),
            "lang": pa.array(["txt"] * 4, pa.string()),
            "content": pa.array(
                [
                    "the university of somewhere has agreed terms",
                    "another university agreed as well",
                    "nothing relevant here at all",
                    "universal truths are agreeable",
                ],
                pa.string(),
            ),
        }
    )
    src = tmp_path / "src.parquet"
    pq.write_table(corpus, str(src))
    idx = str(tmp_path / "idx")
    build_index([str(src)], idx, n_shards=2, analyzer="code_stem")
    pe = PrefixExpander(Searcher(idx))
    d, s = pe.search("univer*", k=10)
    assert d.size == 3  # both 'university' docs + 'universal'
    d2, s2 = pe.search("agre*", k=10)
    assert d2.size == 3


def test_postings_cache_lru_bound(built_index):
    """The per-(shard, term) postings/dense cache evicts at the byte
    budget instead of growing without bound in long-lived actors —
    results stay identical after eviction."""
    tight = Searcher(built_index.index_dir, postings_cache_bytes=1 << 14)
    ref = Searcher(built_index.index_dir)
    queries = ["the license", "parser error", "return value", "search index"]
    from auctus_ray.index.search import _postings_entry_nbytes

    for q in queries * 2:
        d1, s1 = tight.search(q, k=10, operator="or")
        d2, s2 = ref.search(q, k=10, operator="or")
        assert (d1 == d2).all() and (s1 == s2).all()
        total = sum(
            _postings_entry_nbytes(e)
            for e in tight._postings_cache.values()
        )
        # bound holds up to one entry of slack (eviction keeps >= 1)
        assert total <= (1 << 14) + max(
            (_postings_entry_nbytes(e) for e in tight._postings_cache.values()),
            default=0,
        )
    assert len(ref._postings_cache) > len(tight._postings_cache)


def test_cache_running_total(built_index):
    """The cache keeps a running byte total, updated on insert, dense
    span attach, docmap column decode and evict: after a mix of
    searches, filtered and faceted searches and hydrates it equals a
    fresh re-sum of the cached entries, and the budget holds within one
    entry of slack."""
    from auctus_ray.index.search import _postings_entry_nbytes

    queries = ["the license", "parser error", "return value", "search index"]
    for budget in (1 << 14, 1 << 17, 256 << 20):
        s = Searcher(built_index.index_dir, postings_cache_bytes=budget)
        for q in queries * 2:
            d, sc = s.search(q, k=10, operator="or")
            s.hydrate_hits(d, sc)
            s.search(q, k=5, operator="or", filters={"lang": ["python", "go"]},
                     facet_by="lang")
            s.search(q, k=5, operator="and", filters={"dl": (">=", 40.0)})
            sizes = [_postings_entry_nbytes(e) for e in s._postings_cache.values()]
            assert s._cache_nbytes == sum(sizes), (budget, q)
            assert s._cache_sizes.keys() == s._postings_cache.keys()
            assert s._cache_nbytes <= budget + max(sizes), (budget, q)


def test_fresh_search_reads_no_dataset(built_index, searcher, monkeypatch):
    """An unfiltered search on a freshly opened Searcher serves every
    lookup from the term dictionary and the postings files: it never
    scans a Parquet dataset or reads a whole table, and answers as a
    warm Searcher does."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    queries = _queries()
    want = [searcher.search(q, k=k, operator=op) for _, q, k, op in queries]

    def refuse(*a, **kw):
        raise AssertionError("dataset scan on the query path")

    monkeypatch.setattr(pq, "read_table", refuse)
    monkeypatch.setattr(pads, "dataset", refuse)
    for (_, q, k, op), (wd, ws) in zip(queries, want):
        d, s = Searcher(built_index.index_dir).search(q, k=k, operator=op)
        assert (d == wd).all() and (s == ws).all(), q


def test_serve_replies_with_one_packed_buffer(built_index, searcher):
    """A serving actor's reply to a pre-analyzed request is one ``bytes``
    object, and unpacked it is the answer of a Searcher restricted to
    the actor's buckets (run in process, no Ray)."""
    import pickle

    from auctus_ray.index.search import _BucketGroupWorker, _shard_bucket

    buckets = sorted({_shard_bucket(f) for f in searcher.shard_files}, key=int)[::2]
    worker = _BucketGroupWorker(Searcher, (built_index.index_dir, None), buckets)
    restricted = Searcher(built_index.index_dir)
    restricted.shard_files = [
        f for f in restricted.shard_files if _shard_bucket(f) in set(buckets)
    ]
    assert 0 < len(restricted.shard_files) < len(searcher.shard_files)
    cases = [(q, k, {"operator": op}) for _, q, k, op in _queries()[:12]]
    cases.append(("the license", 7, {"operator": "or", "facet_by": "lang"}))
    for q, k, kw in cases:
        terms = " ".join(searcher.analyze(q))
        reply = worker.serve((terms, k, {**kw, "pre_analyzed": True}))
        assert isinstance(reply, bytes), q
        got, want = pickle.loads(reply), restricted.search(q, k=k, **kw)
        assert len(got) == len(want), q
        assert got[0].tolist() == want[0].tolist(), q
        assert got[1].tolist() == want[1].tolist(), q
        assert got[2:] == want[2:], q


def test_fan_out_sends_analyzed_terms(ray_session, built_index, searcher, monkeypatch):
    """The driver analyzes a query once and sends its index terms as a
    pre-analyzed request; a PrefixExpander's terms go out as the caller
    gave them. A zero-hit query answers with int64/float64 arrays."""
    from auctus_ray.index.search import DistributedSearcher, PrefixExpander

    ds = DistributedSearcher(built_index.index_dir, n_actors=2)
    seen: list = []
    execute = DistributedSearcher._execute

    def spy(self, request):
        seen.append(request)
        return execute(self, request)

    monkeypatch.setattr(DistributedSearcher, "_execute", spy)
    try:
        q = "getHttpResponse the License"
        d, s = ds.search(q, k=10, operator="or")
        terms = searcher.analyze(q)
        assert len(terms) > 1
        assert seen[-1] == (" ".join(terms), 10, {"operator": "or", "pre_analyzed": True})
        wd, ws = searcher.search(q, k=10, operator="or")
        assert d.tolist() == wd.tolist() and s.tolist() == ws.tolist()

        ds.search(q, k=3, offset=2, operator="or", facet_by="lang")
        assert seen[-1][1] == 5 and seen[-1][2]["facet_by"] == "lang"

        local = PrefixExpander(searcher, max_terms=5)
        pe = PrefixExpander(ds, max_terms=5)
        d, s = pe.search("license re*", k=10)
        wd, ws = local.search("license re*", k=10)
        assert d.tolist() == wd.tolist() and s.tolist() == ws.tolist()
        sent = " ".join(sorted(set(local.expand("re")) | set(searcher.analyze("license"))))
        assert seen[-1] == (sent, 10, {"operator": "or", "pre_analyzed": True})

        for q, op in (("zzznope", "or"), ("zzznope license", "and")):
            d, s = ds.search(q, k=5, operator=op)
            assert d.size == 0 and d.dtype == np.int64 and s.dtype == np.float64, q
    finally:
        ds.shutdown()


def test_query_term_cap(ray_session, built_index, monkeypatch):
    """A query over MAX_CLAUSES distinct terms, analyzed plus expanded,
    raises ValueError naming the count: from Searcher and
    CrossFieldsSearcher, and from DistributedSearcher in the driver,
    before any round trip and leaving its graph as it was. A query at
    the cap runs."""
    from auctus_ray.index.search import (
        MAX_CLAUSES, CrossFieldsSearcher, DistributedSearcher,
    )

    idx = built_index.index_dir
    s = Searcher(idx)
    words = [
        "q" + "".join(chr(97 + (i // 26**j) % 26) for j in range(3))
        for i in range(MAX_CLAUSES + 200)
    ]
    big = " ".join(words)
    n = len(s.analyze(big))
    assert n > MAX_CLAUSES
    at_cap = " ".join(s.analyze(big)[:MAX_CLAUSES])
    cross = CrossFieldsSearcher({"a": (idx, 1.0), "b": (idx, 2.0)})
    for searcher in (s, cross):
        with pytest.raises(ValueError, match=f"holds {n} distinct terms"):
            searcher.search(big, k=5, operator="or")
        d, _ = searcher.search(at_cap, k=5, operator="or", pre_analyzed=True)
        assert d.size == 0

    ds = DistributedSearcher(idx, n_actors=2)
    sent: list = []
    execute = DistributedSearcher._execute

    def spy(self, request):
        sent.append(request)
        return execute(self, request)

    monkeypatch.setattr(DistributedSearcher, "_execute", spy)
    try:
        graph = ds.graph
        with pytest.raises(ValueError, match=f"holds {n} distinct terms"):
            ds.search(big, k=5, operator="or")
        over = at_cap + " license"
        with pytest.raises(ValueError, match=f"holds {MAX_CLAUSES + 1} distinct"):
            ds.search(over, k=5, operator="or", pre_analyzed=True)
        assert sent == [] and ds.graph is graph
        d, sc = ds.search("license", k=5, operator="or")
        wd, ws = s.search("license", k=5, operator="or")
        assert d.tolist() == wd.tolist() and sc.tolist() == ws.tolist()
        assert ds.graph is graph
    finally:
        ds.shutdown()


def test_opening_a_searcher_imports_no_ray_data(built_index):
    """Opening a Searcher, searching and hydrating in a fresh process
    leaves Ray Data unimported: the query path does not pay its import."""
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from auctus_ray.index.search import Searcher\n"
        "s = Searcher(sys.argv[1])\n"
        "s.hydrate_hits(*s.search('license', k=3, operator='or'))\n"
        "assert 'ray.data' not in sys.modules, 'ray.data was imported'\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code, built_index.index_dir],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------- batched decode

# DECODE_BATCH_POSTINGS values the batched-decode tests run at: the
# module's own (every fresh list of a small query in one batch), a cap
# that splits a query's lists over several batches, and 1 (one list per
# batch, each list longer than the cap)
BATCH_CAPS = (DECODE_BATCH_POSTINGS, 64, 1)


def _query_pool(oracle, n=72, seed=5):
    """The reference queries plus ``n`` random 1-4-term queries over the
    oracle's vocabulary, each as (query, k, operator)."""
    rng = np.random.default_rng(seed)
    vocab = sorted(oracle.postings)
    pool = [(q, k, op) for _, q, k, op in _queries()]
    for _ in range(n):
        terms = rng.choice(vocab, int(rng.integers(1, 5)), replace=False)
        pool.append((" ".join(terms), int(rng.choice([5, 10, 50])),
                     str(rng.choice(["or", "and"]))))
    return pool


def test_batched_decode_cross_fields(
    built_index, path_index, small_corpus, oracle_small, monkeypatch
):
    """A fresh CrossFieldsSearcher decodes both fields' new posting
    lists together, each posting normalized with its own field's avgdl:
    its first answer, the same query from the cached spans, and the
    blended oracle agree bit for bit, at every batch cap."""
    import pyarrow.parquet as pq

    from auctus_ray.index import search as search_mod
    from auctus_ray.index.oracle import OracleIndex
    from auctus_ray.index.search import CrossFieldsSearcher

    _, paths = small_corpus
    corpus = pa.concat_tables([pq.read_table(p) for p in paths])
    by_path = corpus.set_column(
        corpus.schema.get_field_index("content"), "content", corpus["path"]
    )
    oracles = [(oracle_small, 1.0), (OracleIndex(by_path), 3.0)]
    fields = {"content": (built_index.index_dir, 1.0), "path": (path_index, 3.0)}
    avgdls = [s.avgdl for s in CrossFieldsSearcher(fields).searchers]
    assert avgdls[0] != avgdls[1]
    queries = [q for _, q, _, _ in _queries()[:12]] + [
        "license src", "the main py", "def test", "util return",
    ]
    for cap in BATCH_CAPS:
        monkeypatch.setattr(search_mod, "DECODE_BATCH_POSTINGS", cap)
        for q in queries:
            for op in ("and", "or"):
                cf = CrossFieldsSearcher(fields)
                want = _oracle_cross(oracles, q, 10, op)
                for d, s in (cf.search(q, k=10, operator=op),
                             cf.search(q, k=10, operator=op)):
                    assert d.tolist() == want[0].tolist(), (cap, q, op)
                    assert s.tolist() == want[1].tolist(), (cap, q, op)


def test_batched_decode_prefix_query(built_index, oracle_small, monkeypatch):
    """A prefix query on a fresh Searcher decodes its expanded terms'
    lists in one pass: first answer, repeat and oracle agree bit for
    bit, at every batch cap."""
    from auctus_ray.index import search as search_mod
    from auctus_ray.index.search import PrefixExpander

    for cap in BATCH_CAPS:
        monkeypatch.setattr(search_mod, "DECODE_BATCH_POSTINGS", cap)
        for q in ("re*", "license co*", "s*"):
            pe = PrefixExpander(Searcher(built_index.index_dir))
            terms = {
                t for w in q.split()
                for t in (pe.expand(w[:-1]) if w.endswith("*") else [w])
            }
            want = oracle_small.search(" ".join(sorted(terms)), k=20, operator="or")
            assert want[0].size, q
            for d, s in (pe.search(q, k=20), pe.search(q, k=20)):
                assert d.tolist() == want[0].tolist(), (cap, q)
                assert s.tolist() == want[1].tolist(), (cap, q)


def test_batched_decode_and_query_skips_shards(built_index, oracle_small, monkeypatch):
    """An 'and' query whose terms some shards lack skips those shards
    before decoding: a fresh Searcher attaches dense spans only to the
    lists of the shards it scans, and its first answer, the repeat and
    the oracle agree bit for bit."""
    from auctus_ray.index import search as search_mod

    probe = Searcher(built_index.index_dir)
    vocab = sorted(t for t, p in oracle_small.postings.items() if 3 <= len(p) <= 40)
    picked = None
    for a, b in zip(vocab, vocab[1:] + vocab[:1]):
        if not set(oracle_small.postings[a]) & set(oracle_small.postings[b]):
            continue
        probe.dfs([a, b])
        has = {t: {sf for (sf, x) in probe._locs if x == t} for t in (a, b)}
        if has[a] != has[b]:
            picked = (a, b, has[a] & has[b])
            break
    assert picked, "no term pair that some shards lack"
    a, b, both = picked
    q = f"{a} {b}"
    want = oracle_small.search(q, k=10, operator="and")
    assert want[0].size
    for cap in BATCH_CAPS:
        monkeypatch.setattr(search_mod, "DECODE_BATCH_POSTINGS", cap)
        s = Searcher(built_index.index_dir)
        for d, sc in (s.search(q, k=10, operator="and"),
                      s.search(q, k=10, operator="and")):
            assert d.tolist() == want[0].tolist(), (cap, q)
            assert sc.tolist() == want[1].tolist(), (cap, q)
        lists = [(key[0], "_dense" in e) for key, e in s._postings_cache.items()
                 if isinstance(e, dict)]
        assert {sf for sf, dense in lists if dense} == both, (cap, q)
        # a skipped shard's list was read, and left undecoded
        assert any(sf not in both and not dense for sf, dense in lists), (cap, q)


@pytest.mark.parametrize("budget", [256 << 20, 200_000, 50_000])
def test_cache_accounting_over_a_query_pool(built_index, oracle_small, budget):
    """The cache's running total stays true on the batched decode path:
    after every search, hydrate and filtered plus faceted search over a
    96-query pool, _cache_nbytes equals the sum of the cached entries'
    sizes and _cache_sizes holds exactly the cached keys."""
    from auctus_ray.index.search import _postings_entry_nbytes

    s = Searcher(built_index.index_dir, postings_cache_bytes=budget)

    def check(ctx):
        total = sum(map(_postings_entry_nbytes, s._postings_cache.values()))
        assert s._cache_nbytes == total, (budget, ctx)
        assert s._cache_sizes.keys() == s._postings_cache.keys(), (budget, ctx)

    pool = _query_pool(oracle_small)
    assert len(pool) == 96
    for q, k, op in pool:
        d, sc = s.search(q, k=k, operator=op)
        check(("search", q))
        s.hydrate_hits(d, sc)
        check(("hydrate", q))
        s.search(q, k=k, operator=op, filters={"lang": ["python", "go"]},
                 facet_by="lang")
        check(("filtered", q))
