"""Multi-segment incremental indexing (index/segments.py): merged-stats
search must be rank-identical to a monolithic rebuild — same documents,
bit-identical float64 BM25 scores — and to the brute-force oracle;
deletes mask results without touching stats (Lucene live-docs), and
compaction purges them (stats then match a filtered monolithic build)."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from auctus_ray.index.search import Searcher
from auctus_ray.index.segments import (
    SEG_DIR,
    add_segment,
    compact,
    delete_docs,
    load_segments,
)
from auctus_ray.sources.code_corpus import generate_query_set


def _hydrated(searcher, hydrate, query, k, operator, facets=None):
    """[(repo, path, commit, score)] sorted by (-score, identity) — the
    docID-free comparison key (segmented and monolithic builds assign
    different engine docIDs to the same documents). With a ``facets``
    dict and ``facet_by`` in it, the facet counts are stored there."""
    facet_by = (facets or {}).get("facet_by")
    out = searcher.search(query, k=k, operator=operator, facet_by=facet_by)
    if facet_by:
        facets["counts"] = out[2]
    return _sorted_rows(hydrate(out[0], out[1]))


def _sorted_rows(hits):
    rows = [
        (r["repo"], r["path"], r["commit"], r["score"])
        for r in hits.to_pylist()
    ]
    return sorted(rows, key=lambda r: (-r[3], r[0], r[1], r[2]))


def _assert_topk_equivalent(seg, ref, ctx):
    """Bit-identical score sequences; identical documents above the
    k-boundary score. WITHIN the boundary tie group membership is
    legitimately underdetermined (ties break on engine docID, which
    differs across physical builds), so only its size is compared."""
    assert [r[3] for r in seg] == [r[3] for r in ref], ctx
    if not seg:
        return
    s_min = seg[-1][3]
    seg_above = [r for r in seg if r[3] > s_min]
    ref_above = [r for r in ref if r[3] > s_min]
    assert seg_above == ref_above, ctx
    assert len(seg) == len(ref), ctx


@pytest.fixture(scope="module")
def seg_root(ray_session, small_corpus, tmp_path_factory):
    """Two segments over the same 4-file corpus the monolithic
    built_index fixture indexes (2 files each)."""
    d, paths = small_corpus
    root = str(tmp_path_factory.mktemp("seg_root"))
    add_segment(root, paths[:2], n_shards=4, files_per_group=2)
    add_segment(root, paths[2:], n_shards=4, files_per_group=2)
    return root


@pytest.fixture(scope="module")
def seg_searcher(seg_root):
    return Searcher(seg_root)


def test_merged_stats_match_monolithic(seg_searcher, built_index):
    mono = Searcher(built_index.index_dir)
    assert seg_searcher.n_docs == mono.n_docs
    assert seg_searcher.n_tokens == mono.n_tokens
    assert seg_searcher.avgdl == mono.avgdl  # bit-identical division
    qs = generate_query_set()
    terms = sorted(
        {t for q in qs["query"].to_pylist() for t in q.lower().split()}
    )
    assert seg_searcher.dfs(terms) == mono.dfs(terms)
    # prefix expansion reads every segment's term dictionary
    from auctus_ray.index.search import PrefixExpander, hydrate_hits

    expanded = PrefixExpander(seg_searcher).expand("re")
    assert expanded and expanded == PrefixExpander(mono).expand("re")
    seg = _sorted_rows(seg_searcher.hydrate_hits(
        *PrefixExpander(seg_searcher).search("re*", k=20)
    ))
    ref = _sorted_rows(hydrate_hits(
        built_index.index_dir, *PrefixExpander(mono).search("re*", k=20)
    ))
    _assert_topk_equivalent(seg, ref, "re*")


# The ids are the names of the scoring paths an earlier engine chose
# between; the one kernel left now serves the request shape that used to
# select each: "auto" the query as given, "scan" with facets (which
# forced the exhaustive scan), "wand" as a tight top-1 without facets.
@pytest.mark.parametrize("shape", ["auto", "scan", "wand"])
def test_rank_identity_vs_monolithic(seg_searcher, built_index, shape):
    from auctus_ray.index.search import hydrate_hits

    mono = Searcher(built_index.index_dir)
    qs = generate_query_set()
    for qid, q, k, op in zip(
        qs["qid"].to_pylist(), qs["query"].to_pylist(),
        qs["k"].to_pylist(), qs["operator"].to_pylist(),
    ):
        k = 1 if shape == "wand" else k
        seg_fac = {"facet_by": "lang"} if shape == "scan" else {}
        ref_fac = dict(seg_fac)
        seg = _hydrated(
            seg_searcher, seg_searcher.hydrate_hits, q, k, op, seg_fac
        )
        ref = _hydrated(
            mono, lambda d, s: hydrate_hits(built_index.index_dir, d, s),
            q, k, op, ref_fac,
        )
        _assert_topk_equivalent(seg, ref, (qid, q, shape))
        assert seg_fac.get("counts") == ref_fac.get("counts"), (qid, q)


def test_filters_and_facets_merge(seg_searcher, built_index):
    mono = Searcher(built_index.index_dir)
    langs = ["python", "go"]
    sd, ss, sfac = seg_searcher.search(
        "the license", k=20, operator="or",
        filters={"lang": langs}, facet_by="lang",
    )
    md, ms, mfac = mono.search(
        "the license", k=20, operator="or",
        filters={"lang": langs}, facet_by="lang",
    )
    assert (ss == ms).all()
    assert sfac == mfac


def test_offset_pagination(seg_searcher):
    d0, s0 = seg_searcher.search("the", k=20, operator="or")
    d1, s1 = seg_searcher.search("the", k=10, operator="or", offset=10)
    assert (d0[10:] == d1).all() and (s0[10:] == s1).all()


def test_add_is_idempotent(seg_root, small_corpus):
    _, paths = small_corpus
    before = load_segments(seg_root)
    add_segment(seg_root, paths[:2], n_shards=4, files_per_group=2)
    assert load_segments(seg_root) == before


def test_registration_crash_heals(seg_root, small_corpus):
    """Lost segments.json (crash between build and commit): the next
    identical add re-registers instantly via build resume."""
    _, paths = small_corpus
    before = load_segments(seg_root)
    os.remove(os.path.join(seg_root, "segments.json"))
    add_segment(seg_root, paths[:2], n_shards=4, files_per_group=2)
    add_segment(seg_root, paths[2:], n_shards=4, files_per_group=2)
    assert load_segments(seg_root) == before


def test_compact_swap_is_atomic(ray_session, small_corpus, tmp_path_factory,
                                monkeypatch):
    """A crash during compact's registration swap must never leave the
    merged segment AND its sources simultaneously registered (that
    state duplicates documents and inflates df/n_docs). The merged
    segment registers in the SAME atomic segments.json write that drops
    the sources — so a crash before the swap leaves only the original
    sources plus an orphan directory, and retrying completes."""
    import auctus_ray.index.segments as segmod

    _, paths = small_corpus
    root = str(tmp_path_factory.mktemp("seg_atomic"))
    add_segment(root, paths[:2], n_shards=2, files_per_group=2)
    add_segment(root, paths[2:], n_shards=2, files_per_group=2)
    before = load_segments(root)
    assert len(before) == 2

    real = segmod._atomic_json

    def crash_on_swap(path, obj):
        if path.endswith(segmod.SEGMENTS_FILE):
            raise RuntimeError("simulated crash during swap")
        return real(path, obj)

    monkeypatch.setattr(segmod, "_atomic_json", crash_on_swap)
    with pytest.raises(RuntimeError, match="simulated crash"):
        compact(root, n_shards=2)
    monkeypatch.setattr(segmod, "_atomic_json", real)

    # pre-swap crash: registration unchanged — never merged+sources both
    assert load_segments(root) == before
    s = Searcher(root)
    d, _ = s.search("the license", k=50, operator="or")
    hits = s.hydrate_hits(d, _[: len(d)]).to_pylist()
    keys = [(r["repo"], r["path"], r["commit"]) for r in hits]
    assert len(keys) == len(set(keys))  # no duplicated documents

    # retry completes: exactly one registered segment, same corpus size
    compact(root, n_shards=2)
    after = load_segments(root)
    assert len(after) == 1
    assert after[0]["n_docs"] == sum(e["n_docs"] for e in before)


def test_mixed_avgdl_segmented_matches_monolithic(ray_session, tmp_path_factory):
    """Segments with very different document lengths: each segment's
    build avgdl is far from the merged one, so every tfnorm must use the
    MERGED avgdl — scores stay bit-identical to a monolithic build of
    the same rows."""
    from auctus_ray.index.search import hydrate_hits
    from auctus_ray.sources.code_corpus import generate_corpus

    d1 = str(tmp_path_factory.mktemp("seg_short"))
    d2 = str(tmp_path_factory.mktemp("seg_long"))
    p1 = generate_corpus(d1, n_rows=400, rows_per_file=200, mean_tokens=20)
    # another seed: distinct row keys, so one monolithic build holds both
    p2 = generate_corpus(d2, n_rows=400, rows_per_file=200, mean_tokens=300,
                         seed=11)
    root = str(tmp_path_factory.mktemp("seg_mixed"))
    add_segment(root, p1, n_shards=2)
    add_segment(root, p2, n_shards=2)
    s = Searcher(root)
    seg_avgdl = [e["n_tokens"] / e["n_docs"] for e in load_segments(root)]
    assert max(seg_avgdl) > 5 * min(seg_avgdl)
    mono_dir = add_segment(
        str(tmp_path_factory.mktemp("mono_mixed")), p1 + p2, n_shards=2
    ).index_dir
    mono = Searcher(mono_dir)
    assert s.avgdl == mono.avgdl
    for q, op in [
        ("the license", "or"), ("def return", "and"), ("import the", "or"),
    ]:
        seg = _hydrated(s, s.hydrate_hits, q, 50, op)
        ref = _hydrated(
            mono, lambda d, sc: hydrate_hits(mono_dir, d, sc), q, 50, op
        )
        assert seg, q
        _assert_topk_equivalent(seg, ref, q)


@pytest.fixture(scope="module")
def del_root(ray_session, small_corpus, tmp_path_factory):
    """Fresh segmented root for the delete/compact lifecycle."""
    _, paths = small_corpus
    root = str(tmp_path_factory.mktemp("seg_del"))
    add_segment(root, paths[:2], n_shards=4, files_per_group=2)
    add_segment(root, paths[2:], n_shards=4, files_per_group=2)
    return root


def test_delete_masks_results_not_stats(seg_root, small_corpus, tmp_path):
    root = seg_root
    s0 = Searcher(root)
    d, sc = s0.search("the license", k=5, operator="or")
    top = s0.hydrate_hits(d, sc).to_pylist()[0]
    delete_docs(root, [top["path"]], column="path")
    try:
        s1 = Searcher(root)
        # stats untouched (Lucene live-docs semantics)
        assert s1.n_docs == s0.n_docs and s1.avgdl == s0.avgdl
        d1, sc1 = s1.search("the license", k=5, operator="or")
        paths1 = {r["path"] for r in s1.hydrate_hits(d1, sc1).to_pylist()}
        assert top["path"] not in paths1
        # surviving docs keep their exact scores, shifted up one rank
        d1, sc1 = s1.search("the license", k=4, operator="or")
        assert (sc1 == sc[1:]).all()
        assert s1.stats()["n_deleted"] == 1
    finally:
        os.remove(os.path.join(root, "deletes.json"))


def test_compact_purges_deletes(del_root, small_corpus, tmp_path_factory):
    """After compaction the tombstoned doc is gone from the corpus, and
    the compacted index is rank-identical (bit-identical scores) to a
    monolithic build over the filtered corpus."""
    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import hydrate_hits

    _, paths = small_corpus
    root = del_root
    s0 = Searcher(root)
    d, sc = s0.search("the license", k=3, operator="or")
    victim = s0.hydrate_hits(d, sc).to_pylist()[0]["path"]
    delete_docs(root, [victim], column="path")
    compact(root, n_shards=4)

    entries = load_segments(root)
    assert len(entries) == 1
    assert not os.path.exists(os.path.join(root, "deletes.json"))

    s1 = Searcher(root)
    assert s1.n_docs == s0.n_docs - 1

    # filtered monolithic reference build
    filt_dir = str(tmp_path_factory.mktemp("filt_corpus"))
    fps = []
    for i, p in enumerate(paths):
        t = pq.read_table(p)
        mask = pa.compute.not_equal(t["path"], victim)
        fp = os.path.join(filt_dir, f"part-{i}.parquet")
        pq.write_table(t.filter(mask), fp)
        fps.append(fp)
    mono = build_index(
        fps, str(tmp_path_factory.mktemp("idx_filt")), n_shards=4,
        files_per_group=2,
    )
    ms = Searcher(mono.index_dir)
    assert s1.n_docs == ms.n_docs and s1.avgdl == ms.avgdl
    for q, op in [("the license", "or"), ("def return", "and")]:
        seg = _hydrated(s1, s1.hydrate_hits, q, 20, op)
        ref = _hydrated(
            ms, lambda dd, ss: hydrate_hits(mono.index_dir, dd, ss), q, 20, op
        )
        _assert_topk_equivalent(seg, ref, q)


def _assert_distributed_equals_local(dist, local):
    """Same global docIDs, bit-identical scores and same merged facets
    on the reference queries and on a filtered, faceted query."""
    qs = generate_query_set()
    for qid, q, k, op in zip(
        qs["qid"].to_pylist(), qs["query"].to_pylist(),
        qs["k"].to_pylist(), qs["operator"].to_pylist(),
    ):
        ld, ls = local.search(q, k=k, operator=op)
        dd, dsc = dist.search(q, k=k, operator=op)
        assert ld.tolist() == dd.tolist() and ls.tolist() == dsc.tolist(), (qid, q)
    kw = {"filters": {"lang": ["python", "go"]}, "facet_by": "lang"}
    ld, ls, lf = local.search("the license", k=15, operator="or", **kw)
    dd, dsc, df_ = dist.search("the license", k=15, operator="or", **kw)
    assert ld.tolist() == dd.tolist() and ls.tolist() == dsc.tolist()
    assert lf == df_


def test_distributed_segmented_equals_local(seg_root, seg_searcher):
    """The actor fan-out over a segment root (each actor a
    Searcher over one docID-bucket group) must reproduce the
    local segmented search exactly, also once tombstones apply: each
    actor masks the root's deletes itself."""
    from auctus_ray.index.search import DistributedSearcher

    dist = DistributedSearcher(seg_root, n_actors=3)
    try:
        _assert_distributed_equals_local(dist, seg_searcher)
    finally:
        dist.shutdown()
    d, sc = seg_searcher.search("the license", k=3, operator="or")
    victims = seg_searcher.hydrate_hits(d, sc)["path"].to_pylist()
    delete_docs(seg_root, victims, column="path")
    try:
        local = Searcher(seg_root)
        assert local.stats()["n_deleted"] >= len(victims)
        dist = DistributedSearcher(seg_root, n_actors=3)
        try:
            _assert_distributed_equals_local(dist, local)
            dd, dsc = dist.search("the license", k=10, operator="or")
            paths = set(dist.hydrate_hits(dd, dsc)["path"].to_pylist())
            assert not paths & set(victims)
        finally:
            dist.shutdown()
    finally:
        os.remove(os.path.join(seg_root, "deletes.json"))


@pytest.mark.parametrize("layout", ["monolithic", "segments"])
def test_dead_actor_restarts_bit_identical(seg_root, built_index, layout):
    """A killed shard actor restarts once and the query it missed is
    retried: the next answer is bit-identical. The restart budget is
    one, so a second death of the same actor fails the query."""
    import time

    import ray

    from auctus_ray.index.search import DistributedSearcher

    def kill(actor):
        # ray.kill is asynchronous: wait until the worker process is gone,
        # so the next query cannot be served by the actor about to die
        pid = ray.get(actor.__ray_call__.remote(lambda self: os.getpid()))
        ray.kill(actor, no_restart=False)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        raise AssertionError("killed actor process still running")

    path = built_index.index_dir if layout == "monolithic" else seg_root
    dist = DistributedSearcher(path, n_actors=2)
    kw = {"k": 10, "operator": "or", "facet_by": "lang"}
    try:
        d0, s0, f0 = dist.search("the license", **kw)
        assert d0.size > 0
        kill(dist.actors[0])
        d1, s1, f1 = dist.search("the license", **kw)
        assert d1.tolist() == d0.tolist() and s1.tolist() == s0.tolist()
        assert f1 == f0
        kill(dist.actors[0])
        with pytest.raises(ray.exceptions.RayActorError):
            dist.search("the license", **kw)
    finally:
        dist.shutdown()


def test_small_segment_fast_path_parity(ray_session, tiny_corpus, tmp_path_factory,
                                      read_dictionary):
    """The in-process small-segment build must be OUTPUT-IDENTICAL to
    the distributed build_index: same global stats, same dfs, same
    docIDs and bit-identical scores on every query."""
    from auctus_ray.index.build import build_index
    from auctus_ray.index.segments import _build_small_segment

    _, paths = tiny_corpus
    dist = build_index(
        paths, str(tmp_path_factory.mktemp("idx_dist")), n_shards=4,
        files_per_group=2,
    )
    fast = _build_small_segment(
        sorted(paths), str(tmp_path_factory.mktemp("idx_fast")),
        analyzer="code", n_buckets=4, column_map=None,
        content_col="content", params_fp="t",
    )
    assert (fast.n_docs, fast.n_tokens, fast.n_terms, fast.n_shards) == (
        dist.n_docs, dist.n_tokens, dist.n_terms, dist.n_shards
    )
    assert fast.avgdl == dist.avgdl
    # both builders give each bucket the same docID base
    def bucket_bases(d):
        return {
            os.path.basename(f): pc.min(pq.read_table(f)["doc_id"]).as_py()
            for f in glob.glob(os.path.join(d, "docmap", "bucket=*.parquet"))
        }

    assert bucket_bases(fast.index_dir) == bucket_bases(dist.index_dir)

    # and the same postings files, byte for byte, and term dictionary
    def postings_files(d):
        return {
            os.path.basename(f): open(f, "rb").read()
            for f in glob.glob(os.path.join(d, "postings", "shard=*.bin"))
        }

    def dictionary(d):
        return read_dictionary(d)

    assert len(postings_files(dist.index_dir)) == 4
    assert postings_files(fast.index_dir) == postings_files(dist.index_dir)
    assert dictionary(fast.index_dir).equals(dictionary(dist.index_dir))
    assert len(bucket_bases(dist.index_dir)) == 4
    sd = Searcher(dist.index_dir)
    sf = Searcher(fast.index_dir)
    qs = generate_query_set()
    terms = sorted({t for q in qs["query"].to_pylist() for t in q.lower().split()})
    assert sf.dfs(terms) == sd.dfs(terms)
    for qid, q, k, op in zip(
        qs["qid"].to_pylist(), qs["query"].to_pylist(),
        qs["k"].to_pylist(), qs["operator"].to_pylist(),
    ):
        dd, ds_ = sd.search(q, k=k, operator=op)
        fd, fs_ = sf.search(q, k=k, operator=op)
        assert (dd == fd).all() and (ds_ == fs_).all(), (qid, q)

    # resume: a second call with the same fingerprint is a no-op read
    again = _build_small_segment(
        sorted(paths), fast.index_dir, analyzer="code", n_buckets=4,
        column_map=None, content_col="content", params_fp="t",
    )
    assert again.n_docs == fast.n_docs and again.avgdl == fast.avgdl


def test_tiered_maybe_compact(ray_session, tmp_path_factory):
    """Partial (tiered) merge: the small tail folds into one segment,
    the big segment is untouched, search results stay bit-identical
    (same corpus, same merged stats), and a full compact still purges
    tombstones afterwards."""
    from auctus_ray.index.segments import maybe_compact
    from auctus_ray.sources.code_corpus import generate_corpus

    root = str(tmp_path_factory.mktemp("seg_tiered"))
    big_dir = str(tmp_path_factory.mktemp("tier_big"))
    big = generate_corpus(big_dir, n_rows=600, rows_per_file=600,
                          mean_tokens=60, seed=89)
    add_segment(root, big, n_shards=2)
    for i in range(4):
        d = str(tmp_path_factory.mktemp(f"tier_small{i}"))
        p = generate_corpus(d, n_rows=60, rows_per_file=60,
                            mean_tokens=60, seed=200 + i)
        add_segment(root, p, n_shards=1)
    assert len(load_segments(root)) == 5
    before = Searcher(root)
    bd, bs = before.search("the license", k=30, operator="or")
    b_keys = [
        (r["repo"], r["path"], r["commit"])
        for r in before.hydrate_hits(bd, bs).to_pylist()
    ]

    assert maybe_compact(root, max_segments=3) is not None
    entries = load_segments(root)
    assert len(entries) == 3  # 2 big kept + 1 merged tail
    big_entry = max(entries, key=lambda e: e["n_docs"])
    assert big_entry["n_docs"] == 600  # untouched
    after = Searcher(root)
    ad, as_ = after.search("the license", k=30, operator="or")
    a_keys = [
        (r["repo"], r["path"], r["commit"])
        for r in after.hydrate_hits(ad, as_).to_pylist()
    ]
    assert (bs == as_).all() and b_keys == a_keys

    # under the threshold: no-op
    assert maybe_compact(root, max_segments=3) is None


def test_empty_segment_is_harmless(ray_session, tmp_path_factory):
    """A zero-row segment (e.g. a discovery drain over an empty source)
    neither crashes the add nor perturbs merged search."""
    from auctus_ray.sources.code_corpus import generate_corpus

    root = str(tmp_path_factory.mktemp("seg_empty"))
    d1 = str(tmp_path_factory.mktemp("seg_e1"))
    p1 = generate_corpus(d1, n_rows=80, rows_per_file=80, mean_tokens=40)
    add_segment(root, p1, n_shards=1)

    t = pq.read_table(p1[0]).slice(0, 0)
    empty_path = str(tmp_path_factory.mktemp("seg_e0") / "empty.parquet")
    pq.write_table(t, empty_path)
    add_segment(root, [empty_path], n_shards=1)
    assert len(load_segments(root)) == 2

    s = Searcher(root)
    mono = Searcher(
        add_segment(
            str(tmp_path_factory.mktemp("mono_e")), p1, n_shards=1
        ).index_dir
    )
    d, sc = s.search("the license", k=10, operator="or")
    md, ms = mono.search("the license", k=10, operator="or")
    assert (sc == ms).all() and len(d) == len(md)


from hypothesis import example, given, settings
from hypothesis import strategies as st


# one lifecycle step: tombstone some corpus rows, then optionally merge
# (None: no merge, "compact": full merge, int: maybe_compact's max_segments)
_LIFECYCLE_STEP = st.tuples(
    st.lists(st.integers(0, 149), max_size=3),
    st.sampled_from([None, "compact", 1, 2, 3]),
)


def _oracle_hydrated(full, rows, deleted, query, k, operator):
    """The brute-force oracle's answer in _hydrated's shape: BM25 over
    the corpus rows ``rows`` (so df/avgdl count every registered row),
    with tombstoned rows then dropped from the ranking."""
    from auctus_ray.index.docid import assign_doc_ids_local
    from auctus_ray.index.oracle import OracleIndex

    t = full.take(sorted(rows))
    d, s = OracleIndex(t).search(query, k=t.num_rows, operator=operator)
    row_of = {int(x): i for i, x in enumerate(assign_doc_ids_local(t))}
    keys = list(zip(*(t[c].to_pylist() for c in ("repo", "path", "commit"))))
    out = [
        (*keys[row_of[int(x)]], float(sc))
        for x, sc in zip(d, s)
        if keys[row_of[int(x)]][1] not in deleted
    ][:k]
    return sorted(out, key=lambda r: (-r[3], r[0], r[1], r[2]))


@settings(max_examples=20, deadline=None)
@given(
    cuts=st.lists(st.integers(min_value=1, max_value=149), min_size=0,
                  max_size=4, unique=True),
    steps=st.lists(_LIFECYCLE_STEP, min_size=1, max_size=3),
    q=st.sampled_from(
        ["the license", "def return", "import class function", "the"]
    ),
    op=st.sampled_from(["or", "and"]),
)
# regression: a tiered merge whose every row is tombstoned crashed (Ray
# writes no file for the empty filtered rewrite)
@example(cuts=[5, 6, 7], steps=[([5, 6], 3)], q="the", op="or")
def test_property_any_split_matches_monolithic(
    ray_session, tmp_path_factory, cuts, steps, q, op
):
    """PROPERTY: for ANY partition of a corpus into segments, merged-
    stats search returns bit-identical scores to the monolithic build
    (the fast path makes per-example builds cheap). Then, through ANY
    sequence of delete_docs / maybe_compact / compact, the hydrated
    top-k stays equal to the oracle's: over every registered row with
    tombstoned docs dropped from the results (deletes keep df/avgdl),
    and over the surviving rows once compaction purged them."""
    from auctus_ray.index.segments import maybe_compact
    from auctus_ray.sources.code_corpus import generate_corpus

    base = tmp_path_factory.mktemp("prop")
    src = generate_corpus(str(base / "src"), n_rows=150, rows_per_file=150,
                          mean_tokens=30)
    full = pq.read_table(src[0])
    paths = full["path"].to_pylist()
    bounds = sorted(set(cuts)) + [150]
    lo = 0
    parts = []
    segs: list[set[int]] = []  # model: corpus rows each segment holds
    for i, hi in enumerate(bounds):
        if hi <= lo:
            continue
        p = str(base / f"part{i}.parquet")
        pq.write_table(full.slice(lo, hi - lo), p)
        parts.append(p)
        segs.append(set(range(lo, hi)))
        lo = hi
    root = str(base / "root")
    for p in parts:
        add_segment(root, [p], n_shards=2)
    seg = Searcher(root)
    mono = Searcher(
        add_segment(str(base / "mono"), src, n_shards=2).index_dir
    )
    sd, ss = seg.search(q, k=25, operator=op)
    md, ms = mono.search(q, k=25, operator=op)
    assert (ss == ms).all(), (cuts, q, op)

    deleted: set[str] = set()

    def check(ctx):
        s = Searcher(root)
        got = _hydrated(s, s.hydrate_hits, q, 25, op)
        want = _oracle_hydrated(full, set().union(*segs), deleted, q, 25, op)
        _assert_topk_equivalent(got, want, (cuts, steps, ctx, q, op))

    check("split")
    for victims, merge in steps:
        if victims:
            delete_docs(root, [paths[r] for r in victims], column="path")
            deleted.update(paths[r] for r in victims)
            check(("delete", victims))
        if merge == "compact":
            compact(root, n_shards=2)
            segs = [{r for s_ in segs for r in s_ if paths[r] not in deleted}]
            deleted = set()
        elif merge is not None and len(segs) > merge:
            assert maybe_compact(root, max_segments=merge, n_shards=2)
            # mirrors the tiered policy: the max_segments - 1 largest stay
            # (stable on registration order), the rest fold into one
            # merged segment registered last, tombstoned rows baked out
            big = sorted(range(len(segs)), key=lambda i: -len(segs[i]))
            big = set(big[: merge - 1])
            merged = {
                r for i, s_ in enumerate(segs) if i not in big for r in s_
                if paths[r] not in deleted
            }
            segs = [s_ for i, s_ in enumerate(segs) if i in big] + [merged]
        else:
            continue
        check(merge)


def test_distributed_segmented_synonyms_equal_local(seg_root):
    """Synonym maps must reach the shard-group ACTORS: a worker without
    the map analyzes the query unexpanded and silently drops
    expansion-only matches. distributed == local under synonyms."""
    from auctus_ray.index.search import DistributedSearcher

    # 'zzzqqq' exists nowhere: every hit for it comes ONLY through the
    # expansion — an actor without the map would return nothing
    syn = {"license": ["copyright"], "zzzqqq": ["def"]}
    local = Searcher(seg_root, synonyms=syn)
    dist = DistributedSearcher(seg_root, n_actors=3, synonyms=syn)
    try:
        for q, op in [("the license", "or"), ("zzzqqq", "or"), ("license", "and")]:
            ld, ls = local.search(q, k=20, operator=op)
            dd, dsc = dist.search(q, k=20, operator=op)
            assert (ld == dd).all() and (ls == dsc).all(), q
        # non-vacuous: the expansion-only query actually returns hits
        sd_, _ = local.search("zzzqqq", k=20, operator="or")
        assert len(sd_) > 0
        plain = Searcher(seg_root)
        pd_, _ = plain.search("zzzqqq", k=20, operator="or")
        assert len(pd_) == 0
    finally:
        dist.shutdown()


def test_tokenize_text_matches_array_unicode(ray_session):
    """tokenize_text now delegates to the vectorized path — Unicode
    special-casing (U+0130) no longer splits query tokenization away
    from index tokenization."""
    import pyarrow as pa

    from auctus_ray.tokenize import tokenize_array, tokenize_text

    for text in ("İstanbul fooBar", "STRASSE straße", "ĀĒĪ v2Api"):
        for an in ("code", "simple", "code_stem", "text_en"):
            assert (
                tokenize_text(text, an)
                == tokenize_array(pa.array([text]), an)[0].as_py()
            ), (text, an)


def test_stem_list_array_sliced(ray_session):
    import pyarrow as pa

    from auctus_ray.tokenize import stem_list_array, tokenize_array

    arr = tokenize_array(
        pa.array(["running dogs", "jumped quickly", "universities agreed"]),
        "code",
    )
    assert stem_list_array(arr.slice(1)).to_pylist() == [
        ["jump", "quickli"], ["univers", "agre"],
    ]


def test_readd_after_compact_never_duplicates(ray_session, tmp_path):
    """Regression: delete -> compact -> re-add of the SAME content
    registered a duplicate full segment next to the merged (filtered)
    copy — duplicate hits and inflated df/n_docs. The merged entry now
    remembers what it absorbed and the re-add no-ops."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.index.segments import (
        add_segment,
        compact,
        delete_docs,
        load_segments,
    )

    src = tmp_path / "src.parquet"
    pq.write_table(
        pa.table(
            {
                "repo": pa.array(["r"] * 4),
                "path": pa.array([f"d{i}" for i in range(4)]),
                "commit": pa.array(["c"] * 4),
                "lang": pa.array(["t"] * 4),
                "content": pa.array(
                    ["alpha beta", "alpha gamma", "beta gamma", "alpha delta"]
                ),
            }
        ),
        str(src),
    )
    root = str(tmp_path / "root")
    add_segment(root, [str(src)], n_shards=2)
    delete_docs(root, ["d1"], column="path")
    compact(root, n_shards=2)
    # re-add identical content: must NO-OP (no new segment, no dupes,
    # no resurrection of the purged doc)
    res = add_segment(root, [str(src)], n_shards=2)
    assert res.metrics.get("noop_existing_segment")
    assert len(load_segments(root)) == 1
    ids, scores = Searcher(root).search("alpha", k=10, operator="or")
    assert len(ids) == len(set(ids.tolist())) == 2  # d0, d3 (d1 purged)


def test_mixed_analyzer_root_rejected(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from auctus_ray.index.segments import add_segment, compact

    src = tmp_path / "s.parquet"
    pq.write_table(
        pa.table(
            {
                "repo": pa.array(["r"]), "path": pa.array(["p"]),
                "commit": pa.array(["c"]), "lang": pa.array(["t"]),
                "content": pa.array(["fooBar baz"]),
            }
        ),
        str(src),
    )
    root = str(tmp_path / "root")
    add_segment(root, [str(src)], n_shards=2, analyzer="code")
    with _pytest.raises(ValueError, match="analyzer"):
        add_segment(root, [str(src)], n_shards=2, analyzer="simple")
    with _pytest.raises(ValueError, match="selects no segments"):
        compact(root, only=[])


def test_falsy_facet_by_returns_empty_facets(ray_session, seg_root):
    s = Searcher(seg_root)
    out = s.search("!!!", k=5, operator="or", facet_by=[])
    assert len(out) == 2 and out[0].size == 0  # normalized to no-facet


HIT_TABLE_COLUMNS = [
    "doc_id", "repo", "path", "commit", "lang", "snippet", "rank", "score",
]


def test_hydrate_reads_only_hit_buckets(built_index, seg_searcher, tmp_path):
    """Hydrate opens only the docmap files of buckets that hold a hit: a
    query whose hits avoid a bucket hydrates the same rows after that
    bucket's docmap file is overwritten with garbage. A docID outside
    the index, or a bucket file whose rows disagree with its postings
    footer, raises ValueError instead of hydrating a row of None
    fields, from module `hydrate_hits` and a fresh Searcher alike; no
    hits give a 0-row table with the columns and types of a non-empty
    one. Plain indexes and segment roots give the same columns."""
    import re
    import shutil

    from auctus_ray.index.search import hydrate_hits

    idx = str(tmp_path / "idx")
    shutil.copytree(built_index.index_dir, idx)
    s = Searcher(idx)
    d, sc = s.search("license", k=3, operator="or")
    assert d.size == 3
    want = hydrate_hits(idx, d, sc)
    assert want.column_names == HIT_TABLE_COLUMNS
    assert want["doc_id"].to_pylist() == d.tolist()
    assert want["rank"].to_pylist() == [1, 2, 3]
    assert want["score"].to_pylist() == sc.tolist()
    assert None not in want["path"].to_pylist()
    # no hits: a 0-row table typed like a non-empty hydrate (module
    # `hydrate_hits` reads the first docmap bucket's schema, so this runs
    # before any bucket is damaged)
    empty = hydrate_hits(idx, d[:0], sc[:0])
    assert empty.num_rows == 0 and empty.schema.equals(want.schema)
    assert s.hydrate_hits(d, sc).equals(want)

    files = sorted(glob.glob(os.path.join(idx, "docmap", "*.parquet")))
    hit_files = []
    for f in files:
        ids = pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy()
        if np.isin(d, ids).any():
            hit_files.append(f)
    cold = [f for f in files if f not in hit_files]
    assert cold
    with open(cold[0], "wb") as fh:
        fh.write(b"not a parquet file" * 64)
    assert hydrate_hits(idx, d, sc).equals(want)
    assert Searcher(idx).hydrate_hits(d, sc).equals(want)

    n = s.n_docs
    with pytest.raises(ValueError, match=f"docID {n} "):
        hydrate_hits(idx, [n], [1.0])
    with pytest.raises(ValueError, match=f"docID {n} "):
        s.hydrate_hits([int(d[0]), n], [1.0, 0.5])

    # a bucket row that holds another docID than its position implies
    t = pq.read_table(hit_files[0])
    i = t.schema.get_field_index("doc_id")
    pq.write_table(t.set_column(i, "doc_id", pc.add(t["doc_id"], 1)), hit_files[0])
    with pytest.raises(ValueError, match=re.escape(hit_files[0])):
        hydrate_hits(idx, d, sc)
    with pytest.raises(ValueError, match=re.escape(hit_files[0])):
        Searcher(idx).hydrate_hits(d, sc)
    # a bucket file shorter than its postings footer says
    pq.write_table(t.slice(0, 1), hit_files[0])
    with pytest.raises(ValueError, match=re.escape(hit_files[0])):
        hydrate_hits(idx, d, sc)
    with pytest.raises(ValueError, match=re.escape(hit_files[0])):
        Searcher(idx).hydrate_hits(d, sc)
    # a Searcher that has loaded a bucket types its zero-hit table from
    # that bucket, with no file read: damaged files do not reach it
    empty = s.hydrate_hits(d[:0], sc[:0])
    assert empty.num_rows == 0 and empty.schema.equals(want.schema)

    sd, ss = seg_searcher.search("license", k=20, operator="or")
    # hits in both segments
    assert np.unique(np.searchsorted(seg_searcher.bases, sd, side="right")).size == 2
    seg_hits = seg_searcher.hydrate_hits(sd, ss)
    assert seg_hits.column_names == HIT_TABLE_COLUMNS
    assert seg_hits["doc_id"].to_pylist() == sd.tolist()
    assert None not in seg_hits["path"].to_pylist()
    empty = seg_searcher.hydrate_hits(sd[:0], ss[:0])
    assert empty.num_rows == 0 and empty.schema.equals(seg_hits.schema)


def _cold_hits(searcher, d, sc):
    """Module `hydrate_hits` over each segment of ``searcher`` that holds
    a hit, stitched back in rank order with global docIDs: the cold
    read a warm hydrate must equal."""
    from auctus_ray.index.search import hydrate_hits

    if d.size == 0:
        return hydrate_hits(searcher.seg_dirs[0], d, sc)
    seg = np.searchsorted(searcher.bases, d, side="right") - 1
    parts = []
    for si in np.unique(seg).tolist():
        sel = np.flatnonzero(seg == si)
        t = hydrate_hits(searcher.seg_dirs[si], d[sel] - searcher.bases[si], sc[sel])
        parts.append(
            t.set_column(0, "doc_id", pa.array(d[sel])).append_column("at", pa.array(sel))
        )
    t = pa.concat_tables(parts).sort_by("at").drop_columns(["at", "rank"])
    return t.add_column(
        t.schema.get_field_index("score"), "rank",
        pa.array(np.arange(1, d.size + 1, dtype=np.int64)),
    )


def _paths_field_index(small_corpus, tmp_path_factory):
    """The small corpus indexed on its ``path`` column, in built_index's
    shard layout: a second field for CrossFieldsSearcher."""
    from auctus_ray.index.build import build_index

    _, paths = small_corpus
    d = str(tmp_path_factory.mktemp("index_small_path"))
    return build_index(paths, d, n_shards=8, files_per_group=2,
                       content_col="path").index_dir


def test_warm_hydrate_reads_no_file(built_index, seg_root, small_corpus,
                                    tmp_path_factory, monkeypatch):
    """A long-lived Searcher keeps its hit buckets' docmap columns
    decoded: hydrating the same hits again, hydrating zero hits and a
    ``lang`` filter on a hydrated bucket open no Parquet file, and
    every hydrate equals module `hydrate_hits`' cold read. Checked on a
    plain index, a 2-segment root, a DistributedSearcher (through its
    ``local``) and a CrossFieldsSearcher (through its first field)."""
    from auctus_ray.index.search import (
        CrossFieldsSearcher, DistributedSearcher, _attr_codes, _shard_docmap,
    )

    idx = built_index.index_dir
    ds = DistributedSearcher(idx, n_actors=2)
    cf = CrossFieldsSearcher({
        "content": (idx, 1.0),
        "path": (_paths_field_index(small_corpus, tmp_path_factory), 3.0),
    })
    try:
        cases = [
            ("index", Searcher(idx), Searcher(idx)),
            ("root", Searcher(seg_root), Searcher(seg_root)),
            ("distributed", ds, ds.local),
            ("cross_fields", cf, cf.searchers[0]),
        ]
        for name, searcher, local in cases:
            hits = [searcher.search(q, k=k, operator="or")
                    for q, k in (("license", 20), ("search index", 10), ("return value", 50))]
            first = [searcher.hydrate_hits(d, sc) for d, sc in hits]
            for (d, sc), got in zip(hits, first):
                assert d.size > 0, name
                assert got.equals(_cold_hits(local, d, sc)), name
            opened = []
            real = pq.ParquetFile
            monkeypatch.setattr(
                pq, "ParquetFile", lambda *a, **kw: opened.append(a) or real(*a, **kw)
            )
            real_schema = pq.read_schema
            monkeypatch.setattr(
                pq, "read_schema", lambda *a, **kw: opened.append(a) or real_schema(*a, **kw)
            )
            again = [searcher.hydrate_hits(d, sc) for d, sc in hits]
            none = searcher.hydrate_hits(hits[0][0][:0], hits[0][1][:0])
            # a filter or facet on a hit column reads it from the
            # hydrated bucket
            for sf in local.shard_files:
                e = local._postings_cache.get(_shard_docmap(sf))
                if e is not None and e.hit is not None:
                    local._shard_attr(sf, "lang", _attr_codes)
            monkeypatch.setattr(pq, "ParquetFile", real)
            monkeypatch.setattr(pq, "read_schema", real_schema)
            assert opened == [], name
            assert all(a.equals(b) for a, b in zip(again, first)), name
            assert none.num_rows == 0 and none.schema.equals(first[0].schema), name
    finally:
        ds.shutdown()


def test_warm_hydrate_under_a_tight_budget(built_index, seg_root):
    """A Searcher whose cache budget (postings_cache_bytes) holds about
    one docmap bucket evicts the others and still hydrates every query
    exactly as the cold read does."""
    from auctus_ray.index.search import _DocmapBucket, _postings_entry_nbytes

    for path in (built_index.index_dir, seg_root):
        tight = Searcher(path, postings_cache_bytes=1 << 14)
        touched = set()
        for q in ["the license", "parser error", "return value", "search index"] * 2:
            d, sc = tight.search(q, k=20, operator="or")
            got = tight.hydrate_hits(d, sc)
            assert got.equals(_cold_hits(tight, d, sc)), (path, q)
            touched |= set(np.searchsorted(tight._hit_buckets[0], d, side="right").tolist())
            entries = list(tight._postings_cache.values())
            assert tight._cache_nbytes <= (1 << 14) + max(map(_postings_entry_nbytes, entries))
        kept = sum(isinstance(e, _DocmapBucket) for e in tight._postings_cache.values())
        assert len(touched) > 1 and kept < len(touched), path


def test_cross_fields_honours_tombstones(ray_session, small_corpus, tmp_path):
    """CrossFieldsSearcher masks the documents tombstoned in its field
    roots: with the same paths deleted in both roots, its top-k is the
    undeleted top-k (taken deeper) minus the deleted docIDs, with
    bit-identical scores (tombstones still count in df and avgdl)."""
    from auctus_ray.index.search import CrossFieldsSearcher

    _, paths = small_corpus
    roots = {"content": str(tmp_path / "content"), "path": str(tmp_path / "path")}
    add_segment(roots["content"], paths, n_shards=4)
    add_segment(roots["path"], paths, n_shards=4, content_col="path")
    fields = {"content": (roots["content"], 1.0), "path": (roots["path"], 3.0)}
    full = CrossFieldsSearcher(fields)
    queries = [("license", "or"), ("search index", "or"), ("return value", "and")]
    refs = [full.search(q, k=300, operator=op) for q, op in queries]
    assert all(d.size > 20 for d, _ in refs)
    path_of = {}
    for d, sc in refs:
        hits = full.hydrate_hits(d, sc)
        path_of.update(zip(hits["doc_id"].to_pylist(), hits["path"].to_pylist()))
    gone = sorted({path_of[int(d[i])] for d, _ in refs for i in (0, 2, 5)})
    for root in roots.values():
        delete_docs(root, gone)
    live = CrossFieldsSearcher(fields)
    for (q, op), (rd, rs) in zip(queries, refs):
        keep = np.array([path_of[int(x)] not in gone for x in rd])
        assert (~keep[:10]).any() and keep.sum() >= 10, q
        d, sc = live.search(q, k=10, operator=op)
        assert d.tolist() == rd[keep][:10].tolist(), q
        assert sc.tobytes() == rs[keep][:10].tobytes(), q


# --------------------------------------------- in-process compaction


def _filtered_copies(paths, out_dir, victims):
    """Each input file minus the rows whose path is in ``victims`` (the
    monolithic reference corpus of a tombstone-purging compaction)."""
    out = []
    for i, p in enumerate(paths):
        t = pq.read_table(p)
        keep = pc.invert(pc.is_in(t["path"], value_set=pa.array(victims)))
        fp = os.path.join(out_dir, f"part-{i}.parquet")
        pq.write_table(t.filter(keep), fp)
        out.append(fp)
    return out


def _assert_same_answers(root, index_dir):
    """Same docIDs and bit-identical float64 scores on every reference
    query, and the same corpus statistics."""
    s, m = Searcher(root), Searcher(index_dir)
    assert (s.n_docs, s.avgdl) == (m.n_docs, m.avgdl)
    qs = generate_query_set()
    for qid, q, k, op in zip(
        qs["qid"].to_pylist(), qs["query"].to_pylist(),
        qs["k"].to_pylist(), qs["operator"].to_pylist(),
    ):
        d, sc = s.search(q, k=k, operator=op)
        md, ms = m.search(q, k=k, operator=op)
        assert d.tolist() == md.tolist(), (qid, q)
        assert sc.dtype == ms.dtype == np.float64
        assert sc.tobytes() == ms.tobytes(), (qid, q)


def test_small_compact_starts_no_ray_data_job(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """A small root with tombstones filters and rebuilds in process: with
    ray.data.read_parquet made to raise, the compaction still succeeds
    and matches a monolithic build over the filtered corpus."""
    import ray.data

    from auctus_ray.index.build import build_index

    _, paths = tiny_corpus
    root = str(tmp_path / "root")
    add_segment(root, paths[:2], n_shards=4)
    add_segment(root, paths[2:], n_shards=4)
    victims = pq.read_table(paths[1], columns=["path"])["path"].to_pylist()[:3]
    victims += pq.read_table(paths[3], columns=["path"])["path"].to_pylist()[:2]
    delete_docs(root, victims, column="path")
    os.makedirs(tmp_path / "filtered")
    mono = build_index(
        _filtered_copies(paths, str(tmp_path / "filtered"), victims),
        str(tmp_path / "mono"), n_shards=4,
    )

    def no_ray_data(*_a, **_k):
        raise AssertionError("a small compaction started a Ray Data job")

    monkeypatch.setattr(ray.data, "read_parquet", no_ray_data)
    res = compact(root, n_shards=4)
    assert res.n_docs == mono.n_docs == 200 - len(victims)
    assert len(load_segments(root)) == 1
    assert not os.path.exists(os.path.join(root, "deletes.json"))
    _assert_same_answers(root, mono.index_dir)


def test_small_compact_all_tombstoned_is_empty(ray_session, tiny_corpus, tmp_path):
    """Every row tombstoned: the merge yields an empty, searchable
    segment."""
    _, paths = tiny_corpus
    root = str(tmp_path / "root")
    add_segment(root, paths[:1], n_shards=2)
    add_segment(root, paths[1:2], n_shards=2)
    every = [
        v for p in paths[:2]
        for v in pq.read_table(p, columns=["path"])["path"].to_pylist()
    ]
    delete_docs(root, every, column="path")
    res = compact(root, n_shards=2)
    assert res.n_docs == 0
    (entry,) = load_segments(root)
    assert entry["n_docs"] == 0
    s = Searcher(root)
    assert s.n_docs == 0
    d, sc = s.search("the license", k=10, operator="or")
    assert len(d) == len(sc) == 0


@pytest.mark.parametrize("tombstones", [False, True])
def test_small_compact_inputs_with_different_schemas(
    ray_session, tiny_corpus, tmp_path, tombstones
):
    """One segment added from a file with an extra ``license`` attr
    column, one from a file without it: the small compaction reads what
    the distributed build reads and matches build_index over the same
    files (minus the tombstoned rows)."""
    from auctus_ray.index.build import build_index

    _, paths = tiny_corpus
    a, b = pq.read_table(paths[0]), pq.read_table(paths[1])
    with_attr = str(tmp_path / "with_license.parquet")
    pq.write_table(
        a.append_column("license", pa.array(["mit"] * a.num_rows)), with_attr
    )
    without = str(tmp_path / "without.parquet")
    pq.write_table(b, without)
    root = str(tmp_path / "root")
    add_segment(root, [with_attr], n_shards=8, attrs=["license"])
    add_segment(root, [without], n_shards=8)
    inputs = [with_attr, without]
    if tombstones:
        victims = [a["path"][3].as_py(), b["path"][7].as_py()]
        delete_docs(root, victims, column="path")
        os.makedirs(tmp_path / "filtered")
        inputs = _filtered_copies(inputs, str(tmp_path / "filtered"), victims)
    mono = build_index(inputs, str(tmp_path / "mono"), n_shards=8)
    res = compact(root, n_shards=8)
    assert res.n_docs == mono.n_docs == a.num_rows + b.num_rows - 2 * tombstones
    _assert_same_answers(root, mono.index_dir)




def _index_files(d):
    """An index's postings files, term dictionary, termstats/ and global
    stats as sha256 digests, and its docmap buckets as tables."""
    import hashlib

    files = (
        glob.glob(os.path.join(d, "postings", "*"))
        + glob.glob(os.path.join(d, "termstats", "*"))
        + [os.path.join(d, "global_stats.parquet")]
    )
    digests = {
        os.path.relpath(f, d): hashlib.sha256(open(f, "rb").read()).hexdigest()
        for f in files
    }
    docmap = {
        os.path.basename(f): pq.read_table(f)
        for f in glob.glob(os.path.join(d, "docmap", "bucket=*.parquet"))
    }
    return digests, docmap


@pytest.mark.parametrize(
    "sources, n_shards, tombstones",
    [((8, 8), 8, True), ((1,), None, False), ((2, 1), 4, True), ((8, 8), 2, True)],
    ids=["8+8to8", "1to64", "2+1to4", "8+8to2"],
)
def test_compact_same_files_as_build_index(
    ray_session, tiny_corpus, tmp_path, sources, n_shards, tombstones
):
    """A compaction merges its sources' encoded files into the files
    build_index writes over the surviving rows: postings .bin files,
    termstats/, the term dictionary and the global stats byte for byte,
    docmap by rows. Equal shard counts and re-bucketing up and down
    alike; without ``n_shards`` the merge has N_DOCID_BUCKETS buckets.
    With tombstones, one input loses every row."""
    from auctus_ray.index.build import N_DOCID_BUCKETS, build_index

    _, paths = tiny_corpus
    root = str(tmp_path / "root")
    splits = [paths] if len(sources) == 1 else [paths[:2], paths[2:]]
    for part, n in zip(splits, sources):
        add_segment(root, part, n_shards=n)
    victims, inputs = [], paths
    if tombstones:
        victims = [
            pq.read_table(p, columns=["path"])["path"][i].as_py()
            for p, i in zip(paths, (0, 5, 9))
        ] + pq.read_table(paths[3], columns=["path"])["path"].to_pylist()
        delete_docs(root, victims, column="path")
        os.makedirs(tmp_path / "filtered")
        inputs = _filtered_copies(paths, str(tmp_path / "filtered"), victims)
    mono = build_index(inputs, str(tmp_path / "mono"), n_shards=n_shards)
    res = compact(root, n_shards=n_shards)
    assert res.n_shards == mono.n_shards == (n_shards or N_DOCID_BUCKETS)
    (got, got_docmap), (want, want_docmap) = (
        _index_files(res.index_dir), _index_files(mono.index_dir)
    )
    assert "postings/terms.bin" in got
    assert any(f.endswith(".bin") for f in got)
    assert any(f.startswith("termstats/") for f in got)
    assert got == want
    assert got_docmap.keys() == want_docmap.keys()
    for k in got_docmap:
        assert got_docmap[k].equals(want_docmap[k]), k
    assert sum(t.num_rows for t in got_docmap.values()) == 200 - len(victims)


def test_compact_reads_no_input_file(ray_session, tiny_corpus, tmp_path):
    """The segment root is self-contained: with every recorded input
    file deleted, a tombstone-purging compaction still succeeds,
    records its sources' inputs as provenance, and answers like
    build_index over the surviving rows."""
    import shutil

    from auctus_ray.index.build import build_index

    _, paths = tiny_corpus
    copies = []
    for i, p in enumerate(paths):
        copies.append(str(tmp_path / f"in-{i}.parquet"))
        shutil.copy(p, copies[-1])
    root = str(tmp_path / "root")
    add_segment(root, copies[:2], n_shards=4)
    add_segment(root, copies[2:], n_shards=2)
    victims = pq.read_table(paths[2], columns=["path"])["path"].to_pylist()[:4]
    delete_docs(root, victims, column="path")
    for c in copies:
        os.remove(c)
    res = compact(root, n_shards=4)
    (entry,) = load_segments(root)
    assert entry["inputs"] == sorted(copies)
    os.makedirs(tmp_path / "filtered")
    mono = build_index(
        _filtered_copies(paths, str(tmp_path / "filtered"), victims),
        str(tmp_path / "mono"), n_shards=4,
    )
    assert res.n_docs == mono.n_docs == 200 - len(victims)
    _assert_same_answers(root, mono.index_dir)


def test_compact_upgrades_a_root_without_terms_bin(ray_session, tiny_corpus, tmp_path):
    """A root whose segments lack postings/terms.bin (format v7 wrote
    terms.parquet instead) does not open; compact reads only the
    docmap, termstats and postings .bin files, so it merges the root
    into one segment with the dictionary build_index writes over the
    same rows, and that root searches bit-identically to it."""
    from auctus_ray.index.build import build_index

    _, paths = tiny_corpus
    root = str(tmp_path / "root")
    add_segment(root, paths[:2], n_shards=4)
    add_segment(root, paths[2:], n_shards=4)
    for e in load_segments(root):
        os.remove(os.path.join(root, SEG_DIR, e["name"], "postings", "terms.bin"))
    with pytest.raises(ValueError, match="terms.bin.*rebuild it, or compact"):
        Searcher(root)
    res = compact(root, n_shards=4)
    mono = build_index(paths, str(tmp_path / "mono"), n_shards=4)
    (entry,) = load_segments(root)
    assert os.path.basename(res.index_dir) == entry["name"]
    (got, _), (want, _) = _index_files(res.index_dir), _index_files(mono.index_dir)
    assert got["postings/terms.bin"] == want["postings/terms.bin"]
    assert got == want
    _assert_same_answers(root, mono.index_dir)


@pytest.mark.parametrize("builder", ["add_segment", "build_index"])
def test_large_string_content_same_files(ray_session, tiny_corpus, tmp_path, builder):
    """Content stored as large_string (as many Parquet writers store
    it) indexes, in process and through Ray, to the same postings,
    termstats/, term dictionary and global stats as the same corpus
    stored as string."""
    from auctus_ray.index.build import build_index

    _, paths = tiny_corpus
    large = []
    for i, p in enumerate(paths):
        t = pq.read_table(p)
        t = t.set_column(
            t.schema.get_field_index("content"), "content",
            t["content"].cast(pa.large_string()),
        )
        large.append(str(tmp_path / f"large-{i}.parquet"))
        pq.write_table(t, large[-1])

    def files(inputs, name):
        if builder == "add_segment":
            d = add_segment(str(tmp_path / name), inputs, n_shards=4).index_dir
        else:
            d = build_index(inputs, str(tmp_path / name), n_shards=4).index_dir
        return _index_files(d)[0]

    assert files(large, "large") == files(paths, "string")


@pytest.fixture(scope="module")
def tomb_root(ray_session, small_corpus, tmp_path_factory):
    """A 2-segment root over the small corpus with every 37th row
    tombstoned by path: (root, corpus table, deleted paths)."""
    _, paths = small_corpus
    full = pa.concat_tables([pq.read_table(p) for p in paths])
    root = str(tmp_path_factory.mktemp("seg_tomb"))
    add_segment(root, paths[:2], n_shards=4, files_per_group=2)
    add_segment(root, paths[2:], n_shards=4, files_per_group=2)
    victims = full["path"].to_pylist()[::37]
    delete_docs(root, victims, column="path")
    return root, full, set(victims)


def test_batched_decode_on_a_tombstoned_root(tomb_root, monkeypatch):
    """A fresh Searcher over two segments with tombstones decodes every
    new posting list of a query in batches (all of them in one at the
    module's cap, several at 64 postings, one list each at 1): its
    first answer, the same query from the cached spans and the oracle
    (every row in df/avgdl, tombstoned rows dropped) agree bit for
    bit."""
    from auctus_ray.index import search as search_mod

    root, full, deleted = tomb_root
    queries = [("the license", "or"), ("def return", "and"),
               ("import class function", "or"), ("the", "or"),
               ("score batch", "or"), ("the license def return", "and")]
    want = {
        (q, op): _oracle_hydrated(full, range(full.num_rows), deleted, q, 20, op)
        for q, op in queries
    }
    for cap in (search_mod.DECODE_BATCH_POSTINGS, 64, 1):
        monkeypatch.setattr(search_mod, "DECODE_BATCH_POSTINGS", cap)
        for q, op in queries:
            s = Searcher(root)
            assert s.stats()["n_deleted"] == len(deleted)
            d, sc = s.search(q, k=20, operator=op)
            d2, sc2 = s.search(q, k=20, operator=op)
            assert d.tolist() == d2.tolist() and sc.tolist() == sc2.tolist()
            got = _sorted_rows(s.hydrate_hits(d, sc))
            _assert_topk_equivalent(got, want[(q, op)], (cap, q, op))


def test_tombstone_mask_opens_no_docmap(tomb_root, monkeypatch):
    """The tombstone mask takes a shard's docID base and count from its
    postings footer: once a Searcher over a root with tombstones is
    open, its searches open no docmap file (and, with the term
    dictionary in terms.bin, no Parquet file at all). A shard whose norms no
    query read gives the same range from one footer read."""
    import pyarrow.dataset as pads

    root, _, deleted = tomb_root
    s = Searcher(root)
    cold = {sf: s._shard_range(sf) for sf in s.shard_files}
    opened = []
    real = pq.ParquetFile

    def spy(path, *a, **kw):
        opened.append(str(path))
        return real(path, *a, **kw)

    def refuse(*a, **kw):
        raise AssertionError("a table read on the search path")

    monkeypatch.setattr(pq, "ParquetFile", spy)
    monkeypatch.setattr(pq, "read_table", refuse)
    monkeypatch.setattr(pads, "dataset", refuse)
    for q, op in [("the license", "or"), ("def return", "and"), ("the", "or")]:
        d, sc = s.search(q, k=20, operator=op)
        assert d.size
    # the term dictionary is not Parquet either: no Parquet file at all
    assert opened == [], opened
    # while a hydrate's docmap reads go through the spy
    s.hydrate_hits(d, sc)
    assert opened and all("docmap" in p for p in opened), opened
    assert set(s._norms) == set(s.shard_files)
    assert {sf: s._shard_range(sf) for sf in s.shard_files} == cold
