"""Build pipeline: docID determinism, forward map, sha256 invariant,
global stats, manifest checkpointing + resume."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctus_ray.index.docid import assign_doc_ids_local


def _read_dir(d):
    return pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(os.path.join(d, "**/*.parquet"), recursive=True))]
    )


def test_docids_match_local_reference(built_index, small_corpus):
    """Distributed dense rank == single-process rank (bit-identical)."""
    d, paths = small_corpus
    corpus = pa.concat_tables([pq.read_table(p) for p in paths])
    expected = assign_doc_ids_local(corpus)
    docmap = _read_dir(os.path.join(built_index.index_dir, "docmap"))
    got = {}
    for r, p, c, did in zip(
        docmap["repo"].to_pylist(),
        docmap["path"].to_pylist(),
        docmap["commit"].to_pylist(),
        docmap["doc_id"].to_pylist(),
    ):
        got[(r, p, c)] = did
    for i in range(corpus.num_rows):
        key = (
            corpus["repo"][i].as_py(),
            corpus["path"][i].as_py(),
            corpus["commit"][i].as_py(),
        )
        assert got[key] == expected[i]
    # dense: exactly 0..N-1
    ids = np.sort(docmap["doc_id"].to_numpy(zero_copy_only=False))
    assert (ids == np.arange(corpus.num_rows)).all()


def test_sha256_per_row_invariant(built_index, small_corpus):
    """The per-row invariant from the graft contract: sha256(content)."""
    import hashlib

    d, paths = small_corpus
    corpus = pa.concat_tables([pq.read_table(p) for p in paths])
    docmap = _read_dir(os.path.join(built_index.index_dir, "docmap"))
    by_key = {
        (r, p, c): s
        for r, p, c, s in zip(
            docmap["repo"].to_pylist(),
            docmap["path"].to_pylist(),
            docmap["commit"].to_pylist(),
            docmap["sha256"].to_pylist(),
        )
    }
    for i in range(corpus.num_rows):
        key = (
            corpus["repo"][i].as_py(),
            corpus["path"][i].as_py(),
            corpus["commit"][i].as_py(),
        )
        expect = hashlib.sha256(
            (corpus["content"][i].as_py() or "").encode()
        ).hexdigest()
        assert by_key[key] == expect


def test_global_stats_vs_oracle(built_index, oracle_small):
    assert built_index.n_docs == oracle_small.n_docs
    assert built_index.avgdl == pytest.approx(oracle_small.avgdl, rel=0, abs=0)
    # df per term (summed over the term dictionary's shard rows) matches
    # the oracle for a sample of terms
    from auctus_ray.index.search import Searcher

    sample_terms = ["the", "def", "license", "get", "rareterm10x"]
    dfs = Searcher(built_index.index_dir).dfs(sample_terms)
    for term in sample_terms:
        expect = len(oracle_small.postings.get(term, {}))
        assert dfs[term] == expect, term


def test_resume_skips_completed_stages(ray_session, tiny_corpus, tmp_path):
    """Kill-and-resume: a second build over the same inputs re-runs nothing
    (fingerprints match); a build after deleting one stage re-runs only it."""
    from auctus_ray.index.build import build_index
    from auctus_ray.state.manifest import Manifest

    d, paths = tiny_corpus
    idx = str(tmp_path / "idx")
    r1 = build_index(paths, idx, n_shards=4, files_per_group=2)
    man1 = Manifest(idx)
    seqs1 = {(r["stage"], r["partition"]): r["seq"] for r in man1.records()}

    r2 = build_index(paths, idx, n_shards=4, files_per_group=2)
    man2 = Manifest(idx)
    # tokenize/encode/termstats records unchanged (skipped); only the
    # cheap 'global' summary is re-stamped
    for key, seq in seqs1.items():
        if key[0] != "global":
            assert man2._records[key]["seq"] == seq, key
    assert r2.n_docs == r1.n_docs and r2.n_terms == r1.n_terms

    # simulate a crash that lost one postings shard -> only its bucket
    # and the encode stage's summary re-run
    os.remove(os.path.join(idx, "postings", "shard=00001.bin"))
    r3 = build_index(paths, idx, n_shards=4, files_per_group=2)
    man3 = Manifest(idx)
    assert man3._records[("encode", "all")]["seq"] > seqs1[("encode", "all")]
    assert man3._records[("encode", "bucket=00001")]["seq"] > seqs1[("encode", "bucket=00001")]
    for key, seq in seqs1.items():
        if key[0] in ("tokenize", "termstats") or (
            key[0] == "encode" and key[1] not in ("all", "bucket=00001")
        ):
            assert man3._records[key]["seq"] == seq, key
    assert r3.n_terms == r1.n_terms


def _index_sha256(idx):
    """{relative path: sha256} of every file under an index directory's
    postings/docmap directories."""
    import hashlib

    out = {}
    for sub in ("postings", "docmap"):
        for f in glob.glob(os.path.join(idx, sub, "**", "*"), recursive=True):
            if os.path.isfile(f):
                with open(f, "rb") as fh:
                    out[os.path.relpath(f, idx)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_resume_is_byte_identical(ray_session, tiny_corpus, tmp_path):
    """A build that lost one docmap bucket, one stored-fields file, one
    postings shard and the term dictionary resumes into files
    byte-identical to a fresh build, from the tokenize stage's stored
    counts (no group is re-tokenized), and removes what older index
    formats wrote beside them; so does one that lost only a postings
    shard, and one with a stale shard file from a larger build. The
    tokenize write step is idempotent: writing the same rows twice
    leaves the same files."""
    from auctus_ray.index.build import build_index, tokenize_batch, write_buckets
    from auctus_ray.state.manifest import Manifest

    _, paths = tiny_corpus
    fresh = str(tmp_path / "fresh")
    build_index(paths, fresh, n_shards=4, files_per_group=2)

    idx = str(tmp_path / "resumed")
    build_index(paths, idx, n_shards=4, files_per_group=2)
    tok_seqs = {
        r["partition"]: r["seq"]
        for r in Manifest(idx).records() if r["stage"] == "tokenize"
    }
    os.remove(os.path.join(idx, "docmap", "bucket=00001.parquet"))
    os.remove(os.path.join(idx, "docmap", "bucket=00003.stored"))
    os.remove(os.path.join(idx, "postings", "shard=00002.bin"))
    os.remove(os.path.join(idx, "postings", "terms.bin"))
    # what builds of older index formats wrote: the term tables of v7
    # and v8, the termstats partials and the shard summary of v10
    old = ["term_stats", os.path.join("postings", "terms.parquet"), "termstats",
           "shard_summary.parquet"]
    for d in old[::2]:
        os.makedirs(os.path.join(idx, d))
        open(os.path.join(idx, d, "shard=00000.parquet"), "wb").close()
    for f in old[1::2]:
        open(os.path.join(idx, f), "wb").close()
    build_index(paths, idx, n_shards=4, files_per_group=2)

    # 4 shards x (docmap, stored fields, postings) and the term
    # dictionary
    want = _index_sha256(fresh)
    assert len(want) == 4 * 3 + 1
    assert _index_sha256(idx) == want
    for p in old:
        assert not os.path.exists(os.path.join(idx, p)), p

    # a lost postings file alone re-encodes its bucket; a stale one is
    # removed
    os.remove(os.path.join(idx, "postings", "shard=00002.bin"))
    with open(os.path.join(idx, "postings", "shard=00007.bin"), "wb") as f:
        f.write(b"stale")
    build_index(paths, idx, n_shards=4, files_per_group=2)
    assert _index_sha256(idx) == want
    man = Manifest(idx)
    for part, seq in tok_seqs.items():
        assert man.latest("tokenize", part)["seq"] == seq, part

    # retry idempotence of the tokenize write step
    tok = tokenize_batch(pq.read_table(paths[0]), analyzer="code", n_buckets=4)
    out = str(tmp_path / "retry")

    def files():
        found = glob.glob(os.path.join(out, "bucket=*", "*"))
        return {os.path.relpath(f, out): open(f, "rb").read() for f in found}

    c1 = write_buckets(tok, out)
    f1 = files()
    c2 = write_buckets(tok, out)
    assert c2.equals(c1) and files() == f1
    assert sorted(f1) == sorted(c1["file"].to_pylist())
    assert sum(c1["cnt"].to_pylist()) == tok.num_rows


def test_build_metrics_present(built_index):
    m = built_index.metrics
    assert m["n_postings"] > 0
    assert m["postings_per_sec"] > 0
    assert "shard_skew_max_over_mean" in m
    assert m["shard_skew_max_over_mean"] < 3.0  # docID-range salting bounds skew


def test_build_metrics_agree_with_result(built_index, small_corpus, read_dictionary):
    """BuildResult.metrics is one summary per stage, so its counts equal
    the BuildResult fields and the term dictionary's dfs (regression:
    every numeric field was summed across stages — n_docs and n_postings
    came out doubled, and 'shard' was the sum of the shard ids)."""
    m = built_index.metrics
    assert m["n_docs"] == built_index.n_docs
    assert m["n_terms"] == built_index.n_terms
    assert m["n_postings"] == sum(read_dictionary(built_index.index_dir)["df"].to_pylist())
    assert m["files"] == len(small_corpus[1])
    assert "shard" not in m


def test_duplicate_row_key_rejected(ray_session, tmp_path):
    from auctus_ray.index.build import build_index

    t = pa.table(
        {
            "repo": ["a/b", "a/b"],
            "path": ["x.py", "x.py"],
            "commit": ["c1", "c1"],
            "lang": ["python", "python"],
            "content": ["def f", "def g"],
        }
    )
    p = str(tmp_path / "dup.parquet")
    pq.write_table(t, p)
    with pytest.raises(Exception, match="duplicate"):
        build_index([p], str(tmp_path / "idx2"), n_shards=2)
    # the same rows in two tokenize write tasks: both write one
    # content-named shuffle file, and the driver rejects the repeat
    from auctus_ray.index.build import collect_counts, tokenize_batch, write_buckets

    tok = tokenize_batch(t.slice(0, 1), analyzer="code", n_buckets=2)
    out = str(tmp_path / "shuffle")
    rows = write_buckets([tok], out).to_pylist() + write_buckets([tok], out).to_pylist()
    with pytest.raises(ValueError, match="duplicate"):
        collect_counts(out, rows)


def test_single_doc_corpus(ray_session, tmp_path):
    """Degenerate build: one document, one token class."""
    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import Searcher

    t = pa.table(
        {
            "repo": ["r/solo"], "path": ["only.py"], "commit": ["c0"],
            "lang": ["python"], "content": ["def lonely(): return lonely"],
        }
    )
    p = str(tmp_path / "solo.parquet")
    pq.write_table(t, p)
    res = build_index([p], str(tmp_path / "solo_idx"), n_shards=2)
    assert res.n_docs == 1 and res.avgdl == 4.0
    s = Searcher(res.index_dir)
    d, sc = s.search("lonely", k=10, operator="and")
    assert d.tolist() == [0] and sc[0] > 0
    d, _ = s.search("absent", k=10, operator="and")
    assert d.size == 0


def test_all_empty_contents(ray_session, tmp_path):
    """Corpus where every content is empty: index builds, queries empty."""
    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import Searcher

    t = pa.table(
        {
            "repo": ["a", "b"], "path": ["x", "y"], "commit": ["1", "2"],
            "lang": ["md", "md"], "content": ["", ""],
        }
    )
    p = str(tmp_path / "empty.parquet")
    pq.write_table(t, p)
    res = build_index([p], str(tmp_path / "empty_idx"), n_shards=2)
    assert res.n_docs == 2 and res.n_terms == 0
    s = Searcher(res.index_dir)
    d, _ = s.search("anything", k=5)
    assert d.size == 0


def test_incremental_input_reuses_tokenize(ray_session, tiny_corpus, tmp_path):
    """Adding corpus files re-tokenizes ONLY the new group (fingerprint
    checkpoints); the encode re-runs (dense docIDs are global ranks) and
    the merged index is correct — the reference's reprocess-on-change
    semantics (D5) at file-group granularity."""
    from auctus_ray.index.build import build_index
    from auctus_ray.index.oracle import OracleIndex
    from auctus_ray.index.search import Searcher
    from auctus_ray.state.manifest import Manifest
    from auctus_ray.sources.code_corpus import generate_corpus

    corpus_dir = str(tmp_path / "incr_corpus")
    paths = generate_corpus(corpus_dir, n_rows=200, rows_per_file=50, mean_tokens=60)
    idx = str(tmp_path / "incr_idx")
    r1 = build_index(paths, idx, n_shards=4, files_per_group=2)
    man1 = Manifest(idx)
    tok_seqs = {
        r["partition"]: r["seq"] for r in man1.records() if r["stage"] == "tokenize"
    }

    # grow the corpus in place: one new file; existing files regenerate
    # byte-identical (pure function of (seed, chunk)), fingerprints match
    all_paths = generate_corpus(corpus_dir, n_rows=250, rows_per_file=50, mean_tokens=60)
    r2 = build_index(all_paths, idx, n_shards=4, files_per_group=2)
    assert r2.n_docs == 250  # 200 original (shared prefix) + 50 new rows
    man2 = Manifest(idx)
    # original tokenize groups skipped (same fingerprints)
    for part, seq in tok_seqs.items():
        assert man2._records[("tokenize", part)]["seq"] == seq, part

    # correctness of the merged index vs oracle
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = pa.concat_tables([pq.read_table(p) for p in all_paths])
    oracle = OracleIndex(corpus)
    s = Searcher(idx)
    for q, op in [("the license", "or"), ("def return", "and"), ("rareterm240x", "and")]:
        od, osc = oracle.search(q, k=10, operator=op)
        ed, esc = s.search(q, k=10, operator=op)
        assert (od == ed).all() and (osc == esc).all(), q


def test_rebuild_with_shrunk_input_drops_stale_groups(ray_session,
                                                      tiny_corpus, tmp_path):
    """Regression: rebuilding into an existing index_dir with fewer
    input files left the removed files' tokenized group dirs behind —
    bucket_stats/encode glob them and counted phantom docs (or crashed
    on duplicate row keys when files_per_group changed)."""
    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import Searcher

    d, paths = tiny_corpus
    idx = str(tmp_path / "idx")
    r2 = build_index(paths, idx, n_shards=4, files_per_group=1)
    n_all = r2.n_docs
    # shrink the input set: only the first file remains
    r1 = build_index(paths[:1], idx, n_shards=4, files_per_group=1)
    assert r1.n_docs == pq.read_table(paths[0]).num_rows < n_all
    # the dropped groups' tokenize records no longer count in metrics
    assert r1.metrics["files"] == 1
    s = Searcher(idx)
    assert s.n_docs == r1.n_docs
    # regroup (files_per_group changes the group layout): no duplicate
    # corpus row keys, doc count unchanged
    r2b = build_index(paths, idx, n_shards=4, files_per_group=2)
    assert r2b.n_docs == n_all


def test_postings_files_and_term_dictionary(built_index, read_dictionary):
    """Per shard, the dictionary's (offset, nbytes) ranges tile the
    postings file's blob region with no gap or overlap, they are the
    rows of the file's term section, their dfs sum to the n_postings of
    the bucket's encode record, and the file's norms equal the
    docmap's dl. The shard files and the docmap buckets are all the
    build wrote beside the term dictionary and the global stats."""
    from auctus_ray.index.codec import FOOTER, TermDictionary, read_footer, read_norms
    from auctus_ray.state.manifest import Manifest

    idx = built_index.index_dir
    dictionary = read_dictionary(idx)
    keys = list(zip(dictionary["term"].to_pylist(), dictionary["shard"].to_pylist()))
    assert keys == sorted(keys)
    n_postings = {
        int(r["partition"][len("bucket="):]): r["metrics"]["n_postings"]
        for r in Manifest(idx).records()
        if r["stage"] == "encode" and r["partition"].startswith("bucket=")
    }
    assert len(n_postings) == 8
    assert sorted(os.listdir(os.path.join(idx, "postings"))) == [
        *(f"shard={b:05d}.bin" for b in sorted(n_postings)), "terms.bin"
    ]
    for shard, want_postings in n_postings.items():
        rows = dictionary.filter(pc.equal(dictionary["shard"], shard))
        path = os.path.join(idx, "postings", f"shard={shard:05d}.bin")
        section = TermDictionary(path, FOOTER.size).rows()
        assert [c.to_pylist() for c in rows.columns] == [
            section[0].to_pylist(), *(c.tolist() for c in section[1:])
        ]
        rows = rows.sort_by("offset")
        off = rows["offset"].to_numpy()
        nb = rows["nbytes"].to_numpy()
        assert off[0] == 0 and (nb > 0).all()
        assert (off[1:] == off[:-1] + nb[:-1]).all()
        assert sum(rows["df"].to_pylist()) == want_postings
        fd = os.open(path, os.O_RDONLY)
        try:
            base, norms = read_norms(fd)
            norms_off = read_footer(fd)[0]
        finally:
            os.close(fd)
        assert off[-1] + nb[-1] == norms_off
        dm = pq.read_table(
            os.path.join(idx, "docmap", f"bucket={shard:05d}.parquet"), columns=["doc_id", "dl"]
        )
        assert dm["doc_id"].to_pylist() == list(range(base, base + len(norms)))
        assert norms.tolist() == dm["dl"].to_pylist()


def test_docmap_written_for_point_reads(built_index):
    """Docmap bucket files store the per-row-unique strings plain (no
    dictionary page), and doc_id keeps the statistics that filters and
    deletes push down on. The snippet is only in the bucket's
    stored-fields file, beside it."""
    files = sorted(glob.glob(os.path.join(built_index.index_dir, "docmap", "*.parquet")))
    assert len(files) == 8
    for f in files:
        assert os.path.exists(f[: -len(".parquet")] + ".stored")
        md = pq.ParquetFile(f).metadata
        names = [md.schema.column(i).name for i in range(md.num_columns)]
        assert "snippet" not in names, f
        for rg in range(md.num_row_groups):
            col = {n: md.row_group(rg).column(i) for i, n in enumerate(names)}
            for plain in ("path", "commit", "sha256"):
                assert not col[plain].has_dictionary_page, (f, plain)
            assert col["doc_id"].is_stats_set and col["doc_id"].statistics.has_min_max, f
            assert col["repo"].has_dictionary_page, f


def test_searcher_rejects_another_index_format(built_index, tmp_path):
    """The global stats record the index format. An index that records
    another one (v9, whose postings tails are varints, v10, whose term
    rows are Parquet partials beside the shard files, or v12), or none
    (a build before format v9), fails to open with
    an error naming the directory and both formats, instead of decoding
    its postings and stored fields as this format's and answering with
    wrong scores and rows."""
    import shutil

    from auctus_ray.index.build import INDEX_FORMAT
    from auctus_ray.index.search import Searcher

    assert INDEX_FORMAT == "v11"
    gs_path = os.path.join(built_index.index_dir, "global_stats.parquet")
    gs = pq.read_table(gs_path)
    assert gs["format"].to_pylist() == [INDEX_FORMAT]
    fmt = gs.schema.get_field_index("format")
    for name, old in (("v8", gs.drop_columns(["format"])),
                      *((v, gs.set_column(fmt, "format", pa.array([v]))) for v in ("v9", "v10", "v12"))):
        idx = str(tmp_path / name)
        shutil.copytree(built_index.index_dir, idx)
        pq.write_table(old, os.path.join(idx, "global_stats.parquet"))
        with pytest.raises(ValueError, match=f"{idx} holds index format {name}.* not v11"):
            Searcher(idx)


def _dictionary_corpus(path, contents):
    pq.write_table(pa.table({
        "repo": [f"r/{i % 3}" for i in range(len(contents))],
        "path": [f"f{i}.py" for i in range(len(contents))],
        "commit": ["c0"] * len(contents), "lang": ["python"] * len(contents),
        "content": contents,
    }), path)
    return path


def _block_ranges(blob: bytes, dfs: list[int]) -> list[tuple[int, int]]:
    """(offset, nbytes) of each posting list in ``blob``, lists of
    ``dfs`` postings back to back, found by walking every block: its
    two width bytes, its first docID as a varint, then n - 1 deltas and
    n tf - 1 values packed at those widths."""
    out, at = [], 0
    for df in dfs:
        start = at
        for lo in range(0, df, 128):
            n = min(128, df - lo)
            wd, wt = blob[at], blob[at + 1]
            at += 2
            while blob[at] & 0x80:
                at += 1
            at += 1 + ((n - 1) * wd + 7) // 8 + (n * wt + 7) // 8
        out.append((start, at - start))
    return out


@pytest.mark.parametrize("block_terms", [1, 2, 3, None])
def test_term_dictionary_matches_the_corpus(tmp_path, monkeypatch, block_terms):
    """terms.bin read back through `TermDictionary` holds exactly one
    row per (term, shard) of the corpus, at several block sizes (None:
    the default): its df counts the shard's rows that hold the term
    (each row tokenized, and bucketed by its key), and its byte range is
    the term's blocks in the shard's postings file, found by walking
    the blocks' headers, which end where the norms start. Lookups find
    every row of a present term
    (one over 4 KiB among them) and none of an absent term below the
    first block, between two blocks or above the last. Prefix dfs agree
    with the rows for prefixes that span blocks or equal a whole term,
    as does PrefixExpander. A fresh Searcher's dfs opens no Parquet
    file. An all-empty-content corpus writes a zero-term dictionary."""
    from auctus_ray.index import codec
    from auctus_ray.index.codec import FOOTER, TermDictionary
    from auctus_ray.index.docid import bucket_of, key_hash_array
    from auctus_ray.index.search import PrefixExpander, Searcher
    from auctus_ray.index.segments import add_segment
    from auctus_ray.tokenize import tokenize_array

    if block_terms is not None:
        monkeypatch.setattr(codec, "DICT_BLOCK_TERMS", block_terms)
    long_term = "q" * 5000
    words = ["alpha", "alphabet", "alpine", "beta", "bet", "betamax", "delta",
             "gamma", "gam", "zeta", "zed", "x1", "x2", "x10", long_term]
    contents = [" ".join(words[(i * 7 + j) % len(words)] for j in range(i % 5 + 1))
                for i in range(40)]
    corpus = _dictionary_corpus(str(tmp_path / "c.parquet"), contents)
    idx = add_segment(str(tmp_path / "root"), [corpus], n_shards=4).index_dir

    rows = pq.read_table(corpus)
    shards = bucket_of(key_hash_array(rows["repo"], rows["path"], rows["commit"]), 4)
    dfs: dict[tuple[str, int], int] = {}
    for toks, shard in zip(tokenize_array(rows["content"]).to_pylist(), shards.tolist()):
        for t in set(toks):
            dfs[t, shard] = dfs.get((t, shard), 0) + 1
    ranges = {}
    for shard in sorted({s for _, s in dfs}):
        terms = sorted(t for t, s in dfs if s == shard)
        with open(os.path.join(idx, "postings", f"shard={shard:05d}.bin"), "rb") as f:
            blob = f.read()
        got = _block_ranges(blob, [dfs[t, shard] for t in terms])
        # the last term's blocks end at the norms offset
        assert sum(got[-1]) == FOOTER.unpack_from(blob, len(blob) - FOOTER.size)[0]
        ranges.update(((t, shard), r) for t, r in zip(terms, got))
    want_rows = sorted((t, s, df, *ranges[t, s]) for (t, s), df in dfs.items())
    vocab = sorted({t for t, _ in dfs})
    assert long_term in vocab

    d = TermDictionary(os.path.join(idx, "postings", "terms.bin"))
    per_block = block_terms or codec.DICT_BLOCK_TERMS
    assert d.n_terms == len(vocab)
    assert d.n_blocks == -(-len(vocab) // per_block)
    assert d.first_terms == vocab[::per_block]
    terms, *cols = d.rows()
    assert list(zip(terms.to_pylist(), *(c.tolist() for c in cols))) == want_rows

    # absent terms: below the first block, just after every term (so
    # between blocks whenever a block ends there), above the last
    absent = ["0", *(t + "!" for t in vocab), "~"]
    query = sorted(set(vocab) | set(absent))
    j, shard, df, off, nb = d.lookup(query, d.blocks)
    assert sorted(zip([query[i] for i in j.tolist()], shard.tolist(), df.tolist(),
                      off.tolist(), nb.tolist())) == want_rows

    def want_dfs(prefix):
        out = {}
        for t, _, df, _, _ in want_rows:
            if t.startswith(prefix):
                out[t] = out.get(t, 0) + df
        return out

    prefixes = {"", "a", "al", "alp", "alpha", "b", "bet", "g", "x", "x1", "z", "q",
                "0", "~", "alphabets", *vocab}
    for prefix in sorted(prefixes):
        assert d.prefix_dfs(prefix, d.blocks) == want_dfs(prefix), prefix

    s = Searcher(idx)
    for prefix in ("al", "bet", "x1", "alpha"):
        assert PrefixExpander(s).expand(prefix) == sorted(want_dfs(prefix))

    fresh = Searcher(idx)
    opened = []
    real_file, real_read = pq.ParquetFile, pq.read_table
    monkeypatch.setattr(pq, "ParquetFile", lambda *a, **k: opened.append(a) or real_file(*a, **k))
    monkeypatch.setattr(pq, "read_table", lambda *a, **k: opened.append(a) or real_read(*a, **k))
    dfs = fresh.dfs(query)
    assert opened == []
    monkeypatch.undo()
    assert dfs == {t: want_dfs(t).get(t, 0) for t in query}

    empty = add_segment(
        str(tmp_path / "empty_root"),
        [_dictionary_corpus(str(tmp_path / "e.parquet"), ["", " ", ""])], n_shards=2,
    ).index_dir
    d = TermDictionary(os.path.join(empty, "postings", "terms.bin"))
    assert (d.n_terms, d.n_blocks, d.first_terms) == (0, 0, [])
    assert all(a.size == 0 for a in d.lookup(["a", "zz"], d.blocks))
    assert d.prefix_dfs("", d.blocks) == {} and d.prefix_dfs("a", d.blocks) == {}
    s = Searcher(empty)
    assert s.dfs(["a"]) == {"a": 0} and s.search("a", k=5)[0].size == 0
    assert PrefixExpander(s).expand("a") == []


@pytest.mark.parametrize("corpus", ["tiny_corpus", "small_corpus"])
def test_tokenize_batch_byte_path_identity(corpus, request, monkeypatch):
    """tokenize_batch gives the same table with the byte tokenizer as with
    every row forced through the regex chain, and its (terms, tfs) are
    each row's distinct tokens, in order of first appearance in the
    batch, with their counts."""
    from collections import Counter

    from auctus_ray import tokenize as tokenize_mod
    from auctus_ray.index.build import tokenize_batch

    _, paths = request.getfixturevalue(corpus)
    corpus_table = pa.concat_tables([pq.read_table(p) for p in paths])
    batches = [corpus_table.slice(i, 512) for i in range(0, corpus_table.num_rows, 512)]
    for analyzer in ("code", "simple"):
        fast = [tokenize_batch(b, analyzer=analyzer, n_buckets=8) for b in batches]
        with monkeypatch.context() as m:
            m.setattr(tokenize_mod, "_split_tokens", tokenize_mod._regex_tokens)
            slow = [tokenize_batch(b, analyzer=analyzer, n_buckets=8) for b in batches]
        for b, f, s in zip(batches, fast, slow):
            assert f.equals(s)
            toks = tokenize_mod.tokenize_array(b["content"], analyzer).to_pylist()
            first = {}
            for row in toks:
                for t in row:
                    first.setdefault(t, len(first))
            for row, terms, tfs, dl in zip(toks, f["terms"].to_pylist(),
                                           f["tfs"].to_pylist(), f["dl"].to_pylist()):
                counts = Counter(row)
                assert terms == sorted(counts, key=first.__getitem__)
                assert tfs == [counts[t] for t in terms]
                assert dl == len(row)


def test_build_job_shape_and_task_metrics(ray_session, built_index, small_corpus,
                                          tmp_path, capsys):
    """Tokenize runs one task per plan_tokenize_tasks run, at most one
    per CPU slot, each writing at most one shuffle file per bucket, and
    the files it reports written are the files on disk. The index files
    do not depend on the grouping: files_per_group of 1, 2 (the shared
    build) and every file give sha256-identical postings, docmap and
    termstats. The task counts and task seconds reach
    BuildResult.metrics and ``cli stats``."""
    import argparse
    import json

    import ray

    from auctus_ray import cli
    from auctus_ray.index.build import build_index, plan_tokenize_tasks

    _, paths = small_corpus
    cpus = int(ray.cluster_resources()["CPU"])
    want = _index_sha256(built_index.index_dir)
    for fpg in (1, len(paths)):
        idx = str(tmp_path / f"fpg{fpg}")
        res = build_index(paths, idx, n_shards=8, files_per_group=fpg)
        assert _index_sha256(idx) == want, fpg
        groups = [paths[i:i + fpg] for i in range(0, len(paths), fpg)]
        plans = [plan_tokenize_tasks(g, cpus) for g in groups]
        m = res.metrics
        assert m["tokenize_tasks"] == sum(len(p) for p in plans)
        assert all(len(p) <= cpus for p in plans)
        shuffle = glob.glob(os.path.join(idx, "tokenized", "*", "bucket=*", "*.parquet"))
        assert m["tokenize_files_written"] == len(shuffle)
        for gi in range(len(groups)):
            per_group = glob.glob(os.path.join(idx, "tokenized", f"group-{gi:04d}",
                                               "bucket=*", "*.parquet"))
            assert len(per_group) <= len(plans[gi]) * 8
        assert 1 <= m["encode_tasks"] <= min(8, cpus)
        assert m["tokenize_task_seconds"] > 0 and m["encode_task_seconds"] > 0
        # no temporary file of a task attempt is left behind
        assert not glob.glob(os.path.join(idx, "tokenized", "**", "*.tmp"), recursive=True)

    assert cli.cmd_stats(argparse.Namespace(index=idx)) == 0
    shown = json.loads(capsys.readouterr().out)["build_metrics"]
    for key in ("tokenize_tasks", "tokenize_task_seconds", "tokenize_files_written",
                "encode_tasks", "encode_task_seconds", "tokenize_seconds",
                "encode_seconds"):
        assert key in shown, key


def test_plan_tokenize_tasks_cuts_row_groups_by_rows(tmp_path):
    """The tokenize plan cuts a group's non-empty row groups, in input
    order, into at most ``slots`` runs of about equal rows: one file of
    many row groups spreads over every slot, a group of one large file
    and small ones does not put the large file in one task, and empty
    files get no task."""
    from auctus_ray.index.build import plan_tokenize_tasks

    def write(name, n, rg):
        p = str(tmp_path / name)
        pq.write_table(pa.table({"x": list(range(n))}, schema=pa.schema([("x", pa.int64())])),
                       p, row_group_size=rg)
        return p

    big = write("big.parquet", 800, 100)
    smalls = [write(f"s{i}.parquet", 100, 100) for i in range(3)]
    empty = write("empty.parquet", 0, 100)

    def units(plan):
        return [list(zip(t["path"].to_pylist(), t["row_group"].to_pylist())) for t in plan]

    one = units(plan_tokenize_tasks([big], 4))
    assert one == [[(big, 2 * k), (big, 2 * k + 1)] for k in range(4)]
    assert units(plan_tokenize_tasks([big], 1)) == [[(big, i) for i in range(8)]]
    assert units(plan_tokenize_tasks([big], 64)) == [[(big, i)] for i in range(8)]
    skew = units(plan_tokenize_tasks([empty, big, *smalls], 4))
    assert len(skew) == 4
    assert sum(skew, []) == [(big, i) for i in range(8)] + [(s, 0) for s in smalls]
    assert max(len(t) for t in skew) == 3  # 1100 rows over 4 slots
    assert plan_tokenize_tasks([empty], 4) == []


@pytest.mark.parametrize("flush_bytes,row_groups", [(1, 3), (64 << 20, 1)])
def test_tokenize_task_streams_by_flush_bytes(ray_session, tmp_path, monkeypatch,
                                              flush_bytes, row_groups):
    """The streaming bound: a tokenize task writes out its tokenized rows
    whenever SHUFFLE_FLUSH_BYTES of them are held, each write one row
    group of every bucket's shuffle file, so it never holds much more
    than that; a task under the bound writes one row group per file.
    Either way its files hold the rows of tokenizing each input batch,
    in input order."""
    from auctus_ray.index import build
    from auctus_ray.index.build import (
        index_read_columns,
        plan_tokenize_tasks,
        tokenize_batch,
        tokenize_row_groups,
    )

    monkeypatch.setattr(build, "SHUFFLE_FLUSH_BYTES", flush_bytes)
    t = pa.table({
        "repo": [f"r{i % 3}" for i in range(90)], "path": [f"p{i}" for i in range(90)],
        "commit": ["c"] * 90, "lang": ["py"] * 90,
        "content": [f"def f{i}(): return {i % 7}" for i in range(90)],
    })
    src = str(tmp_path / "in.parquet")
    pq.write_table(t, src, row_group_size=30)
    (plan,) = plan_tokenize_tasks([src], 1)
    out = str(tmp_path / "out")
    columns = index_read_columns(None, "content", ())
    counts = tokenize_row_groups(plan, out_dir=out, columns=columns, analyzer="code", n_buckets=2)
    whole = pa.concat_tables([tokenize_batch(t.slice(i, 30), analyzer="code", n_buckets=2)
                              for i in range(0, 90, 30)])
    assert sorted(counts["bucket"].to_pylist()) == [0, 1]
    assert sum(counts["cnt"].to_pylist()) == 90
    for b, name in zip(counts["bucket"].to_pylist(), counts["file"].to_pylist()):
        f = pq.ParquetFile(os.path.join(out, name))
        assert f.metadata.num_row_groups == row_groups
        rows = whole.filter(pc.equal(whole["bucket"], b)).drop_columns(["bucket"])
        assert f.read().to_pylist() == rows.to_pylist()


def test_write_buckets_streams_one_row_group_per_table(tmp_path):
    """The shuffle writer streams: each table it is given becomes one
    row group of its buckets' files (one file per bucket, never one per
    table), so a tokenize task holds one table's rows at a time; the
    files hold the rows in input order and their counts add up."""
    from auctus_ray.index.build import bucket_counts, tokenize_batch, write_buckets

    t = pa.table({
        "repo": [f"r{i % 3}" for i in range(60)], "path": [f"p{i}" for i in range(60)],
        "commit": ["c"] * 60, "lang": ["py"] * 60,
        "content": [f"def f{i}(): return {i % 7}" for i in range(60)],
    })
    parts = [tokenize_batch(t.slice(i, 20), analyzer="code", n_buckets=2)
             for i in range(0, 60, 20)]
    out = str(tmp_path / "out")
    counts = write_buckets(iter(parts), out)
    whole = pa.concat_tables(parts)
    assert counts.drop_columns(["file"]).equals(bucket_counts(whole).drop_columns(["file"]))
    assert sorted(counts["bucket"].to_pylist()) == [0, 1]
    for b, name in zip(counts["bucket"].to_pylist(), counts["file"].to_pylist()):
        f = pq.ParquetFile(os.path.join(out, name))
        holding = [p for p in parts if b in p["bucket"].to_pylist()]
        assert f.metadata.num_row_groups == len(holding)
        rows = whole.filter(pc.equal(whole["bucket"], b)).drop_columns(["bucket"])
        assert f.read().to_pylist() == rows.to_pylist()
    assert len(glob.glob(os.path.join(out, "bucket=*", "*"))) == 2


_KEY_PART = st.text(alphabet="ab/", max_size=3)


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.tuples(_KEY_PART, _KEY_PART, _KEY_PART), min_size=1, max_size=30),
    n_hashes=st.one_of(st.none(), st.integers(1, 4)),
)
def test_assign_doc_ids_group_property(keys, n_hashes):
    """The per-bucket docID rank equals the dense rank by (key_hash,
    repo, path, commit): assign_doc_ids_local's for the real hashes,
    and an object-array lexsort's when the hashes are forced into a
    few equal values (``n_hashes``). A repeated key raises the error
    naming the first repeat in that order."""
    from auctus_ray.index.build import _assign_doc_ids_group
    from auctus_ray.index.docid import key_hash_array

    repo, path, commit = (list(c) for c in zip(*keys))
    t = pa.table({"repo": repo, "path": path, "commit": commit})
    kh = key_hash_array(t["repo"], t["path"], t["commit"])
    if n_hashes is not None:
        kh = kh % n_hashes
    group = t.append_column("key_hash", pa.array(kh))
    offsets = np.array([0, 7], np.int64)
    ranked = sorted(zip(kh.tolist(), repo, path, commit))
    dups = [a for a, b in zip(ranked, ranked[1:]) if a == b]
    if dups:
        _, r, p, c = dups[0]
        with pytest.raises(ValueError, match="duplicate corpus row key") as e:
            _assign_doc_ids_group(group, offsets, bucket=1)
        assert str(e.value) == f"duplicate corpus row key (repo,path,commit)=({r},{p},{c})"
        return
    got = _assign_doc_ids_group(group, offsets, bucket=1)
    order = np.lexsort((np.asarray(commit, object), np.asarray(path, object),
                        np.asarray(repo, object), kh))
    want = np.empty(len(kh), np.int64)
    want[order] = 7 + np.arange(len(kh))
    assert (got == want).all()
    if n_hashes is None:
        assert (got == 7 + assign_doc_ids_local(t)).all()
