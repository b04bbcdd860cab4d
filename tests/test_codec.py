"""Posting codec: varint round-trips, block structure, the shard
postings file."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctus_ray.index.codec import (
    BLOCK_SIZE,
    FOOTER,
    block_counts,
    decode_blocks_concat,
    encode_blocks,
    encode_shard_postings,
    read_norms,
    shard_file_bytes,
    varint_decode,
    varint_encode,
)


def test_varint_roundtrip_edges():
    vals = np.array(
        [0, 1, 127, 128, 129, 2**14 - 1, 2**14, 2**32, 2**63 - 1, 2**64 - 1],
        dtype=np.uint64,
    )
    buf = varint_encode(vals)
    out = varint_decode(buf, len(vals))
    assert (out == vals).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=500))
def test_varint_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.uint64)
    assert (varint_decode(varint_encode(vals), len(vals)) == vals).all()


def test_encode_blocks_roundtrip():
    rng = np.random.default_rng(7)
    n = 1000
    doc_ids = np.sort(rng.choice(10**7, n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 50, n).astype(np.uint64)
    blocks = encode_blocks(doc_ids, tfs)
    assert len(blocks["block_id"]) == (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    got_docs, got_tfs = [], []
    for blob, bn in zip(blocks["blob"], blocks["n"]):
        d, t = decode_blocks_concat([blob], [bn])
        got_docs.append(d); got_tfs.append(t)
    assert (np.concatenate(got_docs) == doc_ids).all()
    assert (np.concatenate(got_tfs) == tfs).all()


def test_empty_postings():
    out = encode_blocks(np.empty(0, np.uint64), np.empty(0, np.uint64))
    assert out["block_id"] == []
    enc = encode_shard_postings(
        np.empty(0, np.int64), np.empty(0, np.uint64), np.empty(0, np.uint64)
    )
    assert enc["buf"] == b"" and enc["t_df"].size == 0


def _roundtrip_concat(df, seed, wide=False):
    """One term's postings through encode_shard_postings, decoded from
    the single concatenated buffer by decode_blocks_concat, and its
    blocks equal to encode_blocks'. ``wide`` spreads the docIDs and tfs
    so that values of 2^21 and more (3 varint bytes and up) occur; a
    buffer cut short by one byte fails to decode."""
    rng = np.random.default_rng(seed)
    span = 2**40 if wide else 4 * df + 10
    doc_ids = np.sort(rng.choice(span, df, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 2**30 if wide else 300, df).astype(np.uint64)
    enc = encode_shard_postings(np.zeros(df, np.int64), doc_ids, tfs)
    ns = block_counts(df)
    assert ns.tolist() == encode_blocks(doc_ids, tfs)["n"]
    assert enc["buf"] == b"".join(encode_blocks(doc_ids, tfs)["blob"])
    assert enc["t_df"].tolist() == [df]
    assert (enc["t_offset"].tolist(), enc["t_nbytes"].tolist()) == ([0], [len(enc["buf"])])
    d, t = decode_blocks_concat([enc["buf"]], ns)
    assert (d == doc_ids).all() and (t == tfs).all()
    with pytest.raises(ValueError, match="varint buffer truncated"):
        decode_blocks_concat([enc["buf"][:-1]], ns)


@pytest.mark.parametrize("df", [1, 127, 128, 129, 256, 257])
def test_decode_blocks_concat_block_edges(df):
    _roundtrip_concat(df, seed=df)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=1500), st.integers(0, 2**32 - 1), st.booleans())
def test_decode_blocks_concat_property(df, seed, wide):
    _roundtrip_concat(df, seed, wide)


def test_shard_file_norms_and_term_ranges(tmp_path):
    """Several terms in one shard buffer: each term's (offset, nbytes)
    range decodes to its own postings, the ranges tile the blob region,
    and the norms and footer read back from the file."""
    rng = np.random.default_rng(3)
    base, n_docs = 1000, 400
    dfs = [1, 128, 129, 300, 7]
    t_codes, docs, tfs = [], [], []
    for code, df in enumerate(dfs):
        ids = np.sort(rng.choice(n_docs, df, replace=False)) + base
        t_codes.append(np.full(df, code)); docs.append(ids)
        tfs.append(rng.integers(1, 20, df))
    enc = encode_shard_postings(
        np.concatenate(t_codes), np.concatenate(docs).astype(np.uint64),
        np.concatenate(tfs).astype(np.uint64),
    )
    assert enc["t_offset"][0] == 0
    assert (enc["t_offset"][1:] == enc["t_offset"][:-1] + enc["t_nbytes"][:-1]).all()
    assert enc["t_offset"][-1] + enc["t_nbytes"][-1] == len(enc["buf"])
    for i, df in enumerate(dfs):
        off, nb = int(enc["t_offset"][i]), int(enc["t_nbytes"][i])
        d, t = decode_blocks_concat([enc["buf"][off : off + nb]], block_counts(df))
        assert (d == docs[i]).all() and (t == tfs[i]).all()
    dls = rng.integers(0, 2**31, n_docs)
    path = tmp_path / "shard=00000.bin"
    path.write_bytes(shard_file_bytes(enc["buf"], dls, base))
    fd = os.open(path, os.O_RDONLY)
    try:
        got_base, norms = read_norms(fd)
    finally:
        os.close(fd)
    assert got_base == base and (norms == dls).all()
    assert path.stat().st_size == len(enc["buf"]) + 4 * n_docs + FOOTER.size


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from([1, 127, 128, 129, 300]), min_size=2, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_decode_blocks_concat_several_lists(dfs, seed):
    """One decode_blocks_concat over several posting lists' blocks, back
    to back, equals each list decoded alone: delta chains restart at
    every block, so a list's first block needs nothing of the list
    before it. Lists sit at docIDs from 0 up to past 2**32."""
    rng = np.random.default_rng(seed)
    lists, blobs, ns = [], [], []
    for df in dfs:
        base = int(rng.choice([0, 2**32 - 200, 2**32 + 7, 2**40]))
        ids = np.sort(rng.choice(50_000, df, replace=False)).astype(np.uint64)
        ids += np.uint64(base)
        tfs = rng.integers(1, 2**20, df).astype(np.uint64)
        enc = encode_shard_postings(np.zeros(df, np.int64), ids, tfs)
        lists.append((ids, tfs))
        blobs.append(enc["buf"])
        ns.append(block_counts(df))
    d, t = decode_blocks_concat(blobs, np.concatenate(ns))
    at = 0
    for (ids, tfs), blob, n in zip(lists, blobs, ns):
        one_d, one_t = decode_blocks_concat([blob], n)
        assert (one_d == ids).all() and (one_t == tfs).all()
        assert (d[at : at + ids.size] == one_d).all()
        assert (t[at : at + ids.size] == one_t).all()
        at += ids.size
    assert at == d.size == t.size
