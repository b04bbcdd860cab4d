"""Posting codec: varint round-trips, bit-packed block structure, the
shard postings file, and the stored-fields file."""

import os
from itertools import accumulate

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctus_ray.index.codec import (
    BLOCK_SIZE,
    FOOTER,
    STORED_CHUNK_DOCS,
    STORED_COLUMNS,
    STORED_FOOTER,
    DICT_FOOTER,
    TermDictionary,
    block_counts,
    decode_blocks_concat,
    dictionary_file_bytes,
    encode_shard_postings,
    read_norms,
    read_stored,
    shard_file_bytes,
    stored_file_bytes,
    take_stored,
    varint_decode,
    varint_encode,
)


def _varint(x: int) -> bytes:
    out = bytearray()
    while x >= 0x80:
        out.append(x & 0x7F | 0x80)
        x >>= 7
    out.append(x)
    return bytes(out)


def _packed(values: list[int], w: int) -> bytes:
    """``values`` at ``w`` bits each, value i at bits [i*w, (i+1)*w)
    from the low bit of the first byte, padded to a byte."""
    acc = 0
    for i, v in enumerate(values):
        acc |= v << (i * w)
    return acc.to_bytes((len(values) * w + 7) // 8, "little")


def encode_blocks(doc_ids, tfs) -> dict[str, list]:
    """The reference for `encode_shard_postings`: one sorted posting
    list's blocks, block by block in plain Python. Every block, the
    last, shorter one too, is its delta width and tf - 1 width (one
    byte each), its first docID as a varint, then its n - 1 deltas and
    its n tf - 1 values bit-packed at those widths, each run padded to
    a byte. Returns equal-length lists (one element per block):
    block_id, n, blob. ``doc_ids`` must be strictly increasing."""
    ids, tf = [int(x) for x in doc_ids], [int(x) for x in tfs]
    out: dict[str, list] = {"block_id": [], "n": [], "blob": []}
    for bi, s in enumerate(range(0, len(ids), BLOCK_SIZE)):
        d, t = ids[s:s + BLOCK_SIZE], tf[s:s + BLOCK_SIZE]
        deltas = [b - a for a, b in zip(d, d[1:])]
        wd = max(deltas, default=0).bit_length()
        wt = max(x - 1 for x in t).bit_length()
        blob = bytes([wd, wt]) + _varint(d[0]) + _packed(deltas, wd) + _packed(
            [x - 1 for x in t], wt
        )
        out["block_id"].append(bi)
        out["n"].append(len(d))
        out["blob"].append(blob)
    return out


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
    so that values of 2^21 and more (3 varint bytes and up, packed
    widths past 32 bits) occur; a buffer cut short by one byte fails to
    decode."""
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
    with pytest.raises(ValueError, match="truncated"):
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
    and the norms, the term section and the footer read back from the
    file."""
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
    terms = pa.array([f"t{code}" for code in range(len(dfs))])
    section = dictionary_file_bytes(
        terms, np.zeros(len(dfs)), enc["t_df"], enc["t_offset"], enc["t_nbytes"]
    )
    path = tmp_path / "shard=00000.bin"
    path.write_bytes(shard_file_bytes(enc["buf"], dls, base, section))
    fd = os.open(path, os.O_RDONLY)
    try:
        got_base, norms = read_norms(fd)
    finally:
        os.close(fd)
    assert got_base == base and (norms == dls).all()
    assert path.stat().st_size == len(enc["buf"]) + 4 * n_docs + len(section) + FOOTER.size
    got = TermDictionary(str(path), FOOTER.size).rows()
    assert got[0].equals(terms)
    for col, want in zip(got[1:], ([0] * len(dfs), dfs, enc["t_offset"], enc["t_nbytes"])):
        assert col.tolist() == list(want)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(1, 40), max_size=60), min_size=1, max_size=12),
    st.integers(0, 2**20),
    st.integers(1, 5),
)
def test_shard_term_section_round_trip(tmp_path_factory, docs, shard, block_terms):
    """A shard postings file of random docs (term ids per doc; a doc
    may have no tokens, and every doc may have none) carries its term
    rows between the norms and the footer: read back, the section
    holds every (term, df, offset, nbytes) row the encoder gave, in
    term order with the file's shard id, and each row's byte range
    decodes to the term's postings. A shard without postings holds
    zero rows, the empty dictionary of DICT_FOOTER.size bytes. Blocks
    of 1 to 5 terms put the rows in several dictionary blocks."""
    import auctus_ray.index.codec as codec

    real = codec.DICT_BLOCK_TERMS
    codec.DICT_BLOCK_TERMS = block_terms
    try:
        pairs = sorted({(t, d) for d, ts in enumerate(docs) for t in ts})
        t_codes = np.array([t for t, _ in pairs], np.int64)
        doc_ids = np.array([d for _, d in pairs], np.uint64)
        tfs = (doc_ids % 5 + 1).astype(np.uint64)
        enc = encode_shard_postings(t_codes, doc_ids, tfs)
        vocab = pa.array([f"w{t:03d}" for t in enc["t_term_code"].tolist()], pa.string())
        section = dictionary_file_bytes(
            vocab, np.full(len(vocab), shard), enc["t_df"], enc["t_offset"], enc["t_nbytes"]
        )
    finally:
        codec.DICT_BLOCK_TERMS = real
    if not pairs:
        assert len(section) == DICT_FOOTER.size == 48
    path = tmp_path_factory.mktemp("shard") / "shard=00000.bin"
    path.write_bytes(shard_file_bytes(enc["buf"], np.ones(len(docs)), 0, section))
    term, shards, df, off, nb = TermDictionary(str(path), FOOTER.size).rows()
    assert term.to_pylist() == vocab.to_pylist() == sorted(set(vocab.to_pylist()))
    assert shards.tolist() == [shard] * len(vocab)
    assert df.tolist() == enc["t_df"].tolist()
    assert off.tolist() == enc["t_offset"].tolist()
    assert nb.tolist() == enc["t_nbytes"].tolist()
    blob = path.read_bytes()
    for i, code in enumerate(enc["t_term_code"].tolist()):
        d, t = decode_blocks_concat([blob[off[i]:off[i] + nb[i]]], block_counts(df[i]))
        want = doc_ids[t_codes == code]
        assert (d == want).all() and (t == want % 5 + 1).all()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 700), min_size=1, max_size=60), st.integers(0, 2**32 - 1))
def test_decode_a_batch_of_mixed_lists(dfs, seed):
    """Many lists of mixed lengths (so blocks of many lengths), docIDs
    past 2**32 and tfs of random widths: encoded as one shard they are
    the reference encoder's bytes, and the blocks, joined, decode in one
    batch to every list's postings in order."""
    rng = np.random.default_rng(seed)
    blobs, want_d, want_t = [], [], []
    for df in dfs:
        ids = np.sort(rng.choice(2**33, df, replace=False)).astype(np.uint64)
        tf = rng.integers(1, 2**rng.integers(1, 20), df).astype(np.uint64)
        blobs += encode_blocks(ids, tf)["blob"]
        want_d.append(ids); want_t.append(tf)
    codes = np.repeat(np.arange(len(dfs)), dfs)
    enc = encode_shard_postings(codes, np.concatenate(want_d), np.concatenate(want_t))
    assert enc["buf"] == b"".join(blobs)
    d, t = decode_blocks_concat(blobs, block_counts(dfs))
    assert (d == np.concatenate(want_d)).all() and (t == np.concatenate(want_t)).all()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from([1, 127, 128, 129, 300]), min_size=2, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_decode_blocks_concat_several_lists(dfs, seed):
    """One decode_blocks_concat over several posting lists' blocks, back
    to back, equals each list decoded alone: delta chains restart at
    every block, so a list's first block needs nothing of the list
    before it, and a block's length follows from its header, so the
    lists joined into one blob decode the same. Lists sit at docIDs
    from 0 up to past 2**32."""
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
    joined_d, joined_t = decode_blocks_concat([b"".join(blobs)], np.concatenate(ns))
    assert (joined_d == d).all() and (joined_t == t).all()
    at = 0
    for (ids, tfs), blob, n in zip(lists, blobs, ns):
        one_d, one_t = decode_blocks_concat([blob], n)
        assert (one_d == ids).all() and (one_t == tfs).all()
        assert (d[at : at + ids.size] == one_d).all()
        assert (t[at : at + ids.size] == one_t).all()
        at += ids.size
    assert at == d.size == t.size


@pytest.mark.parametrize("w", range(65))
def test_pack_unpack_every_width(w):
    """Blocks whose docID deltas and tf - 1 values are packed at width
    ``w``, from 0 to 64 bits, encode to the reference's bytes and decode
    to their postings: the lists in one batch, each alone, and in
    reverse list order. Each list is one block of 1 to BLOCK_SIZE
    postings from a first docID of up to 3 varint bytes, so runs start
    at many bytes and bits. Every block but a one-posting one (delta
    width 0) holds one delta of exactly ``w`` bits and the rest of up to
    55; every tf - 1 takes any of ``w`` bits, one of them the widest."""
    rng = np.random.default_rng(w)
    lens = (1, 1, 1) if w == 0 else (BLOCK_SIZE, 2, 1, BLOCK_SIZE - 1, 7)
    ids, tfs = [], []
    for n in lens:
        first = int(rng.integers(0, 2**20))
        small = rng.integers(1, min(2**w, 2**55), n - 1, dtype=np.uint64, endpoint=False)
        deltas = [int(x) for x in small]
        if n > 1:
            k = int(rng.integers(0, n - 1))
            deltas[k] = min(2**w - 1, 2**64 - 1 - first - (sum(deltas) - deltas[k]))
            assert deltas[k].bit_length() == w
        ids.append(np.array(list(accumulate([first] + deltas)), np.uint64))
        tf1 = rng.integers(0, min(2**w, 2**64 - 1), n, dtype=np.uint64, endpoint=False)
        tf1[rng.integers(0, n)] = min(2**w - 1, 2**64 - 2)
        tfs.append(tf1 + np.uint64(1))
    enc = encode_shard_postings(np.repeat(np.arange(len(lens)), lens),
                                np.concatenate(ids), np.concatenate(tfs))
    ref = [encode_blocks(d, t)["blob"][0] for d, t in zip(ids, tfs)]
    assert enc["buf"] == b"".join(ref)
    assert [(b[0], b[1]) for b in ref] == [(w if n > 1 else 0, w) for n in lens]
    d, t = decode_blocks_concat([enc["buf"]], block_counts(lens))
    assert (d == np.concatenate(ids)).all() and (t == np.concatenate(tfs)).all()
    d, t = decode_blocks_concat(ref[::-1], block_counts(lens[::-1]))
    assert (d == np.concatenate(ids[::-1])).all() and (t == np.concatenate(tfs[::-1])).all()
    for blob, n, want_d, want_t in zip(ref, lens, ids, tfs):
        d, t = decode_blocks_concat([blob], [n])
        assert (d == want_d).all() and (t == want_t).all()


@pytest.mark.parametrize("r", range(8))
def test_zero_width_last_run_ends_the_buffer(r):
    """A shard buffer of ``r`` bytes past a multiple of 8 whose last
    block's tf run has width 0 (every tf 1), so that empty run starts at
    the buffer's very end: it encodes to the reference's bytes and
    decodes to its postings, also when another block's tf - 1 needs 64
    bits (each value then takes a second load). Last blocks of 1 posting
    (both runs empty), 2 and 5, behind a list of 1 to 40 postings."""
    rng = np.random.default_rng(r)
    for n1 in (1, 2, 5):
        for wide in (False, True):
            for n0 in range(1, 41):
                ids0 = np.sort(rng.choice(10 * n0, n0, replace=False)).astype(np.uint64)
                tfs0 = rng.integers(1, 300, n0).astype(np.uint64)
                if wide:
                    tfs0[-1] = np.uint64(2**63 + 5)
                ids1 = np.uint64(5) + np.arange(n1, dtype=np.uint64) * np.uint64(200)
                tfs1 = np.ones(n1, np.uint64)
                ref = encode_blocks(ids0, tfs0)["blob"] + encode_blocks(ids1, tfs1)["blob"]
                if len(b"".join(ref)) % 8 == r:
                    break
            else:
                raise AssertionError(f"no buffer of {r} bytes mod 8 before a block of {n1}")
            assert ref[-1][1] == 0
            enc = encode_shard_postings(
                np.repeat([0, 1], [n0, n1]), np.concatenate([ids0, ids1]),
                np.concatenate([tfs0, tfs1]),
            )
            assert enc["buf"] == b"".join(ref)
            d, t = decode_blocks_concat([enc["buf"]], block_counts([n0, n1]))
            assert (d == np.concatenate([ids0, ids1])).all()
            assert (t == np.concatenate([tfs0, tfs1])).all()


@pytest.mark.parametrize("w", range(33))
def test_full_block_widths(w):
    """A block of 1, 2, 63, 127 or 128 postings whose largest docID
    delta and largest tf - 1 need exactly ``w`` bits (deltas need at
    least 1; a block of one posting has none, width 0) heads with those
    widths, has the reference's bytes, runs of ((n - 1) * wd + 7) // 8
    and (n * wt + 7) // 8 bytes, and decodes to its postings; tf - 1 at
    width 0 is every tf 1."""
    rng = np.random.default_rng(100 + w)
    for n in (1, 2, 63, 127, BLOCK_SIZE):
        wd = max(w, 1) if n > 1 else 0
        deltas = rng.integers(1, 2**max(wd, 1), n - 1, dtype=np.uint64, endpoint=False)
        if n > 1:
            deltas[0] = 2**wd - 1
        ids = np.concatenate([[np.uint64(7)], np.uint64(7) + np.cumsum(deltas, dtype=np.uint64)])
        tfs = rng.integers(0, 2**w, n, dtype=np.uint64) + np.uint64(1)
        tfs[-1] = np.uint64(2**w)
        enc = encode_shard_postings(np.zeros(n, np.int64), ids, tfs)
        assert enc["buf"][:2] == bytes([wd, w])
        assert enc["buf"] == encode_blocks(ids, tfs)["blob"][0]
        assert len(enc["buf"]) == 2 + 1 + ((n - 1) * wd + 7) // 8 + (n * w + 7) // 8
        d, t = decode_blocks_concat([enc["buf"]], [n])
        assert (d == ids).all() and (t == tfs).all()


@pytest.mark.parametrize("df", [1, 127, 128, 129, 256])
@pytest.mark.parametrize("first", [0, 2**32 + 5])
def test_every_tf_one_packs_tf_at_width_zero(df, first):
    """A list whose every tf is 1 spends no bytes on the tf run of any
    block, its tail too (width 0): each block is its header, its first
    docID and its packed deltas. Lists of one posting, of one block
    short of, exactly, one past and two full blocks, from docID 0 and
    from past 2**32, decode to themselves and match the reference."""
    rng = np.random.default_rng(df)
    ids = np.uint64(first) + np.sort(rng.choice(50 * df, df, replace=False)).astype(np.uint64)
    tfs = np.ones(df, np.uint64)
    enc = encode_shard_postings(np.zeros(df, np.int64), ids, tfs)
    ref = encode_blocks(ids, tfs)
    assert enc["buf"] == b"".join(ref["blob"])
    assert ref["n"] == block_counts(df).tolist()
    for i, (n, blob) in enumerate(zip(ref["n"], ref["blob"])):
        assert blob[1] == 0
        head = _varint(int(ids[i * BLOCK_SIZE]))
        assert len(blob) == 2 + len(head) + ((n - 1) * blob[0] + 7) // 8
    d, t = decode_blocks_concat([enc["buf"]], block_counts(df))
    assert (d == ids).all() and (t == tfs).all()


def test_last_block_at_width_64_ends_the_buffer():
    """A list whose last block is one posting with both runs at width
    64, the widest, at the very end of the buffer, decodes: each
    value's two 8-byte loads stay inside the padded buffer, however
    close to its end the value starts.
    The encoder writes width 0 for a one-posting block's empty delta
    run; a header that declares 64 there holds the same bytes."""
    ids = np.concatenate([
        np.arange(BLOCK_SIZE - 1, dtype=np.uint64),
        np.array([2**63 + 11, 2**64 - 2], np.uint64),
    ])
    tfs = np.ones(BLOCK_SIZE + 1, np.uint64)
    tfs[-1] = np.uint64(2**63 + 2)  # tf - 1 needs 64 bits
    enc = encode_shard_postings(np.zeros(ids.size, np.int64), ids, tfs)
    blocks = encode_blocks(ids, tfs)
    assert enc["buf"] == b"".join(blocks["blob"])
    last = blocks["blob"][-1]
    assert last == bytes([0, 64]) + _varint(2**64 - 2) + (2**63 + 1).to_bytes(8, "little")
    wide = enc["buf"][:-len(last)] + bytes([64]) + last[1:]
    for buf in (enc["buf"], wide, last):
        n = [1] if buf is last else [BLOCK_SIZE, 1]
        d, t = decode_blocks_concat([buf], n)
        assert (d == ids[-len(d):]).all() and (t == tfs[-len(t):]).all()


def test_decode_refuses_a_cut_or_padded_buffer():
    """A buffer cut inside a block's run, inside its header, or holding
    a byte past its last block, and a header that declares a width past
    64 bits, raise ValueError instead of decoding to other postings."""
    rng = np.random.default_rng(4)
    df = BLOCK_SIZE + 40
    ids = np.sort(rng.choice(10 * df, df, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 9, df).astype(np.uint64)
    buf = encode_shard_postings(np.zeros(df, np.int64), ids, tfs)["buf"]
    ns = block_counts(df)
    tail = encode_blocks(ids, tfs)["blob"][-1]
    cut_in_tail_run = len(buf) - len(tail) // 2
    for cut in (cut_in_tail_run, len(buf) - len(tail) + 1, len(buf) // 2):
        with pytest.raises(ValueError, match="truncated"):
            decode_blocks_concat([buf[:cut]], ns)
    with pytest.raises(ValueError, match="1 bytes past its last block"):
        decode_blocks_concat([buf, b"\0"], ns)
    with pytest.raises(ValueError):
        decode_blocks_concat([bytes([buf[0], 65]) + buf[2:]], ns)
    # one posting, its tf - 1 run 9 bytes long at the width 65
    with pytest.raises(ValueError, match="width past 64 bits"):
        decode_blocks_concat([bytes([0, 65, 5]) + bytes(9)], [1])


def _stored_columns(n):
    """STORED_COLUMNS of ``n`` rows with nulls, empty strings and
    non-ASCII values (KELVIN SIGN U+212A and LATIN CAPITAL LETTER I WITH
    DOT ABOVE U+0130 among them)."""
    vals = [None, "", "\u212a", "\u0130stanbul", "plain", "\u00e9t\u00e9 \U0001f600", "x" * 300]
    return [
        pa.array([vals[(i * (j + 2) + j) % len(vals)] for i in range(n)], pa.string())
        for j in range(len(STORED_COLUMNS))
    ]


@pytest.mark.parametrize("n", [1, STORED_CHUNK_DOCS, STORED_CHUNK_DOCS + 1, 3 * STORED_CHUNK_DOCS + 7])
def test_stored_fields_round_trip(tmp_path, n):
    """A stored-fields file reads back every value of every column, in
    row order and in any order of chunks and rows: nulls stay null,
    empty strings empty, non-ASCII strings byte-identical. A bucket of
    exactly STORED_CHUNK_DOCS rows is one chunk, one more row two."""
    cols = _stored_columns(n)
    path = str(tmp_path / "bucket=00000.stored")
    with open(path, "wb") as f:
        f.write(stored_file_bytes(cols, 1000))
    index, raws = read_stored(path, n, 1000)
    n_chunks = -(-n // STORED_CHUNK_DOCS)
    assert index.shape == (4, n_chunks) and len(raws) == n_chunks
    assert index[3].tolist() == [1000 + STORED_CHUNK_DOCS * c for c in range(n_chunks)]
    ns = [min(STORED_CHUNK_DOCS, n - STORED_CHUNK_DOCS * c) for c in range(n_chunks)]
    rows = np.arange(n)
    got = take_stored(raws, ns, rows // STORED_CHUNK_DOCS, rows % STORED_CHUNK_DOCS)
    assert all(g.equals(c) for g, c in zip(got, cols))
    # the last chunk alone, then every row in reverse, from chunks read
    # through a kept index
    last = n_chunks - 1
    _, (raw,) = read_stored(path, n, 1000, [last], index)
    tail = rows[rows // STORED_CHUNK_DOCS == last]
    got = take_stored([raw], [ns[last]], np.zeros(tail.size, np.int64), tail % STORED_CHUNK_DOCS)
    assert all(g.equals(c.slice(int(tail[0]))) for g, c in zip(got, cols))
    rev = rows[::-1]
    got = take_stored(raws, ns, rev // STORED_CHUNK_DOCS, rev % STORED_CHUNK_DOCS)
    assert all(g.equals(c.take(pa.array(rev))) for g, c in zip(got, cols))


def test_stored_fields_refuse_a_damaged_file(tmp_path):
    """A stored-fields file whose row count is not its bucket's, or
    whose chunk index gives a chunk another first docID than its bucket
    row, raises ValueError naming the file."""
    n = 2 * STORED_CHUNK_DOCS + 3
    data = stored_file_bytes(_stored_columns(n), 500)
    path = str(tmp_path / "bucket=00003.stored")
    with open(path, "wb") as f:
        f.write(data)
    with pytest.raises(ValueError, match=f"{path} holds {n} rows, its postings footer {n + 1}"):
        read_stored(path, n + 1, 500)
    with pytest.raises(ValueError, match="chunk 0 .* at docID 500, its bucket row at 501"):
        read_stored(path, n, 501)
    # the second chunk's first docID, in the chunk index before the footer
    at = len(data) - STORED_FOOTER.size - 8 * 3 + 8
    bad = data[:at] + (500 + STORED_CHUNK_DOCS + 1).to_bytes(8, "little") + data[at + 8:]
    with open(path, "wb") as f:
        f.write(bad)
    with pytest.raises(ValueError, match=f"chunk 1 of {path} starts at docID"):
        read_stored(path, n, 500)


# sha256 of each shard file's blocks and norms (its bytes before the term
# section, which hold no zstd frame) for the index of
# `_format_probe_rows`, by index format: a change to those bytes must
# come with a new INDEX_FORMAT and a new entry here
PINNED_SHARD_BYTES = {
    "v11": {
        "shard=00000.bin": "4298741e441f2db90b9fb61fdcb99532fd73fedc27fcd1866767dfb21be2b523",
        "shard=00001.bin": "733fce197590d2069144dd0a66110f4459673710d80cf00b8a274fbbe7bb614e",
    },
}


def _format_probe_rows(n_docs: int = 600) -> pa.Table:
    """A seeded corpus of ``n_docs`` rows over a 400-word vocabulary
    drawn Zipf-like, 1 to 300 tokens per row: common words reach full
    blocks in every shard and tfs of several bits."""
    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i}" for i in range(400)])
    p = 1.0 / np.arange(1, vocab.size + 1)
    content = [
        " ".join(rng.choice(vocab, int(rng.integers(1, 301)), p=p / p.sum()))
        for _ in range(n_docs)
    ]
    return pa.table({
        "repo": [f"r{i % 7}" for i in range(n_docs)],
        "path": [f"p{i}.py" for i in range(n_docs)],
        "commit": ["c0"] * n_docs,
        "lang": ["Python"] * n_docs,
        "content": content,
    })


def test_shard_bytes_are_pinned_to_the_index_format(tmp_path):
    """An index of a seeded corpus, built in process, holds shard files
    whose blocks and norms hash to the values pinned for INDEX_FORMAT:
    a change to the postings bytes without a format bump fails here."""
    import hashlib

    import pyarrow.parquet as pq

    from auctus_ray.index.build import INDEX_FORMAT
    from auctus_ray.index.segments import add_segment, builds_in_process

    src = str(tmp_path / "rows.parquet")
    pq.write_table(_format_probe_rows(), src)
    assert builds_in_process([src])
    res = add_segment(str(tmp_path / "root"), [src], n_shards=2)
    got = {}
    for path in sorted((tmp_path / "root").glob("segments/*/postings/shard=*.bin")):
        data = path.read_bytes()
        norms_at, _, n_docs = FOOTER.unpack(data[-FOOTER.size:])
        got[path.name] = hashlib.sha256(data[:norms_at + 4 * n_docs]).hexdigest()
    assert res.n_docs == 600 and len(got) == 2
    assert got == PINNED_SHARD_BYTES[INDEX_FORMAT]
