"""Posting-list compression, the flat per-shard postings file, the term
dictionary and the stored-fields file (index format v11).

Replaces the role of Lucene's postings and stored-fields formats inside
the reference's Elasticsearch (its docker-compose.yml:4) with an
explicit, testable codec:

  * the postings of one (term, shard) are split into blocks of
    ``BLOCK_SIZE`` entries, the last one shorter, whose delta chains
    restart at the block, so a posting list's block count follows from
    its df. Every block has one layout: 2 header bytes (the bit width
    of its docID deltas, then of its tf - 1 values), its first docID as
    a varint, then its n - 1 deltas and its n tf - 1 values, each run
    bit-packed at its one width and padded to a byte (Lucene's ForUtil
    blocks, with the tail packed like the rest);
  * a shard's postings file (``postings/shard=NNNNN.bin``) holds every
    term's blocks back to back in term order, then the shard's norms
    (one uint32 ``dl`` per docID, dense from the shard's docID base,
    like Lucene norms), then its term section (its own term dictionary,
    the layout below), then a fixed ``FOOTER`` (norms offset, docID
    base, doc count). A term's postings are one byte range, which the
    term dictionary locates;
  * a segment's term dictionary (``postings/terms.bin``, merged from
    the shards' term sections by index/build.py ``finish_index``, read
    by `TermDictionary`) gives every (term, shard) its df and byte
    range. It is term-sorted blocks
    of at most ``DICT_BLOCK_TERMS`` distinct terms, each one zstd frame:
    the terms, then varints (each term's row count, each row's shard,
    df and nbytes, and the first offset of every shard in the block).
    A shard's terms lie back to back in its postings file, so a row's
    offset is its shard's first offset in the block plus the nbytes of
    that shard's earlier rows. The blocks are followed by the block
    index (each block's first term, frame size and counts), one zstd
    frame too, and a fixed ``DICT_FOOTER`` — the role of Lucene's terms
    index and terms dictionary (``.tip``/``.tim``);
  * a docmap bucket's stored-fields file (``docmap/bucket=NNNNN.stored``,
    beside its ``bucket=NNNNN.parquet``) holds the hit columns
    (``STORED_COLUMNS``) in zstd chunks of ``STORED_CHUNK_DOCS`` docs,
    column-major inside a chunk: every value's length as a varint (0
    marks a null), then the values' bytes. The chunks are followed by a
    chunk index (each chunk's offset, frame size, raw size and first
    docID) and a fixed ``STORED_FOOTER`` (index offset, row count, chunk
    count). A fetch reads the index and the chunks its hits fall in,
    and decompresses those chunks alone — Lucene's
    CompressingStoredFieldsFormat (``.fdt`` chunks and an ``.fdx``
    index).

Varint encode/decode and bit packing are vectorized with numpy (no
per-int Python loop). One helper (`_value_bits`) gives every packed
value's bit offset and width, and both the encoder and the decoder go
through it, so the block layout past the header is written down once.
"""

from __future__ import annotations

import bisect
import os
import struct
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from auctus_ray import B, K1
from auctus_ray.util import string_buffer_view

BLOCK_SIZE = 128


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array, vectorized.

    Byte-matrix formulation: an (n, W) uint8 matrix of 7-bit groups
    (W = max groups needed by any value) flattened through a row-major
    boolean mask — no variable-count np.repeat (which is slow and
    allocation-heavy under concurrent tasks).
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    ngroups = _varint_ngroups(v)
    # chunked (cache-sized) encode: temporaries stay in L2, which matters
    # because concurrent tasks share limited DRAM bandwidth
    parts = []
    CH = 1 << 16
    for s in range(0, v.size, CH):
        parts.append(_varint_encode_chunk(v[s : s + CH], ngroups[s : s + CH]))
    return b"".join(parts) if len(parts) > 1 else parts[0]


def _varint_ngroups(v: np.ndarray) -> np.ndarray:
    """Bytes (7-bit groups) each value needs, as int8."""
    nbits = np.maximum(1, 64 - _clz64(v))
    return ((nbits + 6) // 7).astype(np.int8)


def _varint_encode_chunk_any(v: np.ndarray, ngroups: np.ndarray) -> bytes:
    width = int(ngroups.max())
    if v.dtype == np.uint32:
        js = np.arange(width, dtype=np.uint32) * np.uint32(7)
        mat = ((v[:, None] >> js[None, :]) & np.uint32(0x7F)).astype(np.uint8)
    else:
        js = np.arange(width, dtype=np.uint64) * np.uint64(7)
        mat = ((v[:, None] >> js[None, :]) & np.uint64(0x7F)).astype(np.uint8)
    col = np.arange(width, dtype=np.int8)[None, :]
    keep = col < ngroups[:, None]
    mat |= ((col < (ngroups[:, None] - 1)) * np.uint8(0x80))
    return mat[keep].tobytes()


def _varint_encode_chunk(v: np.ndarray, ngroups: np.ndarray) -> bytes:
    # 32-bit dispatch (shift matrices are 2x smaller), then the one
    # shared bit-matrix implementation — keeping a second copy of that
    # tricky code in sync was a drift hazard
    if int(v.max()) < 2**32:
        v = v.astype(np.uint32)
    return _varint_encode_chunk_any(v, ngroups)


def varint_decode(buf: bytes, count: int) -> np.ndarray:
    """Decode ``count`` LEB128 varints from buf -> uint64 array, vectorized."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    b = np.frombuffer(buf, dtype=np.uint8)
    # each value's last byte has the high bit clear
    last = np.flatnonzero(b < 0x80)
    if last.size < count:
        raise ValueError("varint buffer truncated")
    last = last[:count]
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = last[:-1] + 1
    # one pass per byte position over the values still that long: most
    # postings values are one byte, so later passes touch few of them.
    # A value's 7-bit groups occupy disjoint bits, so OR is their sum.
    out = (b[starts] & 0x7F).astype(np.uint64)
    multi = np.flatnonzero(last > starts)
    j = 1
    while multi.size:
        at = starts[multi] + j
        out[multi] |= (b[at] & 0x7F).astype(np.uint64) << np.uint64(7 * j)
        multi = multi[last[multi] > at]
        j += 1
    return out


def _clz64(v: np.ndarray) -> np.ndarray:
    """Count leading zeros of uint64s via float64 exponent trick + fixups."""
    # bit_length = floor(log2(v)) + 1 for v>0; use frexp on float64 — exact
    # for v < 2**53, and for larger values compute on the top 32 bits.
    v = v.astype(np.uint64)
    hi = (v >> np.uint64(32)).astype(np.float64)
    lo = v.astype(np.float64)
    bl_hi = np.frexp(hi)[1]  # bit length of high word
    bl_lo = np.frexp(lo)[1]
    bl = np.where(hi > 0, bl_hi + 32, bl_lo)
    return (64 - bl).astype(np.int64)


def block_counts(dfs) -> np.ndarray:
    """Postings per block of posting lists ``dfs`` long (each at least
    1), list after list: a list's full blocks, then its remainder."""
    dfs = np.atleast_1d(np.asarray(dfs, np.int64))
    nb = -(-dfs // BLOCK_SIZE)
    ns = np.full(int(nb.sum()), BLOCK_SIZE, dtype=np.int64)
    ns[np.cumsum(nb) - 1] = dfs - BLOCK_SIZE * (nb - 1)
    return ns


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Every index of the ranges [starts[i], starts[i] + lens[i]),
    range after range."""
    lens = np.asarray(lens, np.int64)
    return np.repeat(np.asarray(starts, np.int64) - (np.cumsum(lens) - lens), lens) + (
        np.arange(int(lens.sum()), dtype=np.int64)
    )


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Bits each uint64 needs (0 for 0), as int64."""
    return 64 - _clz64(v)


# the low w bits, by width w
_LOW_BITS = np.array([(1 << w) - 1 for w in range(65)], dtype=np.uint64)
# how many values a run lags its postings: a block's delta run starts at
# its second posting, its tf - 1 run at its first
_RUN_LAG = np.array([[1], [0]])


def _value_bits(ns, at, w) -> tuple[np.ndarray, np.ndarray]:
    """Where every value of a run of blocks sits, the one place that
    knows the block layout past its header: block k holds ``ns[k]``
    postings, and row 0 of the (2, blocks) arrays ``at`` and ``w`` gives
    the first byte and width of its docID deltas, row 1 those of its
    tf - 1 values. Returns (2, postings) arrays of bit offsets and
    widths, posting after posting: row 0 its docID delta (delta j - 1
    of its block's run, for its index j in the block; width 0 at j = 0,
    whose docID is the block's varint), row 1 its tf - 1 (value j of
    the run). Offsets count from the low bit of byte 0 (little-endian
    bit order)."""
    ns = np.asarray(ns, np.int64)
    start = np.cumsum(ns) - ns
    j = np.arange(int(ns.sum()), dtype=np.int64) - np.repeat(start, ns)
    at_w = np.repeat(np.array([*at, *w], np.int64), ns, axis=1)
    bit, w = at_w[:2], at_w[2:]
    w[0, start] = 0
    bit *= 8
    bit += (j - _RUN_LAG) * w
    return bit, w


def _or_bits(words: np.ndarray, bit: np.ndarray, v: np.ndarray) -> None:
    """OR uint64 values ``v`` into the little-endian uint64 ``words`` at
    non-decreasing bit offsets ``bit``: a value's low part goes in
    its word and the rest spills into the next, so one OR-reduce per
    distinct word serves each part. ``words`` must reach one word past
    the last offset's."""
    word, s = bit >> 6, (bit & 63).view(np.uint64)
    # (v >> 1) >> (63 - s) is v >> (64 - s), and 0 at s = 0
    for at, part in ((word, v << s), (word + 1, (v >> np.uint64(1)) >> (np.uint64(63) - s))):
        cut = np.flatnonzero(np.concatenate([[True], at[1:] != at[:-1]]))
        words[at[cut]] |= np.bitwise_or.reduceat(part, cut)


def decode_blocks_concat(
    blobs: list[bytes], ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode ALL blocks of one or more posting lists in one pass ->
    (doc_ids, tfs). ``blobs``, joined, hold the blocks back to back, and
    ``ns`` holds each block's posting count, block after block. Every
    block restarts its delta chain and its byte length follows from its
    header and its count, so where one list ends and the next starts
    does not matter, and any subset of a list's blocks decodes alike.

    One walk over the blocks' headers finds where each block's runs
    start; `_value_bits` places every value. Then each value is one
    unaligned little-endian 8-byte load, shifted and masked to its
    width (a width past 57 bits adds a second load), and one running
    sum, restarted at each block's first docID, turns the deltas into
    docIDs: a handful of numpy calls per batch, not one per block.
    Raises ValueError on a buffer that ends inside a block or holds
    bytes past its last one, and on a width past 64 bits."""
    ns = np.asarray(ns, dtype=np.int64)
    buf = b"".join(blobs)
    # per block: its first docID, then per run its first byte and width
    firsts, at_d, at_t, wd, wt = [], [], [], [], []
    at = 0
    try:
        for n in ns.tolist():
            # header: delta width, tf-1 width; then the first docID as a
            # varint, then the packed runs
            w_d, w_t, x = buf[at], buf[at + 1], buf[at + 2]
            at += 2
            first = shift = 0
            while x & 0x80:
                first |= (x & 0x7F) << shift
                shift += 7
                at += 1
                x = buf[at]
            firsts.append(first | (x << shift))
            at += 1
            at_d.append(at)
            wd.append(w_d)
            at += ((n - 1) * w_d + 7) // 8
            at_t.append(at)
            wt.append(w_t)
            at += (n * w_t + 7) // 8
    except IndexError:
        raise ValueError("postings buffer truncated") from None
    if at > len(buf):
        raise ValueError("postings buffer truncated")
    if at < len(buf):
        raise ValueError(f"postings buffer holds {len(buf) - at} bytes past its last block")
    if not firsts:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    width = max(max(wd), max(wt))
    if width > 64:
        raise ValueError("a postings block header holds a width past 64 bits")
    bit, w = _value_bits(ns, [at_d, at_t], [wd, wt])
    # one unaligned little-endian 8-byte load per value, shifted and
    # masked; a load starts at most at the buffer's end, a second load
    # 8 bytes past it
    u8 = np.frombuffer(buf + bytes(16), np.uint8)
    words = np.ndarray((u8.size - 7,), "<u8", u8, strides=(1,))
    byte, s = bit >> 3, (bit & 7).view(np.uint64)
    v = words[byte] >> s
    if width > 57:
        # the bits past the first load's 57 come from the next 8 bytes
        v |= (words[byte + 8] << np.uint64(1)) << (np.uint64(63) - s)
    d, t = v & _LOW_BITS[w]
    # a block's first docID, then its deltas: one running sum, less the
    # sum before each block, is every block's docIDs
    start, firsts = np.cumsum(ns) - ns, np.array(firsts, np.uint64)
    d[start] = firsts
    doc_ids = np.cumsum(d, dtype=np.uint64)
    doc_ids -= np.repeat(doc_ids[start] - firsts, ns)
    t += np.uint64(1)
    return doc_ids, t


def encode_shard_postings(
    t_codes: np.ndarray, doc_ids: np.ndarray, tfs: np.ndarray,
) -> dict:
    """Encode ALL postings of a shard in one vectorized pass.

    Input arrays must be sorted by (t_codes, doc_ids). Each term's list
    is cut into blocks of BLOCK_SIZE postings, the last one shorter,
    whose delta chains restart at the block. A block of n postings is 2
    header bytes (the bit width of its docID deltas, then of its tf - 1
    values), its first docID as a varint, then its n - 1 deltas and its
    n tf - 1 values, each run bit-packed at its one width and padded to
    a byte: ((n - 1) * wd + 7) // 8 and (n * wt + 7) // 8 bytes. The
    headers and first docIDs are scattered to their bytes, then every
    delta, and apart every tf - 1, is OR-ed in at its bit offset
    (`_value_bits`, `_or_bits`): no per-term, per-block or per-width
    Python loop.

    Returns ``buf``, every term's blocks back to back in input order,
    and per-term arrays: t_term_code, t_df and the term's byte range in
    ``buf``, t_offset and t_nbytes.
    """
    n = doc_ids.size
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    if n == 0:
        empty = np.empty(0, np.int64)
        return {"buf": b"", "t_term_code": empty, "t_df": empty,
                "t_offset": empty, "t_nbytes": empty}

    # term runs, then blocks (block-granular metadata only)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = t_codes[1:] != t_codes[:-1]
    term_starts = np.flatnonzero(change)
    term_lens = np.diff(np.append(term_starts, n))
    block_n = block_counts(term_lens)
    block_starts = np.cumsum(block_n) - block_n
    nb_per_term = -(-term_lens // BLOCK_SIZE)
    first_block_of_term = np.cumsum(nb_per_term) - nb_per_term

    # every posting's docID delta (0 at each block's first posting) and
    # its tf - 1
    deltas = np.empty(n, np.uint64)
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[block_starts] = 0
    tf1 = tfs - np.uint64(1)
    wd = _bit_length(np.maximum.reduceat(deltas, block_starts))
    wt = _bit_length(np.maximum.reduceat(tf1, block_starts))
    first_ng = _varint_ngroups(doc_ids[block_starts]).astype(np.int64)
    dbytes = ((block_n - 1) * wd + 7) // 8
    size = 2 + first_ng + dbytes + (block_n * wt + 7) // 8

    # lay the blocks out: header and first docID scattered to their
    # bytes, then both runs OR-ed in at their bits. Two spare words: a
    # zero-width run may start at the very end and its spill goes past
    block_at = np.cumsum(size) - size
    total = int(size.sum())
    words = np.zeros(-(-total // 8) + 2, "<u8")
    out = words.view(np.uint8)
    out[block_at] = wd
    out[block_at + 1] = wt
    out[_ranges(block_at + 2, first_ng)] = np.frombuffer(
        varint_encode(doc_ids[block_starts]), np.uint8
    )
    at_d = block_at + 2 + first_ng
    bit, _ = _value_bits(block_n, [at_d, at_d + dbytes], [wd, wt])
    _or_bits(words, bit[0], deltas)
    _or_bits(words, bit[1], tf1)

    t_nbytes = np.add.reduceat(size, first_block_of_term)
    return {
        "buf": out[:total].tobytes(),
        "t_term_code": t_codes[term_starts],
        "t_df": term_lens.astype(np.int64),
        "t_offset": np.cumsum(t_nbytes) - t_nbytes,
        "t_nbytes": t_nbytes,
    }


# a shard postings file ends with (norms offset, docID base, doc count)
FOOTER = struct.Struct("<QQQ")
NORMS_DTYPE = np.dtype("<u4")


def shard_file_bytes(buf: bytes, dls: np.ndarray, doc_base: int, terms: bytes) -> bytes:
    """A shard's postings file: the encoded blocks ``buf``, then the
    norms (``dls``, one per docID from ``doc_base``), then the term
    section ``terms`` (`dictionary_file_bytes` over the shard's rows),
    then the footer."""
    dls = np.asarray(dls)
    if dls.size and int(dls.max()) >= 2**32:
        raise ValueError("document length exceeds the uint32 norms")
    norms = dls.astype(NORMS_DTYPE).tobytes()
    return buf + norms + terms + FOOTER.pack(len(buf), doc_base, dls.size)


def read_footer(fd: int) -> tuple[int, int, int]:
    """(norms offset, docID base, doc count) of an open shard postings
    file: one pread of its footer."""
    size = os.fstat(fd).st_size
    return FOOTER.unpack(os.pread(fd, FOOTER.size, size - FOOTER.size))


def read_norms(fd: int) -> tuple[int, np.ndarray]:
    """(docID base, dl per docID) of an open shard postings file: one
    pread of the footer, one of the norms it points at."""
    off, base, n = read_footer(fd)
    norms = np.frombuffer(os.pread(fd, n * NORMS_DTYPE.itemsize, off), NORMS_DTYPE)
    return base, norms


# the hit columns a docmap bucket's stored-fields file holds, in order
STORED_COLUMNS = ("repo", "path", "commit", "lang", "snippet")
# docs per zstd chunk of a stored-fields file: a hydrate decompresses
# the chunks that hold its hits, so smaller chunks read less per hit and
# compress worse
STORED_CHUNK_DOCS = 64
# a stored-fields file ends with (chunk index offset, row count, chunk
# count); the index is one little-endian uint64 array per field: each
# chunk's offset, frame size, raw size and first docID
STORED_FOOTER = struct.Struct("<QQQ")
_STORED_FIELDS = 4
_STORED_CODEC = pa.Codec("zstd", compression_level=3)
# a raw chunk starts with the byte size of its length varints
_STORED_HEAD = struct.Struct("<I")


def stored_file_bytes(columns: list, first_doc: int) -> bytes:
    """A docmap bucket's stored-fields file (``docmap/bucket=N.stored``)
    from its STORED_COLUMNS (Arrow arrays of one docID-sorted bucket,
    cast to string), whose first row is docID ``first_doc``.

    Rows go in zstd chunks of STORED_CHUNK_DOCS. A chunk is column-major:
    the byte size of its varints, then one varint per value (0 for a
    null, else its byte length + 1), column after column, then every
    value's bytes in the same order. The chunks are followed by the
    chunk index and STORED_FOOTER."""
    n = len(columns[0])
    views, marks = [], []
    for col in columns:
        col = pc.cast(col, pa.string())
        offs, view = string_buffer_view(col)
        views.append((offs.astype(np.int64), view))
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        marks.append(np.where(valid, np.diff(offs) + 1, 0).astype(np.uint64))
    marks = np.stack(marks) if marks else np.empty((0, n), np.uint64)
    frames, index, at = [], [], 0
    for lo in range(0, n, STORED_CHUNK_DOCS):
        hi = min(lo + STORED_CHUNK_DOCS, n)
        lens = varint_encode(marks[:, lo:hi].ravel())
        raw = b"".join([
            _STORED_HEAD.pack(len(lens)), lens,
            *(bytes(view[offs[lo]:offs[hi]]) for offs, view in views),
        ])
        frames.append(_STORED_CODEC.compress(raw, asbytes=True))
        index.append((at, len(frames[-1]), len(raw), first_doc + lo))
        at += len(frames[-1])
    tail = np.array(index, np.uint64).reshape(-1, _STORED_FIELDS).T.astype("<u8")
    return b"".join(frames) + tail.tobytes() + STORED_FOOTER.pack(at, n, len(frames))


def read_stored(path: str, rows: int, first_doc: int, ids=None,
                index: np.ndarray | None = None) -> tuple[np.ndarray, list[bytes]]:
    """(chunk index, raw chunks ``ids``) of the stored-fields file
    ``path`` of a bucket of ``rows`` docs from docID ``first_doc``: one
    ``pread`` of the footer and chunk index (skipped when ``index``, a
    chunk index read before, is given), one ``pread`` spanning chunks
    ``ids`` (ascending; every chunk when None) and one decompress per
    chunk. The index is a (4, chunks) array: offset, frame size, raw
    size and first docID of each chunk.

    Raises ValueError when the file's row count is not ``rows`` or a
    chunk's first docID is not that of its first row."""
    fd = os.open(path, os.O_RDONLY)
    try:
        if index is None:
            n_chunks = -(-rows // STORED_CHUNK_DOCS)
            tail_nbytes = 8 * _STORED_FIELDS * n_chunks + STORED_FOOTER.size
            size = os.fstat(fd).st_size
            tail = os.pread(fd, tail_nbytes, max(0, size - tail_nbytes))
            at, n, got_chunks = STORED_FOOTER.unpack_from(
                tail.rjust(STORED_FOOTER.size, b"\0"), max(0, len(tail) - STORED_FOOTER.size)
            )
            if n != rows:
                raise ValueError(f"{path} holds {n} rows, its postings footer {rows}")
            if (got_chunks, at) != (n_chunks, size - tail_nbytes):
                raise ValueError(f"{path} is not a stored-fields file of {rows} rows")
            index = np.frombuffer(tail, "<u8", count=_STORED_FIELDS * n_chunks).reshape(
                _STORED_FIELDS, n_chunks
            ).astype(np.int64)
            want = first_doc + STORED_CHUNK_DOCS * np.arange(n_chunks)
            if (index[3] != want).any():
                c = int(np.flatnonzero(index[3] != want)[0])
                raise ValueError(
                    f"chunk {c} of {path} starts at docID {int(index[3][c])}, "
                    f"its bucket row at {int(want[c])}"
                )
        ids = list(range(index.shape[1])) if ids is None else list(ids)
        off, nbytes, raw = index[0], index[1], index[2]
        lo, hi = int(off[ids[0]]), int(off[ids[-1]] + nbytes[ids[-1]])
        data = os.pread(fd, hi - lo, lo)
    finally:
        os.close(fd)
    return index, [
        _STORED_CODEC.decompress(
            data[off[c] - lo:off[c] - lo + nbytes[c]], int(raw[c]), asbytes=True
        )
        for c in ids
    ]


def take_stored(chunks: list[bytes], ns, pos, row) -> list[pa.Array]:
    """Rows of raw stored-fields chunks (`read_stored`) as one string
    array per STORED_COLUMNS: ``chunks`` hold ``ns`` rows each, and
    output row i is row ``row[i]`` of chunk ``pos[i]``. One
    `varint_decode` over every chunk's lengths, one string array over
    all their values and one take."""
    ns = np.asarray(ns, np.int64)
    nc = len(STORED_COLUMNS)
    heads = [_STORED_HEAD.unpack_from(c)[0] + _STORED_HEAD.size for c in chunks]
    marks = varint_decode(
        b"".join(c[_STORED_HEAD.size:h] for c, h in zip(chunks, heads)), int(ns.sum()) * nc
    ).astype(np.int64)
    data = b"".join(c[h:] for c, h in zip(chunks, heads))
    valid = marks > 0
    offsets = np.zeros(marks.size + 1, np.int64)
    np.cumsum(marks - valid, out=offsets[1:])
    if offsets[-1] != len(data):
        raise ValueError("a stored-fields chunk's lengths disagree with its bytes")
    values = pa.LargeStringArray.from_buffers(
        marks.size, pa.py_buffer(offsets), pa.py_buffer(data),
        pa.py_buffer(np.packbits(valid, bitorder="little")), int(marks.size - valid.sum()),
    )
    # chunk c's value of column j at row r is value first[c] + j*ns[c] + r
    first = np.cumsum(ns * nc) - ns * nc
    pos, row = np.asarray(pos, np.int64), np.asarray(row, np.int64)
    at = first[pos] + np.arange(nc)[:, None] * ns[pos] + row
    taken = values.take(pa.array(at.ravel())).cast(pa.string())
    return [taken.slice(j * row.size, row.size) for j in range(nc)]


# distinct terms per block of a term dictionary: a lookup decodes the
# blocks that can hold its terms, one zstd frame each
DICT_BLOCK_TERMS = 256
# a term dictionary ends with (block index offset, its frame's size, raw
# size and term text size, block count, distinct term count)
DICT_FOOTER = struct.Struct("<QQQQQQ")
# bytes an open reads from the end of a term dictionary: the footer, the
# block index and, for a small dictionary, every block
DICT_TAIL_BYTES = 64 << 10
_DICT_CODEC = pa.Codec("zstd", compression_level=3)
# terms are stored NUL-separated: one str.split lists a block's terms
_SEP = "\x00"
# the block index's per-block fields, each a little-endian uint64 array
_DICT_INDEX_DTYPE = np.dtype("<u8")


def dictionary_file_bytes(terms: pa.Array, shards: np.ndarray, dfs: np.ndarray,
                          offsets: np.ndarray, nbytes: np.ndarray) -> bytes:
    """A term dictionary (``postings/terms.bin``) from its rows, one per
    (term, shard), sorted by (term, shard); within a shard the rows'
    byte ranges must lie back to back in term order, as
    `encode_shard_postings` writes them.

    A block is its terms joined by NUL, then varints: each term's row
    count, each row's shard, df and nbytes, and the first offset of
    every shard in the block, in shard order. The block index is the
    blocks' first terms joined by NUL, then one uint64 array per field:
    each block's frame size, raw size, term text size, row count and
    shard count; the footer gives its own sizes."""
    shards, dfs, offsets, nbytes = (
        np.asarray(a, np.int64) for a in (shards, dfs, offsets, nbytes)
    )
    n = len(terms)
    new = np.ones(n, bool)
    if n > 1:
        new[1:] = pc.not_equal(terms[1:], terms[:-1]).to_numpy(zero_copy_only=False)
    row_at = np.append(np.flatnonzero(new), n)  # each term's first row
    counts = np.diff(row_at)
    vocab = terms.take(pa.array(row_at[:-1]))
    block_at = np.append(np.arange(0, len(vocab), DICT_BLOCK_TERMS), len(vocab))
    texts = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(block_at, pa.int32()), vocab), _SEP
    ).to_pylist()
    frames, meta = [], []
    for b0, b1, text in zip(block_at[:-1], block_at[1:], texts):
        if text.count(_SEP) != b1 - b0 - 1:
            raise ValueError("a term holds a NUL character")
        text = text.encode()
        r0, r1 = row_at[b0], row_at[b1]
        shard = shards[r0:r1]
        # the shards' first rows, in ascending shard order
        _, first = np.unique(shard, return_index=True)
        raw = text + varint_encode(np.concatenate([
            counts[b0:b1], shard, dfs[r0:r1], nbytes[r0:r1], offsets[r0:r1][first],
        ]))
        frames.append(_DICT_CODEC.compress(raw, asbytes=True))
        meta.append((len(frames[-1]), len(raw), len(text), r1 - r0, first.size))
    text = _SEP.join(vocab.take(pa.array(block_at[:-1])).to_pylist()).encode()
    raw = text + np.array(meta, _DICT_INDEX_DTYPE).T.tobytes()
    frame = _DICT_CODEC.compress(raw, asbytes=True) if frames else b""
    return b"".join(frames) + frame + DICT_FOOTER.pack(
        sum(map(len, frames)), len(frame), len(raw), len(text), len(frames),
        len(vocab),
    )


class DictBlock(NamedTuple):
    """One decoded term dictionary block: its sorted terms, and its rows
    as arrays, term ``i``'s rows at [starts[i], starts[i + 1]).
    ``first`` holds, at each shard id of the block, that shard's first
    offset in the block (`row_offsets` gives a row's)."""

    terms: list[str]
    starts: np.ndarray
    shard: np.ndarray
    df: np.ndarray
    nbytes: np.ndarray
    first: np.ndarray

    def row_offsets(self, rows: np.ndarray) -> np.ndarray:
        """The byte offsets of ``rows``: a row's shard's first offset in
        the block plus the nbytes of that shard's earlier rows, which
        lie just before it. One running sum per shard over the rows up
        to the last one asked for (a shard-by-row table, no sort), read
        at the rows asked for."""
        m = int(rows.max()) + 1
        upto = np.zeros((self.first.size, m), np.int64)
        upto[self.shard[:m], np.arange(m)] = self.nbytes[:m]
        np.cumsum(upto, axis=1, out=upto)
        want = self.shard[rows]
        return self.first[want] + upto[want, rows] - self.nbytes[rows]


class TermDictionary:
    """An open term dictionary, which ends ``trailer`` bytes before the
    end of the file ``path``: ``postings/terms.bin`` (0), or a shard
    postings file's term section (its FOOTER.size). The footer and
    block index come from one ``pread`` of the last DICT_TAIL_BYTES
    before that end and are kept, with those bytes; a lookup decodes
    each block that can hold one of its terms once, from the kept bytes
    when the block lies in them, else with one more ``pread``."""

    def __init__(self, path: str, trailer: int = 0):
        self.path = path
        fd = os.open(path, os.O_RDONLY)
        try:
            end = os.fstat(fd).st_size - trailer
            self._tail_at = max(0, end - DICT_TAIL_BYTES)
            self._tail = os.pread(fd, end - self._tail_at, self._tail_at)
        finally:
            os.close(fd)
        at, frame_nbytes, raw_nbytes, text_nbytes, self.n_blocks, self.n_terms = (
            DICT_FOOTER.unpack_from(self._tail, len(self._tail) - DICT_FOOTER.size)
        )
        # the dictionary's first byte in the file
        start = end - DICT_FOOTER.size - frame_nbytes - at
        (frame,) = self._frames([start + at], [frame_nbytes])
        nb = self.n_blocks
        raw = _DICT_CODEC.decompress(frame, raw_nbytes, asbytes=True) if nb else b""
        self.first_terms = raw[:text_nbytes].decode().split(_SEP) if nb else []
        v = np.frombuffer(raw, _DICT_INDEX_DTYPE, offset=text_nbytes).reshape(5, nb)
        self._at = (start + np.cumsum(v[0]) - v[0]).tolist()
        self._frame_nbytes, self._raw_nbytes, self._text_nbytes, self._n_rows, \
            self._n_shards = v.tolist()

    def _frames(self, at: list[int], nbytes: list[int]) -> list[bytes]:
        """The byte ranges (``at``, ``nbytes``) of the file: slices of the
        kept tail, or preads of the file opened once."""
        out, fd = [], None
        try:
            for a, n in zip(at, nbytes):
                if a >= self._tail_at:
                    out.append(self._tail[a - self._tail_at:a - self._tail_at + n])
                    continue
                if fd is None:
                    fd = os.open(self.path, os.O_RDONLY)
                out.append(os.pread(fd, n, a))
        finally:
            if fd is not None:
                os.close(fd)
        return out

    def blocks(self, ids: list[int]) -> list[DictBlock]:
        """Blocks ``ids``, decoded."""
        frames = self._frames(
            [self._at[i] for i in ids], [self._frame_nbytes[i] for i in ids]
        )
        return [self._decode(i, f) for i, f in zip(ids, frames)]

    def rows(self) -> tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every row of the dictionary in file order, (term, shard, df,
        offset, nbytes) as arrays: every block decoded once."""
        blocks = self.blocks(list(range(self.n_blocks)))
        terms = [t for b in blocks for t, n in zip(b.terms, np.diff(b.starts)) for _ in range(n)]
        return (pa.array(terms, pa.string()), *(
            np.concatenate([np.empty(0, np.int64), *(
                b.row_offsets(np.arange(b.shard.size)) if c == "offset" else getattr(b, c)
                for b in blocks
            )])
            for c in ("shard", "df", "offset", "nbytes")
        ))

    def _decode(self, i: int, frame: bytes) -> DictBlock:
        raw = _DICT_CODEC.decompress(frame, self._raw_nbytes[i], asbytes=True)
        at, nr, ns = self._text_nbytes[i], self._n_rows[i], self._n_shards[i]
        terms = raw[:at].decode().split(_SEP)
        nt = len(terms)
        v = varint_decode(raw[at:], nt + 3 * nr + ns).astype(np.int64)
        starts = np.zeros(nt + 1, np.int64)
        np.cumsum(v[:nt], out=starts[1:])
        shard, df, nbytes = v[nt:nt + 3 * nr].reshape(3, nr)
        # the first offsets are in ascending order of the block's shards
        present = np.bincount(shard) > 0
        first = np.zeros(present.size, np.int64)
        first[present] = v[nt + 3 * nr:]
        return DictBlock(terms, starts, shard, df, nbytes, first)

    def lookup(self, terms: list[str], blocks) -> tuple[np.ndarray, ...]:
        """The rows of ``terms`` as arrays (index into ``terms``, shard,
        df, offset, nbytes); a term that is absent has none. ``blocks``
        maps a list of block ids to the decoded blocks: `blocks`, or a
        Searcher's cache in front of it."""
        by_block: dict[int, list[int]] = {}
        for j, t in enumerate(terms):
            i = bisect.bisect_right(self.first_terms, t) - 1
            if i >= 0:
                by_block.setdefault(i, []).append(j)
        parts = [(np.empty(0, np.int64),) * 5]
        for blk, js in zip(blocks(list(by_block)), by_block.values()):
            hit = [(j, p) for j in js
                   if (p := bisect.bisect_left(blk.terms, terms[j])) < len(blk.terms)
                   and blk.terms[p] == terms[j]]
            if hit:
                j, p = np.array(hit, np.int64).T
                lo, cnt = blk.starts[p], blk.starts[p + 1] - blk.starts[p]
                rows = np.arange(int(cnt.sum())) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
                parts.append((np.repeat(j, cnt), blk.shard[rows], blk.df[rows],
                              blk.row_offsets(rows), blk.nbytes[rows]))
        return tuple(np.concatenate(c) for c in zip(*parts))

    def prefix_dfs(self, prefix: str, blocks) -> dict[str, int]:
        """{term: df summed over its rows} for the terms that start with
        ``prefix``, from the blocks whose term range can hold one
        (``blocks`` as in `lookup`)."""
        f = self.first_terms
        i0 = max(bisect.bisect_right(f, prefix) - 1, 0)
        i1 = i0 + 1
        while i1 < len(f) and f[i1].startswith(prefix):
            i1 += 1
        out: dict[str, int] = {}
        for blk in blocks(list(range(i0, min(i1, len(f))))):
            p = q = bisect.bisect_left(blk.terms, prefix)
            while q < len(blk.terms) and blk.terms[q].startswith(prefix):
                q += 1
            cs = np.concatenate([[0], np.cumsum(blk.df)])
            dfs = cs[blk.starts[p + 1:q + 1]] - cs[blk.starts[p:q]]
            out.update(zip(blk.terms[p:q], dfs.tolist()))
        return out


def _tfnorm(tf: np.ndarray, dl: np.ndarray, avgdl: np.ndarray | float) -> np.ndarray:
    """BM25 tf-normalization component (idf-free), float64; ``avgdl`` is
    one value or one per posting."""
    return tf / (tf + K1 * (1.0 - B + B * dl / avgdl))


def bm25_idf(df: np.ndarray | float, n_docs: int) -> np.ndarray | float:
    """Lucene/ES 7.10 BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
