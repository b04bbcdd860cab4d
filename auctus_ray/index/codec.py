"""Posting-list compression and the flat per-shard postings file.

Replaces the role of Lucene's postings format inside the reference's
Elasticsearch (its docker-compose.yml:4) with an explicit, testable
codec:

  * the postings of one (term, shard) are split into blocks of
    ``BLOCK_SIZE`` entries; a block is a run of varint
    ``(delta docID, tf)`` pairs whose delta chain restarts at the block,
    so a posting list's block count follows from its df;
  * a shard's postings file (``postings/shard=NNNNN.bin``) holds every
    term's blocks back to back in term order, then the shard's norms
    (one uint32 ``dl`` per docID, dense from the shard's docID base,
    like Lucene norms), then a fixed ``FOOTER`` (norms offset, docID
    base, doc count). Nothing is compressed beyond the varints: a
    term's postings are one byte range, which the term dictionary
    (index/build.py ``finish_index``) locates.

Varint encode/decode is vectorized with numpy (no per-int Python loop).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from auctus_ray import B, K1

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


def _varint_ngroups_any(v: np.ndarray) -> np.ndarray:
    """ngroups for uint32 or uint64 input (uint32: cheap frexp path)."""
    if v.dtype == np.uint32:
        bl = np.frexp(v.astype(np.float64))[1]  # exact bit length for < 2^32
        return np.maximum(1, (bl + 6) // 7).astype(np.int8)
    return _varint_ngroups(v)


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


def encode_blocks(
    doc_ids: np.ndarray, tfs: np.ndarray, block_size: int = BLOCK_SIZE,
) -> dict[str, list]:
    """Encode one sorted posting list into blocks, one term at a time:
    the reference for `encode_shard_postings`. Returns equal-length
    lists (one element per block): block_id, n, blob. ``doc_ids`` must
    be strictly increasing."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    out: dict[str, list] = {"block_id": [], "n": [], "blob": []}
    for bi, s in enumerate(range(0, doc_ids.size, block_size)):
        e = min(s + block_size, doc_ids.size)
        ids = doc_ids[s:e]
        # interleave (delta, tf) so one varint stream per block
        inter = np.empty((e - s) * 2, dtype=np.uint64)
        inter[0::2] = np.diff(ids, prepend=np.uint64(0))
        inter[1::2] = tfs[s:e]
        out["block_id"].append(bi)
        out["n"].append(e - s)
        out["blob"].append(varint_encode(inter))
    return out


def block_counts(df: int, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Postings per block of a df-long posting list: full blocks, then
    the remainder."""
    ns = np.full(-(-df // block_size), block_size, dtype=np.int64)
    if ns.size:
        ns[-1] = df - block_size * (ns.size - 1)
    return ns


def decode_blocks_concat(
    blobs: list[bytes], ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode ALL blocks of one or more posting lists in one varint
    pass -> (doc_ids, tfs). ``blobs`` concatenate to the blocks' bytes
    and ``ns`` holds each block's posting count; several lists' blocks
    may follow each other, as every block restarts its delta chain.

    One numpy call instead of one per block (per-call overhead dominates
    short queries). Delta chains restart at each block, so the global
    cumsum is corrected by subtracting the carry at each block boundary
    (segmented cumsum).
    """
    ns = np.asarray(ns, dtype=np.int64)
    inter = varint_decode(b"".join(blobs), int(ns.sum()) * 2)
    doc_ids = np.cumsum(inter[0::2], dtype=np.uint64)
    if ns.size > 1:
        bounds = np.cumsum(ns)[:-1]  # first index of blocks 1..k-1
        carry = np.concatenate([[np.uint64(0)], doc_ids[bounds - 1]])
        doc_ids = doc_ids - np.repeat(carry, ns)
    return doc_ids, inter[1::2]


def encode_shard_postings(
    t_codes: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> dict:
    """Encode ALL postings of a shard in one vectorized pass.

    Input arrays must be sorted by (t_codes, doc_ids). Produces the same
    blocks as encode_blocks called per term (delta chain restarts at
    each block), but with a single varint pass — no per-term Python
    loop, no allocation storm under concurrent tasks.

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

    # term runs (block-granular metadata only; nothing posting-sized
    # beyond three streaming passes — DRAM traffic is the scaling limit
    # for concurrent encode tasks)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = t_codes[1:] != t_codes[:-1]
    term_starts = np.flatnonzero(change)
    term_lens = np.diff(np.append(term_starts, n))

    # block starts derived at block granularity (~n/128 entries)
    nb_per_term = ((term_lens + block_size - 1) // block_size).astype(np.int64)
    total_blocks = int(nb_per_term.sum())
    first_block_of_term = np.concatenate([[0], np.cumsum(nb_per_term)[:-1]])
    block_ids = (
        np.arange(total_blocks, dtype=np.int64)
        - np.repeat(first_block_of_term, nb_per_term)
    )
    block_starts = np.repeat(term_starts, nb_per_term) + block_ids * block_size
    term_end_of_block = np.repeat(term_starts + term_lens, nb_per_term)
    block_ends = np.minimum(block_starts + block_size, term_end_of_block)

    # deltas: one global diff pass, then fix-up at the (few) block starts
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[block_starts] = doc_ids[block_starts]

    # chunked interleave + varint encode (cache-resident temporaries),
    # accumulating per-block byte lengths as we go
    dtype = np.uint32 if doc_ids.max() < 2**32 and tfs.max() < 2**32 else np.uint64
    parts: list[bytes] = []
    blob_lens = np.zeros(total_blocks, dtype=np.int64)
    CH_BLOCKS = 512  # 512 blocks x 128 postings x 2 values ~ cache-sized
    for bs in range(0, total_blocks, CH_BLOCKS):
        be = min(bs + CH_BLOCKS, total_blocks)
        lo = int(block_starts[bs])
        hi = int(block_ends[be - 1])
        m = hi - lo
        inter = np.empty((m, 2), dtype=dtype)
        inter[:, 0] = deltas[lo:hi]
        inter[:, 1] = tfs[lo:hi]
        flat = inter.ravel()
        ng = _varint_ngroups_any(flat)
        parts.append(_varint_encode_chunk_any(flat, ng))
        # per-block byte lengths within this chunk
        ng2 = ng.astype(np.int64).reshape(m, 2).sum(axis=1)
        cuts = (block_starts[bs:be] - lo).astype(np.int64)
        blob_lens[bs:be] = np.add.reduceat(ng2, cuts)

    t_nbytes = np.add.reduceat(blob_lens, first_block_of_term)
    return {
        "buf": b"".join(parts),
        "t_term_code": t_codes[term_starts],
        "t_df": term_lens.astype(np.int64),
        "t_offset": np.cumsum(t_nbytes) - t_nbytes,
        "t_nbytes": t_nbytes,
    }


# a shard postings file ends with (norms offset, docID base, doc count)
FOOTER = struct.Struct("<QQQ")
NORMS_DTYPE = np.dtype("<u4")


def shard_file_bytes(buf: bytes, dls: np.ndarray, doc_base: int) -> bytes:
    """A shard's postings file: the encoded blocks ``buf``, then the
    norms (``dls``, one per docID from ``doc_base``), then the footer."""
    dls = np.asarray(dls)
    if dls.size and int(dls.max()) >= 2**32:
        raise ValueError("document length exceeds the uint32 norms")
    norms = dls.astype(NORMS_DTYPE).tobytes()
    return buf + norms + FOOTER.pack(len(buf), doc_base, dls.size)


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


def _tfnorm(tf: np.ndarray, dl: np.ndarray, avgdl: np.ndarray | float) -> np.ndarray:
    """BM25 tf-normalization component (idf-free), float64; ``avgdl`` is
    one value or one per posting."""
    return tf / (tf + K1 * (1.0 - B + B * dl / avgdl))


def bm25_idf(df: np.ndarray | float, n_docs: int) -> np.ndarray | float:
    """Lucene/ES 7.10 BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
