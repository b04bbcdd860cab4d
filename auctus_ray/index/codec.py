"""Posting-list compression: delta + varint blocks with skip metadata.

Replaces the role of Lucene's postings format inside the reference's
Elasticsearch (docker-compose.yml:4 in /root/reference) with an explicit,
testable codec:

  * postings for one (term, docID-range) are split into blocks of
    ``BLOCK_SIZE`` entries;
  * each block stores ``(delta-varint docID, varint tf, varint dl)``
    triples — dl (doc token length) is carried in the posting so BM25
    scoring is self-contained and per-block max-score is exact;
  * per block we keep skip metadata (first/last docID, count) and the
    block's maximum *idf-free* score component
    ``max_tfnorm = max tf / (tf + k1*(1-b + b*dl/avgdl))``, so a
    block's score bound is ``idf * max_tfnorm`` (the input a block-max
    pruning pass needs; the query layer does not skip blocks yet).

Varint encode/decode is vectorized with numpy (no per-int Python loop).
"""

from __future__ import annotations

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
    is_last = (b & 0x80) == 0
    # value index for each byte
    vid = np.zeros(b.size, dtype=np.int64)
    vid[1:] = np.cumsum(is_last)[:-1]
    if int(is_last.sum()) < count:
        raise ValueError("varint buffer truncated")
    # byte position within each value
    starts = np.zeros(b.size, dtype=bool)
    starts[0] = True
    starts[1:] = is_last[:-1]
    start_idx = np.flatnonzero(starts)
    pos = np.arange(b.size, dtype=np.int64) - np.repeat(
        start_idx, np.diff(np.append(start_idx, b.size))
    )
    contrib = (b & 0x7F).astype(np.uint64) << (pos.astype(np.uint64) * np.uint64(7))
    out = np.zeros(count, dtype=np.uint64)
    np.add.at(out, vid, contrib)
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
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
) -> dict[str, list]:
    """Encode sorted postings into blocks.

    Returns dict of equal-length lists (one element per block):
      block_id, first_docid, last_docid, n, blob, max_tfnorm
    ``doc_ids`` must be strictly increasing.
    """
    n = doc_ids.size
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    dls = np.ascontiguousarray(dls, dtype=np.uint64)
    tfnorm = _tfnorm(tfs.astype(np.float64), dls.astype(np.float64), avgdl)
    out: dict[str, list] = {
        "block_id": [],
        "first_docid": [],
        "last_docid": [],
        "n": [],
        "blob": [],
        "max_tfnorm": [],
    }
    for bi, s in enumerate(range(0, n, block_size)):
        e = min(s + block_size, n)
        ids = doc_ids[s:e]
        deltas = np.empty(e - s, dtype=np.uint64)
        deltas[0] = ids[0]
        deltas[1:] = ids[1:] - ids[:-1]
        # interleave (delta, tf, dl) so one varint stream per block
        inter = np.empty((e - s) * 3, dtype=np.uint64)
        inter[0::3] = deltas
        inter[1::3] = tfs[s:e]
        inter[2::3] = dls[s:e]
        out["block_id"].append(bi)
        out["first_docid"].append(int(ids[0]))
        out["last_docid"].append(int(ids[-1]))
        out["n"].append(e - s)
        out["blob"].append(varint_encode(inter))
        out["max_tfnorm"].append(float(tfnorm[s:e].max()))
    return out


def decode_block(blob: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode one block -> (doc_ids, tfs, dls)."""
    inter = varint_decode(blob, n * 3)
    deltas = inter[0::3]
    doc_ids = np.cumsum(deltas, dtype=np.uint64)
    return doc_ids, inter[1::3], inter[2::3]


def decode_blocks_concat(
    blobs: list[bytes], ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ALL blocks of a posting list in one varint pass.

    One numpy call instead of one per block (per-call overhead dominates
    short queries). Delta chains restart at each block, so the global
    cumsum is corrected by subtracting the carry at each block boundary
    (segmented cumsum).
    """
    ns = np.asarray(ns, dtype=np.int64)
    total = int(ns.sum())
    inter = varint_decode(b"".join(blobs), total * 3)
    deltas = inter[0::3]
    gcs = np.cumsum(deltas, dtype=np.uint64)
    if len(blobs) > 1:
        bounds = np.cumsum(ns)[:-1]  # first index of blocks 1..k-1
        carry = np.concatenate([[np.uint64(0)], gcs[bounds - 1]])
        doc_ids = gcs - np.repeat(carry, ns)
    else:
        doc_ids = gcs
    return doc_ids, inter[1::3], inter[2::3]


def encode_shard_postings(
    t_codes: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    avgdl: float,
    block_size: int = BLOCK_SIZE,
) -> dict:
    """Encode ALL postings of a shard in one vectorized pass.

    Input arrays must be sorted by (t_codes, doc_ids). Produces the same
    per-(term, block) blobs as encode_blocks called per term (delta chain
    restarts at each block), but with a single varint pass and reduceat
    metadata — no per-term Python loop, no allocation storm under
    concurrent tasks.

    Returns dict with per-block arrays (term_code, block_id, first_docid,
    last_docid, n, max_tfnorm), a pyarrow BinaryArray `blobs` sliced
    zero-copy from the single encoded buffer, and per-term arrays
    (term_code_of_term, df, n_blocks, term_max_tfnorm).
    """
    import pyarrow as pa

    n = doc_ids.size
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    dls = np.ascontiguousarray(dls, dtype=np.uint64)
    if n == 0:
        return {
            "term_code": np.empty(0, np.int64),
            "block_id": np.empty(0, np.int32),
            "first_docid": np.empty(0, np.int64),
            "last_docid": np.empty(0, np.int64),
            "n": np.empty(0, np.int32),
            "max_tfnorm": np.empty(0, np.float64),
            "blobs": pa.array([], type=pa.binary()),
            "t_term_code": np.empty(0, np.int64),
            "t_df": np.empty(0, np.int64),
            "t_n_blocks": np.empty(0, np.int64),
            "t_max_tfnorm": np.empty(0, np.float64),
        }

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
    block_lens = (block_ends - block_starts).astype(np.int32)

    # deltas: one global diff pass, then fix-up at the (few) block starts
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[block_starts] = doc_ids[block_starts]

    # chunked interleave + varint encode (cache-resident temporaries),
    # accumulating per-block byte lengths as we go
    use32 = bool(doc_ids.max() < 2**32 and tfs.max() < 2**32 and dls.max() < 2**32)
    parts: list[bytes] = []
    blob_lens = np.zeros(total_blocks, dtype=np.int64)
    CH_BLOCKS = 512  # 512 blocks x 128 postings x 3 values ~ cache-sized
    for bs in range(0, total_blocks, CH_BLOCKS):
        be = min(bs + CH_BLOCKS, total_blocks)
        lo = int(block_starts[bs])
        hi = int(block_ends[be - 1])
        m = hi - lo
        if use32:
            inter = np.empty((m, 3), dtype=np.uint32)
            inter[:, 0] = deltas[lo:hi]
            inter[:, 1] = tfs[lo:hi]
            inter[:, 2] = dls[lo:hi]
        else:
            inter = np.empty((m, 3), dtype=np.uint64)
            inter[:, 0] = deltas[lo:hi]
            inter[:, 1] = tfs[lo:hi]
            inter[:, 2] = dls[lo:hi]
        flat = inter.ravel()
        ng = _varint_ngroups_any(flat)
        parts.append(_varint_encode_chunk_any(flat, ng))
        # per-block byte lengths within this chunk
        ng3 = ng.astype(np.int64).reshape(m, 3).sum(axis=1)
        cuts = (block_starts[bs:be] - lo).astype(np.int64)
        blob_lens[bs:be] = np.add.reduceat(ng3, cuts)
    buf = b"".join(parts)

    blob_offsets64 = np.concatenate([[0], np.cumsum(blob_lens)])
    if blob_offsets64[-1] >= 2**31:
        # one shard encodes >2 GiB of postings: raise n_buckets instead
        raise ValueError(
            "shard postings exceed 2 GiB; increase n_buckets (shard count)"
        )
    blob_offsets = blob_offsets64.astype(np.int32)
    # zero-copy BinaryArray over the single encoded buffer
    blobs = pa.Array.from_buffers(
        pa.binary(), total_blocks,
        [None, pa.py_buffer(blob_offsets.tobytes()), pa.py_buffer(buf)],
    )

    tfn = _tfnorm(tfs.astype(np.float64), dls.astype(np.float64), avgdl)
    block_max = np.maximum.reduceat(tfn, block_starts)
    term_max = np.maximum.reduceat(tfn, term_starts)
    blocks_per_term = nb_per_term
    block_ids = block_ids.astype(np.int32)

    return {
        "term_code": t_codes[block_starts],
        "block_id": block_ids,
        "first_docid": doc_ids[block_starts].astype(np.int64),
        "last_docid": doc_ids[block_ends - 1].astype(np.int64),
        "n": block_lens,
        "max_tfnorm": block_max,
        "blobs": blobs,
        "t_term_code": t_codes[term_starts],
        "t_df": term_lens.astype(np.int64),
        "t_n_blocks": blocks_per_term.astype(np.int64),
        "t_max_tfnorm": term_max,
    }


def _tfnorm(tf: np.ndarray, dl: np.ndarray, avgdl: float) -> np.ndarray:
    """BM25 tf-normalization component (idf-free), float64."""
    return tf / (tf + K1 * (1.0 - B + B * dl / avgdl))


def bm25_idf(df: np.ndarray | float, n_docs: int) -> np.ndarray | float:
    """Lucene/ES 7.10 BM25 idf: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    return np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
