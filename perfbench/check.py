"""Correctness gate: oracle answers, docmap sha256 and answer comparison.

Expected top-k answers come from ``auctus_ray.index.oracle.OracleIndex``.
Its constructor tokenizes one document at a time (about 1.2 ms per
document), so it is handed a tokenizer that looks the documents up in a
table tokenized once with ``tokenize_array``; ``tokenize_text`` is
defined as ``tokenize_array`` over a one-element array, so the tokens
are the same. Scoring, top-k and docID assignment stay the oracle's.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import auctus_ray
from auctus_ray import tokenize as tokenize_mod
from auctus_ray.index import codec, docid, oracle as oracle_mod
from auctus_ray.sources import code_corpus
from auctus_ray.tokenize import tokenize_array, tokenize_text

from perfbench.inputs import MEAN_TOKENS, source_digest


def read_corpus(paths: list[str]) -> pa.Table:
    return pa.concat_tables([pq.read_table(p) for p in paths])


def token_memo(corpus: pa.Table) -> dict[str, list[str]]:
    """content -> its "code" tokens, tokenized in one vectorized pass."""
    content = corpus["content"].combine_chunks()
    toks = tokenize_array(content, "code")
    enc = toks.flatten().dictionary_encode()
    terms = np.array(enc.dictionary.to_pylist(), dtype=object)[
        enc.indices.to_numpy(zero_copy_only=False)]
    offs = toks.offsets.to_numpy(zero_copy_only=False) - toks.offsets[0].as_py()
    memo = {
        (text or ""): terms[offs[i]:offs[i + 1]].tolist()
        for i, text in enumerate(content.to_pylist())
    }
    for text in list(memo)[:16]:
        if memo[text] != tokenize_text(text, "code"):
            raise AssertionError("batch tokenization differs from tokenize_text")
    return memo


def build_oracle(corpus: pa.Table, memo: dict | None = None) -> oracle_mod.OracleIndex:
    if memo is None:
        memo = token_memo(corpus)

    def tokenize_memo(text, analyzer="code"):
        if analyzer == "code" and text in memo:
            return memo[text]
        return tokenize_text(text, analyzer)

    oracle_mod.tokenize_text = tokenize_memo
    try:
        return oracle_mod.OracleIndex(corpus, analyzer="code")
    finally:
        oracle_mod.tokenize_text = tokenize_text


def oracle_cache_key(seed: int, n_docs: int, pool: list) -> str:
    h = hashlib.sha256(repr((seed, n_docs, MEAN_TOKENS, pool)).encode())
    h.update(source_digest(oracle_mod, tokenize_mod, code_corpus, docid, codec, auctus_ray).encode())
    return h.hexdigest()[:20]


def oracle_answers(cache_dir: str, seed: int, n_docs: int, corpus: pa.Table,
                   pool: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Oracle (doc_ids, scores) per pool query, cached on disk under a key
    covering the corpus seed and size, the pool and the sources that
    define the answers."""
    path = os.path.join(cache_dir, f"oracle-{oracle_cache_key(seed, n_docs, pool)}.json")
    if os.path.exists(path):
        with open(path) as f:
            raw = json.load(f)
        return [(np.array(d, np.int64), np.array(s, np.float64)) for d, s in raw]
    o = build_oracle(corpus)
    out = [o.search(q, k=k, operator=op) for q, k, op in pool]
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump([[d.tolist(), s.tolist()] for d, s in out], f)
    os.replace(tmp, path)
    return out


def same_answer(a, b) -> bool:
    """Bit-for-bit equality of two (doc_ids, scores) answers."""
    return (
        np.array_equal(np.asarray(a[0], np.int64), np.asarray(b[0], np.int64))
        and np.asarray(a[1], np.float64).tobytes() == np.asarray(b[1], np.float64).tobytes()
    )


def build_ids(corpus: pa.Table) -> np.ndarray:
    """docID -> corpus row (the oracle's docID assignment, inverted)."""
    doc_ids = docid.assign_doc_ids_local(corpus)
    inv = np.empty_like(doc_ids)
    inv[doc_ids] = np.arange(doc_ids.size)
    return inv


def row_keys(corpus: pa.Table) -> list[tuple[str, str, str]]:
    return list(zip(corpus["repo"].to_pylist(), corpus["path"].to_pylist(),
                    corpus["commit"].to_pylist()))


def docmap_sha_mismatches(docmap_dirs: list[str], corpus: pa.Table) -> int:
    """Rows whose docmap sha256 differs from sha256(content) of the input,
    plus input rows missing from the docmaps and docmap rows not in the
    input."""
    want = {
        key: hashlib.sha256((c or "").encode()).hexdigest()
        for key, c in zip(row_keys(corpus), corpus["content"].to_pylist())
    }
    got: dict = {}
    extra = 0
    for d in docmap_dirs:
        for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
            t = pq.read_table(f, columns=["repo", "path", "commit", "sha256"])
            for key, sha in zip(row_keys(t), t["sha256"].to_pylist()):
                if key in got:
                    extra += 1
                got[key] = sha
    bad = sum(1 for key, sha in want.items() if got.get(key) != sha)
    return bad + extra + sum(1 for key in got if key not in want)


def hydrated_ok(hits: pa.Table, doc_ids, scores, key_of) -> bool:
    """Hydrated hits are in rank order, carry the searched ids and scores
    and the row key of each docID (``key_of(doc_id)``)."""
    if hits.num_rows != len(doc_ids):
        return False
    if hits.num_rows == 0:
        return True
    if not {"doc_id", "score", "repo", "path", "commit"} <= set(hits.column_names):
        return False
    rows = hits.select(["doc_id", "score", "repo", "path", "commit"]).to_pylist()
    for r, d, s in zip(rows, doc_ids, scores):
        if r["doc_id"] != int(d) or r["score"] != float(s):
            return False
        if (r["repo"], r["path"], r["commit"]) != key_of(int(d)):
            return False
    return True
