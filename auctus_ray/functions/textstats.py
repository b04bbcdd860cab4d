"""Text analysis operators: token counts, quality scoring, language ID,
document fingerprinting.

Reference analogues: free-text detection by word-count thresholds
(lib_profiler/datamart_profiler/profile_types.py:241-356), top-word
histograms (core.py:422-444 splitting on \\W+ + lowercase), sha1 content
keys (apiserver/profile.py:54-56). All per-batch vectorized; stateful
tables (stopword profiles) are built once per actor.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from auctus_ray.tokenize import tokenize_array

# minimal per-language stopword profiles for the n-gram/stopword heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "que", "pour"},
    "es": {"el", "la", "los", "y", "de", "un", "una", "es", "que", "para"},
    "de": {"der", "die", "das", "und", "von", "ein", "eine", "ist", "zu", "mit"},
}


def token_stats_batch(batch: pa.Table, *, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """Exact integer stats per doc: n_tokens (simple analyzer), n_chars,
    n_digits — SQL-oracle-expressible (regexp_extract_all counts)."""
    text = batch[text_col]
    toks = tokenize_array(text, "simple")
    n_tokens = pc.list_value_length(toks).cast(pa.int64())
    n_chars = pc.utf8_length(pc.fill_null(text, "")).cast(pa.int64())
    digits = pc.count_substring_regex(pc.fill_null(text, ""), pattern="[0-9]")
    return pa.table(
        {
            id_col: batch[id_col],
            "n_tokens": n_tokens,
            "n_chars": n_chars,
            "n_digits": digits.cast(pa.int64()),
        }
    )


class QualityScorer:
    """Actor-pool stage: quality metrics per doc (length / punctuation /
    stopword ratios — the usual pre-training quality filters).

    Integer counts are exact (SQL-comparable); `stop_cnt` counts tokens
    in the English stopword list.
    """

    def __init__(self, id_col: str = "doc_id", text_col: str = "text",
                 stop_lang: str = "en"):
        self.id_col = id_col
        self.text_col = text_col
        self.stops = sorted(STOPWORDS[stop_lang])

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[self.text_col], "")
        toks = tokenize_array(text, "simple")
        n_tokens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        is_stop = pc.is_in(flat, value_set=pa.array(self.stops))
        # per-doc stopword counts via offset segmentation
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        stop_np = is_stop.to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(stop_np)])
        stop_cnt = cum[offsets[1:] - offsets[0]] - cum[offsets[:-1] - offsets[0]]
        n_punct = pc.count_substring_regex(text, pattern=r"[^\w\s]").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_tokens": pa.array(n_tokens),
                "n_chars": pa.array(n_chars),
                "stop_cnt": pa.array(stop_cnt),
                "punct_cnt": pa.array(n_punct),
            }
        )


class LangId:
    """Stopword-profile language identifier (n-gram-free heuristic):
    argmax over languages of stopword-hit ratio; 'und' when no evidence.
    Profiles compiled once per actor (reference T2 pattern)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text"):
        self.id_col = id_col
        self.text_col = text_col
        self.profiles = {lg: frozenset(ws) for lg, ws in STOPWORDS.items()}

    def _predict_array(self, texts: pa.Array) -> list[str]:
        """Vectorized batch path: stopword membership is computed ONCE
        per unique token of the batch (dictionary encode), per-doc hit
        counts per language are cumsum-diff segment sums, and the
        argmax keeps the per-row loop's exact tie semantics (first
        language in sorted order wins; zero hits -> 'und')."""
        from auctus_ray.tokenize import tokenize_array

        toks = tokenize_array(texts, "simple")
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        n_docs = offs.size - 1
        flat = toks.flatten()
        langs = sorted(self.profiles)
        if len(flat) == 0:
            return ["und"] * n_docs
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        enc = flat.dictionary_encode()
        vocab = enc.dictionary.to_pylist()
        member = np.zeros((len(vocab), len(langs)), np.int32)
        for j, lg in enumerate(langs):
            prof = self.profiles[lg]
            for i, tok in enumerate(vocab):
                if tok in prof:
                    member[i, j] = 1
        idx = enc.indices.to_numpy(zero_copy_only=False)
        occ = member[idx]  # (n_flat, n_langs)
        csum = np.zeros((occ.shape[0] + 1, len(langs)), np.int64)
        np.cumsum(occ, axis=0, out=csum[1:])
        hits = csum[offs[1:]] - csum[offs[:-1]]  # (n_docs, n_langs)
        best = hits.argmax(axis=1)  # first max wins == sorted-order tie
        has = hits[np.arange(n_docs), best] > 0
        return [langs[b] if h else "und" for b, h in zip(best, has)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        preds = self._predict_array(texts)
        return pa.table(
            {self.id_col: batch[self.id_col], "lang_pred": pa.array(preds, pa.string())}
        )


def fingerprint_batch(batch: pa.Table, *, id_col: str = "doc_id",
                      text_col: str = "text", window: int = 8) -> pa.Table:
    """Winnowing-style document fingerprint: the minimum windowed
    token-hash per doc plus the full-content sha256. Deterministic;
    rows-only oracle (not SQL-expressible).

    Round-2: the window hash is the same vectorized rolling-polynomial
    over blake2b token hashes the dedup chain uses
    (functions/dedup.py:_shingle_hashes) — one batch-level pass instead
    of per-row Python hashing of joined token strings. The fingerprint
    VALUES therefore changed definition between rounds (both are
    deterministic content fingerprints; no external contract)."""
    from auctus_ray.functions.dedup import _shingle_hashes, _token_hashes
    from auctus_ray.tokenize import tokenize_array

    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = tokenize_array(texts, "simple")
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offs = offs - offs[0]
    th = _token_hashes(toks.flatten())
    sh, soff = _shingle_hashes(th, offs, window)
    sh = (sh >> np.uint64(1)).astype(np.int64)
    n_docs = soff.size - 1
    mins = np.zeros(n_docs, np.int64)
    nonempty = np.flatnonzero(np.diff(soff) > 0)
    if nonempty.size:
        mins[nonempty] = np.minimum.reduceat(sh, soff[nonempty])
    from auctus_ray.util import sha256_hex_array

    return pa.table(
        {
            id_col: pc.cast(batch[id_col], pa.int64()),
            "fingerprint_min": pa.array(mins),
            # buffer-level pass shared with index/build.py — no to_pylist()
            "content_sha256": sha256_hex_array(texts),
        }
    )
