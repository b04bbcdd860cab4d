"""Code-aware tokenization, vectorized over Arrow string arrays.

Mirrors the reference analyzer semantics:
  * ES chain ``standard tokenizer -> lowercase`` for indexed text
    (coordinator/coordinator/elasticsearch.yml:2-31 in /root/reference)
  * Auctus's own identifier splitter ``expand_attribute_name``
    (lib_profiler/datamart_profiler/core.py:100-123): split on
    punctuation/whitespace, at digit<->alpha boundaries, and at
    lower->UPPER camelCase boundaries.

Two analyzers:
  * ``code``   — the full chain above (camelCase/digit sub-splitting), used
                 for the source-code corpus. Oracle and engine share this
                 exact function, so rank-identity is testable.
  * ``simple`` — lowercase + runs of [a-z0-9]; exactly expressible in
                 DuckDB as ``regexp_extract_all(lower(x), '[a-z0-9]+')``,
                 used for pipelines that are cross-checked by SQL oracles.

All functions are pure and deterministic, with no per-row Python in the
hot path. The Arrow regex chain (``_regex_tokens``: three camelCase/digit
replaces, ``utf8_lower``, a split on ``[^a-z0-9]+``) is the one
definition of every analyzer. Rows that are pure ASCII take a byte pass
that computes the same tokens from a byte class per byte of the value
buffer (``_byte_tokens``); a row holding any non-ASCII byte keeps the
regex chain, because ``utf8_lower`` folds some non-ASCII code points to
ASCII letters. A test compares the two on random input.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from auctus_ray.util import string_buffer_view

# lower|digit -> UPPER boundary; alpha -> digit; digit -> alpha
_RE_CAMEL = r"([a-z0-9])([A-Z])"
_RE_ALPHA_DIGIT = r"([A-Za-z])([0-9])"
_RE_DIGIT_ALPHA = r"([0-9])([A-Za-z])"
_SPLIT_PATTERN = r"[^a-z0-9]+"

ANALYZERS = ("code", "simple", "code_stem", "text_en")
# "code_stem" = code chain + Porter stemming; "text_en" = html_strip +
# lowercase + [a-z0-9]+ + Porter stemming — the reference's full ES
# index-time chain (elasticsearch.yml:2-31) for natural-language text.


def tokenize_array(arr: pa.Array | pa.ChunkedArray, analyzer: str = "code") -> pa.Array:
    """Tokenize a string array -> ListArray<string> of terms (vectorized).

    Null inputs are treated as empty strings (no tokens) — the reference
    coerces missing cells to '' (lib_profiler core.py:199, na_filter=False).
    """
    if analyzer not in ANALYZERS:
        raise ValueError(f"unknown analyzer {analyzer!r}")
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if analyzer == "text_en":
        # html_strip char filter (per-row Python; only for text corpora)
        from auctus_ray.functions.scalars import strip_html

        arr = pa.array([strip_html(s) for s in arr.to_pylist()], pa.string())
    out = _split_tokens(arr, analyzer in ("code", "code_stem"))
    if analyzer in ("code_stem", "text_en"):
        out = stem_list_array(out)
    return out


def _regex_tokens(arr: pa.Array, camel: bool) -> pa.Array:
    """The analyzer's definition: (camelCase/digit spaces) -> utf8_lower ->
    split on [^a-z0-9]+ -> drop empty tokens, all Arrow regex kernels."""
    x = arr
    if camel:
        x = pc.replace_substring_regex(x, pattern=_RE_CAMEL, replacement=r"\1 \2")
        x = pc.replace_substring_regex(x, pattern=_RE_ALPHA_DIGIT, replacement=r"\1 \2")
        x = pc.replace_substring_regex(x, pattern=_RE_DIGIT_ALPHA, replacement=r"\1 \2")
    x = pc.utf8_lower(x)
    toks = pc.split_pattern_regex(x, pattern=_SPLIT_PATTERN)
    # split leaves empty strings at the edges (e.g. leading separator);
    # drop them with a vectorized list filter: flatten -> mask -> rebuild.
    return _drop_empty_tokens(toks)


def _split_tokens(arr: pa.Array, camel: bool) -> pa.Array:
    """``_regex_tokens`` of a null-free string array, computed by the byte
    pass for its ASCII rows and by the regex chain for the rest.

    A row holding any byte >= 0x80 keeps the regex chain: ``utf8_lower``
    maps some non-ASCII code points to ASCII letters (U+212A -> 'k',
    U+0130 -> 'i'), which no byte rule sees. A mixed array tokenizes its
    two row sets separately, each pass over its own rows' bytes only, and
    interleaves them back into row order."""
    n, large = len(arr), pa.types.is_large_string(arr.type)
    buf, offs = _value_bytes(arr)
    slow = np.zeros(n, bool)
    rows = np.flatnonzero(offs[:-1] < offs[1:])  # the non-empty rows
    if len(rows):
        # each non-empty row's maximum byte: a row's bytes run up to the
        # next non-empty row's start
        slow[rows] = np.maximum.reduceat(buf, offs[rows]) >= 0x80
    if not slow.any():
        return _byte_tokens(buf, offs, camel, large)
    if slow.all():
        return _regex_tokens(arr, camel)
    fast_rows, slow_rows = np.flatnonzero(~slow), np.flatnonzero(slow)
    fast = _byte_tokens(*_value_bytes(arr.take(pa.array(fast_rows))), camel, large)
    wide = _regex_tokens(arr.take(pa.array(slow_rows)), camel)
    order = np.empty(n, np.int64)
    order[fast_rows] = np.arange(len(fast_rows))
    order[slow_rows] = np.arange(len(fast_rows), n)
    return pa.concat_arrays([fast, wide]).take(pa.array(order))


def _value_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """A null-free string array's value bytes and its row offsets into
    them, both starting at 0."""
    offs, view = string_buffer_view(arr)
    return np.frombuffer(view, np.uint8)[offs[0]:offs[-1]], offs - offs[0]


def _byte_tokens(buf: np.ndarray, offs: np.ndarray, camel: bool,
                 large: bool) -> pa.Array:
    """The byte pass: a token is a maximal run of [A-Za-z0-9] bytes, cut
    at every row start and, under ``camel``, where the regex chain puts a
    space: lower|digit -> upper, letter -> digit and digit -> letter, i.e.
    at every class change but upper -> lower. The three patterns' matches
    never overlap, so the chain's breaks are the union of these pair
    tests on the original bytes. Every row must be pure ASCII."""
    # uint8 subtraction wraps below the range start: one compare per class
    lower = (buf - ord("a")) < 26
    upper = (buf - ord("A")) < 26
    digit = (buf - ord("0")) < 10
    alnum = lower | upper | digit
    start = np.empty(len(buf), bool)  # a token's first byte
    if camel:
        cls = lower.view(np.uint8) + (upper.view(np.uint8) << 1)
        cls += digit.view(np.uint8) * 3
        np.not_equal(cls[:-1], cls[1:], out=start[1:])
        start[1:] &= ~(upper[:-1] & lower[1:])
    else:
        np.logical_not(alnum[:-1], out=start[1:])
    start[1:] &= alnum[1:]
    first = offs[:-1][offs[:-1] < offs[1:]]  # includes byte 0 if any
    start[first] = alnum[first]
    end = np.empty(len(buf), bool)  # a token's last byte
    end[-1:] = True
    np.logical_not(alnum[1:], out=end[:-1])
    end[:-1] |= start[1:]
    end &= alnum
    token_pos = np.flatnonzero(start)
    list_offs = np.searchsorted(token_pos, offs).astype(np.int32)
    value_offs = np.zeros(len(token_pos) + 1, np.int64 if large else np.int32)
    np.cumsum(np.flatnonzero(end) + 1 - token_pos, out=value_offs[1:])
    # every kept byte is [A-Za-z0-9]; OR-ing 0x20 lowercases a letter and
    # leaves a digit as it is
    kept = buf[alnum] | 0x20
    values = pa.Array.from_buffers(
        pa.large_string() if large else pa.string(), len(token_pos),
        [None, pa.py_buffer(value_offs), pa.py_buffer(kept)])
    return pa.ListArray.from_arrays(pa.array(list_offs), values)


def stem_list_array(list_arr: pa.Array) -> pa.Array:
    """Porter-stem a ListArray<string>: stem only the dictionary of unique
    tokens, then map back — amortizes the per-token Python cost."""
    from auctus_ray.functions.stemmer import porter_stem

    if isinstance(list_arr, pa.ChunkedArray):
        list_arr = list_arr.combine_chunks()
    flat = list_arr.flatten()
    if len(flat) == 0:
        return list_arr
    enc = flat.dictionary_encode()
    stemmed_dict = pa.array(
        [porter_stem(t) for t in enc.dictionary.to_pylist()], pa.string()
    )
    new_flat = stemmed_dict.take(enc.indices)
    # flatten() re-bases values to 0; a SLICED input's offsets don't
    # start at 0, so rebase them too (the _drop_empty_tokens discipline)
    offsets = pc.subtract(list_arr.offsets, list_arr.offsets[0])
    return pa.ListArray.from_arrays(offsets.cast(pa.int32()), new_flat)


def _drop_empty_tokens(list_arr: pa.Array) -> pa.Array:
    flat = list_arr.flatten()
    keep = pc.not_equal(flat, "")
    # new offsets = prefix sum of kept counts per list
    offsets = list_arr.offsets.to_numpy(zero_copy_only=False)
    keep_np = keep.to_numpy(zero_copy_only=False)
    kept_cum = np.concatenate([[0], np.cumsum(keep_np)])
    new_offsets = kept_cum[offsets - offsets[0]].astype(np.int32)
    new_values = flat.filter(keep)
    return pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()), new_values)


def tokenize_text(text: str, analyzer: str = "code") -> list[str]:
    """Single-string tokenizer — same semantics as tokenize_array BY
    CONSTRUCTION: it delegates to the vectorized path on a 1-element
    array. A hand-written Python twin drifted on Unicode
    special-casing (str.lower() maps U+0130 to 'i'+combining-dot while
    Arrow's utf8_lower maps it to 'i'), splitting query tokenization
    away from index tokenization on such codepoints.

    Used by the query layer and the brute-force oracle so engine and
    oracle share one tokenization definition (SURVEY.md §7.2).
    """
    if text is None:
        return []
    out = tokenize_array(pa.array([text], pa.string()), analyzer)
    return out[0].as_py() if len(out) else []
