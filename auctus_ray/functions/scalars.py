"""Scalar string utilities mirroring reference semantics.

Each function documents the reference behavior it reproduces (file:line
into /root/reference); implementations are written fresh and, where used
in hot paths, operate on whole Arrow arrays.
"""

from __future__ import annotations

import html.entities
import re

# ---------------------------------------------------------------- html

_LINK = re.compile(r'<a [^>]*\bhref="(https?://[^"]+)"[^>]*>(.*?)</a>')
_TAG = re.compile(r"</?(?:a|acronym|br|div|em|h[1-5]|li|ol|p|span|ul)(?: [^>]*)?/?>")
_ENTITY = re.compile(r"&([A-Za-z]{2,35};)")


def strip_html(text: str) -> str:
    """ES html_strip-equivalent used at index time by the reference
    (lib_core/datamart_core/common.py:296-336): anchor tags become
    "label (url)" unless label == url, a fixed tag set is removed, and
    HTML5 entities are decoded."""

    def _canon(u: str) -> str:
        for prefix in ("https://", "http://"):
            if u.startswith(prefix):
                u = u[len(prefix):]
                break
        return u.rstrip("/")

    def _link(m: re.Match) -> str:
        url, label = m.group(1), m.group(2)
        return label if _canon(url) == _canon(label) else f"{label} ({url})"

    out = _LINK.sub(_link, text)
    out = _TAG.sub("", out)
    return _ENTITY.sub(
        lambda m: html.entities.html5.get(m.group(1), m.group(0)), out
    )


# ---------------------------------------------------------------- truncate


def truncate_string(s: str, limit: int = 140) -> str:
    """Word-boundary truncation with '...' (lib_profiler/datamart_profiler/
    core.py:81-92): cut at the last space in [limit-20, limit-3), else
    hard-cut at limit-3."""
    if len(s) <= limit:
        return s
    cut = s.rfind(" ", limit - 20, limit - 3)
    if cut < 0:
        cut = limit - 3
    return s[:cut] + "..."


# ---------------------------------------------------------------- ids


_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def encode_dataset_id(dataset_id: str) -> str:
    """Bijective path-safe ID encoding (lib_core common.py:251-261):
    double underscores, then hex-escape every non-path-safe char.

    Deviation (bug fix): the reference emits variable-width '%X' escapes
    but decodes exactly two hex chars, so it round-trips only codepoints
    in [0x10, 0xFF]. Here escapes are fixed-width '_%02X' for <0x100
    (identical to the reference on its supported range) and '_u%06X'
    above, making the scheme total and bijective."""
    doubled = dataset_id.replace("_", "__")

    def esc(m: re.Match) -> str:
        cp = ord(m.group(0))
        return "_%02X" % cp if cp < 0x100 else "_u%06X" % cp

    return _UNSAFE.sub(esc, doubled)


def decode_dataset_id(encoded: str) -> str:
    """Inverse of encode_dataset_id (lib_core common.py:264-278)."""
    out = []
    i = 0
    while i < len(encoded):
        c = encoded[i]
        if c != "_":
            out.append(c)
            i += 1
        elif i + 1 < len(encoded) and encoded[i + 1] == "_":
            out.append("_")
            i += 2
        elif i + 1 < len(encoded) and encoded[i + 1] == "u":
            out.append(chr(int(encoded[i + 2 : i + 8], 16)))
            i += 8
        else:
            out.append(chr(int(encoded[i + 1 : i + 3], 16)))
            i += 3
    return "".join(out)


# ---------------------------------------------------------------- 3-gram similarity


def name_similarity_counts(a: str, b: str) -> tuple[int, int]:
    """(intersection, union) multiset counts of character 3-grams —
    the exact-integer core of the union-search similarity
    (apiserver/search/union.py:13-30); strings shorter than 3 chars
    count as a single gram. Integer output keeps downstream scores
    hash-comparable with a SQL oracle (no float drift)."""
    from collections import Counter

    def grams(s: str) -> Counter:
        if len(s) < 3:
            return Counter([s])
        return Counter(s[i : i + 3] for i in range(len(s) - 2))

    ga, gb = grams(a), grams(b)
    inter = sum((ga & gb).values())
    union = sum((ga | gb).values())
    return inter, union


def name_similarity(a: str, b: str) -> float:
    """Union-search column-name similarity (apiserver/search/union.py:13-30):
    multiset-Jaccard over character 3-grams."""
    inter, union = name_similarity_counts(a, b)
    return inter / union if union else 0.0


def edit_distance(a: str, b: str, cap: int = 2) -> int:
    """Banded Levenshtein distance, early-exit above `cap` (returns
    cap+1). The ES `fuzzy` query's max edit distance is 2
    (apiserver/search/union.py:58-105 uses it for column names)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    if a == b:
        return 0
    if la == 0 or lb == 0:  # banded loop below skips empty strings
        return max(la, lb)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = max(1, i - cap)
        hi = min(lb, i + cap)
        if lo > 1:
            cur[lo - 1] = cap + 1
        best = cap + 1
        for j in range(lo, hi + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1 if j - 1 >= lo - 1 else cap + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
            best = min(best, cur[j])
        if best > cap:
            return cap + 1
        # cells outside the band are effectively > cap
        for j in range(0, lo - 1):
            cur[j] = cap + 1
        for j in range(hi + 1, lb + 1):
            cur[j] = cap + 1
        prev = cur
    return prev[lb] if prev[lb] <= cap else cap + 1


def auto_fuzziness(term: str) -> int:
    """ES `fuzziness: AUTO` edit budget by term length — 0 edits for
    names under 3 chars, 1 for 3-5, 2 for 6+. The reference's fuzzy
    clause sets no explicit fuzziness (search/union.py:95), so it
    inherits AUTO; a flat cap of 2 would admit short-name pairs
    ('id'~'no') ES rejects."""
    n = len(term)
    return 0 if n < 3 else (1 if n <= 5 else 2)

