"""Brute-force exact BM25 oracle — the reference engine for rank-identity.

Plays the role Elasticsearch plays in the reference (BM25 k1=1.2 b=0.75,
ES 7.10 defaults, no similarity override — docker-compose.yml:4 +
coordinator/elasticsearch.yml in /root/reference), restated as a pure
Python/numpy scorer over a tokenized in-memory corpus.

Float discipline (SURVEY.md §7.4): all scores are float64; a document's
score is the sum of its per-term contributions **in lexicographically
sorted term order**; ties broken by ascending docID. The engine follows
the identical discipline, so top-k must match bit-for-bit.

``operator='and'`` mirrors the reference's conjunctive multi_match
(apiserver/apiserver/search/__init__.py:70); 'or' is the disjunctive
variant.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from auctus_ray import B, K1
from auctus_ray.index.codec import bm25_idf
from auctus_ray.index.docid import assign_doc_ids_local
from auctus_ray.tokenize import tokenize_text


class OracleIndex:
    """In-memory exact index over a corpus Arrow table."""

    def __init__(self, corpus: pa.Table, analyzer: str = "code",
                 synonyms: dict[str, list[str]] | None = None):
        self.analyzer = analyzer
        self.synonyms = synonyms or {}
        self._attr_by_doc: dict[str, dict[int, str]] = {}
        doc_ids = assign_doc_ids_local(corpus)
        contents = corpus["content"].to_pylist()
        self.n_docs = len(contents)
        # postings[term] -> dict doc_id -> tf
        postings: dict[str, dict[int, int]] = {}
        self._dl_by_doc: dict[int, int] = {}
        for did, text in zip(doc_ids.tolist(), contents):
            toks = tokenize_text(text or "", analyzer)
            self._dl_by_doc[did] = len(toks)
            for t, tf in Counter(toks).items():
                postings.setdefault(t, {})[did] = tf
        self.postings = postings
        total = sum(self._dl_by_doc.values())
        self.avgdl = (total / self.n_docs) if self.n_docs else 0.0
        for col in ("lang", "repo"):
            if col in corpus.column_names:
                self._attr_by_doc[col] = dict(
                    zip(doc_ids.tolist(), corpus[col].to_pylist())
                )

    def search(self, query: str, k: int = 10, operator: str = "and",
               filters: dict[str, list] | None = None, offset: int = 0,
               facet_by: str | None = None):
        """Exact top-k: returns (doc_ids, scores) float64, ties by docID asc.
        With facet_by, a third element: value -> count over ALL matches."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if facet_by:
            empty = (*empty, {})
        base_terms = set(tokenize_text(query, self.analyzer))
        if self.synonyms:
            for t in list(base_terms):
                for syn in self.synonyms.get(t, ()):
                    base_terms.update(tokenize_text(syn, self.analyzer))
        terms = sorted(base_terms)
        if not terms:
            return empty
        per_term = []
        for t in terms:
            plist = self.postings.get(t)
            if plist is None:
                if operator == "and":
                    return empty
                continue
            per_term.append((t, plist))
        if not per_term:
            return empty

        if operator == "and":
            docs = set(per_term[0][1])
            for _, plist in per_term[1:]:
                docs &= set(plist)
        else:
            docs = set()
            for _, plist in per_term:
                docs |= set(plist)
        if filters:
            for attr, allowed in filters.items():
                amap = self._attr_by_doc.get(attr, {})
                allow = set(allowed)
                docs = {d for d in docs if amap.get(d) in allow}
        if not docs:
            return empty

        doc_arr = np.array(sorted(docs), dtype=np.int64)
        scores = np.zeros(doc_arr.size, dtype=np.float64)
        pos = {d: i for i, d in enumerate(doc_arr.tolist())}
        # term-sorted accumulation order (float discipline)
        for t, plist in per_term:
            idf = float(bm25_idf(float(len(plist)), self.n_docs))
            for d, tf in plist.items():
                i = pos.get(d)
                if i is None:
                    continue
                dl = self._dl_by_doc[d]
                tfn = tf / (tf + K1 * (1.0 - B + B * dl / self.avgdl))
                scores[i] += idf * tfn
        # top-k: score desc, docID asc  (docID asc = stable sort on -score)
        order = np.argsort(-scores, kind="stable")[offset : offset + k]
        if facet_by is None:
            return doc_arr[order], scores[order]
        amap = self._attr_by_doc.get(facet_by, {})
        from collections import Counter

        # null attrs bucket as '__missing__', matching the engine
        # (search.py facet counting); key parity is the whole point of
        # an oracle facet
        counts = dict(
            Counter(
                v if (v := amap.get(int(d))) is not None else "__missing__"
                for d in doc_arr
            )
        )
        return doc_arr[order], scores[order], counts
