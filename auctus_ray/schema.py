"""Arrow schemas for every dataset the engine produces or consumes.

The corpus schema comes from the graft contract (BASELINE.json input_hint);
the index-side schemas re-express the reference's 5 Elasticsearch indices
(coordinator/coordinator/elasticsearch.yml in /root/reference) as Parquet
datasets: ``datasets`` -> forward map, index stats -> term stats +
global stats. The postings files and the term dictionary are not Arrow
datasets; index/codec.py and index/build.py describe them.
"""

from __future__ import annotations

import pyarrow as pa

# build input (BASELINE.json input_hint)
CORPUS = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

# docID -> row identity + per-row invariant sha256 + doc length
FORWARD_MAP = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("sha256", pa.string()),
        ("dl", pa.int64()),
    ]
)

# single-row global stats
GLOBAL_STATS = pa.schema(
    [
        ("n_docs", pa.int64()),
        ("n_tokens", pa.int64()),
        ("avgdl", pa.float64()),
        ("n_terms", pa.int64()),
        ("n_shards", pa.int32()),
        ("analyzer", pa.string()),
    ]
)

QUERY_SET = pa.schema(
    [
        ("qid", pa.int64()),
        ("query", pa.string()),
        ("k", pa.int64()),
        ("operator", pa.string()),  # 'and' | 'or' (search/__init__.py:70)
    ]
)

# golden output per query (oracle + engine)
TOPK_RESULT = pa.schema(
    [
        ("qid", pa.int64()),
        ("rank", pa.int64()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
    ]
)
