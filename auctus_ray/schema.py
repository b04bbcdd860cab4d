"""Arrow schemas of the engine's inputs: the code corpus and query sets.

The corpus schema comes from the graft contract (BASELINE.json input_hint).
The index's own files are described where they are written: the docmap,
``global_stats.parquet`` and the term dictionary in index/build.py, the
postings files in index/codec.py.
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

QUERY_SET = pa.schema(
    [
        ("qid", pa.int64()),
        ("query", pa.string()),
        ("k", pa.int64()),
        ("operator", pa.string()),  # 'and' | 'or' (search/__init__.py:70)
    ]
)
