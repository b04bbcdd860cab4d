"""auctus_ray — a Ray-Data-native full-text index + BM25 search engine.

A from-scratch re-expression of the search core of VIDA-NYU/auctus (which
delegates indexing/ranking to Elasticsearch 7.10 + Lazo) as an explicit
Ray Data pipeline over Parquet tables of source code:

    read_parquet -> map_batches(tokenize, zero-copy Arrow) -> filesystem
    shuffle by docID bucket -> per-bucket docIDs + posting-block encode ->
    driver-side term-stats merge -> sharded Parquet index + forward map +
    BM25 query layer (vectorized top-k).

Reference semantics mirrored (citations into /root/reference):
  * analyzer chain: coordinator/coordinator/elasticsearch.yml:2-31
  * code-aware identifier splitting: lib_profiler/datamart_profiler/core.py:100-123
  * BM25 defaults k1=1.2 b=0.75 (ES 7.10, no similarity override)
  * top-k contract: apiserver/apiserver/search/base.py:1 (TOP_K_SIZE=50)
"""

__version__ = "0.1.0"

K1 = 1.2
B = 0.75
TOP_K_SIZE = 50
