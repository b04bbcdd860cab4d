"""Session-scoped Ray + shared fixtures. Ray is initialized ONCE."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """~200-row deterministic corpus (FIXTURES.md 'tiny')."""
    from auctus_ray.sources.code_corpus import generate_corpus

    d = str(tmp_path_factory.mktemp("corpus_tiny"))
    paths = generate_corpus(d, n_rows=200, rows_per_file=50, mean_tokens=60)
    return d, paths


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """~1200-row corpus for golden top-k tests (FIXTURES.md 'small')."""
    from auctus_ray.sources.code_corpus import generate_corpus

    d = str(tmp_path_factory.mktemp("corpus_small"))
    paths = generate_corpus(d, n_rows=1200, rows_per_file=300, mean_tokens=90)
    return d, paths


@pytest.fixture(scope="session")
def built_index(ray_session, small_corpus, tmp_path_factory):
    """Index built once over the small corpus, shared across query tests."""
    from auctus_ray.index.build import build_index

    d, paths = small_corpus
    idx_dir = str(tmp_path_factory.mktemp("index_small"))
    result = build_index(paths, idx_dir, n_shards=8, files_per_group=2)
    return result


@pytest.fixture(scope="session")
def oracle_small(small_corpus):
    import pyarrow.parquet as pq

    from auctus_ray.index.oracle import OracleIndex

    import pyarrow as pa

    d, paths = small_corpus
    corpus = pa.concat_tables([pq.read_table(p) for p in paths])
    return OracleIndex(corpus)


SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def read_dictionary():
    """A reader of an index directory's term dictionary
    (postings/terms.bin), through `TermDictionary.rows`, as one table of
    its rows (term, shard, df, offset, nbytes) in file order."""
    import pyarrow as pa

    from auctus_ray.index.codec import TermDictionary

    def read(index_dir: str) -> pa.Table:
        rows = TermDictionary(os.path.join(index_dir, "postings", "terms.bin")).rows()
        return pa.table(list(rows), names=["term", "shard", "df", "offset", "nbytes"])

    return read
