"""Seeded benchmark inputs: the code corpus, its ingest slices and the
query pool. The program sees only these generated files and strings."""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np

from auctus_ray.sources import code_corpus
from auctus_ray.sources.code_corpus import (
    CAMEL_PARTS,
    COMMON_POOL,
    generate_corpus,
    generate_query_set,
)

MEAN_TOKENS = 200
CACHED_CORPORA = 32


def _rng(seed: int, tag: str) -> np.random.Generator:
    h = hashlib.sha256(f"perfbench:{seed}:{tag}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(h[:8], "little")))


def make_corpus(cache_dir: str, seed: int, n_docs: int, rows_per_file: int) -> list[str]:
    """The seeded corpus as Parquet files; returns their paths. Corpora are
    cached under a key covering the generator source, seed and size; the
    oldest are evicted beyond CACHED_CORPORA."""
    key = hashlib.sha256(repr(
        (source_digest(code_corpus), seed, n_docs, rows_per_file, MEAN_TOKENS)
    ).encode()).hexdigest()[:16]
    out_dir = os.path.join(cache_dir, f"corpus-{key}")
    if not os.path.isdir(out_dir):
        tmp = f"{out_dir}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        generate_corpus(tmp, n_rows=n_docs, seed=seed, rows_per_file=rows_per_file,
                        mean_tokens=MEAN_TOKENS)
        try:
            os.replace(tmp, out_dir)
        except OSError:  # a concurrent run cached the same corpus first
            shutil.rmtree(tmp, ignore_errors=True)
        cached = sorted(glob.glob(os.path.join(cache_dir, "corpus-*[0-9a-f]")),
                        key=os.path.getmtime)
        for old in cached[:-CACHED_CORPORA]:
            shutil.rmtree(old, ignore_errors=True)
    return sorted(glob.glob(os.path.join(out_dir, "*.parquet")))


# Kinds of the successive terms of generated queries. Every seed gets the
# same mix of kinds and of (terms, k, operator) cells, so a seed changes
# which terms are asked, not how costly the pool is.
TERM_KINDS = ("common", "common", "part", "camel", "common", "rare", "part", "common")
GOLDEN = 0.6180339887498949


def reference_queries() -> list[tuple[str, int, str]]:
    """The program's 24 reference (query, k, operator) triples."""
    qs = generate_query_set()
    return list(zip(qs["query"].to_pylist(), qs["k"].to_pylist(), qs["operator"].to_pylist()))


def query_pool(seed: int, n_docs: int, n_generated: int) -> list[tuple[str, int, str]]:
    """The reference queries, first, plus n_generated seeded queries: 1-3
    terms mixing common pool terms (Zipf-weighted), identifier parts,
    camelCased part pairs and rare one-document terms, an equal share in
    each (terms, k in {10, 50}, operator in {and, or}) cell."""
    pool = reference_queries()
    rng = _rng(seed, "pool")
    zipf_cdf = np.cumsum(1.0 / np.arange(1, len(COMMON_POOL) + 1))
    zipf_cdf /= zipf_cdf[-1]
    parts = rng.permutation(len(CAMEL_PARTS))
    u0 = rng.random()
    counter = {"common": 0, "part": 0}

    def term(kind: str) -> str:
        if kind == "common":
            # low-discrepancy quantiles: the common terms follow the Zipf
            # law closely for every seed
            u = (u0 + counter["common"] * GOLDEN) % 1.0
            counter["common"] += 1
            return COMMON_POOL[int(np.searchsorted(zipf_cdf, u))]
        if kind == "part":
            counter["part"] += 1
            return CAMEL_PARTS[parts[counter["part"] % len(parts)]]
        if kind == "camel":
            a, b = rng.choice(CAMEL_PARTS, size=2)
            return f"{a}{str(b).capitalize()}"
        return f"rareterm{int(rng.integers(0, max(1, n_docs // 5))) * 5}x"

    cells = [(n, k, op) for n in (1, 2, 3) for k in (10, 50) for op in ("and", "or")]
    seen = set(pool)
    slot = 0
    for n_terms, k, op in cells:
        made = 0
        while made < n_generated // len(cells):
            terms = []
            for _ in range(n_terms):
                terms.append(term(TERM_KINDS[slot % len(TERM_KINDS)]))
                slot += 1
            q = (" ".join(terms), k, op)
            if q not in seen:
                seen.add(q)
                pool.append(q)
                made += 1
    return pool


def hot_ranking(seed: int, pool: list) -> np.ndarray:
    """A seeded popularity ranking of the whole pool (reference and
    generated queries alike) in which k = 10 and k = 50 queries alternate
    down the ranks. Hydrating the k hits is most of a warm query's time,
    so without the alternation a seed's latencies would mostly say which
    k its few hottest queries drew."""
    rng = _rng(seed, "hot-ranking")
    keyed = []
    for k in sorted({q[1] for q in pool}):
        group = rng.permutation([i for i, q in enumerate(pool) if q[1] == k])
        keyed += [((r + 0.5) / len(group), k, int(i)) for r, i in enumerate(group)]
    return np.array([i for _, _, i in sorted(keyed)])


def zipf_stream(seed: int, pool: list, n: int, s: float = 1.0) -> np.ndarray:
    """n pool indices following a Zipf(s) law over hot_ranking(seed, pool):
    a few hot queries carry most of the load and a long tail repeats
    rarely. Query popularity in search-engine logs follows such a power
    law (Xie and O'Hallaron, "Locality in search engine queries and its
    implications for caching", INFOCOM 2002; Baeza-Yates et al., "The
    impact of caching on search engines", SIGIR 2007). The exponent s = 1
    is Zipf's law itself, chosen rather than fitted to one log. The draws
    are low-discrepancy quantiles, so every prefix of the stream holds
    each query close to its Zipf share."""
    rng = _rng(seed, "zipf")
    order = hot_ranking(seed, pool)
    cdf = np.cumsum(1.0 / np.arange(1, len(pool) + 1) ** s)
    cdf /= cdf[-1]
    u = (rng.random() + np.arange(n) * GOLDEN) % 1.0
    return order[np.minimum(np.searchsorted(cdf, u), len(pool) - 1)]


def uniform_stream(seed: int, pool_size: int, n: int, tag: str = "uniform") -> np.ndarray:
    """n pool indices, every query equally often: back-to-back seeded
    permutations of the pool, so a run's query mix does not depend on
    how many queries it gets through."""
    rng = _rng(seed, tag)
    passes = -(-n // pool_size)
    return np.concatenate([rng.permutation(pool_size) for _ in range(passes)])[:n]


def delete_picks(seed: int, cycle: int, paths: list[str], n: int) -> list[str]:
    """The docs (by path) tombstoned after a given ingest cycle."""
    rng = _rng(seed, f"delete:{cycle}")
    idx = rng.choice(len(paths), size=min(n, len(paths)), replace=False)
    return sorted(paths[int(i)] for i in idx)


def source_digest(*modules) -> str:
    """Digest of module sources: part of every on-disk cache key."""
    h = hashlib.sha256()
    for m in modules:
        with open(os.path.abspath(m.__file__), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]
