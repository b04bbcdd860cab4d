"""Curation operators: deterministic hash split, PII redaction parity
with DuckDB's RE2, benchmark decontamination with planted fixtures, and
the fixed probe constants the driver queries rely on."""

import duckdb
import numpy as np
import pyarrow as pa

from auctus_ray.functions.curation import (
    PII_PATTERNS,
    assign_split_batch,
    benchmark_gram_hashes,
    contamination_counts,
    hash_split,
    redact_batch,
    split_buckets,
)
from auctus_ray.functions.dedup import shingle_hash_positions


def test_split_buckets_match_duckdb():
    ids = np.array([0, 1, 2, 7, 99, 10**6, 2**40 + 3, 2**62], np.int64)
    got = split_buckets(ids)
    con = duckdb.connect()
    want = [
        con.execute(
            "SELECT ((?::BIGINT % 4294967296)::UBIGINT * 2654435761::UBIGINT)"
            " % 4294967296 % 100",
            [int(i)],
        ).fetchone()[0]
        for i in ids
    ]
    assert got.tolist() == want


def test_split_deterministic_and_proportioned(ray_session):
    import ray.data

    t = pa.table({"doc_id": pa.array(range(5000), pa.int64())})
    out = hash_split(ray.data.from_arrow(t)).take_all()
    by_id = {r["doc_id"]: r["split"] for r in out}
    counts = {"train": 0, "val": 0, "test": 0}
    for s in by_id.values():
        counts[s] += 1
    assert abs(counts["train"] - 4000) < 200
    assert abs(counts["val"] - 500) < 100
    assert abs(counts["test"] - 500) < 100
    # split depends only on the id, not on batching/partitioning
    re_out = (
        hash_split(ray.data.from_arrow(t).repartition(7)).take_all()
    )
    assert {r["doc_id"]: r["split"] for r in re_out} == by_id
    # batch-level function agrees
    local = assign_split_batch(t)
    assert {
        i.as_py(): s.as_py()
        for i, s in zip(local.column("doc_id"), local.column("split"))
    } == by_id


PII_FIXTURE = [
    ("reach me at bob@example.com thanks", "reach me at [EMAIL] thanks"),
    ("my ssn is 123-45-6789 ok", "my ssn is [SSN] ok"),
    ("call +1 (555) 123-4567 today", "call [PHONE] today"),
    ("overlap 999-88-7777 then a@b.co then 555-123-9876 end",
     "overlap [SSN] then [EMAIL] then [PHONE] end"),
    ("nothing sensitive here", "nothing sensitive here"),
]


def test_redact_presets_planted():
    t = pa.table(
        {
            "doc_id": pa.array(range(len(PII_FIXTURE)), pa.int64()),
            "text": pa.array([x for x, _ in PII_FIXTURE], pa.string()),
        }
    )
    out = redact_batch(t)
    assert out.column("clean").to_pylist() == [y for _, y in PII_FIXTURE]


def test_redact_parity_with_duckdb():
    con = duckdb.connect()
    expr = "t"
    for pat, repl in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{pat}', '{repl}', 'g')"
    for raw, _ in PII_FIXTURE:
        want = con.execute(f"SELECT {expr} FROM (SELECT ? AS t)", [raw]).fetchone()[0]
        got = (
            redact_batch(pa.table({"text": pa.array([raw])}))
            .column("clean")
            .to_pylist()[0]
        )
        assert got == want, raw


def test_decontamination_planted(ray_session):
    import ray.data

    bench = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f g h i j",  # 3 8-grams
                    "x y z",  # short-doc collapse: one gram over 3 tokens
                ],
                pa.string(),
            ),
        }
    )
    corpus = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array(
                [
                    "pad a b c d e f g h i tail",  # embeds gram a..h AND b..i -> 2 hits
                    "q r s t u v w aa bb cc",  # clean
                    "x y z",  # equals short bench doc -> 1 hit (collapse)
                    "x y z w",  # 4 tokens, not equal to any bench gram
                ],
                pa.string(),
            ),
        }
    )
    hashes = benchmark_gram_hashes(ray.data.from_arrow(bench), k=8)
    assert hashes.size == 4  # 3 windows + 1 short collapse
    out = contamination_counts(
        ray.data.from_arrow(corpus), hashes, k=8
    ).take_all()
    got = {r["doc_id"]: r["n_hits"] for r in out}
    assert got == {10: 2, 12: 1}


def test_driver_probe_constants():
    """The fixed probes behind the decontaminate_docs driver query: the
    hit probe shares exactly one gram position with the probe benchmark,
    the clean probe shares none."""
    from auctus_ray.pipelines.training import (
        DECON_K,
        DECON_PROBE_BENCH,
        DECON_PROBE_CLEAN,
        DECON_PROBE_HIT,
    )

    bh, _ = shingle_hash_positions(pa.array([DECON_PROBE_BENCH]), DECON_K)
    bench = np.sort(np.unique(bh))
    for text, want in ((DECON_PROBE_HIT, 1), (DECON_PROBE_CLEAN, 0)):
        sh, _ = shingle_hash_positions(pa.array([text]), DECON_K)
        idx = np.searchsorted(bench, sh)
        n = int((bench[np.minimum(idx, bench.size - 1)] == sh).sum())
        assert n == want, text


def test_pii_probe_constants():
    from auctus_ray.pipelines.training import PII_PROBE_TEXTS

    out = redact_batch(
        pa.table({"text": pa.array(list(PII_PROBE_TEXTS), pa.string())})
    ).column("clean").to_pylist()
    assert out[0] == "contact jane doe at [EMAIL] or call [PHONE] now"
    assert out[1] == "ssn [SSN] should be gone but the plain text stays intact here"


def test_repetition_stats_planted(ray_session):
    import ray.data

    from auctus_ray.functions.curation import repetition_stats

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a b a b a b",  # 3-grams: aba bab aba bab -> 4/2
                    "one two three four",  # all distinct -> 2/2... (2 grams)
                    "x y",  # short collapse: one gram
                    "",  # no tokens: no row
                ],
                pa.string(),
            ),
        }
    )
    out = repetition_stats(ray.data.from_arrow(t), k=3).take_all()
    got = {r["doc_id"]: (r["n_grams"], r["n_distinct"], r["rep_ratio"]) for r in out}
    assert got == {1: (4, 2, 0.5), 2: (2, 2, 0.0), 3: (1, 1, 0.0)}


# ---------------------------------------------------------------- properties

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=50))
def test_split_buckets_range_and_determinism(ids):
    arr = np.array(ids, np.int64)
    b1 = split_buckets(arr)
    b2 = split_buckets(arr.copy())
    assert (b1 == b2).all()
    if len(ids):
        assert b1.min() >= 0 and b1.max() <= 99
    # permutation-invariant per id
    perm = np.random.permutation(len(ids))
    assert (split_buckets(arr[perm]) == b1[perm]).all()


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab c.@-123\n", max_size=60))
def test_redact_idempotent_and_parity(raw):
    """Redaction is idempotent (replacements never re-match) and always
    matches DuckDB's RE2 on arbitrary input."""
    t1 = redact_batch(pa.table({"text": pa.array([raw])})).column("clean")
    t2 = redact_batch(
        pa.table({"text": t1})
    ).column("clean")
    assert t1.to_pylist() == t2.to_pylist()
    con = duckdb.connect()
    expr = "t"
    for pat, repl in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{pat}', '{repl}', 'g')"
    want = con.execute(f"SELECT {expr} FROM (SELECT ? AS t)", [raw]).fetchone()[0]
    assert t1.to_pylist()[0] == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcd ", min_size=0, max_size=40), max_size=8
    )
)
def test_repetition_stats_invariants(texts):
    """n_distinct <= n_grams, rep_ratio in [0,1], and doc identity is
    independent of batch composition."""
    from auctus_ray.functions.curation import repetition_stats
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    rows = repetition_stats(ray.data.from_arrow(t), k=3).take_all()
    for r in rows:
        assert 1 <= r["n_distinct"] <= r["n_grams"]
        assert 0.0 <= r["rep_ratio"] <= 1.0
    # rows only for docs with >= 1 token
    want_ids = {i for i, x in enumerate(texts) if x.split()}
    assert {r["doc_id"] for r in rows} == want_ids
