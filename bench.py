#!/usr/bin/env python
"""Benchmark harness. Prints ONE JSON line with headline timings.

Default: full bench over $GRAFT_SF_DIR (default /root/testdata/sf0.1)
with ray.init(num_cpus=$RAY_GRAFT_CPUS, default 32):
  * build_code_index  — index build over a deterministic synthetic code
    corpus (the north-rule input shape; cached generation, timed build)
  * query_set_wall    — BM25 query-set execution over that index,
    plus p50/p99 per-query latency (ms) as side fields
  * docs_bm25         — documents-table index build + BM25 top-k
  * pricing_summary / dedup_exact / ann_cosine — representative pipelines

--scaling: run the INDEX BUILD alone at num_cpus=N and num_cpus=4N
(default 2 and 8; override GRAFT_SCALE_LO/HI) in fresh subprocesses on
the same corpus and print throughput at both plus scaling efficiency
= (T_N / T_4N) / 4. Results land in BENCH/scaling.json (the evidence
for the two-cluster-size criterion). The default pair is 2->8 because
this sandbox VM has ~9 GB/s aggregate DRAM bandwidth (measured; a
single core can stream ~3.8 GB/s), so above ~8-16 cores the memory
bus, not CPU, is the scaled-out resource; see BENCH/BASELINE.md for
the full 2/8, 4/16, 8/32 matrix.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "320000"))
MEAN_TOKENS = int(os.environ.get("GRAFT_BENCH_MEAN_TOKENS", "200"))
MODE = os.environ.get("GRAFT_BENCH_MODE", "full")  # full | build
N_SHARDS = int(os.environ.get("GRAFT_BENCH_SHARDS", "32"))


def _canary_work(_):
    """Module-level (picklable) CPU-bound probe task."""
    import time as _t

    t0 = _t.perf_counter()
    s = 0
    for i in range(5_000_000):
        s += i
    return _t.perf_counter() - t0


def _corpus_dir(use_ray: bool = True) -> str:
    rows_per_file = max(500, BENCH_DOCS // 128)
    d = f"/tmp/auctus_bench_corpus_{BENCH_DOCS}_{MEAN_TOKENS}_{rows_per_file}"
    marker = os.path.join(d, "DONE")
    if not os.path.exists(marker):
        import ray

        from auctus_ray.sources.code_corpus import generate_corpus, generate_corpus_ray

        shutil.rmtree(d, ignore_errors=True)
        if use_ray and ray.is_initialized():
            generate_corpus_ray(
                d, n_rows=BENCH_DOCS, rows_per_file=rows_per_file,
                mean_tokens=MEAN_TOKENS,
            )
        else:
            generate_corpus(
                d, n_rows=BENCH_DOCS, rows_per_file=rows_per_file,
                mean_tokens=MEAN_TOKENS,
            )
        open(marker, "w").write("ok")
    return d


def _warmup_ray():
    """Untimed: spawn the worker pool + JIT the hot kernels so the timed
    build measures indexing, not cluster startup."""
    import ray.data

    ray.data.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 2).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).materialize()


def _init_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def _build_code_index(corpus_dir: str) -> tuple[float, dict]:
    from auctus_ray.index.build import build_index

    idx_dir = f"/tmp/auctus_bench_index_{BENCH_DOCS}_{MEAN_TOKENS}_{NUM_CPUS}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    paths = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    _warmup_ray()
    t0 = time.time()
    res = build_index(
        paths, idx_dir, analyzer="code", n_shards=N_SHARDS,
        files_per_group=len(paths),  # one fully-parallel wave for the bench
    )
    dt = time.time() - t0
    return dt, {
        "index_dir": idx_dir,
        "n_docs": res.n_docs,
        "n_tokens": res.n_tokens,
        "n_terms": res.n_terms,
        "docs_per_sec": res.n_docs / dt,
        "tokens_per_sec": res.n_tokens / dt,
        "shard_skew": res.metrics.get("shard_skew_max_over_mean"),
        "postings_per_sec": res.metrics.get("postings_per_sec"),
    }


def _query_bench(index_dir: str, repeats: int = 5) -> tuple[float, dict]:
    import numpy as np

    from auctus_ray.index.search import Searcher
    from auctus_ray.sources.code_corpus import generate_query_set

    s = Searcher(index_dir)
    qs = generate_query_set()
    rows = list(
        zip(qs["query"].to_pylist(), qs["k"].to_pylist(), qs["operator"].to_pylist())
    )
    # warm the caches once (index file reads), then measure
    for q, k, op in rows:
        s.search(q, k=k, operator=op)
    lat = []
    t0 = time.time()
    for _ in range(repeats):
        for q, k, op in rows:
            t1 = time.time()
            s.search(q, k=k, operator=op)
            lat.append(time.time() - t1)
    wall = time.time() - t0
    lat_ms = np.array(lat) * 1000
    return wall, {
        "queries_per_sec": len(lat) / wall,
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
    }


def _distributed_query_bench(index_dir: str, repeats: int = 3) -> dict:
    """Per-query shard fan-out path (DistributedSearcher): one Ray
    compiled graph over the shard-group actors + merge-sort reduce —
    the north-star serving shape. Reported separately from the
    single-process numbers (the channel round trip adds fixed latency;
    the win is shard parallelism at scale)."""
    import numpy as np

    from auctus_ray.index.search import DistributedSearcher
    from auctus_ray.sources.code_corpus import generate_query_set

    ds = DistributedSearcher(index_dir, n_actors=4)
    try:
        qs = generate_query_set()
        rows = list(
            zip(qs["query"].to_pylist(), qs["k"].to_pylist(), qs["operator"].to_pylist())
        )
        for q, k, op in rows:  # warm actors + index reads
            ds.search(q, k=k, operator=op)
        lat = []
        t0 = time.time()
        for _ in range(repeats):
            for q, k, op in rows:
                t1 = time.time()
                ds.search(q, k=k, operator=op)
                lat.append(time.time() - t1)
        wall = time.time() - t0
        lat_ms = np.array(lat) * 1000
        return {
            "queries_per_sec": round(len(lat) / wall, 2),
            "p50_ms": round(float(np.percentile(lat_ms, 50)), 2),
            "p99_ms": round(float(np.percentile(lat_ms, 99)), 2),
            "n_actors": 4,
        }
    finally:
        ds.shutdown()


def _catalog_search_bench() -> dict:
    """Join + union catalog search over a synthetic 400-dataset sketch
    table (20 drain appends of 20 datasets x 6 columns, Lazo n_perm=128)
    — the distributed read_parquet -> map_batches(score) -> sort ->
    limit(k) pipelines, timed end to end including the staleness
    filter (40 datasets re-appended so the churn map is non-empty)."""
    import numpy as np

    from auctus_ray.functions.joinsearch import LazoSketch
    from auctus_ray.sources.sketchtable import (
        SketchTable,
        join_scores,
        union_scores,
    )

    root = f"/tmp/auctus_bench_sketchcat_{NUM_CPUS}"
    shutil.rmtree(root, ignore_errors=True)
    t = SketchTable(root)
    rng = np.random.default_rng(89)
    n_perm, n_ds, per_drain = 128, 400, 20
    t0 = time.time()
    for drain in range(n_ds // per_drain):
        rows = {}
        for j in range(per_drain):
            i = drain * per_drain + j
            cols = []
            for c in range(6):
                mins = rng.integers(0, 2**40, n_perm).astype(np.int64)
                cols.append(
                    {
                        "column_name": f"col{c}_{i % 7}",
                        "tclass": "str" if c < 3 else "int",
                        "n_perm": n_perm,
                        "card": int(rng.integers(50, 5000)),
                        "mins": mins.tobytes() if c < 3 else b"",
                    }
                )
                if c >= 3:
                    cols[-1]["card"] = -1
            rows[f"bench.ds{i:04d}"] = cols
        t.append(rows)
    # churn: re-append a tenth so the staleness filter is exercised
    t.append(
        {
            f"bench.ds{i:04d}": [
                {
                    "column_name": "col0_x",
                    "tclass": "str",
                    "n_perm": n_perm,
                    "card": 100,
                    "mins": rng.integers(0, 2**40, n_perm)
                    .astype(np.int64).tobytes(),
                }
            ]
            for i in range(40)
        }
    )
    append_s = time.time() - t0
    q = LazoSketch(
        n_perm, rng.integers(0, 2**40, n_perm).astype(np.int64), 1000
    )
    t0 = time.time()
    jn = join_scores(t, q, k=300).num_rows
    join_s = time.time() - t0
    qcols = [(f"col{c}_3", "str" if c < 3 else "int") for c in range(6)]
    t0 = time.time()
    un = len(union_scores(t, qcols, k=50))
    union_s = time.time() - t0
    shutil.rmtree(root, ignore_errors=True)
    return {
        "n_datasets": n_ds,
        "append_s": round(append_s, 3),
        "join_search_s": round(join_s, 3),
        "union_search_s": round(union_s, 3),
        "join_rows": jn,
        "union_rows": un,
    }


def run_full() -> dict:
    queries: dict[str, float] = {}
    extra: dict = {}

    corpus = _corpus_dir()
    dt, info = _build_code_index(corpus)
    queries["build_code_index"] = round(dt, 3)
    extra["build"] = {k: (round(v, 1) if isinstance(v, float) else v) for k, v in info.items() if k != "index_dir"}

    qwall, qinfo = _query_bench(info["index_dir"])
    queries["query_set_wall"] = round(qwall, 3)
    extra["query"] = {k: round(v, 2) for k, v in qinfo.items()}
    extra["query_distributed"] = _distributed_query_bench(info["index_dir"])

    from auctus_ray.pipelines import fulltext, relational, training

    # documents-table flagship (index build + top-k)
    shutil.rmtree("/tmp/auctus_ray_cache", ignore_errors=True)
    t0 = time.time()
    fulltext.bm25_topk_or(SF_DIR)
    queries["docs_bm25"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.pricing_summary(SF_DIR).to_pandas()
    queries["pricing_summary"] = round(time.time() - t0, 3)

    t0 = time.time()
    training.dedup_exact_groups(SF_DIR).to_pandas()
    queries["dedup_exact"] = round(time.time() - t0, 3)

    t0 = time.time()
    training.near_dup_minhash(SF_DIR).to_pandas()
    queries["near_dup_minhash"] = round(time.time() - t0, 3)

    t0 = time.time()
    training.ann_cosine_topk(SF_DIR).to_pandas()
    queries["ann_cosine_topk"] = round(time.time() - t0, 3)

    # incremental index path (informational — NOT in the headline total,
    # which stays round-over-round comparable): add the documents table
    # as a second segment next to an existing one, then serve a merged-
    # stats query. The docs_bm25 run above already built the split
    # segment caches fresh (cache dir was wiped), so this measures a
    # cold two-segment add + the segmented query.
    t0 = time.time()
    fulltext.bm25_topk_incremental(SF_DIR)
    extra["incremental"] = {"segadd_plus_query_s": round(time.time() - t0, 3)}
    t0 = time.time()
    fulltext.bm25_topk_incremental(SF_DIR)
    extra["incremental"]["warm_query_s"] = round(time.time() - t0, 3)

    # catalog augmentation search (informational): join + union search
    # as distributed pipelines over the partitioned sketch table —
    # 400 datasets x 6 columns appended across 20 drains
    extra["catalog_search"] = _catalog_search_bench()

    # curation suite (informational): map-side corpus-curation passes
    # over the documents table — PII redaction, benchmark
    # decontamination (docs 0-9 as the suite), repetition stats, split
    cur: dict[str, float] = {}
    t0 = time.time()
    training.pii_redact(SF_DIR).count()
    cur["pii_redact_s"] = round(time.time() - t0, 3)
    t0 = time.time()
    training.decontaminate_docs(SF_DIR).count()
    cur["decontaminate_s"] = round(time.time() - t0, 3)
    t0 = time.time()
    training.doc_repetition(SF_DIR).count()
    cur["repetition_s"] = round(time.time() - t0, 3)
    t0 = time.time()
    training.train_split_stats(SF_DIR).to_pandas()
    cur["hash_split_s"] = round(time.time() - t0, 3)
    extra["curation"] = cur

    return {
        "metric": "auctus_ray index build + BM25 query + pipeline wall time",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **extra,
    }


def run_build_only() -> dict:
    corpus = _corpus_dir()
    dt, info = _build_code_index(corpus)
    return {
        "metric": "index build",
        "value": round(dt, 3),
        "unit": "sec",
        "queries": {"build_code_index": round(dt, 3)},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs_per_sec": round(info["docs_per_sec"], 1),
        "tokens_per_sec": round(info["tokens_per_sec"], 1),
    }


def run_scaling() -> dict:
    """Same build at N and 4N CPUs in fresh processes (two 'cluster
    sizes'). This VM's overall speed DRIFTS on the timescale of single
    runs (observed 211-296 s for identical 2-CPU builds in one session),
    so naive best-of pairing mixes machine states. Protocol: alternate
    hi, lo, hi, lo, hi; estimate each lo run against the MEAN of its two
    bracketing hi runs (same drift window on both sides); report the
    MEDIAN of the per-lo estimates plus every raw sample."""
    global BENCH_DOCS
    BENCH_DOCS = int(os.environ.get("GRAFT_SCALE_DOCS", str(max(BENCH_DOCS, 1280000))))
    _init_ray()
    _corpus_dir()  # generate once (parallel) so both runs share warm input
    import ray

    ray.shutdown()

    def sub(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_MODE="build",
            GRAFT_BENCH_DOCS=str(BENCH_DOCS),
            GRAFT_BENCH_MEAN_TOKENS=str(MEAN_TOKENS),
        )
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def canary() -> dict:
        """Host-health probe for attribution: 8-way parallel python-loop
        wall time (sensitive to hypervisor CPU steal, which hits the hi
        legs hardest and craters the efficiency estimate) + single-core
        DRAM stream. Healthy profile: ~0.2-0.3 s loop, >=8 GB/s."""
        import multiprocessing as mp
        import time as _t

        import numpy as _np

        with mp.Pool(8) as p:
            t0 = _t.perf_counter()
            p.map(_canary_work, range(8))
            loop8 = _t.perf_counter() - t0
        a = _np.zeros(100_000_000 // 8)
        t0 = _t.perf_counter()
        for _ in range(5):
            a.sum()
        dram = 5 * a.nbytes / (_t.perf_counter() - t0) / 1e9
        return {"loop8_s": round(loop8, 3), "dram_gbps": round(dram, 1)}

    lo = int(os.environ.get("GRAFT_SCALE_LO", "2"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "8"))
    n_lo = max(1, int(os.environ.get("GRAFT_SCALE_REPEATS", "2")))
    samples = {"lo": [], "hi": []}
    canaries = [canary()]
    for _ in range(n_lo):
        samples["hi"].append(sub(hi)["value"])
        samples["lo"].append(sub(lo)["value"])
        canaries.append(canary())
    samples["hi"].append(sub(hi)["value"])
    canaries.append(canary())

    # sandwich estimates: lo_i vs mean(hi_i, hi_{i+1})
    ests = []
    for i in range(n_lo):
        t_lo = samples["lo"][i]
        t_hi = (samples["hi"][i] + samples["hi"][i + 1]) / 2
        ests.append((t_lo / t_hi) / (hi / lo))
    ests_sorted = sorted(ests)
    eff = ests_sorted[len(ests_sorted) // 2] if len(ests_sorted) % 2 else (
        ests_sorted[len(ests_sorted) // 2 - 1] + ests_sorted[len(ests_sorted) // 2]
    ) / 2
    result = {
        "metric": "indexing-throughput scaling (two parallelism levels)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": min(samples["lo"]),
        "sec_hi": min(samples["hi"]),
        "samples_lo_sec": samples["lo"],
        "samples_hi_sec": samples["hi"],
        "sandwich_estimates": [round(e, 3) for e in ests],
        "docs_per_sec_lo": round(BENCH_DOCS / min(samples["lo"]), 1),
        "docs_per_sec_hi": round(BENCH_DOCS / min(samples["hi"]), 1),
        "n_docs": BENCH_DOCS,
        "scaling_efficiency": round(eff, 3),
        "protocol": "alternating hi/lo; each lo vs mean of bracketing hi runs; median",
        "host_canaries": canaries,
    }
    os.makedirs(os.path.join(REPO, "BENCH"), exist_ok=True)
    with open(os.path.join(REPO, "BENCH", "scaling.json"), "w") as f:
        json.dump(result, f, indent=2)
    return result


def main():
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
        return
    _init_ray()
    try:
        if MODE == "build":
            print(json.dumps(run_build_only()))
        else:
            print(json.dumps(run_full()))
    finally:
        import ray

        ray.shutdown()


if __name__ == "__main__":
    main()
