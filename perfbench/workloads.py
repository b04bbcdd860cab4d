"""The four workloads. Each returns an Outcome with every end-to-end
metric (untraced runs) or every per-layer metric (traced runs).

Why these workloads:
  build       fresh distributed build_index runs: the tokenize, shuffle,
              encode and term-stats layers do the work.
  query_hot   one closed-loop client against a long-lived
              DistributedSearcher with warm caches, a Zipf-skewed stream
              over the query pool: fan-out, scoring, merge and
              distributed hydrate, almost no postings reads.
  query_cold  every query opens a fresh Searcher (as the CLI or a
              restarted actor does), uniform over the pool: postings
              fetch, decode and dense-span build dominate, no RPC.
  ingest      writes beside reads on the in-process small-segment path:
              add_segment, reopen, hydrated queries, tombstones and
              tiered compaction, then a full compaction.

Every workload reports every end-to-end metric, its timings scaled to a
reference host speed (see report and harness.HostSpeed). ops_per_s is the work
the workload completes per second: documents indexed per second of
build_index wall (build), documents made searchable per second of the
add, delete, compact and reopen loop (ingest), queries answered per
second of query time (query_hot, query_cold). The build workload's
query latencies are those of the first queries a fresh index serves;
index_bytes_per_input_byte of the query workloads is that of the index
built during their set-up.
"""

from __future__ import annotations

import contextlib
import glob
import logging
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from auctus_ray.index import build as build_mod
from auctus_ray.index import search as search_mod
from auctus_ray.index import segments as seg_mod
from auctus_ray.state.manifest import Manifest

from perfbench import check, inputs
from perfbench.harness import BusyMeter, HostSpeed, median, percentile
from perfbench.trace import Tracer

# Sizes keep one run to about half a minute on one CPU.
CORPUS_DOCS = 3000
ROWS_PER_FILE = 500
N_SHARDS = 8
POOL_GENERATED = 72
BUILD_MIN_BUILDS = 3
BUILD_QUERIES = 34
HOT_ACTORS = 2
INGEST_SLICE_DOCS = 500
INGEST_CYCLES = 6
INGEST_QUERIES_PER_CYCLE = 8
INGEST_MIN_ROUNDS = 3
INGEST_DELETE_EVERY = 2
INGEST_DELETES = 25
INGEST_MAX_SEGMENTS = 2
INDEX_FILES = ("postings", "docmap", "termstats", "term_stats")
# host-speed samples taken at each set-up phase boundary: set-up has no
# queries between which to sample
SETUP_SAMPLES = 5

# the tail reported: every workload times at least 100 untraced queries
# per run, so at least ten samples lie beyond it
TAIL_PCT = 90.0


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)


class Ctx:
    def __init__(self, session, workload: str, seed: int, seconds: float, traced: bool):
        self.session = session
        self.host = HostSpeed(BusyMeter(session.helpers, session.off_cpu_tids))
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer()
        self.out = Outcome()
        self.lat_span: list[tuple[float, float]] = []  # (start, end) of untraced queries
        self.lat_traced: list[float] = []   # traced query latencies (s)
        self.setup_span = (0.0, 0.0, 0.0)   # (start, end, set-up seconds)
        # (documents, busy (start, end) spans) per timed build or ingest round
        self.rate_spans: list[tuple[int, list[tuple[float, float]]]] = []
        self.query_ops: list[int] = []      # op ids of traced queries
        self._op = 0
        self.input_s = 0.0                  # input generation, not set-up

    def next_op(self, traced: bool) -> int:
        self._op += 1
        self.tracer.begin_op(self._op)
        self.tracer.enabled = traced
        return self._op

    def fail(self, what: str) -> None:
        self.out.failed += 1
        self.out.detail.setdefault("failures", []).append(what)

    def span(self, name: str, fn, *a, **kw):
        return self.tracer.call(name, fn, *a, **kw)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Wall time of one part of the set-up, kept in the run details;
        the host speed is sampled on both sides of it."""
        self.host.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            phases = self.out.detail.setdefault("phases_s", {})
            phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0
            self.host.sample(SETUP_SAMPLES)

    def setup_done(self, t0: float) -> None:
        """Set-up ran from t0 until now, input generation excluded."""
        self.host.sample(SETUP_SAMPLES)
        now = time.perf_counter()
        self.setup_span = (t0, now, now - t0 - self.input_s)


# ------------------------------------------------------------------ helpers


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path) for f in files
    )


def index_bytes(index_dir: str) -> int:
    return sum(dir_bytes(os.path.join(index_dir, sub)) for sub in INDEX_FILES)


def make_corpus(ctx: Ctx, n_docs: int, rows_per_file: int) -> tuple[list[str], pa.Table]:
    """Inputs are the benchmark's own work: their time is kept out of
    setup_s (a cached corpus would otherwise make it bimodal)."""
    t0 = time.perf_counter()
    paths = inputs.make_corpus(ctx.session.cache_dir, ctx.seed, n_docs, rows_per_file)
    corpus = check.read_corpus(paths)
    ctx.input_s += time.perf_counter() - t0
    ctx.out.detail["input_s"] = ctx.input_s
    return paths, corpus


def run_build(ctx: Ctx, paths: list[str]) -> tuple[str, float]:
    out = ctx.session.fresh_dir("index")
    t0 = time.perf_counter()
    build_mod.build_index(paths, out, analyzer="code", n_shards=N_SHARDS,
                          files_per_group=len(paths))
    return out, time.perf_counter() - t0


def report(ctx: Ctx, queries_per_s: bool = False) -> None:
    """The end-to-end timings, each scaled to the reference host speed
    (HostSpeed.scaled), with the unscaled figures in the run details.
    Latencies are those of the untraced query operations; ops_per_s is
    documents per second of build or ingest time, or for the query
    workloads (one closed-loop client) queries per second of query time."""
    h = ctx.host
    lat = [h.scaled(b - a, a, b, pad=0.5) * 1000.0 for a, b in ctx.lat_span]
    raw = [(b - a) * 1000.0 for a, b in ctx.lat_span]
    t0, t1, setup = ctx.setup_span
    if queries_per_s:
        ops = len(lat) * 1000.0 / sum(lat)
        raw_ops = len(raw) * 1000.0 / sum(raw)
    else:
        ops = median([n / sum(h.scaled(b - a, a, b, pad=1.0) for a, b in spans)
                      for n, spans in ctx.rate_spans])
        raw_ops = median([n / sum(b - a for a, b in spans) for n, spans in ctx.rate_spans])
    m = ctx.out.metrics
    m["setup_s"] = (h.scaled(setup, t0, t1, pad=0.0), "s")
    m["ops_per_s"] = (ops, "ops/s")
    m["query_p50_ms"] = (median(lat), "ms")
    m["query_p90_ms"] = (percentile(lat, TAIL_PCT), "ms")
    ctx.out.detail["unscaled"] = {
        "setup_s": setup, "ops_per_s": raw_ops,
        "query_p50_ms": median(raw), "query_p90_ms": percentile(raw, TAIL_PCT),
    }
    ctx.out.detail["queries"] = len(lat)


def timed_query(ctx: Ctx, fn, traced: bool | None = None) -> object:
    """Run one query operation. In traced runs every other op is traced
    (unless the caller decides), so the same run measures the tracing
    overhead; fn may return with the tracer still on for untimed work."""
    if traced is None:
        traced = (len(ctx.lat_span) + len(ctx.lat_traced)) % 2 == 1
    traced = traced and ctx.traced
    op = ctx.next_op(traced)
    t0 = time.perf_counter()
    res = fn()
    dt = time.perf_counter() - t0
    if traced:
        ctx.lat_traced.append(dt)
        ctx.query_ops.append(op)
    else:
        ctx.lat_span.append((t0, t0 + dt))
    ctx.host.sample()
    return res


class Expected:
    """Oracle-checked reference answers for the query pool: the oracle's
    top-k, which a long-lived Searcher must reproduce bit for bit."""

    def __init__(self, ctx: Ctx, index_dir: str, paths: list[str], corpus: pa.Table,
                 pool: list):
        self.pool = pool
        want = oracle_answers(ctx, paths, pool)
        searcher = search_mod.Searcher(index_dir)
        self.answers = []
        for qi, (q, k, op) in enumerate(pool):
            got = searcher.search(q, k=k, operator=op)
            if not check.same_answer(got, want[qi]):
                ctx.fail(f"long-lived Searcher != oracle on {q!r} k={k} {op}")
            self.answers.append(want[qi])
        ids = check.build_ids(corpus)
        keys = check.row_keys(corpus)
        self.key_of = lambda d: keys[ids[d]]


def oracle_answers(ctx: Ctx, paths: list[str], pool: list) -> list:
    """The oracle's answers to the pool, from the oracle's own process."""
    return ctx.session.helper.call("pool_answers", ctx.session.cache_dir, ctx.seed,
                                   CORPUS_DOCS, paths, pool)


def check_docmap(ctx: Ctx, index_dir: str, corpus: pa.Table) -> None:
    bad = check.docmap_sha_mismatches([os.path.join(index_dir, "docmap")], corpus)
    if bad:
        ctx.fail(f"{bad} docmap rows disagree with sha256(content)")


def check_query(ctx: Ctx, exp: Expected, qi: int, answer, hits) -> None:
    q, k, op = exp.pool[qi]
    if not check.same_answer(answer, exp.answers[qi]):
        ctx.fail(f"answer != oracle on {q!r} k={k} {op}")
    elif not check.hydrated_ok(hits, answer[0], answer[1], exp.key_of):
        ctx.fail(f"hydrated hits wrong on {q!r} k={k} {op}")


# ------------------------------------------------------------------ tracing


def install_hooks(ctx: Ctx) -> None:
    """Spans around the program's layers. Private targets may disappear in
    later versions of the program; the tracer then marks them absent."""
    t = ctx.tracer
    S = search_mod.Searcher

    def postings_before(args, kwargs):
        self, terms = args[0], args[2] if len(args) > 2 else kwargs.get("terms", [])
        cache = getattr(self, "_postings_cache", None)
        t.count("search.postings_lookups", len(terms))
        if cache is not None:
            t.count("search.postings_hits", sum((args[1], x) in cache for x in terms))
        return read_bytes()

    def postings_after(state):
        t.count("search.postings_read_bytes", read_bytes() - state)

    t.hook(S, "__init__", "search.open")
    t.hook(S, "search", "search.search")
    t.hook(S, "dfs", "search.dfs")
    t.hook(S, "_shard_postings", "search.postings", postings_before, postings_after)
    t.hook(S, "_scan_shard_vectorized", "search.scan",
           lambda a, k: t.count("search.eval_scan"))
    t.hook(search_mod, "_wand_shard", "search.wand", lambda a, k: t.count("search.eval_wand"))
    t.hook(search_mod, "_and_shard", "search.wand", lambda a, k: t.count("search.eval_wand"))
    t.hook(search_mod, "decode_blocks_concat", "search.decode",
           lambda a, k: t.count("search.blocks_decoded", len(a[1])))
    t.hook(search_mod, "tokenize_text", "search.analyze")
    t.hook(seg_mod, "tokenize_text", "search.analyze")
    t.hook(search_mod, "hydrate_hits", "search.hydrate")
    t.hook(search_mod.DistributedSearcher, "hydrate_hits", "search.dist_hydrate")
    t.hook(search_mod.DistributedSearcher, "search", "search.fanout")
    t.hook(seg_mod.SegmentedSearcher, "__init__", "segments.open")
    t.hook(seg_mod.SegmentedSearcher, "_prime", "segments.prime")


def read_bytes() -> int:
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


SEARCH_LAYERS = [
    # (metric, span, field, unit)
    ("search.open_ms", "search.open", "total", "ms"),
    ("search.postings_ms", "search.postings", "total", "ms"),
    ("search.decode_ms", "search.decode", "total", "ms"),
    ("search.analyze_ms", "search.analyze", "total", "ms"),
    ("search.dfs_ms", "search.dfs", "total", "ms"),
    ("search.score_ms", "search.scan", "self", "ms"),
    ("search.wand_ms", "search.wand", "total", "ms"),
    ("search.merge_ms", "search.search", "self", "ms"),
    ("search.hydrate_ms", "search.hydrate", "total", "ms"),
    ("search.dist_hydrate_ms", "search.dist_hydrate", "total", "ms"),
    ("search.fanout_ms", "search.fanout", "total", "ms"),
    ("segments.prime_ms", "segments.prime", "total", "ms"),
]


# per-layer metrics read from counters, with the span whose hook records them
COUNTED_LAYERS = {
    "search.postings_read_bytes": "search.postings",
    "search.blocks_decoded": "search.decode",
    "search.postings_cache_hit_ratio": "search.postings",
    "search.wand_share": "search.search",
    "search.rpc_ms": "search.fanout",
}


def search_layers(ctx: Ctx) -> None:
    """Per-query means over the traced query operations. A metric whose
    hook is missing from the program is listed in ``absent_layers``; one
    whose layer no traced query reached (search.open_ms where actors open
    their Searchers, search.fanout_ms outside query_hot) reads 0 and is
    listed in ``not_exercised``."""
    per_op = ctx.tracer.per_op()
    ops = ctx.query_ops
    n = max(1, len(ops))
    L = ctx.out.layers
    seen = {span for o in ops for span in per_op.get(o, {})}
    spans = {}
    for metric, span, fld, unit in SEARCH_LAYERS:
        spans[metric] = span
        L[metric] = (sum(per_op[o][span][fld] for o in ops if span in per_op[o]) * 1000.0 / n, unit)
    counts = ctx.tracer.counts

    def total(name):
        return sum(counts[o].get(name, 0.0) for o in ops)

    L["search.postings_read_bytes"] = (total("search.postings_read_bytes") / n, "bytes")
    L["search.blocks_decoded"] = (total("search.blocks_decoded") / n, "count")
    lookups = total("search.postings_lookups")
    L["search.postings_cache_hit_ratio"] = (
        total("search.postings_hits") / lookups if lookups else 0.0, "ratio")
    evals = total("search.eval_scan") + total("search.eval_wand")
    L["search.wand_share"] = (total("search.eval_wand") / evals if evals else 0.0, "ratio")
    L["search.rpc_ms"] = (total("search.rpc_s") * 1000.0 / n, "ms")
    spans.update(COUNTED_LAYERS)
    for metric, span in spans.items():
        if span in ctx.tracer.absent and span not in seen:
            ctx.out.detail.setdefault("absent_layers", []).append(metric)
        elif span not in seen or (metric == "search.wand_share" and not evals):
            ctx.out.detail.setdefault("not_exercised", []).append(metric)
    if ctx.lat_span and ctx.lat_traced:
        base = median([b - a for a, b in ctx.lat_span])
        L["trace.overhead_pct"] = (100.0 * (median(ctx.lat_traced) - base) / base, "%")
    ctx.out.detail["traced_queries"] = len(ops)


BUILD_LAYERS = [
    ("build.tokenize_s", "s"), ("build.bucket_stats_s", "s"), ("build.encode_s", "s"),
    ("build.encode_bucket_p50_s", "s"), ("build.encode_bucket_max_s", "s"),
    ("build.termstats_s", "s"), ("build.driver_other_s", "s"),
    ("build.tokenize_kernel_s", "s"), ("build.shuffle_bytes", "bytes"),
    ("build.n_postings", "count"), ("build.shard_skew", "ratio"),
    ("build.ray_warnings", "count"),
]

SEGMENT_LAYERS = [
    ("segments.add_ms", "ms"), ("segments.open_ms", "ms"), ("segments.delete_ms", "ms"),
    ("segments.compact_s", "s"), ("segments.compactions", "count"),
    ("segments.live_segments_max", "count"),
]


def manifest_stages(index_dir: str, wall: float, started: float) -> dict[str, float]:
    """Stage walls from the raw manifest records of one build, keyed by
    (stage, partition) and restricted to the current run of each stage:
    encode buckets carry the fingerprint of the encode stage, tokenize
    groups were written by this build (after ``started``, a time.time()
    stamp). Never Manifest.metrics(), which sums fields across stages."""
    man = Manifest(index_dir)

    def done(stage, part="all"):
        rec = man.latest(stage, part)
        return rec if rec and rec["status"] == "done" else None

    enc = done("encode")
    recs = man.records()
    out = {
        "build.tokenize_s": sum(
            r["metrics"].get("tokenize_seconds", 0.0) for r in recs
            if r["stage"] == "tokenize" and r["status"] == "done" and r["ts"] >= started
        ),
        "build.bucket_stats_s": (done("bucket_stats") or {"metrics": {}})["metrics"].get(
            "bucket_stats_seconds", 0.0),
        "build.encode_s": enc["metrics"].get("encode_seconds", 0.0) if enc else 0.0,
        "build.termstats_s": (done("termstats") or {"metrics": {}})["metrics"].get(
            "termstats_seconds", 0.0),
        "build.n_postings": float(enc["metrics"].get("n_postings", 0)) if enc else 0.0,
        "build.shard_skew": (done("global") or {"metrics": {}})["metrics"].get(
            "shard_skew_max_over_mean", 0.0),
    }
    buckets = [
        r["metrics"].get("seconds", 0.0) for r in recs
        if enc and r["stage"] == "encode" and r["partition"].startswith("bucket=")
        and r["fingerprint"] == enc["fingerprint"] and r["status"] == "done"
    ]
    out["build.encode_bucket_p50_s"] = median(buckets) if buckets else 0.0
    out["build.encode_bucket_max_s"] = max(buckets) if buckets else 0.0
    out["build.driver_other_s"] = wall - (
        out["build.tokenize_s"] + out["build.bucket_stats_s"]
        + out["build.encode_s"] + out["build.termstats_s"]
    )
    out["build.shuffle_bytes"] = float(dir_bytes(os.path.join(index_dir, "tokenized")))
    return out


def tokenize_kernel_s(paths: list[str], batch_rows: int = 512) -> float:
    """tokenize_batch replayed in-process on the build's batches."""
    total = 0.0
    for p in paths:
        for rb in pq.ParquetFile(p).iter_batches(batch_size=batch_rows):
            tbl = pa.Table.from_batches([rb])
            t0 = time.perf_counter()
            build_mod.tokenize_batch(tbl, analyzer="code", n_buckets=N_SHARDS)
            total += time.perf_counter() - t0
    return total


class WarningCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.n = 0
        self._loggers = [logging.getLogger("ray"), logging.getLogger("ray.data")]
        self._levels = [lg.level for lg in self._loggers]

    def emit(self, record: logging.LogRecord) -> None:
        self.n += 1

    def __enter__(self):
        for lg in self._loggers:
            lg.addHandler(self)
            if lg.level > logging.WARNING or lg.level == logging.NOTSET:
                lg.setLevel(logging.WARNING)
        return self

    def __exit__(self, *exc):
        for lg, lvl in zip(self._loggers, self._levels):
            lg.removeHandler(self)
            lg.setLevel(lvl)
        return False


def build_layers(ctx: Ctx, samples: list[dict]) -> None:
    L = ctx.out.layers
    for name, unit in BUILD_LAYERS:
        vals = [s[name] for s in samples if name in s]
        L[name] = (median(vals) if vals else 0.0, unit)


def zero_layers(ctx: Ctx, table) -> None:
    for name, unit in table:
        ctx.out.layers.setdefault(name, (0.0, unit))
        ctx.out.detail.setdefault("not_exercised", []).append(name)


def traced_build(ctx: Ctx, paths: list[str]) -> tuple[str, float, dict]:
    started = time.time()
    with WarningCounter() as wc:
        idx, wall = run_build(ctx, paths)
    layers = manifest_stages(idx, wall, started)
    layers["build.ray_warnings"] = float(wc.n)
    layers["build.tokenize_kernel_s"] = tokenize_kernel_s(paths)
    return idx, wall, layers


# ------------------------------------------------------------------ workloads


def build(ctx: Ctx) -> None:
    t0 = time.perf_counter()
    with ctx.phase("ray_init"):
        ctx.session.start_ray()
    paths, corpus = make_corpus(ctx, CORPUS_DOCS, ROWS_PER_FILE)
    in_bytes = sum(os.path.getsize(p) for p in paths)
    pool = inputs.query_pool(ctx.seed, CORPUS_DOCS, POOL_GENERATED)
    # Ray Data's first-use costs, paid on one input file off the clock
    with ctx.phase("warm_build"):
        run_build(ctx, paths[:1])
    ctx.setup_done(t0)
    if ctx.traced:
        install_hooks(ctx)

    want = oracle_answers(ctx, paths, pool)
    ids = check.build_ids(corpus)
    keys = check.row_keys(corpus)
    key_of = lambda d: keys[ids[d]]  # noqa: E731
    stream = inputs.uniform_stream(ctx.seed, len(pool), 1_000_000)
    ratios, layer_samples = [], []
    deadline = time.perf_counter() + ctx.seconds
    while len(ctx.rate_spans) < BUILD_MIN_BUILDS or time.perf_counter() < deadline:
        ctx.out.attempted += 1
        ctx.host.sample()
        if ctx.traced:
            idx, wall, layers = traced_build(ctx, paths)
            layer_samples.append(layers)
        else:
            idx, wall = run_build(ctx, paths)
        t_end = time.perf_counter()
        ctx.rate_spans.append((len(corpus), [(t_end - wall, t_end)]))
        ratios.append(index_bytes(idx) / in_bytes)
        check_docmap(ctx, idx, corpus)
        # the first queries the fresh index serves, each from a Searcher
        # opened for it (as the CLI does right after a build)
        for j in range(BUILD_QUERIES):
            qi = int(stream[(len(ctx.rate_spans) - 1) * BUILD_QUERIES + j])
            q, k, op = pool[qi]
            ctx.out.attempted += 1

            def one():
                d, s = search_mod.Searcher(idx).search(q, k=k, operator=op)
                return (d, s), search_mod.hydrate_hits(idx, d, s)

            # whole builds alternate, so traced and untraced queries match
            ans, hits = timed_query(ctx, one, traced=len(ctx.rate_spans) % 2 == 0)
            ctx.tracer.enabled = False
            if not check.same_answer(ans, want[qi]):
                ctx.fail(f"fresh index answer != oracle on {q!r} k={k} {op}")
            elif not check.hydrated_ok(hits, ans[0], ans[1], key_of):
                ctx.fail(f"hydrated hits wrong on {q!r}")
        shutil.rmtree(idx, ignore_errors=True)
    ctx.out.metrics["index_bytes_per_input_byte"] = (median(ratios), "ratio")
    ctx.out.detail["builds"] = len(ctx.rate_spans)
    report(ctx)
    if ctx.traced:
        build_layers(ctx, layer_samples)
        search_layers(ctx)
        zero_layers(ctx, SEGMENT_LAYERS)


def _query_setup(ctx: Ctx):
    t0 = time.perf_counter()
    with ctx.phase("ray_init"):
        ctx.session.start_ray()
    paths, corpus = make_corpus(ctx, CORPUS_DOCS, ROWS_PER_FILE)
    in_bytes = sum(os.path.getsize(p) for p in paths)
    with ctx.phase("setup_build"):
        if ctx.traced:
            idx, _, layers = traced_build(ctx, paths)
            build_layers(ctx, [layers])
        else:
            idx, _ = run_build(ctx, paths)
    ctx.out.metrics["index_bytes_per_input_byte"] = (index_bytes(idx) / in_bytes, "ratio")
    pool = inputs.query_pool(ctx.seed, CORPUS_DOCS, POOL_GENERATED)
    return t0, idx, paths, corpus, pool


def query_hot(ctx: Ctx) -> None:
    t0, idx, paths, corpus, pool = _query_setup(ctx)
    ds = search_mod.DistributedSearcher(idx, n_actors=HOT_ACTORS)
    try:
        warm = [ds.search(q, k=k, operator=op) for q, k, op in pool]
        ctx.setup_done(t0)
        check_docmap(ctx, idx, corpus)
        exp = Expected(ctx, idx, paths, corpus, pool)
        for qi, ans in enumerate(warm):
            if not check.same_answer(ans, exp.answers[qi]):
                ctx.fail(f"warm-up distributed answer != oracle on {pool[qi]!r}")
        groups = None
        if ctx.traced:
            install_hooks(ctx)
            groups = shard_group_searchers(idx, pool)
        stream = inputs.zipf_stream(ctx.seed, pool, 1_000_000)
        deadline = time.perf_counter() + ctx.seconds
        i = 0
        while time.perf_counter() < deadline:
            qi = int(stream[i])
            i += 1
            q, k, op = pool[qi]
            ctx.out.attempted += 1

            def one():
                d, s = ds.search(q, k=k, operator=op)
                return (d, s), ds.hydrate_hits(d, s)

            ans, hits = timed_query(ctx, one)
            if groups is not None and ctx.tracer.enabled:
                rpc_sample(ctx, groups, q, k, op)
            ctx.tracer.enabled = False
            check_query(ctx, exp, qi, ans, hits)
    finally:
        ds.shutdown()
    report(ctx, queries_per_s=True)
    if ctx.traced:
        search_layers(ctx)
        zero_layers(ctx, SEGMENT_LAYERS)


def shard_group_searchers(idx: str, pool: list) -> list:
    """In-process Searchers over the actors' shard groups, warmed on the
    pool: the search time an actor spends, without the RPC."""
    files = sorted(glob.glob(os.path.join(idx, "postings", "shard=*.parquet")))
    n = max(1, min(HOT_ACTORS, len(files)))
    out = []
    for grp in (files[i::n] for i in range(n)):
        s = search_mod.Searcher(idx)
        s.shard_files = grp
        for q, k, op in pool:
            s.search(q, k=k, operator=op)
        out.append(s)
    return out


def rpc_sample(ctx: Ctx, groups: list, q: str, k: int, op: str) -> None:
    """Replay the traced query on the in-process shard-group replicas: their
    spans stand for the search layers inside the actors, and the fan-out
    wall minus the slowest replica is the RPC and reduce time."""
    fanout = ctx.tracer.last_total("search.fanout")
    slowest = 0.0
    for s in groups:
        t0 = time.perf_counter()
        s.search(q, k=k, operator=op)
        slowest = max(slowest, time.perf_counter() - t0)
    ctx.tracer.count("search.rpc_s", max(0.0, fanout - slowest))


def query_cold(ctx: Ctx) -> None:
    t0, idx, paths, corpus, pool = _query_setup(ctx)
    ctx.setup_done(t0)
    t1 = time.perf_counter()
    check_docmap(ctx, idx, corpus)
    exp = Expected(ctx, idx, paths, corpus, pool)
    ctx.out.detail["verify_s"] = time.perf_counter() - t1
    if ctx.traced:
        install_hooks(ctx)
    stream = inputs.uniform_stream(ctx.seed, len(pool), 1_000_000)
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while time.perf_counter() < deadline:
        qi = int(stream[i])
        i += 1
        q, k, op = pool[qi]
        ctx.out.attempted += 1

        def one():
            d, s = search_mod.Searcher(idx).search(q, k=k, operator=op)
            return (d, s), search_mod.hydrate_hits(idx, d, s)

        ans, hits = timed_query(ctx, one)
        ctx.tracer.enabled = False
        check_query(ctx, exp, qi, ans, hits)
    report(ctx, queries_per_s=True)
    if ctx.traced:
        search_layers(ctx)
        zero_layers(ctx, SEGMENT_LAYERS)


class SegmentModel:
    """Which corpus rows each registered segment holds, tracked from the
    operations the benchmark issued: the oracle's view of the root."""

    def __init__(self) -> None:
        self.rows: dict[str, set[int]] = {}
        self.deleted: set[int] = set()

    def added(self, name: str, rows: range) -> None:
        self.rows[name] = set(rows)

    def compacted(self, root: str, merged: str, before: set[str], full: bool) -> None:
        after = {e["name"] for e in seg_mod.load_segments(root)}
        merged_rows = set().union(*(self.rows.pop(n) for n in before - after if n in self.rows))
        self.rows[merged] = merged_rows - self.deleted
        if full:
            self.deleted = set()

    def present(self) -> list[int]:
        return sorted(set().union(*self.rows.values()))


def ingest(ctx: Ctx) -> None:
    t0 = time.perf_counter()
    with ctx.phase("ray_init"):
        ctx.session.start_ray()
    n_rows = INGEST_SLICE_DOCS * INGEST_CYCLES
    slices, corpus = make_corpus(ctx, n_rows, INGEST_SLICE_DOCS)
    paths_col = corpus["path"].to_pylist()
    row_of_key = {key: i for i, key in enumerate(check.row_keys(corpus))}
    # every cycle asks from the same reference queries, so a cycle's cost
    # depends on the segments it searches, not on which queries it drew
    refs = inputs.reference_queries()
    order = inputs.uniform_stream(ctx.seed, len(refs), len(refs), tag="ingest")
    # first-call costs (imports, Ray Data read/write) paid once, off the clock
    with ctx.phase("warm_ingest"):
        warm = ctx.session.fresh_dir("warm")
        seg_mod.add_segment(warm, slices[:1], n_shards=N_SHARDS)
        seg_mod.delete_docs(warm, paths_col[:1])
        seg_mod.compact(warm, n_shards=N_SHARDS)
        seg_mod.SegmentedSearcher(warm).search(refs[0][0], k=refs[0][1], operator=refs[0][2])
    ctx.setup_done(t0)

    if ctx.traced:
        install_hooks(ctx)
    ratios, compactions, compact_s, live_max = [], [], [], 0
    deadline = time.perf_counter() + ctx.seconds
    while len(ctx.rate_spans) < INGEST_MIN_ROUNDS or time.perf_counter() < deadline:
        root = ctx.session.fresh_dir("root")
        model = SegmentModel()
        busy = []
        n_compact = 0
        for c in range(INGEST_CYCLES + 1):
            final = c == INGEST_CYCLES
            ctx.next_op(ctx.traced)
            ctx.host.sample()
            t1 = time.perf_counter()
            if not final:
                res = ctx.span("segments.add", seg_mod.add_segment, root, [slices[c]],
                               n_shards=N_SHARDS)
                model.added(os.path.basename(res.index_dir),
                            range(c * INGEST_SLICE_DOCS, (c + 1) * INGEST_SLICE_DOCS))
                if c % INGEST_DELETE_EVERY == INGEST_DELETE_EVERY - 1:
                    live = [r for r in model.present() if r not in model.deleted]
                    picks = inputs.delete_picks(ctx.seed, c, [paths_col[r] for r in live],
                                                INGEST_DELETES)
                    ctx.span("segments.delete", seg_mod.delete_docs, root, picks)
                    picked = set(picks)
                    model.deleted |= {r for r in live if paths_col[r] in picked}
            before = {e["name"] for e in seg_mod.load_segments(root)}
            if final:
                res = ctx.span("segments.compact", seg_mod.compact, root, n_shards=N_SHARDS)
            else:
                res = ctx.span("segments.compact", seg_mod.maybe_compact, root,
                               max_segments=INGEST_MAX_SEGMENTS, n_shards=N_SHARDS)
            if res is not None:
                n_compact += 1
                compact_s.append(ctx.tracer.last_total("segments.compact"))
                model.compacted(root, os.path.basename(res.index_dir), before, final)
            searcher = seg_mod.SegmentedSearcher(root)
            busy.append((t1, time.perf_counter()))
            ctx.tracer.enabled = False
            live_max = max(live_max, len(searcher.entries))
            if searcher.n_docs != len(model.present()):
                ctx.fail(f"cycle {c}: root holds {searcher.n_docs} docs, expected "
                         f"{len(model.present())}")
            queries = [refs[order[(len(ctx.rate_spans) * INGEST_QUERIES_PER_CYCLE + j)
                                  % len(refs)]] for j in range(INGEST_QUERIES_PER_CYCLE)]
            wants = ctx.session.helper.call("cycle_answers", slices, model.present(),
                                            sorted(model.deleted), queries)
            for j, (q, k, op) in enumerate(queries):
                want_scores, live_score, want_final = wants[j]
                ctx.out.attempted += 1

                def one():
                    d, s = searcher.search(q, k=k, operator=op)
                    return (d, s), searcher.hydrate_hits(d, s)

                if c == 0 or final:
                    # verified, not timed: the timed reads are those a root
                    # of several segments serves while slices arrive
                    ans, hits = one()
                else:
                    # traced and untraced queries take turns leading a cycle
                    ans, hits = timed_query(ctx, one, traced=(c + j) % 2 == 1)
                ctx.tracer.enabled = False
                keys = [(r["repo"], r["path"], r["commit"]) for r in hits.to_pylist()] \
                    if hits.num_rows and "repo" in hits.column_names else []
                got_rows = [row_of_key.get(key, -1) for key in keys]
                ok = (
                    len(got_rows) == len(ans[0])
                    and np.asarray(ans[1], np.float64).tobytes()
                    == np.asarray(want_scores, np.float64).tobytes()
                    and all(live_score.get(r) == float(s) for r, s in zip(got_rows, ans[1]))
                )
                if final and ok:
                    # one segment, no tombstones after the full compaction:
                    # the oracle's own docIDs must come back too
                    ok = check.same_answer(ans, want_final)
                if not ok:
                    ctx.fail(f"cycle {c}: answer != oracle on {q!r} k={k} {op}")
        live_rows = model.present()
        seg_dirs = [os.path.join(root, seg_mod.SEG_DIR, e["name"], "docmap")
                    for e in seg_mod.load_segments(root)]
        bad = check.docmap_sha_mismatches(seg_dirs, corpus.take(pa.array(live_rows)))
        if bad:
            ctx.fail(f"{bad} docmap rows disagree with sha256(content) after compaction")
        ratios.append(index_bytes(os.path.dirname(seg_dirs[0]))
                      / sum(os.path.getsize(p) for p in slices))
        ctx.rate_spans.append((INGEST_CYCLES * INGEST_SLICE_DOCS, busy))
        compactions.append(n_compact)
    ctx.out.metrics["index_bytes_per_input_byte"] = (median(ratios), "ratio")
    ctx.out.detail["rounds"] = len(ctx.rate_spans)
    report(ctx)
    if ctx.traced:
        search_layers(ctx)
        seg = segment_span_means(ctx)
        L = ctx.out.layers
        L["segments.add_ms"] = (seg.get("segments.add", 0.0) * 1000.0, "ms")
        L["segments.open_ms"] = (seg.get("segments.open", 0.0) * 1000.0, "ms")
        L["segments.delete_ms"] = (seg.get("segments.delete", 0.0) * 1000.0, "ms")
        L["segments.compact_s"] = (sum(compact_s) / len(compact_s) if compact_s else 0.0, "s")
        L["segments.compactions"] = (float(median(compactions)), "count")
        L["segments.live_segments_max"] = (float(live_max), "count")
        zero_layers(ctx, BUILD_LAYERS)


def segment_span_means(ctx: Ctx) -> dict[str, float]:
    """Mean duration per call of each segments.* span."""
    acc: dict[str, list[float]] = {}
    for name, t0, t1, _, _ in ctx.tracer.spans:
        if name.startswith("segments."):
            acc.setdefault(name, []).append(t1 - t0)
    return {n: sum(v) / len(v) for n, v in acc.items()}


WORKLOADS = {"build": build, "query_hot": query_hot, "query_cold": query_cold,
             "ingest": ingest}
