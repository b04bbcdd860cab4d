#!/usr/bin/env python3
"""Benchmark of the auctus_ray index and BM25 search engine.

    python3 perfbench/run.py --workload build|query_hot|query_cold|ingest \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it holds run details and host context (CPU canary, steal).

End-to-end timings are scaled to a reference host speed: a shared
host's speed can swing by up to 1.8x from minute to minute, so each
timing is divided by a short fixed CPU loop timed on the same CPU around
it (see harness.HostSpeed). The unscaled figures are in the run details.
peak_rss_mb is the peak resident memory of the driver and its Ray
processes, summed as PSS so that shared pages count once; the oracle's
process is left out (see perfbench.oracle_proc).

The run exits non-zero, without a result, if the program cannot run,
and exits 1 after printing the result if any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("build", "query_hot", "query_cold", "ingest")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def result_line(out, traced: bool) -> dict:
    metrics = out.layers if traced else out.metrics
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "auctus_ray")):
        print("perfbench: auctus_ray/ is not in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # a terminated run still stops Ray and its workers (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # keep stdout for the result: Ray, its workers and the program log to
    # stderr while the run goes
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        from perfbench import harness, workloads

        t_start = time.perf_counter()
        host0 = (harness.canary_ms(), harness.cpu_times())
        session = harness.Session(ROOT, f"{args.workload}-{args.seed}")
        ctx = workloads.Ctx(session, args.workload, args.seed, args.seconds, bool(args.trace))
        pss = harness.PssSampler(session.helpers)
        try:
            session.start_helper()
            pss.start()
            if pss.off_cpu:
                session.off_cpu_tids.add(pss.native_id)
            workloads.WORKLOADS[args.workload](ctx)
        finally:
            peak_mb = pss.stop()
            ctx.tracer.unhook()
            t_close = time.perf_counter()
            session.close()
        ctx.host.meter.close()
        out = ctx.out
        out.detail["close_s"] = time.perf_counter() - t_close
        out.detail["wall_s"] = time.perf_counter() - t_start
        if not args.trace:
            out.metrics["peak_rss_mb"] = (peak_mb, "MB")
        canary = (host0[0] + harness.canary_ms()) / 2.0
        steal = harness.steal_pct(host0[1], harness.cpu_times())
        if args.trace:
            out.layers["host.canary_ms"] = (canary, "ms")
            out.layers["host.steal_pct"] = (steal, "%")
            out.layers.setdefault("trace.overhead_pct", (0.0, "%"))
            path = os.path.join(session.out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
            ctx.tracer.dump(path)
            out.detail["trace_file"] = os.path.relpath(path, ROOT)
            out.detail["absent_hooks"] = sorted(set(ctx.tracer.absent))
        out.detail["failures"] = out.detail.get("failures", [])[:20]
        detail = {"workload": args.workload, "seed": args.seed, "host": {
            "canary_ms": canary, "steal_pct": steal, "nproc": harness.nproc(),
            "samples_kept": len(ctx.host.t), "samples_dropped": ctx.host.dropped},
            **out.detail}
        result = result_line(out, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        os.dup2(stdout, 1)
        os.close(stdout)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
