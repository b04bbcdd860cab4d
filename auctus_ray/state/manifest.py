"""Per-partition checkpoint manifest: lineage, resume, metrics.

Re-expresses the reference's durable-progress machinery — the `pending`
ES index + AMQP acks + idempotent delete-then-reinsert
(profiler/profiler.py:277-434, lib_core/datamart_core/common.py:522-563)
and the flock-guarded write-temp-then-rename cache
(lib_fslock/datamart_fslock/cache.py:32-120) — as plain files:

  * every build stage/partition appends a JSON line
    ``{stage, partition, fingerprint, status, metrics, seq}`` to
    ``manifest.jsonl`` (single-writer: the build driver);
  * outputs are written to a temp path then ``os.rename``d (atomic on one
    filesystem), so a partition is either absent or complete;
  * resume = skip (stage, partition) pairs whose latest record is
    ``done`` with a matching fingerprint — stale fingerprints re-run
    (the delete-then-reinsert idempotency, SURVEY.md §2.7 D5).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time


def fingerprint(*parts) -> str:
    """Stable fingerprint of inputs/params (order-sensitive)."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _edge_digest(path: str, span: int = 65536) -> str:
    """Cheap content digest: sha256 over the first and last `span` bytes.
    For parquet this covers the header and the footer metadata (schema,
    row-group stats), so any rewrite that changes content — even at
    identical file size — changes the digest, while a byte-identical
    regeneration (e.g. a deterministic generator or rsync) still matches.
    """
    h = hashlib.sha256()
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        h.update(f.read(span))
        if size > span:
            f.seek(max(span, size - span))
            h.update(f.read(span))
    return h.hexdigest()[:16]


def file_fingerprint(paths: list[str]) -> str:
    """Fingerprint a list of input files by (path, size, edge digest).

    Size alone is not enough: an input whose content changes but whose
    size stays identical (plausible for fixed-width/regenerated data)
    must invalidate resume checkpoints instead of silently reusing stale
    tokenize output. The edge digest is content-derived, so it is also
    stable across copies/regenerations (unlike mtime).
    """
    from concurrent.futures import ThreadPoolExecutor

    ordered = sorted(paths)
    # cold-cache file opens dominate (observed ~20 ms/file on this VM);
    # the digests are pure I/O, so thread them
    with ThreadPoolExecutor(min(32, max(1, len(ordered)))) as ex:
        digests = list(ex.map(_edge_digest, ordered))
    return fingerprint(
        [
            (p, os.path.getsize(p), d)
            for p, d in zip(ordered, digests)
        ]
    )


class Manifest:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        os.makedirs(index_dir, exist_ok=True)
        self.path = os.path.join(index_dir, "manifest.jsonl")
        self._records: dict[tuple[str, str], dict] = {}
        self._seq = 0
        if os.path.exists(self.path):
            with open(self.path) as f:
                lines = f.readlines()
            for i, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    if i == len(lines) - 1:
                        # torn TAIL line: a kill mid-append is exactly
                        # the crash this journal exists to survive —
                        # the record simply never committed; its stage
                        # re-runs on resume
                        continue
                    raise  # a torn line mid-file is real corruption
                self._records[(rec["stage"], rec["partition"])] = rec
                self._seq = max(self._seq, rec.get("seq", 0))

    def latest(self, stage: str, partition: str) -> dict | None:
        """The most recent record for (stage, partition), or None."""
        return self._records.get((stage, partition))

    def is_done(self, stage: str, partition: str, fp: str) -> bool:
        rec = self._records.get((stage, partition))
        return bool(rec and rec["status"] == "done" and rec["fingerprint"] == fp)

    def mark(
        self,
        stage: str,
        partition: str,
        fp: str,
        status: str,
        metrics: dict | None = None,
    ) -> None:
        self._seq += 1
        rec = {
            "stage": stage,
            "partition": partition,
            "fingerprint": fp,
            "status": status,
            "metrics": metrics or {},
            "seq": self._seq,
            "ts": time.time(),
        }
        self._records[(stage, partition)] = rec
        # heal a torn tail before appending: a mid-append crash leaves a
        # partial record with no trailing newline — TRUNCATE the
        # uncommitted fragment (its mark never committed), else the next
        # append would concatenate onto it and corrupt itself too
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as rf:
                data = rf.read()
            if not data.endswith(b"\n"):
                cut = data.rfind(b"\n") + 1
                with open(self.path, "wb") as wf:
                    wf.write(data[:cut])
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def records(self) -> list[dict]:
        return sorted(self._records.values(), key=lambda r: r["seq"])

    def metrics(self) -> dict:
        """Build metrics, one summary per stage. A stage's ``all`` record
        already rolls up its partitions and stands for the whole stage;
        a stage without one sums its done partitions. Stages are never
        summed into each other (a key two stages report keeps the later
        stage's value), and only each (stage, partition)'s latest record
        counts — a re-run supersedes older fingerprints."""
        done = [r for r in self.records() if r["status"] == "done"]
        rolled_up = {r["stage"] for r in done if r["partition"] == "all"}
        per_stage: dict[str, dict] = {}
        for rec in done:
            if rec["stage"] in rolled_up and rec["partition"] != "all":
                continue
            agg = per_stage.setdefault(rec["stage"], {})
            for k, v in rec["metrics"].items():
                if isinstance(v, (int, float)):
                    agg[k] = agg.get(k, 0) + v
                else:
                    agg[k] = v
        out: dict = {}
        for agg in per_stage.values():
            out.update(agg)
        return out


def atomic_output_dir(final_dir: str):
    """Context manager: yields a temp dir, renames to final_dir on success.

    Same write-temp-then-rename discipline as the reference's fslock cache.
    """

    class _Ctx:
        def __enter__(self_inner):
            self_inner.tmp = final_dir + ".tmp"
            if os.path.exists(self_inner.tmp):
                shutil.rmtree(self_inner.tmp)
            os.makedirs(self_inner.tmp, exist_ok=True)
            return self_inner.tmp

        def __exit__(self_inner, exc_type, exc, tb):
            if exc_type is None:
                if os.path.exists(final_dir):
                    shutil.rmtree(final_dir)
                os.rename(self_inner.tmp, final_dir)
            else:
                shutil.rmtree(self_inner.tmp, ignore_errors=True)
            return False

    return _Ctx()

