"""The oracle's own process.

The expected answers come from ``index/oracle.py``, an in-memory index of
the whole corpus. Built in the benchmark's driver it would count in the
run's peak memory, and only in runs whose answers are not cached on disk
yet. It lives here instead: a child process the memory sampler and the
host-speed yardstick leave out, run off the run's CPUs when the host has
others. The driver calls it through ``Helper``, one pickled
``(function, args)`` request at a time over a pipe.

    python3 -m perfbench.oracle_proc      (started by Helper)
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import traceback

import pyarrow as pa

from perfbench import check


class Helper:
    """Driver side: starts the process, calls its functions, stops it."""

    def __init__(self, root: str, cpus: set[int]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["PERFBENCH_CPUS"] = ",".join(str(c) for c in sorted(cpus))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.oracle_proc"], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.pid = self.proc.pid
        self.call("ready")

    def call(self, fn: str, *args):
        pickle.dump((fn, args), self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        ok, res = pickle.load(self.proc.stdout)
        if not ok:
            raise RuntimeError(f"oracle process failed in {fn}:\n{res}")
        return res

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------ process side


class CycleOracle:
    """The oracle over the rows an ingest root physically holds: deleted
    docs still count in the statistics until a compaction purges them,
    and are dropped from the ranking."""

    def __init__(self, corpus: pa.Table, memo: dict, rows: list[int], deleted: set[int]):
        self.rows = rows
        self.deleted = deleted
        sub = corpus.take(pa.array(rows))
        self.oracle = check.build_oracle(sub, memo)
        self.inv = check.build_ids(sub)

    def answer(self, query: tuple):
        """(top-k live scores, row -> score of every live match, the
        oracle's own top-k (doc_ids, scores))."""
        q, k, op = query
        ids, scores = self.oracle.search(q, k=len(self.rows), operator=op)
        ranked = [(self.rows[int(self.inv[d])], float(s)) for d, s in zip(ids, scores)]
        live = [(r, s) for r, s in ranked if r not in self.deleted]
        return [s for _, s in live[:k]], dict(live), self.oracle.search(q, k=k, operator=op)


class Oracle:
    """Process side: the corpus, its tokens and the oracles built so far,
    for one corpus at a time."""

    def __init__(self) -> None:
        self._paths: tuple = ()
        self._corpus: pa.Table | None = None
        self._memo: dict | None = None
        self._cycle_oracles: dict[tuple, CycleOracle] = {}

    def _load(self, paths: list[str]) -> pa.Table:
        if tuple(paths) != self._paths:
            self._paths = tuple(paths)
            self._corpus = check.read_corpus(paths)
            self._memo = None
            self._cycle_oracles.clear()
        return self._corpus

    def ready(self) -> int:
        return os.getpid()

    def pool_answers(self, cache_dir: str, seed: int, n_docs: int, paths: list[str],
                     pool: list):
        """The oracle's (doc_ids, scores) for every pool query (cached on
        disk, see check.oracle_answers)."""
        return check.oracle_answers(cache_dir, seed, n_docs, self._load(paths), pool)

    def cycle_answers(self, paths: list[str], rows: list[int], deleted: list[int],
                      queries: list):
        """CycleOracle.answer for each query, over the given rows of the
        corpus with the given rows tombstoned. Ingest rounds repeat the
        same states, so each state's oracle is built once."""
        corpus = self._load(paths)
        if self._memo is None:
            self._memo = check.token_memo(corpus)
        state = (tuple(rows), frozenset(deleted))
        if state not in self._cycle_oracles:
            self._cycle_oracles[state] = CycleOracle(corpus, self._memo, list(rows),
                                                     set(deleted))
        o = self._cycle_oracles[state]
        return [o.answer(q) for q in queries]


def main() -> None:
    cpus = os.environ.get("PERFBENCH_CPUS", "")
    if cpus:
        os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
    # requests and replies use the original stdout; prints go to stderr
    rx = sys.stdin.buffer
    tx = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    oracle = Oracle()
    funcs = {"ready": oracle.ready, "pool_answers": oracle.pool_answers,
             "cycle_answers": oracle.cycle_answers}
    while True:
        try:
            fn, args = pickle.load(rx)
        except EOFError:
            return
        try:
            reply = (True, funcs[fn](*args))
        except Exception:
            reply = (False, traceback.format_exc())
        pickle.dump(reply, tx, protocol=pickle.HIGHEST_PROTOCOL)
        tx.flush()


if __name__ == "__main__":
    main()
