"""In-memory span tracer that hooks the program's public (and some private)
functions from outside, so the program itself carries no tracing code.

A span is (name, start, end, parent, op). Spans nest through a stack: a
span opened while another is open records it as its parent, so a
layer's self time is its duration minus its children's. Every span
belongs to the operation (one build, one query, one ingest cycle) that
was current when it opened. Counters are recorded per operation at the
same hook points.

A hook whose target does not exist (a private helper a later change
deleted) is recorded in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.op = -1
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def begin_op(self, op: int) -> None:
        self.op = op

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[self.op][name] += value

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (a no-op span when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    # ------------------------------------------------------------ hooks

    def hook(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span `name`.

        ``before(args, kwargs)`` runs ahead of the call and may record
        counters; its return value is handed to ``after(state)`` once the
        call returns. Static methods stay static methods.
        """
        raw = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
        if raw is None:
            self.absent.append(name)
            return
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            try:
                return tracer.call(name, fn, *args, **kwargs)
            finally:
                if after is not None:
                    after(state)

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._undo.append((owner, attr, raw))

    def unhook(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # ------------------------------------------------------------ analysis

    def last_total(self, name: str) -> float:
        """Duration of the latest span called name in the current op."""
        for span_name, t0, t1, _, op in reversed(self.spans):
            if op != self.op:
                break
            if span_name == name:
                return t1 - t0
        return 0.0

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op -> span name -> {"total": s, "self": s, "calls": n}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        )
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            rec = out[op][name]
            rec["total"] += t1 - t0
            rec["self"] += (t1 - t0) - child[i]
            rec["calls"] += 1
        return out

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON lines."""
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "op": op}) + "\n")
            for op, cs in self.counts.items():
                f.write(json.dumps({"op": op, "counts": dict(cs)}) + "\n")
