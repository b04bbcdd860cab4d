"""Partitioned sketch-table lifecycle: append-per-drain, staleness,
delete tombstones, compaction, and bit-identical vectorized scoring —
the Lazo server's single-index shape (apiserver/search/join.py:141-170)
rebuilt as parquet parts + one distributed Dataset pipeline."""

import glob
import os

import numpy as np
import pyarrow as pa

from auctus_ray.functions.joinsearch import LazoSketch, lazo_containment
from auctus_ray.sources.sketchtable import (
    SketchTable,
    _containment_matrix,
    _mins_matrix,
    join_scores,
)

N_PERM = 16


def _rows(*cols, seed=0):
    """Sketch rows for the named string columns (deterministic mins)."""
    rng = np.random.default_rng(89 + seed)
    out = []
    for c in cols:
        mins = rng.integers(0, 2**40, N_PERM).astype(np.int64)
        out.append(
            {
                "column_name": c,
                "tclass": "str",
                "n_perm": N_PERM,
                "card": 100,
                "mins": mins.tobytes(),
            }
        )
    return out


def _live_ids(t):
    ds = t.dataset()
    if ds is None:
        return {}
    got = {}
    for r in ds.take_all():
        got.setdefault(r["dataset_id"], []).append(
            (r["col_idx"], r["column_name"], r["seq"])
        )
    return {k: sorted(v) for k, v in got.items()}


def test_append_supersede_delete_compact(ray_session, tmp_path):
    t = SketchTable(str(tmp_path))
    t.append({"a": _rows("x", "y", seed=1), "b": _rows("z", seed=2)})
    t.append({"c": _rows("w", seed=3)})
    live = _live_ids(t)
    assert set(live) == {"a", "b", "c"}
    assert [c for _, c, _ in live["a"]] == ["x", "y"]

    # re-profile 'a' (crash-retry has the same shape): only the newest
    # rows are live — never both versions
    t.append({"a": _rows("x2", seed=4)})
    live = _live_ids(t)
    assert [c for _, c, _ in live["a"]] == ["x2"]
    assert set(live) == {"a", "b", "c"}

    # delete hides every row of 'b'
    t.delete("b")
    assert set(_live_ids(t)) == {"a", "c"}

    # compaction purges stale+deleted rows, clears the churn map, and
    # folds the parts; visible rows are unchanged
    before = _live_ids(t)
    n = t.compact()
    assert n == 2  # a.x2 + c.w
    st = t._load()
    assert st["stale"] == {}
    assert _live_ids(t) == before
    # every remaining parquet under the table dir is registered
    on_disk = {
        os.path.basename(f)
        for f in glob.glob(os.path.join(t.dir, "*.parquet"))
    }
    assert on_disk == set(st["parts"])

    # post-compact appends still work (seq monotonic past the fold)
    t.append({"d": _rows("q", seed=5)})
    assert set(_live_ids(t)) == {"a", "c", "d"}


def test_compact_to_empty(ray_session, tmp_path):
    t = SketchTable(str(tmp_path))
    t.append({"a": _rows("x")})
    t.delete("a")
    assert t.compact() == 0
    assert t.dataset() is None
    t.append({"b": _rows("y")})
    assert set(_live_ids(t)) == {"b"}


def test_vectorized_containment_matches_scalar(ray_session, tmp_path):
    """join_scores' batch kernel (flat-buffer reshape + vectorized
    estimator) must be bit-identical to the scalar lazo_containment."""
    rng = np.random.default_rng(7)
    q = LazoSketch(N_PERM, rng.integers(0, 50, N_PERM).astype(np.int64), 80)
    t = SketchTable(str(tmp_path))
    rows = []
    expect = []
    for i in range(37):
        mins = rng.integers(0, 50, N_PERM).astype(np.int64)
        card = int(rng.integers(1, 500))
        rows.append(
            {
                "column_name": f"c{i:02d}",
                "tclass": "str",
                "n_perm": N_PERM,
                "card": card,
                "mins": mins.tobytes(),
            }
        )
        c = LazoSketch(N_PERM, mins, card)
        expect.append((f"ds{i % 5}", f"c{i:02d}", lazo_containment(q, c)))
    by_ds: dict[str, list] = {}
    for (d, _, _), r in zip(expect, rows):
        by_ds.setdefault(d, []).append(r)
    t.append(by_ds)

    got = join_scores(t, q, k=300).to_pylist()
    expect.sort(key=lambda r: (-r[2], r[0], r[1]))
    want = [
        (d, c, float(np.floor(s * 1e6 + 0.5) / 1e6)) for d, c, s in expect
    ]
    assert [
        (r["dataset_id"], r["column_name"], r["containment"]) for r in got
    ] == want

    # the kernel helpers agree with the scalar path on raw values too
    tbl = pa.table(
        {
            "mins": pa.array([r["mins"] for r in rows], pa.large_binary()),
            "card": pa.array([r["card"] for r in rows], pa.int64()),
        }
    )
    mat = _mins_matrix(tbl["mins"], N_PERM)
    cont = _containment_matrix(
        mat, tbl["card"].to_numpy(), q.hash_values, q.cardinality
    )
    for (_, _, s), v in zip(expect_raw_order(rows, q), cont):
        assert s == v


def expect_raw_order(rows, q):
    for r in rows:
        c = LazoSketch(
            N_PERM, np.frombuffer(r["mins"], np.int64), r["card"]
        )
        yield (None, None, lazo_containment(q, c))


def test_append_empty_is_noop(tmp_path):
    t = SketchTable(str(tmp_path))
    assert t.append({}) == -1
    assert t.dataset() is None
    assert t.maybe_compact() is None
