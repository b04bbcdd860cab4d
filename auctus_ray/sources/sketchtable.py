"""Catalog-wide column-sketch TABLE — the Lazo server's single index.

The reference profiler pushes every textual column's Lazo sketch to one
shared Lazo server index and join search queries that index across the
whole catalog in one call (lib_profiler/datamart_profiler/core.py:
475-521; apiserver/apiserver/search/join.py:141-170). The first cut
here persisted one parquet file PER DATASET under catalog/sketches and
looped over the files on the driver at query time — fine at thousands
of datasets, the bottleneck at millions (O(catalog) file opens and
O(catalog) driver work per query).

This module is the scale shape: ONE partitioned sketch table.

  * every profile drain APPENDS one parquet part holding all of the
    drain's (dataset, column) sketch rows — file count grows with
    drains, not datasets;
  * a registry JSON (`state.json`, atomic tmp+rename) tracks the live
    part files plus a CHURN-BOUNDED staleness map (dataset_id ->
    minimum live seq; re-profiles and deletes add entries, compaction
    clears them), the segments.json pattern the keyword index already
    uses;
  * search is one distributed Dataset pipeline:
    ``read_parquet(parts, columns=...) -> filter(stale, exclude)
    -> map_batches(vectorized score) -> sort -> limit(k)`` —
    no per-dataset file opens, no driver-side scoring loop;
  * ``compact()`` folds the parts into fresh files with stale rows
    dropped (a distributed filter-rewrite), keeping both the part
    count and the staleness map bounded by churn between compactions.

Schema: dataset_id, column_name, col_idx (schema position — the
deterministic tie-break the file order used to provide), tclass,
n_perm, card (-1 = unsketched non-string column), mins (n_perm int64
slot minima as bytes), seq (append sequence for staleness).
"""

from __future__ import annotations

import json
import os

import numpy as np

from auctus_ray.util import round6 as _round6
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from auctus_ray.state.manifest import fingerprint

# staleness-map sentinel: no row of a deleted dataset can reach it
_DELETED_SEQ = 1 << 62

SCHEMA = pa.schema(
    [
        ("dataset_id", pa.string()),
        ("column_name", pa.string()),
        ("col_idx", pa.int32()),
        ("tclass", pa.string()),
        ("n_perm", pa.int32()),
        ("card", pa.int64()),
        ("mins", pa.large_binary()),
        ("seq", pa.int64()),
    ]
)

STATE_FILE = "state.json"


class SketchTable:
    """Append/compact/read surface over ``<catalog_dir>/sketch_table``."""

    def __init__(self, catalog_dir: str):
        self.dir = os.path.join(catalog_dir, "sketch_table")

    # -- registry ---------------------------------------------------------
    def _state_path(self) -> str:
        return os.path.join(self.dir, STATE_FILE)

    def _load(self) -> dict:
        try:
            with open(self._state_path(), encoding="utf-8") as f:
                return json.load(f)
        except FileNotFoundError:
            return {"next_seq": 0, "parts": [], "stale": {}, "latest": {}}

    def _save(self, state: dict) -> None:
        os.makedirs(self.dir, exist_ok=True)
        tmp = self._state_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(state, f, sort_keys=True)
        os.replace(tmp, self._state_path())

    # -- writes -----------------------------------------------------------
    def append(self, rows_by_dataset: dict[str, list[dict]]) -> int:
        """Append one part with every dataset's sketch rows from a
        drain. Each appended dataset's PREVIOUS rows (if any) become
        stale — unconditional, so a crash-retry of the same drain is
        idempotent (the re-append supersedes the orphaned first write).
        Returns the part's seq."""
        if not rows_by_dataset:
            return -1
        os.makedirs(self.dir, exist_ok=True)
        st = self._load()
        # migration: pre-"latest" state files recorded every dataset in
        # the stale map (old behavior) — seed latest from it once
        st.setdefault("latest", dict(st["stale"]))
        seq = int(st["next_seq"])
        cols: dict[str, list] = {n: [] for n in SCHEMA.names}
        for fid in sorted(rows_by_dataset):
            for i, r in enumerate(rows_by_dataset[fid]):
                cols["dataset_id"].append(fid)
                cols["column_name"].append(r["column_name"])
                cols["col_idx"].append(i)
                cols["tclass"].append(r["tclass"])
                cols["n_perm"].append(int(r["n_perm"]))
                cols["card"].append(int(r["card"]))
                cols["mins"].append(r["mins"])
                cols["seq"].append(seq)
        tbl = pa.table(
            {n: pa.array(cols[n], SCHEMA.field(n).type) for n in SCHEMA.names}
        )
        fp = fingerprint(*sorted(rows_by_dataset), seq)
        fname = f"part-{seq:08d}-{fp[:8]}.parquet"
        out = os.path.join(self.dir, fname)
        pq.write_table(tbl, out + ".tmp")
        os.replace(out + ".tmp", out)
        # part write lands BEFORE registration: a crash here leaves an
        # unregistered orphan file, never a registered-but-missing part
        st["parts"].append(fname)
        st["next_seq"] = seq + 1
        for fid in rows_by_dataset:
            # only RE-appends enter the staleness map (they supersede
            # prior rows); first-time datasets used to be added too, so
            # the map grew with total ingest — not churn — and forced a
            # full-table compaction every <= max_stale NEW datasets
            # (O(catalog^2) cumulative rewrite at the target scale)
            if fid in st["latest"]:
                st["stale"][fid] = seq
            st["latest"][fid] = seq
        self._save(st)
        return seq

    def delete(self, full_id: str) -> None:
        """Hide every row of a dataset (tombstone until compaction)."""
        st = self._load()
        if not st["parts"] and full_id not in st["stale"]:
            return
        st["stale"][full_id] = _DELETED_SEQ
        self._save(st)

    # -- reads ------------------------------------------------------------
    def dataset(
        self,
        exclude: frozenset[str] | set[str] = frozenset(),
        columns: list[str] | None = None,
    ):
        """Live sketch rows as a streaming ``ray.data.Dataset`` (None
        when the table is empty). ``columns`` prunes the read — union
        search never ships the mins blobs. The staleness map is
        churn-bounded metadata, broadcast once via ``ray.put``; the
        per-batch filter is vectorized ``pc.is_in`` with a row-level
        seq check only on the (few) affected rows."""
        import ray
        import ray.data

        st = self._load()
        files = [os.path.join(self.dir, p) for p in st["parts"]]
        if not files:
            return None
        if columns is not None:
            # live() dereferences both unconditionally
            for needed in ("seq", "dataset_id"):
                if needed not in columns:
                    columns = [*columns, needed]
        ds = ray.data.read_parquet(files, columns=columns)
        stale = st["stale"]
        if not stale and not exclude:
            return ds
        items = sorted(stale.items())
        stale_ids = np.array([k for k, _ in items], dtype=object)
        stale_seq = np.array([v for _, v in items], dtype=np.int64)
        ref = ray.put((stale_ids, stale_seq))
        ex = sorted(exclude)

        def live(batch: pa.Table) -> pa.Table:
            keep = np.ones(batch.num_rows, dtype=bool)
            ids_col = batch["dataset_id"]
            if ex:
                m = pc.is_in(ids_col, value_set=pa.array(ex, pa.string()))
                keep &= ~m.to_numpy(zero_copy_only=False)
            sid, sseq = ray.get(ref)
            if sid.size:
                aff = pc.is_in(
                    ids_col, value_set=pa.array(list(sid), pa.string())
                ).to_numpy(zero_copy_only=False)
                idx = np.flatnonzero(aff)
                if idx.size:
                    ids = np.asarray(
                        ids_col.take(pa.array(idx)).to_pylist(), dtype=object
                    )
                    seqs = batch["seq"].take(pa.array(idx)).to_numpy()
                    min_live = sseq[np.searchsorted(sid, ids)]
                    keep[idx[seqs < min_live]] = False
            return batch.filter(pa.array(keep))

        return ds.map_batches(live, batch_format="pyarrow")

    # -- maintenance ------------------------------------------------------
    def compact(self) -> int:
        """Distributed filter-rewrite: fold all parts into fresh files
        with stale/deleted rows dropped, then swap the registry in one
        atomic write and clear the staleness map. Crash before the swap
        leaves unregistered orphans (GC'd by the next compact); crash
        after leaves the old, also-orphaned files. Returns the live row
        count."""
        import shutil

        st = self._load()
        if not st["parts"]:
            return 0
        ds = self.dataset()
        tmp_dir = os.path.join(self.dir, "compact.tmp")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        seq = int(st["next_seq"])
        n_rows = 0
        new_parts: list[str] = []
        if ds is not None:
            ds = ds.materialize()
            n_rows = ds.count()
        if n_rows:
            ds.write_parquet(tmp_dir)
            for i, f in enumerate(sorted(os.listdir(tmp_dir))):
                fname = f"part-{seq:08d}-c{i:04d}.parquet"
                os.replace(
                    os.path.join(tmp_dir, f), os.path.join(self.dir, fname)
                )
                new_parts.append(fname)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        old = set(st["parts"])
        latest = {
            k: v
            for k, v in st.get("latest", dict(st["stale"])).items()
            if st["stale"].get(k) != _DELETED_SEQ
        }
        self._save(
            {
                "next_seq": seq + 1, "parts": new_parts, "stale": {},
                "latest": latest,
            }
        )
        for f in old:
            try:
                os.remove(os.path.join(self.dir, f))
            except FileNotFoundError:
                pass
        # GC unregistered orphans from older crashes
        live_names = set(new_parts) | {STATE_FILE}
        for f in os.listdir(self.dir):
            if f not in live_names and f.endswith(".parquet"):
                try:
                    os.remove(os.path.join(self.dir, f))
                except FileNotFoundError:
                    pass
        return n_rows

    def maybe_compact(self, max_parts: int = 64, max_stale: int = 1024):
        """Compact when the part count or the staleness map exceeds its
        bound — called once per drain, the tiered-merge cadence."""
        st = self._load()
        if len(st["parts"]) > max_parts or len(st["stale"]) > max_stale:
            return self.compact()
        return None


# -- distributed scoring pipelines ----------------------------------------


def _mins_matrix(col: pa.ChunkedArray, n_perm: int) -> np.ndarray:
    """(n_rows, n_perm) int64 slot-minima matrix from a large_binary
    column whose values are all n_perm*8 bytes — zero Python per row
    (flat buffer reshape on the contiguous fast path, one vectorized
    gather otherwise)."""
    nbytes = n_perm * 8
    mats = []
    for chunk in col.chunks if isinstance(col, pa.ChunkedArray) else [col]:
        n = len(chunk)
        if n == 0:
            continue
        offs = np.frombuffer(chunk.buffers()[1], np.int64)[
            chunk.offset : chunk.offset + n + 1
        ]
        data = np.frombuffer(chunk.buffers()[2], np.uint8)
        if offs[-1] - offs[0] == n * nbytes:
            m = data[offs[0] : offs[-1]].copy().view(np.int64)
        else:  # ragged (shouldn't occur post-filter): explicit gather
            idx = offs[:-1, None] + np.arange(nbytes)
            m = data[idx].copy().view(np.int64)
        mats.append(m.reshape(n, n_perm))
    if not mats:
        return np.empty((0, n_perm), np.int64)
    return np.vstack(mats) if len(mats) > 1 else mats[0]


def _containment_matrix(
    mat: np.ndarray, card: np.ndarray, qh: np.ndarray, qc: int
) -> np.ndarray:
    """Vectorized Lazo containment of the query in each row's column
    (same float64 operation order as lazo_containment, so results are
    bit-identical to the scalar path)."""
    if qc == 0:
        return np.zeros(mat.shape[0], np.float64)
    js = (mat == qh[None, :]).sum(axis=1).astype(np.float64) / qh.size
    union = (qc + card) / (1.0 + js)
    inter = qc + card - union
    return np.minimum(1.0, np.maximum(0.0, inter / qc))


def join_scores(table: SketchTable, q, exclude=frozenset(), k: int = 300):
    """Containment-ranked (dataset_id, column_name, containment) of
    the query sketch against every live catalog column: map_batches
    (vectorized score + per-batch top-k cap) -> sort -> limit(k).
    Matches _rank_and_cap's schema, ordering and 1e-6 rounding."""
    import ray

    from auctus_ray.functions.joinsearch import _rank_and_cap

    ds = table.dataset(exclude=exclude)
    if ds is None:
        return _rank_and_cap([], k)
    qref = ray.put((int(q.n_perm), q.hash_values, int(q.cardinality)))
    empty = pa.table(
        {
            "dataset_id": pa.array([], pa.string()),
            "column_name": pa.array([], pa.string()),
            "containment": pa.array([], pa.float64()),
        }
    )

    def score(batch: pa.Table) -> pa.Table:
        n_perm, qh, qc = ray.get(qref)
        m = pc.and_(
            pc.greater_equal(batch["card"], 0), pc.equal(batch["n_perm"], n_perm)
        )
        t = batch.filter(m)
        if t.num_rows == 0:
            return empty
        mat = _mins_matrix(t["mins"], n_perm)
        card = t["card"].to_numpy()
        cont = _containment_matrix(mat, card, qh, qc)
        out = pa.table(
            {
                "dataset_id": t["dataset_id"],
                "column_name": t["column_name"],
                "containment": pa.array(cont, pa.float64()),
            }
        )
        if out.num_rows > k:  # global top-k ⊆ union of per-batch top-k
            order = np.lexsort(
                (
                    np.asarray(t["column_name"].to_pylist(), dtype=object),
                    np.asarray(t["dataset_id"].to_pylist(), dtype=object),
                    -cont,
                )
            )[:k]
            out = out.take(pa.array(order))
        return out

    top = (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(
            ["containment", "dataset_id", "column_name"],
            descending=[True, False, False],
        )
        .limit(k)
        .take_all()
    )
    return _rank_and_cap(
        [(r["dataset_id"], r["column_name"], r["containment"]) for r in top],
        k,
    )


def union_scores(
    table: SketchTable, query_cols: list[tuple[str, str]],
    exclude=frozenset(), k: int = 50,
) -> list[tuple[str, str, int, int]]:
    """Fuzzy-schema scores [(dataset_id, matched, n_pairs, sum_sim_e9)]
    ranked desc, capped at k. groupby(dataset_id).map_groups over the
    PRUNED read (no mins blobs leave storage) — the exchange moves
    catalog metadata (~bytes per column), not data."""
    import ray

    from auctus_ray.pipelines.unionsearch import score_candidate

    ds = table.dataset(
        exclude=exclude, columns=["dataset_id", "column_name", "tclass"]
    )
    if ds is None:
        return []
    qref = ray.put(query_cols)
    empty = pa.table(
        {
            "dataset_id": pa.array([], pa.string()),
            "matched": pa.array([], pa.string()),
            "n_pairs": pa.array([], pa.int64()),
            "sum_sim_e9": pa.array([], pa.int64()),
        }
    )

    def score_group(group: pa.Table) -> pa.Table:
        qc = ray.get(qref)
        cand = [
            (n.lower(), tc)
            for n, tc in zip(
                group["column_name"].to_pylist(), group["tclass"].to_pylist()
            )
        ]
        hit = score_candidate(qc, cand)
        if hit is None:
            return empty
        n_pairs, sum_sim_e9, matched = hit
        return pa.table(
            {
                "dataset_id": group["dataset_id"][:1],
                "matched": pa.array([matched], pa.string()),
                "n_pairs": pa.array([n_pairs], pa.int64()),
                "sum_sim_e9": pa.array([sum_sim_e9], pa.int64()),
            }
        )

    rows = (
        ds.groupby("dataset_id")
        .map_groups(score_group, batch_format="pyarrow")
        .sort(["sum_sim_e9", "dataset_id"], descending=[True, False])
        .limit(k)
        .take_all()
    )
    return [
        (r["dataset_id"], r["matched"], r["n_pairs"], r["sum_sim_e9"])
        for r in rows
    ]


def join_best_per_dataset(
    table: SketchTable, q_sketches: dict, exclude=frozenset(), k: int = 50,
) -> list[tuple[str, str, float]]:
    """Best (query column -> candidate column) containment per dataset
    across ALL query sketches — the join half of the combined
    augmentation response. Per-batch: vectorized containment for every
    (sketch, row) pair, strict-max argmax over sketches (first wins on
    ties, the scan order of the old driver loop); per-dataset reduce by
    (score desc, col_idx asc, sketch order asc) via groupby.map_groups.
    Returns [(dataset_id, 'qcol->ccol', score)] ranked desc, capped."""
    import ray

    ds = table.dataset(exclude=exclude)
    if ds is None:
        return []
    names = list(q_sketches)
    qref = ray.put(
        [
            (n, int(q_sketches[n].n_perm), q_sketches[n].hash_values,
             int(q_sketches[n].cardinality))
            for n in names
        ]
    )
    empty = pa.table(
        {
            "dataset_id": pa.array([], pa.string()),
            "detail": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
            "col_idx": pa.array([], pa.int32()),
            "q_idx": pa.array([], pa.int32()),
        }
    )

    def score(batch: pa.Table) -> pa.Table:
        sketches = ray.get(qref)
        t = batch.filter(pc.greater_equal(batch["card"], 0))
        if t.num_rows == 0 or not sketches:
            return empty
        card = t["card"].to_numpy()
        best = np.full(t.num_rows, -1.0)
        best_q = np.zeros(t.num_rows, np.int32)
        by_perm: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for qi, (_, n_perm, qh, qc) in enumerate(sketches):
            if n_perm not in by_perm:
                ok = pc.equal(t["n_perm"], n_perm).to_numpy(
                    zero_copy_only=False
                )
                by_perm[n_perm] = (
                    np.flatnonzero(ok),
                    _mins_matrix(t.filter(pa.array(ok))["mins"], n_perm),
                )
            sub, mat = by_perm[n_perm]
            if sub.size == 0:
                continue
            cont = _containment_matrix(mat, card[sub], qh, qc)
            gt = cont > best[sub]  # strictly greater: first sketch wins ties
            best[sub[gt]] = cont[gt]
            best_q[sub[gt]] = qi
        has = best >= 0.0
        idx = np.flatnonzero(has)
        if idx.size == 0:
            return empty
        ta = t.take(pa.array(idx))
        details = [
            f"{sketches[q][0]}->{c}"
            for q, c in zip(best_q[idx], ta["column_name"].to_pylist())
        ]
        return pa.table(
            {
                "dataset_id": ta["dataset_id"],
                "detail": pa.array(details, pa.string()),
                "score": pa.array(best[idx], pa.float64()),
                "col_idx": ta["col_idx"],
                "q_idx": pa.array(best_q[idx], pa.int32()),
            }
        )

    def best_of_group(group: pa.Table) -> pa.Table:
        s = group["score"].to_numpy()
        ci = group["col_idx"].to_numpy()
        qi = group["q_idx"].to_numpy()
        # the old scan visited columns in schema order and sketches in
        # query order, replacing only on strict improvement: the winner
        # is max RAW score, then smallest col_idx, then smallest q_idx;
        # the emitted score is 1e-6-rounded (the final ranking key)
        w = np.lexsort((qi, ci, -s))[0]
        out = group.take(pa.array([w])).select(["dataset_id", "detail"])
        return out.append_column(
            "score",
            pa.array([float(_round6(s[w]))], pa.float64()),
        )

    rows = (
        ds.map_batches(score, batch_format="pyarrow")
        .groupby("dataset_id")
        .map_groups(best_of_group, batch_format="pyarrow")
        .sort(["score", "dataset_id"], descending=[True, False])
        .limit(k)
        .take_all()
    )
    return [(r["dataset_id"], r["detail"], r["score"]) for r in rows]
