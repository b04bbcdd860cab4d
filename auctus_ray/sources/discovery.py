"""Discoverer plugin surface: the reference's user-extension base class
(lib_core/datamart_core/discovery.py:20-167) re-expressed without the
AMQP/Elasticsearch service mesh.

Mapping of the reference's moving parts:
  * the AMQP `profile` queue  -> a PENDING set in a `Manifest` journal
    (stage "discovered" minus stage "profiled"), durable + resumable;
  * `record_dataset`          -> same metadata defaulting contract
    (name/source fallbacks, strip_html on description, `identifier.`
    id prefix, materialize identifier+date stamp), journaled instead of
    published (discovery.py:107-124);
  * the profiler consumers    -> `profile_pending`, which drains the
    pending set one dataset at a time — each dataset's profile is
    itself a DISTRIBUTED Ray Data pipeline, so draining sequentially
    mirrors the reference's prefetch_count=1 consumer loop
    (profiler.py:229-232) while still using the whole cluster per
    dataset; finished datasets are skipped on resume via content
    fingerprints (T7 idempotency);
  * `delete_dataset`          -> a journaled tombstone; listings and
    the pending set honor it (the D5 delete-then-reinsert shape:
    re-recording after a delete makes the dataset pending again).

Profiles land as one JSON file per dataset (atomic tmp+rename) under
`<catalog_dir>/profiles/` — the analog of the reference's per-dataset
ES documents.
"""

from __future__ import annotations

import datetime
import json
import os
import uuid

from auctus_ray.functions.scalars import encode_dataset_id, strip_html
from auctus_ray.state.manifest import Manifest, file_fingerprint
from auctus_ray.util import round6 as _round6


class Discoverer:
    """Base class for discoverer plugins: subclass, implement
    ``discover_datasets``, call ``record_dataset`` for each find."""

    def __init__(self, identifier: str, catalog_dir: str):
        from auctus_ray.sources.sketchtable import SketchTable

        self.identifier = identifier
        self.catalog_dir = catalog_dir
        self.catalog = Manifest(catalog_dir)
        self.sketch_table = SketchTable(catalog_dir)

    # -- plugin hook ------------------------------------------------------
    def discover_datasets(self) -> None:  # pragma: no cover - interface
        """Override: sweep the source, call record_dataset per dataset."""

    def handle_query(self, query: dict, publish) -> None:
        """Optional on-demand hook (reference docs/internals.rst:46-58,
        NOAA noaa_discovery.py:163): react to a user query and publish
        datasets found for it. ``publish(materialize, metadata,
        dataset_id=None)`` records the dataset; it is then profiled if
        necessary and considered for the query's results (see
        ``search_with_on_demand``). Ahead-of-time discoverers leave
        this as the default no-op."""

    # -- recording --------------------------------------------------------
    def record_dataset(
        self,
        materialize: dict,
        metadata: dict,
        dataset_id: str | None = None,
    ) -> str:
        """Journal a found dataset for profiling; returns the full id.
        Same defaulting contract as the reference (discovery.py:107-124)."""
        if dataset_id is None:
            dataset_id = uuid.uuid4().hex
        full_id = f"{self.identifier}.{dataset_id}"
        metadata = dict(metadata)
        metadata.setdefault("name", dataset_id)
        metadata.setdefault("source", self.identifier)
        if "description" in metadata:
            metadata["description"] = strip_html(metadata["description"])
        materialize = dict(
            materialize,
            identifier=self.identifier,
            date=datetime.datetime.utcnow().isoformat() + "Z",
        )
        path = materialize.get("path")
        if not (path and os.path.exists(path)):
            path = self._shared_storage_path(full_id)
        content_fp = (
            file_fingerprint([path]) if path and os.path.exists(path) else "meta"
        )
        # metadata participates in the fingerprint: a rename/description
        # edit with identical bytes (Socrata updatedAt bump) must
        # re-queue so the INDEXED metadata doc is replaced — content
        # alone left dataset-search serving the old title forever
        import hashlib as _hashlib

        md = _hashlib.sha256(
            json.dumps(metadata, sort_keys=True).encode()
        ).hexdigest()[:12]
        fp = f"{content_fp}-{md}"
        self.catalog.mark(
            "discovered",
            full_id,
            fp,
            "done",
            metrics={"metadata": metadata, "materialize": materialize},
        )
        return full_id

    def write_to_shared_storage(self, dataset_id: str):
        """Context manager yielding a binary file handle into shared
        storage (reference discovery.py:128-139: for datasets that
        cannot be re-materialized later). Atomic tmp+rename; profiling
        prefers the stored copy over materialize.path, and
        delete_dataset removes it."""
        import contextlib

        @contextlib.contextmanager
        def _cm():
            d = os.path.join(self.catalog_dir, "storage")
            os.makedirs(d, exist_ok=True)
            full_id = f"{self.identifier}.{dataset_id}"
            final = os.path.join(d, encode_dataset_id(full_id))
            tmp = final + ".tmp"
            with open(tmp, "wb") as fp:
                yield fp
            os.replace(tmp, final)

        return _cm()

    def _shared_storage_path(self, full_id: str) -> str | None:
        p = os.path.join(
            self.catalog_dir, "storage", encode_dataset_id(full_id)
        )
        return p if os.path.exists(p) else None

    def delete_dataset(self, *, full_id: str | None = None,
                       dataset_id: str | None = None,
                       seg_root: str | None = None) -> None:
        """Tombstone a dataset no longer present in the source
        (discovery.py:141-158); its profile file is removed too. With
        ``seg_root``, the dataset is also tombstoned out of the keyword
        index (reference delete_dataset_from_index, common.py:522-561)."""
        if (full_id is not None) == (dataset_id is not None):
            raise TypeError("Pass only one of 'dataset_id' and 'full_id'")
        if full_id is None:
            full_id = f"{self.identifier}.{dataset_id}"
        if seg_root is not None:
            from auctus_ray.index.segments import delete_docs

            delete_docs(seg_root, [full_id], column="path")
        self.catalog.mark("discovered", full_id, "tombstone", "deleted")
        # invalidate the profiled record too: re-recording after a delete
        # must re-profile even if the content fingerprint is unchanged
        # (D5 delete-then-reinsert — the reference drops the ES document)
        self.catalog.mark("profiled", full_id, "tombstone", "deleted")
        prof = self._profile_path(full_id)
        if os.path.exists(prof):
            os.remove(prof)
        # sketch rows tombstone out of the catalog table (hidden at
        # query time, purged by the next sketch-table compaction)
        self.sketch_table.delete(full_id)
        self.catalog.mark("sketched", full_id, "tombstone", "deleted")
        # the stored shared-storage copy goes too (discovery.py:155-158)
        stored = self._shared_storage_path(full_id)
        if stored:
            os.remove(stored)

    # -- listings ---------------------------------------------------------
    def datasets(self) -> list[dict]:
        """Live (non-deleted) discovered datasets, discovery order."""
        return [
            {
                "id": r["partition"],
                "fingerprint": r["fingerprint"],
                **r["metrics"],
            }
            for r in self.catalog.records()
            if r["stage"] == "discovered" and r["status"] == "done"
        ]

    def pending(self) -> list[dict]:
        """Discovered datasets whose CURRENT content fingerprint has no
        'profiled' record — the profile queue. A dataset whose SAME
        fingerprint already failed ('error' mark) is PARKED, not
        retried every drain (re-running an unchanged poison file fails
        identically and grows the journal forever); a content change or
        reprocess_all() re-queues it."""
        out = []
        for d in self.datasets():
            if self.catalog.is_done("profiled", d["id"], d["fingerprint"]):
                continue
            last = self.catalog.latest("profiled", d["id"])
            if (
                last is not None
                and last["status"] == "error"
                and last["fingerprint"] == d["fingerprint"]
            ):
                continue
            out.append(d)
        return out

    def backfill_sketches(self, chunk_datasets: int = 2000) -> list[str]:
        """Write column sketches for live datasets profiled BEFORE the
        sketch catalog existed (catalog search reads the sketch table
        only, so un-sketched datasets would be silently invisible to
        join/union/augmentation search). Much cheaper than
        reprocess_all: no re-profiling, one materialized read per
        missing dataset. Appends land in chunks of ``chunk_datasets``
        (each chunk marked 'sketched' before the next starts) so a
        large-catalog migration holds O(chunk) sketch rows on the
        driver and resumes where it stopped, never O(catalog).
        Returns the backfilled ids."""
        done: list[str] = []
        rows_by_dataset: dict[str, list[dict]] = {}
        fps: dict[str, str] = {}

        def flush() -> None:
            if rows_by_dataset:
                self.sketch_table.append(rows_by_dataset)
                for fid, fp in fps.items():
                    self.catalog.mark("sketched", fid, fp, "done")
                rows_by_dataset.clear()
                fps.clear()

        for d in self.datasets():
            if self.catalog.is_done("sketched", d["id"], d["fingerprint"]):
                continue
            last = self.catalog.latest("profiled", d["id"])
            if last is None or last["status"] != "done":
                continue  # never profiled (or errored): not cataloged
            path = self._shared_storage_path(d["id"]) or d.get(
                "materialize", {}
            ).get("path")
            if not path or not os.path.exists(path):
                continue
            try:
                rows_by_dataset[d["id"]] = self._column_sketch_rows(path)
            except Exception:  # noqa: BLE001 — poison files stay absent
                continue
            fps[d["id"]] = d["fingerprint"]
            done.append(d["id"])
            if len(rows_by_dataset) >= chunk_datasets:
                flush()
        flush()
        return done

    def reprocess_all(self) -> int:
        """Re-queue every live dataset for profiling, keeping its
        recorded metadata (reference scripts/reprocess_all.py: re-publish
        each dataset to the profile exchange after a profiler upgrade).
        The next profile_pending drain re-profiles and re-indexes
        (versioned replace). Returns the number re-queued."""
        n = 0
        for d in self.datasets():
            if self.catalog.latest("profiled", d["id"]) is not None:
                self.catalog.mark(
                    "profiled", d["id"], "reprocess", "queued"
                )
                n += 1
        return n

    # -- profiling (queue consumer) --------------------------------------
    def _profile_path(self, full_id: str) -> str:
        return os.path.join(
            self.catalog_dir, "profiles", encode_dataset_id(full_id) + ".json"
        )

    def _column_sketch_rows(self, path: str, n_perm: int = 128,
                            ds=None) -> list[dict]:
        """Lazo sketch rows for every column of one dataset — the role
        of the reference's profiler->Lazo-server push (each textual
        column's sketch, core.py:475-521; join search later queries the
        server's single index across the whole catalog,
        apiserver/search/join.py:141-170). Rows are catalog-metadata-
        sized (n_perm ints + a cardinality per column); they append to
        the partitioned sketch TABLE once per drain."""
        import pyarrow as pa

        from auctus_ray.functions.joinsearch import (
            distinct_str_values, sketch_column,
        )
        from auctus_ray.pipelines.unionsearch import _tclass
        from auctus_ray.sources.ingest import read_table_auto

        # ONE read for all columns: per-column sketch pipelines execute
        # off the materialized blocks instead of re-scanning the source
        # once per string column (or off the drain's shared read)
        if ds is None:
            ds = read_table_auto(path).materialize()
        schema = ds.schema()
        rows = []
        for name, typ in zip(schema.names, schema.types):
            if pa.types.is_string(typ) or pa.types.is_large_string(typ):
                sk = sketch_column(distinct_str_values(ds, name), n_perm)
                card, mins = sk.cardinality, sk.hash_values.tobytes()
            else:
                # non-string columns carry no Lazo sketch (card -1) but
                # DO record their type class: union search matches
                # schemas across the whole catalog from these rows alone
                card, mins = -1, b""
            rows.append(
                {
                    "column_name": name,
                    "tclass": _tclass(typ),
                    "n_perm": n_perm,
                    "card": card,
                    "mins": mins,
                }
            )
        return rows

    def profile_pending(
        self,
        seg_root: str | None = None,
        max_segments: int = 32,
        column_sketches: bool = True,
        **profile_kwargs,
    ) -> list[str]:
        """Drain the pending set: profile each dataset (a distributed
        Ray Data pipeline per dataset) and journal completion keyed by
        content fingerprint, so reruns skip finished work and content
        changes re-profile. Returns the ids profiled this call.

        With ``seg_root``, each profiled dataset's metadata is also
        indexed into the segmented keyword index (one segment per
        drain — the reference's per-dataset `es.index` batched the way
        Lucene would batch it; add_dataset_to_index common.py:451-467).
        Re-profiles (content change OR reprocess_all) tombstone the
        previously indexed version and re-inserts clear any
        dataset-level tombstone — ES's index-by-id replace semantics.
        The 'profiled' journal mark lands AFTER indexing, so a crash
        mid-drain re-runs the whole (idempotent) index step instead of
        leaving an indexed-but-unjournaled duplicate."""
        from auctus_ray.pipelines.document import profile_dataset_document

        os.makedirs(os.path.join(self.catalog_dir, "profiles"), exist_ok=True)
        done = []
        to_index = []
        sketch_rows: dict[str, list[dict]] = {}
        sketch_fps: dict[str, str] = {}
        for d in self.pending():
            # shared storage wins over re-materialization (reference:
            # "materialization won't occur for datasets that are in
            # shared storage already", discovery.py:131-134)
            path = self._shared_storage_path(d["id"]) or d.get(
                "materialize", {}
            ).get("path")
            if not path or not os.path.exists(path):
                self.catalog.mark(
                    "profiled", d["id"], d["fingerprint"], "error",
                    metrics={"error": "materialize.path missing"},
                )
                continue
            try:
                shared_ds = None
                if column_sketches:
                    # one materialized ingest feeds BOTH the profile and
                    # the column sketches — the drain read the source
                    # twice per dataset before
                    from auctus_ray.sources.ingest import read_table_auto

                    shared_ds = read_table_auto(path).materialize()
                doc = profile_dataset_document(
                    path, ds=shared_ds, **profile_kwargs
                )
                if column_sketches:
                    sketch_rows[d["id"]] = self._column_sketch_rows(
                        path, ds=shared_ds
                    )
                    sketch_fps[d["id"]] = d["fingerprint"]
            except Exception as e:  # noqa: BLE001 — a poison file (bad
                # decode, unsupported subset) or a failed sketch pass
                # must not wedge the whole drain: journal the error
                # (pending() parks the unchanged fingerprint) and keep
                # draining; a content change or reprocess_all re-queues
                self.catalog.mark(
                    "profiled", d["id"], d["fingerprint"], "error",
                    metrics={"error": f"{type(e).__name__}: {e}"},
                )
                continue
            doc["id"] = d["id"]
            doc["metadata"] = d.get("metadata", {})
            tmp = self._profile_path(d["id"]) + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(doc, f, sort_keys=True)
            os.replace(tmp, self._profile_path(d["id"]))
            done.append(d["id"])
            to_index.append((d, doc))
        if sketch_rows:
            # ONE sketch-table append per drain (file count grows with
            # drains, not datasets); lands BEFORE the 'profiled' marks
            # so a crash re-runs the idempotent append (the retry
            # supersedes the orphaned first write via the stale map)
            self.sketch_table.append(sketch_rows)
            for fid, fp in sketch_fps.items():
                self.catalog.mark("sketched", fid, fp, "done")
            self.sketch_table.maybe_compact()
        if seg_root is not None and to_index:
            self._index_batch(seg_root, to_index)
        for d, doc in to_index:
            self.catalog.mark(
                "profiled", d["id"], d["fingerprint"], "done",
                metrics={"nb_rows": doc.get("nb_rows", 0)},
            )
        if seg_root is not None and to_index:
            # tiered merge: fold the small-segment tail once the count
            # exceeds max_segments (each drain adds one segment)
            from auctus_ray.index.segments import maybe_compact

            maybe_compact(seg_root, max_segments=max_segments)
        return done

    # -- metadata keyword index (the reference 'datasets' ES index) -------
    def _index_batch(self, seg_root: str, to_index) -> None:
        """One immutable segment per drain over the freshly profiled
        datasets' metadata documents. Document text mirrors the
        reference's keyword-search field set (id, name, description,
        attribute_keywords — apiserver/search/__init__.py:67-79,
        flattened into one field); `repo` carries the source identifier
        so the reference's source terms-filter maps onto
        filters={'repo': [...]}; `commit` carries a CHAINED version key
        (fingerprint of content fp + previous version, journaled in the
        'indexed' stage) so every re-index — content change or
        reprocess of unchanged content — gets a distinct version, the
        superseded one tombstones cleanly, and re-running the same
        drain stays idempotent."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from auctus_ray.index.segments import (
            add_segment, delete_docs, undelete_docs,
        )
        from auctus_ray.state.manifest import fingerprint

        def coverage_attrs(doc: dict) -> dict:
            """Flatten profile coverage to doc-level filterable scalars
            (the reference keeps these nested in ES and range-queries
            them, apiserver/search/__init__.py:212-330; scalar hull
            bounds give identical intersects semantics for single-range
            docs and a superset — candidate, never missing — for
            multi-range ones). t_res keeps EVERY temporal column's
            resolution as a space-joined keyword (like dtypes) so a
            granularity filter matches any column — the reference's
            per-column nested terms query (search/__init__.py:212-330)."""
            t_min = t_max = None
            t_res_set: list[str] = []
            for tc in doc.get("temporal_coverage") or []:
                for r in tc.get("ranges") or []:
                    g = r.get("range", {})
                    if g.get("gte") is not None:
                        t_min = g["gte"] if t_min is None else min(t_min, g["gte"])
                    if g.get("lte") is not None:
                        t_max = g["lte"] if t_max is None else max(t_max, g["lte"])
                res = tc.get("temporal_resolution")
                if res and str(res) not in t_res_set:
                    t_res_set.append(str(res))
            t_res = " ".join(t_res_set)
            lat_min = lat_max = lon_min = lon_max = None
            for sc in doc.get("spatial_coverage") or []:
                for r in sc.get("ranges") or []:
                    coords = r.get("range", {}).get("coordinates")
                    if not coords:
                        continue
                    (lo_lon, hi_lat), (hi_lon, lo_lat) = coords
                    lat_min = lo_lat if lat_min is None else min(lat_min, lo_lat)
                    lat_max = hi_lat if lat_max is None else max(lat_max, hi_lat)
                    lon_min = lo_lon if lon_min is None else min(lon_min, lo_lon)
                    lon_max = hi_lon if lon_max is None else max(lon_max, hi_lon)
            return {
                "t_min": t_min, "t_max": t_max, "t_res": t_res,
                "lat_min": lat_min, "lat_max": lat_max,
                "lon_min": lon_min, "lon_max": lon_max,
            }

        rows = []
        stale_versions = []
        versions: dict[str, str] = {}
        for d, doc in to_index:
            prev = self.catalog.latest("indexed", d["id"])
            prev_version = (
                prev["fingerprint"]
                if prev is not None and prev["status"] == "done"
                else ""
            )
            version = fingerprint(d["fingerprint"], prev_version)
            if prev_version and prev_version != version:
                stale_versions.append(prev_version)
            versions[d["id"]] = version
            md = d.get("metadata", {})
            text = " ".join(
                [
                    d["id"],
                    str(md.get("name", "")),
                    str(md.get("description", "")),
                ]
                + list(doc.get("attribute_keywords", []))
            )
            rows.append(
                {
                    "dataset_id": d["id"],
                    "version": version,
                    "source": str(md.get("source", self.identifier)),
                    "lang": "",
                    "text": text,
                    "license": str(md.get("license", "")),
                    # dataset types as ONE space-joined sorted keyword
                    # (the multi-valued ES 'types' field: facet buckets
                    # split back into per-type counts at query time)
                    "dtypes": " ".join(doc.get("types", [])),
                    **coverage_attrs(doc),
                }
            )
        batch = pa.Table.from_pylist(rows)
        # explicit float64 for the numeric coverage attrs: an all-null
        # drain must not leave a null-typed docmap column behind
        import pyarrow.compute as _pc

        for c in ("t_min", "t_max", "lat_min", "lat_max", "lon_min", "lon_max"):
            batch = batch.set_column(
                batch.schema.get_field_index(c), c,
                _pc.cast(batch[c], pa.float64()),
            )
        src_dir = os.path.join(self.catalog_dir, "indexsrc")
        os.makedirs(src_dir, exist_ok=True)
        fp = fingerprint(*(r["dataset_id"] + r["version"] for r in rows))
        path = os.path.join(src_dir, f"batch-{fp}.parquet")
        if not os.path.exists(path):
            pq.write_table(batch, path + ".tmp")
            os.replace(path + ".tmp", path)
        add_segment(
            seg_root, [path], analyzer="simple", n_shards=1,
            column_map={
                "repo": "source",
                "path": "dataset_id",
                "commit": "version",
                "lang": "lang",
                "content": "text",
            },
            attrs=COVERAGE_ATTRS,
        )
        # version-aware replace: mask the superseded versions, then
        # clear dataset-level tombstones for everything just (re)added,
        # and journal the new live versions (the chain anchor)
        if stale_versions:
            delete_docs(seg_root, stale_versions, column="commit")
        undelete_docs(
            seg_root, [d["id"] for d, _ in to_index], column="path"
        )
        for d, _ in to_index:
            self.catalog.mark("indexed", d["id"], versions[d["id"]], "done")


# coverage attrs carried into the metadata index's docmap (filterable
# doc-values); epoch-seconds temporal hull, degrees bbox hull, and the
# flattened temporal resolution keyword
COVERAGE_ATTRS = (
    "t_min", "t_max", "t_res", "lat_min", "lat_max", "lon_min", "lon_max",
    "license", "dtypes",
)


def _ts(v) -> float:
    """ISO date string | datetime | epoch number -> epoch seconds."""
    import numpy as np

    if isinstance(v, (int, float)):
        return float(v)
    return float(
        np.datetime64(str(v)[:19].replace(" ", "T")).astype("datetime64[s]").astype("int64")
    )


def search_datasets(
    seg_root: str,
    keywords: str,
    k: int = 10,
    source: list[str] | None = None,
    temporal: tuple | None = None,
    bbox: tuple | None = None,
    granularity: str | None = None,
    facets: bool = False,
    page: int = 1,
    distributed: int = 0,
) -> list[dict] | dict:
    """Keyword search over the metadata index — the reference's main
    query (parse_keyword_query_main_index, apiserver/search/
    __init__.py:55-91): conjunctive keywords over id/name/description/
    attribute_keywords, optional source terms-filter. Returns hydrated
    hits [{dataset_id, source, score, rank}], best first.

    The reference's "variables" filters (search/__init__.py:186-330)
    map onto docmap range filters:
      temporal=(start, end)   — ISO strings / datetimes / epoch secs;
                                either side may be None — intersects
                                the dataset's temporal coverage hull;
      bbox=(lon1, lat1, lon2, lat2) — intersects the spatial hull;
      granularity='day'|...   — temporal_resolution term filter.
    Datasets without the relevant coverage never match (ES nested-
    missing semantics).

    facets=True returns the reference's search response shape
    (search/__init__.py:587-643): {"results": [...], "facets":
    {"source"/"license": {buckets}}, "total": n} — bucket counts over
    ALL matching docs, total from the source agg. page paginates
    (page*k <= 10000, the reference scroll guard). distributed=N
    serves the query through N DistributedSearcher actors, each over
    one docID-bucket group of every segment — the fan-out shape for a
    catalog too large for one process."""
    from auctus_ray.index.search import DistributedSearcher, Searcher

    s = (
        DistributedSearcher(seg_root, n_actors=distributed)
        if distributed
        else Searcher(seg_root)
    )
    filters: dict = {}
    if source:
        filters["repo"] = source
    if temporal is not None:
        start, end = temporal
        if end is not None:
            filters["t_min"] = ("<=", _ts(end))
        if start is not None:
            filters["t_max"] = (">=", _ts(start))
    if bbox is not None:
        lon1, lat1, lon2, lat2 = bbox
        filters["lon_min"] = ("<=", max(lon1, lon2))
        filters["lon_max"] = (">=", min(lon1, lon2))
        filters["lat_min"] = ("<=", max(lat1, lat2))
        filters["lat_max"] = (">=", min(lat1, lat2))
    if granularity is not None:
        # token-membership: t_res is space-joined across ALL temporal
        # columns; any column at the requested resolution qualifies
        filters["t_res"] = ("has", granularity)
    offset = (page - 1) * k
    try:
        if facets:
            d, sc, fc = s.search(
                keywords, k=k, operator="and", filters=filters or None,
                offset=offset, facet_by=["repo", "license", "dtypes"],
            )
        else:
            d, sc = s.search(
                keywords, k=k, operator="and", filters=filters or None,
                offset=offset,
            )
        hits = s.hydrate_hits(d, sc)
    finally:
        if distributed:
            s.shutdown()
    results = [
        {
            "dataset_id": r["path"],
            "source": r["repo"],
            "score": r["score"],
            "rank": r["rank"],
        }
        for r in hits.to_pylist()
    ]
    if not facets:
        return results
    # total matches = sum over one agg's buckets incl. missing (the
    # source field is never null, so this counts every matching doc)
    raw_src = fc.get("repo", {})
    total = sum(raw_src.values())
    src = {v: c for v, c in raw_src.items() if v != "__missing__"}
    lic = {
        v: c
        for v, c in fc.get("license", {}).items()
        if v not in ("", "__missing__")
    }
    # the multi-valued types facet: buckets are joined compositions
    # ("numerical spatial": 3) over ALL matches, so client-side
    # re-splitting is exact (reference 'type' agg, :593-601)
    typ: dict[str, int] = {}
    for v, c in fc.get("dtypes", {}).items():
        if v in ("", "__missing__"):
            continue
        for t in v.split():
            typ[t] = typ.get(t, 0) + c
    return {
        "results": results,
        "facets": {"source": src, "license": lic, "type": typ},
        "total": total,
    }


def search_with_on_demand(
    discoverers: list,
    seg_root: str,
    keywords: str,
    k: int = 10,
    errors_out: list | None = None,
    **search_kwargs,
):
    """The coordinator's on-demand discovery leg (reference
    docs/internals.rst:30-58: "react to user queries ... announce the
    datasets found, on-demand ... They will be profiled if necessary
    and recorded in the index, as well as considered for the results
    of the user's query").

    Forwards the query to every discoverer's ``handle_query``; each
    ``publish(materialize, metadata, dataset_id=None)`` call records
    the dataset on its discoverer, then any discoverer that published
    drains ``profile_pending(seg_root=...)`` — content-fingerprinted,
    so already-profiled datasets are "profiled if necessary" only —
    and the regular keyword search runs over the now-updated index.
    A failing discoverer is contained (the AMQP consumer never dies
    with one plugin); contained errors land in ``errors_out`` (pass a
    list) and, on the facets=True dict response, in
    ``results["on_demand_errors"]`` — the plain-list response cannot
    carry them."""
    query = {"keywords": keywords, **search_kwargs}
    errors: list[str] = []
    for d in discoverers:
        published: list[str] = []

        def publish(materialize, metadata, dataset_id=None,
                    _d=d, _p=published):
            _p.append(
                _d.record_dataset(materialize, metadata,
                                  dataset_id=dataset_id)
            )

        try:
            d.handle_query(query, publish)
            if published:
                # inside the same containment: one plugin's drain
                # failure must not kill the whole search either
                d.profile_pending(seg_root=seg_root)
        except Exception as e:  # noqa: BLE001 — per-plugin containment
            errors.append(f"{d.identifier}: {e}")
            continue
    results = search_datasets(seg_root, keywords, k=k, **search_kwargs)
    if errors_out is not None:
        errors_out.extend(errors)
    if errors and isinstance(results, dict):
        results["on_demand_errors"] = errors
    return results


class LocalDirectoryDiscoverer(Discoverer):
    """Example plugin: sweep a directory of data files (every format the
    ingestion sniffer understands) and record each as a dataset — the
    shape of the reference's socrata/zenodo/... directory plugins
    without their network clients."""

    EXTENSIONS = (
        ".parquet", ".csv", ".tsv", ".xlsx", ".xls", ".sav", ".dta", ".txt",
    )

    def __init__(self, identifier: str, catalog_dir: str, root: str):
        super().__init__(identifier, catalog_dir)
        self.root = root

    def discover_datasets(self) -> list[str]:
        found = []
        for name in sorted(os.listdir(self.root)):
            if not name.lower().endswith(self.EXTENSIONS):
                continue
            path = os.path.join(self.root, name)
            if not os.path.isfile(path):
                continue
            dataset_id = os.path.splitext(name)[0]
            found.append(
                self.record_dataset(
                    {"path": path},
                    {"name": dataset_id},
                    dataset_id=dataset_id,
                )
            )
        return found


_RE_NON_ID_SAFE = None  # compiled lazily


def encode_domain(url: str) -> str:
    """Domain -> id-safe prefix (reference socrata_discovery.py:16-20)."""
    global _RE_NON_ID_SAFE
    if _RE_NON_ID_SAFE is None:
        import re

        _RE_NON_ID_SAFE = re.compile(r"[^a-z0-9-]+")
    return _RE_NON_ID_SAFE.sub("-", url.lower())


class SocrataDiscoverer(Discoverer):
    """Network discovery plugin with the reference's Socrata semantics
    (discovery/socrata/socrata_discovery.py:24-161), transport-injected
    like the geocoder (this environment has no network; the sodapy
    client and the CSV download are callables):

      * ``listing_transport(domain_url) -> list[dataset dict]`` — the
        ``sodapy.Socrata(domain).datasets()`` call;
      * ``data_transport(direct_url) -> bytes`` — the rows.csv download
        (optional: when present, new/changed datasets materialize into
        shared storage so profile_pending can profile them).

    Mirrored behaviors: only resource type 'dataset' records (:112-114);
    unchanged datasets (updatedAt <= recorded socrata_updated) are
    skipped (:125-138); dataset_id = '<encoded_domain>.<id>' (:106-107);
    materialize carries socrata_id/socrata_domain/socrata_updated/
    direct_url (:149-160); after each domain sweep, previously recorded
    datasets of that domain that were NOT seen are deleted (:66-100);
    per-domain and per-dataset errors are contained (:36-41, :52-62)."""

    def __init__(self, identifier: str, catalog_dir: str,
                 domains: list[dict], listing_transport=None,
                 data_transport=None, seg_root: str | None = None):
        super().__init__(identifier, catalog_dir)
        self.domains = domains
        self.listing_transport = listing_transport
        self.data_transport = data_transport
        self.seg_root = seg_root
        self.errors: list[str] = []

    def _listing(self, domain_url: str) -> list[dict]:
        if self.listing_transport is None:
            raise RuntimeError(
                "no listing transport configured (no network in this "
                "environment); inject listing_transport=callable(url)"
            )
        return self.listing_transport(domain_url)

    def discover_datasets(self) -> list[str]:
        recorded: list[str] = []
        for domain in self.domains:
            try:
                recorded.extend(self.process_domain(domain))
            except Exception as e:  # noqa: BLE001 — a failing domain
                # must not stop the sweep (reference :36-41)
                self.errors.append(f"{domain.get('url')}: {e}")
        return recorded

    def process_domain(self, domain: dict) -> list[str]:
        url = domain["url"]
        datasets = self._listing(url)
        seen: set[str] = set()
        recorded: list[str] = []
        for dataset in datasets:
            try:
                valid, full_id = self.process_dataset(domain, dataset)
            except Exception as e:  # noqa: BLE001 — per-dataset
                # containment (reference :52-62); the id is still SEEN:
                # an errored entry is present at the source, so the
                # deletion sweep below must not tombstone its live data
                rid = dataset.get("resource", {}).get("id")
                if rid:
                    seen.add(rid)
                self.errors.append(f"{rid}: {e}")
                continue
            if valid:
                seen.add(dataset["resource"]["id"])
                if full_id:
                    recorded.append(full_id)
        # deletion sweep: recorded datasets of THIS domain not in the
        # fresh listing are gone from the source (reference :66-100).
        # SAFETY (deliberate divergence): an entirely EMPTY listing for
        # a domain that has recorded datasets is treated as a transient
        # listing failure, not a mass delete — a throttled endpoint
        # returning [] must not tombstone the whole domain.
        mine = [
            d for d in self.datasets()
            if d.get("materialize", {}).get("socrata_domain") == url
        ]
        if not seen and mine:
            self.errors.append(
                f"{url}: empty listing with {len(mine)} recorded datasets"
                " — deletion sweep skipped"
            )
            return recorded
        for d in mine:
            if d.get("materialize", {}).get("socrata_id") not in seen:
                self.delete_dataset(full_id=d["id"], seg_root=self.seg_root)
        return recorded

    def process_dataset(self, domain: dict,
                        dataset: dict) -> tuple[bool, str | None]:
        resource = dataset["resource"]
        rid = resource["id"]
        if resource.get("type") != "dataset":
            return False, None
        dataset_id = f"{encode_domain(domain['url'])}.{rid}"
        full_id = f"{self.identifier}.{dataset_id}"
        last = self.catalog.latest("discovered", full_id)
        if last is not None and last["status"] == "done":
            updated = (
                last["metrics"].get("materialize", {})
                .get("socrata_updated", "")
            )
            if updated and resource.get("updatedAt", "") <= updated:
                return True, None  # unchanged: seen but not re-recorded
        metadata = {"name": resource.get("name", rid),
                    "source": domain["url"]}
        if resource.get("description"):
            metadata["description"] = resource["description"]
        if "link" in dataset:
            metadata["source_url"] = dataset["link"]
        direct_url = (
            f"https://{domain['url']}/api/views/{rid}/rows.csv"
            "?accessType=DOWNLOAD"
        )
        if self.data_transport is not None:
            payload = self.data_transport(direct_url)
            with self.write_to_shared_storage(dataset_id) as fp:
                fp.write(payload)
        self.record_dataset(
            {
                "socrata_id": rid,
                "socrata_domain": domain["url"],
                "socrata_updated": resource.get("updatedAt", ""),
                "direct_url": direct_url,
            },
            metadata,
            dataset_id=dataset_id,
        )
        return True, full_id


class CkanDiscoverer(Discoverer):
    """Network discovery plugin with the reference's CKAN semantics
    (discovery/ckan/ckan_discovery.py:16-193), transport-injected (no
    network in this environment):

      * ``listing_transport(url) -> list[package]`` — one
        ``package_search`` GET; the sweep paginates by ``start`` until
        a short page (:50-68);
      * ``data_transport(direct_url) -> bytes`` — optional resource
        download into shared storage.

    Mirrored behaviors: per-domain config with optional
    ``keyword_query`` (:43-48); one dataset per RESOURCE whose format
    is in ``FILE_TYPES`` (:122-126); ``dataset_id =
    '<package_id>.<resource_id>'`` (:126); unchanged resources
    (``metadata_modified`` equal to the recorded
    ``ckan_record_updated``) are skipped (:128-160); metadata name is
    ``'<title> - <resource name>'`` with license_title / notes /
    resource description + package notes (:105-177); materialize
    carries ckan_domain / ckan_package_id / ckan_resource_id /
    ckan_record_updated / direct_url, where direct_url falls back
    download_url -> url and raises KeyError when both are missing
    (:178-193); after each domain sweep, recorded datasets of that
    domain whose package was NOT seen are deleted (:70-103); a failing
    domain is contained (:31-37). Divergence (documented): a known
    resource skips only ITSELF — the reference's ``return`` at
    :142/:160 abandons the package's remaining resources."""

    FILE_TYPES = ("CSV", "XLS", "XLSX")
    PAGE_SIZE = 100

    def __init__(self, identifier: str, catalog_dir: str,
                 domains: list[dict], listing_transport=None,
                 data_transport=None, seg_root: str | None = None):
        super().__init__(identifier, catalog_dir)
        for domain in domains:
            if not isinstance(domain.get("url"), str):
                raise ValueError("each domain needs a str 'url'")
            extra = set(domain) - {"url", "keyword_query"}
            if extra:
                raise ValueError(f"unknown domain keys: {sorted(extra)}")
        self.domains = domains
        self.listing_transport = listing_transport
        self.data_transport = data_transport
        self.seg_root = seg_root
        self.errors: list[str] = []

    def discover_datasets(self) -> list[str]:
        if self.listing_transport is None:
            raise RuntimeError(
                "no listing transport configured (no network in this "
                "environment); inject listing_transport=callable(url)"
            )
        recorded: list[str] = []
        for domain in self.domains:
            try:
                recorded.extend(self.get_datasets(domain))
            except Exception as e:  # noqa: BLE001 — per-domain
                # containment (reference :31-37)
                self.errors.append(f"{domain.get('url')}: {e}")
        return recorded

    def get_datasets(self, domain: dict) -> list[str]:
        from urllib.parse import urlencode

        kw = {"fq": "res_format:({0})".format(" OR ".join(self.FILE_TYPES)),
              "rows": self.PAGE_SIZE}
        if "keyword_query" in domain:
            kw["q"] = domain["keyword_query"]
        seen: set = set()
        recorded: list[str] = []
        start = 0
        while True:
            url = "https://{0}/api/3/action/package_search?{1}".format(
                domain["url"], urlencode(dict(kw, start=start))
            )
            results = self.listing_transport(url)
            for package in results:
                # per-package containment; the id is SEEN either way so
                # the deletion sweep below never tombstones live data
                # over a transient per-package error
                if package.get("id") is not None:
                    seen.add(package["id"])
                try:
                    recorded.extend(self.process_package(domain, package))
                except Exception as e:  # noqa: BLE001
                    self.errors.append(f"{package.get('id')}: {e}")
            if len(results) < self.PAGE_SIZE:
                break
            start += len(results)
        # deletion sweep: recorded datasets of THIS domain whose
        # package is gone from the listing (reference :70-103).
        # SAFETY: an entirely empty listing with recorded datasets is
        # treated as a transient failure, never a mass delete.
        mine = [
            d for d in self.datasets()
            if d.get("materialize", {}).get("ckan_domain") == domain["url"]
        ]
        if not seen and mine:
            self.errors.append(
                f"{domain['url']}: empty listing with {len(mine)} recorded"
                " datasets — deletion sweep skipped"
            )
            return recorded
        for d in mine:
            if d.get("materialize", {}).get("ckan_package_id") not in seen:
                self.delete_dataset(full_id=d["id"], seg_root=self.seg_root)
        return recorded

    def process_package(self, domain: dict, package: dict) -> list[str]:
        package_metadata = {
            "name": package["title"],
            "source": domain["url"],
            "source_url": "https://{0}/dataset/{1}".format(
                domain["url"], package["name"]
            ),
        }
        if "license_title" in package:
            package_metadata["license"] = package["license_title"]
        if package.get("notes"):
            package_metadata["description"] = package["notes"]

        recorded: list[str] = []
        for resource in package["resources"]:
            if resource["format"] not in self.FILE_TYPES:
                continue
            dataset_id = f"{package['id']}.{resource['id']}"
            full_id = f"{self.identifier}.{dataset_id}"
            modified = resource["metadata_modified"]
            last = self.catalog.latest("discovered", full_id)
            if last is not None and last["status"] == "done":
                updated = (
                    last["metrics"].get("materialize", {})
                    .get("ckan_record_updated")
                )
                if updated == modified:
                    continue  # unchanged (reference :128-160)
            file_metadata = dict(
                package_metadata,
                name=f"{package_metadata['name']} - {resource['name']}",
                size=resource["size"],
            )
            if resource.get("description"):
                file_metadata["description"] = resource["description"]
                if "description" in package_metadata:
                    file_metadata["description"] += (
                        "\n\n" + package_metadata["description"]
                    )
            direct_url = resource.get("download_url") or resource.get("url")
            if not direct_url:
                raise KeyError("download_url or url")
            if self.data_transport is not None:
                payload = self.data_transport(direct_url)
                with self.write_to_shared_storage(dataset_id) as fp:
                    fp.write(payload)
            self.record_dataset(
                {
                    "ckan_domain": domain["url"],
                    "ckan_package_id": package["id"],
                    "ckan_resource_id": resource["id"],
                    "ckan_record_updated": modified,
                    "direct_url": direct_url,
                },
                file_metadata,
                dataset_id=dataset_id,
            )
            recorded.append(full_id)
        return recorded


class ZenodoDiscoverer(Discoverer):
    """Network discovery plugin with the reference's Zenodo semantics
    (discovery/zenodo/zenodo_discovery.py:16-162), transport-injected
    (no network in this environment):

      * ``listing_transport(url) -> (records, next_url | None)`` — one
        paginated ``/api/records/`` GET (the reference follows the
        ``Link: next`` header, :46-61);
      * ``data_transport(direct_url) -> bytes`` — optional file
        download into shared storage.

    Mirrored behaviors: one dataset per tabular FILE of a record,
    ``dataset_id = '<record_id>.<file_id>'`` (:111); extension gate
    ``EXTENSIONS`` (:17, :108); already-known files are skipped, not
    re-recorded (:113-139); metadata name is ``'<title> - <filename>'``
    with record-level license and description+keywords (:87-102,
    :143-149); materialize carries zenodo_record_id / zenodo_file_id /
    zenodo_record_updated / direct_url (:153-162); after the sweep,
    recorded datasets whose record id was NOT seen are deleted
    (:63-85).  Divergence (documented): a known file skips only ITSELF
    — the reference's ``return`` at :124/:139 abandons the record's
    remaining files, which drops sibling files added later."""

    EXTENSIONS = (".xls", ".xlsx", ".csv", ".sav")

    def __init__(self, identifier: str, catalog_dir: str,
                 start_url: str = "https://zenodo.org/api/records/?page=1",
                 listing_transport=None, data_transport=None,
                 seg_root: str | None = None):
        super().__init__(identifier, catalog_dir)
        self.start_url = start_url
        self.listing_transport = listing_transport
        self.data_transport = data_transport
        self.seg_root = seg_root
        self.errors: list[str] = []

    def discover_datasets(self) -> list[str]:
        if self.listing_transport is None:
            raise RuntimeError(
                "no listing transport configured (no network in this "
                "environment); inject listing_transport=callable(url)"
            )
        seen: set = set()
        recorded: list[str] = []
        url: str | None = self.start_url
        while url:
            records, url = self.listing_transport(url)
            for record in records:
                try:
                    recorded.extend(self.process_record(record))
                except Exception as e:  # noqa: BLE001 — per-record
                    # containment (one bad record must not kill a page);
                    # still SEEN: the record exists at the source, so the
                    # sweep must not delete its live datasets
                    if record.get("id") is not None:
                        seen.add(record["id"])
                    self.errors.append(f"{record.get('id')}: {e}")
                    continue
                seen.add(record["id"])
        # deletion sweep: recorded datasets whose zenodo record is gone
        # from the listing (reference :63-85). SAFETY: an entirely
        # empty listing with recorded datasets is treated as a
        # transient failure, never a mass delete.
        mine = [
            d for d in self.datasets()
            if "zenodo_record_id" in d.get("materialize", {})
        ]
        if not seen and mine:
            self.errors.append(
                f"{self.start_url}: empty listing with {len(mine)} recorded"
                " datasets — deletion sweep skipped"
            )
            return recorded
        for d in mine:
            if d["materialize"]["zenodo_record_id"] not in seen:
                self.delete_dataset(full_id=d["id"], seg_root=self.seg_root)
        return recorded

    def process_record(self, record: dict) -> list[str]:
        meta = record.get("metadata", {})
        record_metadata = {
            "name": record["title"],
            "source": "zenodo.org",
            "source_url": f"https://zenodo.org/record/{record['id']}",
        }
        if "license" in meta:
            record_metadata["license"] = meta["license"]
        description = meta.get("description") or ""
        if meta.get("keywords"):
            description += "\n\n" + ", ".join(meta["keywords"])
        if description:
            record_metadata["description"] = description

        recorded: list[str] = []
        for file in record.get("files", []):
            if not file["filename"].lower().endswith(self.EXTENSIONS):
                continue
            dataset_id = f"{record['id']}.{file['id']}"
            full_id = f"{self.identifier}.{dataset_id}"
            last = self.catalog.latest("discovered", full_id)
            if last is not None and last["status"] == "done":
                continue  # already known (reference :113-139)
            file_metadata = dict(
                record_metadata,
                name=f"{record_metadata['name']} - {file['filename']}",
                size=file["filesize"],
            )
            direct_url = file["links"]["download"]
            if self.data_transport is not None:
                payload = self.data_transport(direct_url)
                with self.write_to_shared_storage(dataset_id) as fp:
                    fp.write(payload)
            self.record_dataset(
                {
                    "zenodo_record_id": record["id"],
                    "zenodo_file_id": file["id"],
                    "zenodo_record_updated": record.get("modified", ""),
                    "direct_url": direct_url,
                },
                file_metadata,
                dataset_id=dataset_id,
            )
            recorded.append(full_id)
        return recorded


def join_search_catalog(
    catalog_dir: str,
    query_path: str,
    column: str,
    k: int | None = None,
    n_perm: int = 128,
    exclude: set[str] | frozenset[str] = frozenset(),
) -> pa.Table:
    """Joinable-dataset search across EVERY profiled dataset in the
    catalog: sketch the query column, score it against the partitioned
    sketch TABLE (the reference's lazo_client.query flow against the
    Lazo server's single index, apiserver/search/join.py:141-170), rank
    by containment, cap at MAX_LAZO_CANDIDATES. The candidate side is
    one distributed Dataset pipeline over catalog-metadata-sized rows —
    no per-dataset file opens, no driver-side scoring loop, no dataset
    re-scans at query time. ``exclude`` drops the query's own dataset
    id (reference ignore_datasets)."""
    from auctus_ray.functions.joinsearch import (
        MAX_LAZO_CANDIDATES,
        distinct_str_values,
        sketch_column,
    )
    from auctus_ray.sources.ingest import read_table_auto
    from auctus_ray.sources.sketchtable import SketchTable, join_scores

    q = sketch_column(
        distinct_str_values(read_table_auto(query_path), column), n_perm
    )
    return join_scores(
        SketchTable(catalog_dir), q, exclude=exclude,
        k=k or MAX_LAZO_CANDIDATES,
    )


def union_search_catalog(
    catalog_dir: str,
    query_path: str,
    k: int = 50,
    exclude: set[str] | frozenset[str] = frozenset(),
) -> pa.Table:
    """Unionable-dataset search across EVERY profiled dataset: fuzzy
    1-1 column matching (ES AUTO fuzziness + 3-gram name similarity +
    type-class equality, the reference union flow apiserver/search/
    union.py:13-87) between the query table's schema and each catalog
    dataset's recorded (column, type-class) rows in the partitioned
    sketch table — a distributed groupby(dataset_id).map_groups over a
    mins-pruned read, not a driver file loop. Both sides classify
    through the SAME Arrow `_tclass`, recorded at profile time.
    Returns (rank, dataset_id, matched, n_pairs, score) — score =
    sum of pair similarities / n_query_columns, the reference's
    dataset score."""
    import numpy as np
    import pyarrow as pa

    from auctus_ray.pipelines.unionsearch import _tclass
    from auctus_ray.sources.ingest import read_table_auto
    from auctus_ray.sources.sketchtable import SketchTable, union_scores

    qschema = read_table_auto(query_path).schema()
    query_cols = [
        (n.lower(), _tclass(t)) for n, t in zip(qschema.names, qschema.types)
    ]
    nq = max(1, len(query_cols))
    scored = union_scores(
        SketchTable(catalog_dir), query_cols, exclude=exclude, k=k
    )
    score6 = [
        float(_round6(s / (nq * 1e9)))
        for _, _, _, s in scored
    ]
    return pa.table(
        {
            "rank": pa.array(
                np.arange(1, len(scored) + 1, dtype=np.int64)
            ),
            "dataset_id": pa.array([r[0] for r in scored], pa.string()),
            "matched": pa.array([r[1] for r in scored], pa.string()),
            "n_pairs": pa.array(
                [r[2] for r in scored], pa.int64()
            ),
            "score": pa.array(score6, pa.float64()),
        }
    )


def augmentation_search_catalog(
    catalog_dir: str,
    query_path: str,
    column: str | None = None,
    k: int = 50,
    exclude: set[str] | frozenset[str] = frozenset(),
) -> pa.Table:
    """The reference's combined augmentation response over the profiled
    catalog (get_augmentation_search_results, apiserver/search/
    __init__.py:369-420): join candidates (Lazo containment of
    ``column``; every string column of the query when omitted — take
    the best per dataset) zip-interleaved with union candidates (fuzzy
    schema match), capped at ``k``. Both sides run as distributed
    Dataset pipelines over the partitioned sketch table (all
    query-column sketches scored per batch) with ONE materialized read
    of the query table."""
    import numpy as np
    import pyarrow as pa

    from auctus_ray.functions.joinsearch import sketch_column
    from auctus_ray.functions.joinsearch import (
        distinct_str_values as _distinct,
    )
    from auctus_ray.pipelines.unionsearch import _tclass
    from auctus_ray.sources.ingest import read_table_auto
    from auctus_ray.sources.sketchtable import (
        SketchTable,
        join_best_per_dataset,
        union_scores,
    )

    qds = read_table_auto(query_path).materialize()
    schema = qds.schema()
    query_cols = [
        (n.lower(), _tclass(t)) for n, t in zip(schema.names, schema.types)
    ]
    nq = max(1, len(query_cols))
    sketch_names = (
        [column]
        if column is not None
        else [
            n
            for n, t in zip(schema.names, schema.types)
            if pa.types.is_string(t) or pa.types.is_large_string(t)
        ]
    )
    q_sketches = {
        n: sketch_column(_distinct(qds, n)) for n in sketch_names
    }

    table = SketchTable(catalog_dir)
    j_rows = join_best_per_dataset(table, q_sketches, exclude=exclude, k=k)
    u_rows = [
        (d_, m_, float(_round6(s_ / (nq * 1e9))))
        for d_, m_, _n, s_ in union_scores(
            table, query_cols, exclude=exclude, k=k
        )
    ]
    rows: list[tuple[str, str, str, float]] = []
    for i in range(max(len(j_rows), len(u_rows))):
        if i < len(j_rows):
            rows.append(("join", *j_rows[i]))
        if i < len(u_rows):
            rows.append(("union", *u_rows[i]))
    rows = rows[:k]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(rows) + 1, dtype=np.int64)),
            "aug_type": pa.array([r[0] for r in rows], pa.string()),
            "dataset_id": pa.array([r[1] for r in rows], pa.string()),
            "detail": pa.array([r[2] for r in rows], pa.string()),
            "score": pa.array([r[3] for r in rows], pa.float64()),
        }
    )
