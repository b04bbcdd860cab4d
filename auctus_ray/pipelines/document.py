"""Assembled profile documents — the reference profiler's deliverable.

The reference emits ONE JSON metadata document per dataset
(lib_profiler/datamart_profiler/core.py:524-990): per-column entries
with structural/semantic types and `plot` histograms (core.py:349-444),
dataset-level `spatial_coverage` [{type, column_names, geohashes4,
ranges, number}] (core.py:748-791), `temporal_coverage` [{type,
column_names, column_indexes, column_types, ranges,
temporal_resolution}] (core.py:951-958), `attribute_keywords` from the
identifier splitter (core.py:965-972) and a truncated CSV `sample`
(core.py:974-986). Round 1 built every ingredient; this module
assembles them into the reference document shape.

Ray Data shape — three bounded passes over the table, all streaming:
  pass 1: profile partials (existing one-pass map_batches) -> per-column
          types, moments, capped distinct samples;
  pass 2: numeric plots — ONE map_batches computing the 10-bin counts of
          every numeric column against the pass-1 min/max (per-batch
          bincount partials, summed on the tiny reduce);
  pass 3: spatial sketches — per-batch mergeable GeohashSketch + a
          seeded coordinate sample for the k-means ranges (only if a
          lat/long pair was detected).
Coverage RANGES (numeric/temporal k-means and the spatial boxes) run on
the pass-1 capped distinct sample / pass-3 coordinate sample — a
documented deviation from the reference, which k-means the full column
in RAM (single-process profiler); the sketches and histograms are exact.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from auctus_ray.functions.scalars import truncate_string
from auctus_ray.functions.spatial import GeohashSketch, spatial_ranges_kmeans
from auctus_ray.pipelines.profile import (
    T_DATE_TIME,
    T_FLOAT,
    T_GEO_POLYGON,
    T_INTEGER,
    T_LATITUDE,
    T_LONGITUDE,
    finalize_profile,
    numeric_ranges_kmeans,
    profile_partials,
)
from auctus_ray.tokenize import tokenize_text

SAMPLE_ROWS = 20  # reference core.py SAMPLE_ROWS
MAX_GEOHASHES = 100


def _numeric_values(col, keep_shape: bool = False) -> np.ndarray:
    """Finite float64 values of a column that the PROFILER classified as
    numeric — which tolerates up to 2% unclean cells in a string column.
    Arrow's cast has no parse-to-null mode (profile.py:100), so string
    columns are regex-gated first; unparsable cells become NaN
    (keep_shape=True) or are dropped."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        filled = pc.fill_null(col, "")
        ok = pc.match_substring_regex(
            filled, r"^[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$"
        )
        safe = pc.if_else(ok, filled, "0")
        x = pc.cast(safe, pa.float64()).to_numpy(zero_copy_only=False).copy()
        bad = ~ok.to_numpy(zero_copy_only=False)
        x[bad] = np.nan
    else:
        x = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
    if keep_shape:
        return x
    return x[np.isfinite(x)]


def _attribute_keywords(names: list[str]) -> list[str]:
    """Reference core.py:965-972: the column name itself, plus its
    expand_attribute_name parts when splitting changed anything."""
    out: list[str] = []
    for name in names:
        out.append(name)
        kw = tokenize_text(name, "code")
        if kw != [name]:
            out.extend(kw)
    return out


def _numeric_plots(ds, numeric_cols: list[str], ranges: dict[str, tuple[float, float]],
                   bins: int = 10) -> dict[str, list[dict]]:
    """10-bin histograms for all numeric columns in one streamed pass:
    per-batch bincount partials -> driver sum (bins*n_cols ints)."""
    if not numeric_cols:
        return {}

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for col in numeric_cols:
            lo, hi = ranges[col]
            x = _numeric_values(batch[col])
            if hi > lo:
                b = np.minimum(
                    np.floor((x - lo) * bins / (hi - lo)), bins - 1
                ).astype(np.int64)
            else:
                b = np.zeros(x.size, np.int64)
            cnt = np.bincount(b, minlength=bins)
            rows.append(
                {"column": col, "counts": json.dumps([int(c) for c in cnt])}
            )
        return pa.Table.from_pylist(rows)

    agg: dict[str, np.ndarray] = {c: np.zeros(bins, np.int64) for c in numeric_cols}
    for batch in ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        for col, counts in zip(batch["column"].to_pylist(), batch["counts"].to_pylist()):
            agg[col] += np.array(json.loads(counts), np.int64)

    plots = {}
    for col in numeric_cols:
        lo, hi = ranges[col]
        edges = np.linspace(lo, hi, bins + 1)
        plots[col] = {
            "type": "histogram_numerical",
            "data": [
                {
                    "count": int(agg[col][i]),
                    "bin_start": float(edges[i]),
                    "bin_end": float(edges[i + 1]),
                }
                for i in range(bins)
            ],
        }
    return plots


def _geo_coverage_entry(ds, extract, cov_type: str,
                        column_names: list[str],
                        sample_cap: int = 20000, seed: int = 89):
    """Shared coverage driver for lat/long pairs AND polygon columns
    (the two were ~45 duplicated lines): stream per-batch TRUNCATED
    geohash-sketch partials (GeohashSketch.truncate_at_overflow bounds
    the exchanged payload to ~cap*number entries) + seeded coordinate
    subsamples, merge on the driver, k-means the envelope boxes.
    `extract(batch) -> (lat, lon)` is the only per-type step. Returns
    the coverage dict or None when no valid coordinates exist."""

    def partial(batch: pa.Table) -> pa.Table:
        lat, lon = extract(batch)
        sk = GeohashSketch(number=MAX_GEOHASHES)
        sk.add_points(lat, lon)
        cap = sk.truncate_at_overflow()
        rng = np.random.Generator(np.random.PCG64(seed))
        if lat.size > 512:
            idx = rng.choice(lat.size, 512, replace=False)
            lat, lon = lat[idx], lon[idx]
        return pa.Table.from_pylist(
            [
                {
                    "levels": json.dumps(sk.levels[:cap]),
                    "cap": cap,
                    "total": sk.total,
                    "lat_s": json.dumps([float(v) for v in lat]),
                    "lon_s": json.dumps([float(v) for v in lon]),
                }
            ]
        )

    sketch = GeohashSketch(number=MAX_GEOHASHES)
    lat_all: list[float] = []
    lon_all: list[float] = []
    for batch in ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        for levels, cap, total, lat_s, lon_s in zip(
            batch["levels"].to_pylist(),
            batch["cap"].to_pylist(),
            batch["total"].to_pylist(),
            batch["lat_s"].to_pylist(),
            batch["lon_s"].to_pylist(),
        ):
            other = GeohashSketch(number=MAX_GEOHASHES)
            lv = [
                {k: int(v) for k, v in lvl.items()}
                for lvl in json.loads(levels)
            ]
            other.levels = lv + [
                dict() for _ in range(other.precision - len(lv))
            ]
            other.level_cap = int(cap)
            other.total = int(total)
            sketch.merge(other)
            if len(lat_all) < sample_cap:
                lat_all.extend(json.loads(lat_s))
                lon_all.extend(json.loads(lon_s))
    if sketch.total == 0:
        return None
    boxes = spatial_ranges_kmeans(np.array(lat_all), np.array(lon_all))
    return {
        "type": cov_type,
        "column_names": column_names,
        "column_indexes": [ds.schema().names.index(c) for c in column_names],
        "geohashes4": [
            {"hash": h, "number": n} for h, n in sketch.get_hashes()
        ],
        "ranges": [
            {
                "range": {
                    "type": "envelope",
                    "coordinates": [[lo_lon, hi_lat], [hi_lon, lo_lat]],
                }
            }
            for lo_lat, hi_lat, lo_lon, hi_lon in boxes
        ],
        "number": sketch.total,
    }


def _spatial_coverage(ds, pairs: list[tuple[str, str]],
                      sample_cap: int = 20000, seed: int = 89) -> list[dict]:
    """Per lat/long pair: mergeable geohash sketch (exact counts) + a
    seeded coordinate sample for the k-means boxes."""
    out = []
    for lat_col, lon_col in pairs:
        def extract(batch: pa.Table, lat_col=lat_col, lon_col=lon_col):
            lat = _numeric_values(batch[lat_col], keep_shape=True)
            lon = _numeric_values(batch[lon_col], keep_shape=True)
            m = (
                np.isfinite(lat) & np.isfinite(lon)
                & (-90.0 < lat) & (lat < 90.0)
                & (-180.0 < lon) & (lon < 180.0)
            )
            return lat[m], lon[m]

        entry = _geo_coverage_entry(
            ds, extract, "latlong", [lat_col, lon_col],
            sample_cap=sample_cap, seed=seed,
        )
        if entry is not None:
            out.append(entry)
    return out


_WKT_NUM = None  # compiled lazily (module import stays light)


def _wkt_polygon_coverage(ds, cols: list[str],
                          sample_cap: int = 20000, seed: int = 89) -> list[dict]:
    """Spatial coverage for GEO_POLYGON columns: per batch, extract all
    ring vertices (one C-level findall over the batch's joined cells),
    then the shared sketch/sample/k-means driver. The reference types
    polygons (profile_types.py:203-204) but only sketches points;
    envelope ranges over the vertex cloud give the coverage filter the
    same intersects semantics."""
    import re as _re

    global _WKT_NUM
    if _WKT_NUM is None:
        _WKT_NUM = _re.compile(r"[0-9.]+ [0-9.]+")
    from auctus_ray.pipelines.profile import _VOTES

    pat = _VOTES["wkt_polygon"]
    out = []
    for col in cols:
        def extract(batch: pa.Table, col=col):
            arr = batch[col]
            if not pa.types.is_string(arr.type):
                arr = pc.cast(arr, pa.string())
            arr = pc.fill_null(arr, "")
            vals = arr.filter(
                pc.match_substring_regex(arr, pat)
            ).to_pylist()
            pairs = _WKT_NUM.findall("|".join(vals))
            if not pairs:
                z = np.empty(0, np.float64)
                return z, z

            # tolerant parse: "[0-9.]+" admits tokens like "1.2.3";
            # NaN fails the range mask below, so a malformed vertex
            # is dropped instead of crashing the whole profile
            def _f(tok: str) -> float:
                try:
                    return float(tok)
                except ValueError:
                    return float("nan")

            xy = np.array(
                [[_f(a), _f(b)] for a, b in
                 (p.split(" ") for p in pairs)],
                dtype=np.float64,
            )
            lon, lat = xy[:, 0], xy[:, 1]  # WKT vertex order: x y
            m = (
                (-90.0 < lat) & (lat < 90.0)
                & (-180.0 < lon) & (lon < 180.0)
            )
            return lat[m], lon[m]

        entry = _geo_coverage_entry(
            ds, extract, "polygon", [col],
            sample_cap=sample_cap, seed=seed,
        )
        if entry is not None:
            out.append(entry)
    return out


def _csv_sample(ds, n_rows: int = SAMPLE_ROWS) -> str:
    """First-N truncated-cell CSV sample with CRLF terminators
    (reference samples seeded-random rows of the in-RAM frame,
    core.py:974-986; a streaming engine takes the head — deterministic
    and bounded)."""
    tbl = pa.Table.from_pylist(ds.take(n_rows))
    buf = io.StringIO()
    buf.write(",".join(tbl.column_names) + "\r\n")
    cols = [tbl[c].to_pylist() for c in tbl.column_names]
    for i in range(tbl.num_rows):
        cells = []
        for c in cols:
            v = c[i]
            s = truncate_string(str(v)) if v is not None else ""
            if "," in s or '"' in s or "\n" in s:
                s = '"' + s.replace('"', '""') + '"'
            cells.append(s)
        buf.write(",".join(cells) + "\r\n")
    return buf.getvalue()


def profile_dataset_document(
    path: str,
    include_sample: bool = True,
    plots: bool = True,
    coverage: bool = True,
    nominatim: str | None = None,
    nominatim_transport=None,
    ds=None,
) -> dict:
    """Full reference-shaped profile document for one table. Any
    sniffable format (Parquet, CSV/TSV with garbage headers, XLSX)
    profiles end-to-end via the ingestion chain — the reference's
    detect -> convert -> profile flow (profiler/profiler.py:90-160).

    ``nominatim``: geocoder URL — free-TEXT non-ADMIN columns resolve
    through the shared geocoder actor and gain the ADDRESS semantic
    type + address spatial coverage (reference core.py:448-463 +
    process_dataset(nominatim=...)). ``nominatim_transport`` injects
    the HTTP leg (this environment has no network; the reference's own
    test swaps nominatim_query the same way, tests/test_profile.py:
    725-857)."""
    from auctus_ray.sources.ingest import read_table_auto

    if ds is None:
        # materialize: the document assembles from SEVERAL bounded
        # passes (partials, plots, one per spatial pair / polygon
        # column, sample) — over a lazy read each pass would re-ingest
        # and re-parse the source from scratch. The drain passes its
        # own shared materialized read in.
        ds = read_table_auto(path).materialize()
    partials = (
        ds.map_batches(profile_partials, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .to_dict("records")
    )
    prof = finalize_profile(partials).to_pylist()
    by_col = {p["column"]: p for p in prof}
    # finalize_profile sorts by name; restore source column order
    names = [n for n in ds.schema().names if n in by_col]

    columns_meta: list[dict] = []
    numeric_cols: list[str] = []
    num_ranges: dict[str, tuple[float, float]] = {}
    lat_cols: list[str] = []
    lon_cols: list[str] = []
    polygon_cols: list[str] = []
    temporal: list[dict] = []
    for idx, name in enumerate(names):
        p = by_col[name]
        sem = [s for s in (p["semantic_types"] or "").split(";") if s]
        meta: dict = {
            "name": name,
            "structural_type": p["structural_type"],
            "semantic_types": sem,
        }
        if p["missing_values_ratio"]:
            meta["missing_values_ratio"] = p["missing_values_ratio"]
        meta["num_distinct_values"] = p["num_distinct_values"]
        if p["mean"] is not None:
            meta["mean"] = p["mean"]
            meta["stddev"] = p["stddev"]
        columns_meta.append(meta)
        if p["structural_type"] in (T_INTEGER, T_FLOAT) and p["min"] is not None:
            numeric_cols.append(name)
            num_ranges[name] = (float(p["min"]), float(p["max"]))
            # numeric coverage ranges from the distinct sample (bounded)
            meta["coverage"] = [
                {"range": {"gte": lo, "lte": hi}}
                for lo, hi in numeric_ranges_kmeans(
                    np.array(
                        [float(v) for v in _safe_floats(p)], dtype=np.float64
                    )
                )
            ]
        if T_LATITUDE in sem:
            lat_cols.append(name)
        if T_LONGITUDE in sem:
            lon_cols.append(name)
        if p["structural_type"] == T_GEO_POLYGON:
            polygon_cols.append(name)
        if T_DATE_TIME in sem or p.get("temporal_resolution"):
            ts = _sample_timestamps(p)
            if ts.size:
                temporal.append(
                    {
                        "type": "datetime",
                        "column_names": [name],
                        "column_indexes": [idx],
                        "column_types": [T_DATE_TIME],
                        "ranges": [
                            {"range": {"gte": lo, "lte": hi}}
                            for lo, hi in numeric_ranges_kmeans(ts)
                        ],
                        "temporal_resolution": p["temporal_resolution"],
                    }
                )

    if plots and numeric_cols:
        plot_map = _numeric_plots(ds, numeric_cols, num_ranges)
        for meta in columns_meta:
            if meta["name"] in plot_map:
                meta["plot"] = plot_map[meta["name"]]

    address_cov: list[dict] = []
    if nominatim is not None:
        # free-TEXT non-ADMIN columns resolve against the shared
        # geocoder actor; >=80% resolved -> ADDRESS semantic type +
        # address spatial coverage (reference core.py:448-463)
        import ray as _ray

        from auctus_ray.functions.admin import T_ADMIN
        from auctus_ray.functions.geocode import (
            T_ADDRESS,
            address_spatial_coverage,
            column_is_address,
            make_geocoder_actor,
        )
        from auctus_ray.pipelines.profile import T_TEXT

        geocoder = make_geocoder_actor(nominatim, nominatim_transport)
        try:
            for meta in columns_meta:
                sem = meta["semantic_types"]
                if (
                    meta["structural_type"] != T_TEXT
                    or T_TEXT not in sem
                    or T_ADMIN in sem
                ):
                    continue
                is_addr, locs = column_is_address(ds, meta["name"], geocoder)
                if is_addr:
                    if T_ADDRESS not in sem:
                        sem.append(T_ADDRESS)
                    cov = address_spatial_coverage(
                        meta["name"], locs, names.index(meta["name"])
                    )
                    if cov:
                        address_cov.append(cov)
        finally:
            _ray.kill(geocoder)

    doc: dict = {
        "nb_rows": int(prof[0]["n_rows"]) if prof else 0,
        "nb_profiled_rows": int(prof[0]["n_rows"]) if prof else 0,
        "nb_columns": len(names),
        "columns": columns_meta,
        "attribute_keywords": _attribute_keywords(names),
    }
    # dataset-level types + per-type column counts (reference
    # core.py:729-746): per-column determine_dataset_type, counted
    from auctus_ray.pipelines.profile import determine_dataset_type

    type_counts: dict[str, int] = {}
    for meta in columns_meta:
        dt = determine_dataset_type(
            meta["structural_type"], meta["semantic_types"]
        )
        if dt:
            type_counts[dt] = type_counts.get(dt, 0) + 1
    for key, d_type in (
        ("nb_spatial_columns", "spatial"),
        ("nb_temporal_columns", "temporal"),
        ("nb_categorical_columns", "categorical"),
        ("nb_numerical_columns", "numerical"),
    ):
        if type_counts.get(d_type):
            doc[key] = type_counts[d_type]
    doc["types"] = sorted(type_counts)
    try:
        doc["size"] = os.path.getsize(path)
    except OSError:
        pass

    if coverage:
        # pair lat/lon columns by RESIDUAL NAME similarity (the name
        # minus its latitude/longitude keyword: 'pickup_latitude' pairs
        # 'pickup_longitude' whatever the column order), index distance
        # as tie-break — positional zip silently mispairs interleaved
        # [a_lat, b_lat, b_lon, a_lon] layouts
        from auctus_ray.functions.scalars import name_similarity
        from auctus_ray.pipelines.profile import LATITUDE_NAMES, LONGITUDE_NAMES

        def residual(name: str, keywords) -> str:
            low = name.lower()
            for kw in sorted(keywords, key=len, reverse=True):
                low = low.replace(kw, "")
            return low.strip("_- ")

        order = {n: i for i, n in enumerate(names)}
        cands = sorted(
            (
                (
                    -name_similarity(
                        residual(la, LATITUDE_NAMES), residual(lo, LONGITUDE_NAMES)
                    ),
                    abs(order[la] - order[lo]),
                    la,
                    lo,
                )
                for la in lat_cols
                for lo in lon_cols
            ),
        )
        pairs = []
        used_la: set[str] = set()
        used_lo: set[str] = set()
        for _, _, la, lo in cands:
            if la in used_la or lo in used_lo:
                continue
            used_la.add(la)
            used_lo.add(lo)
            pairs.append((la, lo))
        pairs.sort(key=lambda p_: order[p_[0]])
        sc = _spatial_coverage(ds, pairs) if pairs else []
        if polygon_cols:
            sc.extend(_wkt_polygon_coverage(ds, polygon_cols))
        sc.extend(address_cov)
        if sc:
            doc["spatial_coverage"] = sc
        if temporal:
            doc["temporal_coverage"] = temporal

    if include_sample:
        doc["sample"] = _csv_sample(ds)
    return doc


def _safe_floats(p: dict) -> list[str]:
    vals = json.loads(p["distinct_json"]) if "distinct_json" in p else []
    out = []
    for v in vals:
        try:
            out.append(float(v))
        except (TypeError, ValueError):
            continue
    return out


def _sample_timestamps(p: dict) -> np.ndarray:
    vals = json.loads(p["distinct_json"]) if "distinct_json" in p else []
    out = []
    for v in vals:
        try:
            out.append(np.datetime64(str(v)[:19].replace(" ", "T"), "s"))
        except ValueError:
            continue
    if not out:
        return np.empty(0, np.float64)
    return np.array(out, dtype="datetime64[s]").astype("int64").astype(np.float64)


# ---------------------------------------------------------------- queries


def profile_dataset_doc(sf_dir: str):
    """Full profile documents for the events + documents tables (rows-only
    driver check; structure pytest-verified on a reference-shaped
    fixture). One row per table: (table, doc) with doc JSON-encoded,
    keys sorted, so the check is deterministic."""
    rows = []
    for table in ("events", "documents"):
        doc = profile_dataset_document(os.path.join(sf_dir, f"{table}.parquet"))
        rows.append(
            {"table": table, "doc": json.dumps(doc, sort_keys=True)}
        )
    return pa.Table.from_pylist(rows)


QUERIES = {"profile_dataset_doc": profile_dataset_doc}
SQL: dict[str, str] = {}
