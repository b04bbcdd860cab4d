"""Assembled profile documents: reference-shaped structure golden
(lib_profiler/core.py:524-990) on a fixture with planted lat/long,
datetime, numeric and categorical columns."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def geo_table_path(ray_session, tmp_path_factory):
    rng = np.random.Generator(np.random.PCG64(11))
    n = 800
    # two spatial clusters: NYC-ish and LA-ish
    half = n // 2
    lat = np.concatenate(
        [40.7 + rng.normal(0, 0.05, half), 34.0 + rng.normal(0, 0.05, n - half)]
    )
    lon = np.concatenate(
        [-74.0 + rng.normal(0, 0.05, half), -118.2 + rng.normal(0, 0.05, n - half)]
    )
    days = rng.integers(0, 365, n)
    dates = (
        np.datetime64("2023-01-01") + days.astype("timedelta64[D]")
    ).astype("datetime64[s]")
    tbl = pa.table(
        {
            "site_id": pa.array(np.arange(n), pa.int64()),
            "latitude": pa.array(lat, pa.float64()),
            "longitude": pa.array(lon, pa.float64()),
            "reading": pa.array(rng.normal(50, 10, n), pa.float64()),
            "observedDate": pa.array(
                [str(d).replace("T", " ") for d in dates], pa.string()
            ),
            "siteKind": pa.array(
                [["urban", "rural", "coastal"][i % 3] for i in range(n)], pa.string()
            ),
        }
    )
    p = tmp_path_factory.mktemp("geodoc") / "sites.parquet"
    pq.write_table(tbl, str(p))
    return str(p)


def test_profile_document_shape(geo_table_path):
    from auctus_ray.pipelines.document import profile_dataset_document

    doc = profile_dataset_document(geo_table_path)

    # dataset-level basics
    assert doc["nb_rows"] == 800
    assert doc["nb_columns"] == 6
    assert doc["nb_profiled_rows"] == 800
    assert doc["size"] > 0

    # attribute_keywords: name + expanded parts when splitting changed it
    kw = doc["attribute_keywords"]
    assert "site_id" in kw and "site" in kw and "id" in kw
    assert "observedDate" in kw and "observed" in kw and "date" in kw
    assert "latitude" in kw  # single-token name contributes only itself
    assert kw.count("latitude") == 1

    cols = {c["name"]: c for c in doc["columns"]}

    # numeric column: plot histogram with 10 bins summing to n
    plot = cols["reading"]["plot"]
    assert plot["type"] == "histogram_numerical"
    assert len(plot["data"]) == 10
    assert sum(b["count"] for b in plot["data"]) == 800
    assert plot["data"][0]["bin_start"] <= plot["data"][0]["bin_end"]
    assert "coverage" in cols["reading"] and cols["reading"]["coverage"]

    # lat/long semantics detected
    assert "http://schema.org/latitude" in cols["latitude"]["semantic_types"]
    assert "http://schema.org/longitude" in cols["longitude"]["semantic_types"]

    # spatial coverage: geohashes4 counts sum to n, two cluster boxes
    sc = doc["spatial_coverage"]
    assert len(sc) == 1
    assert sc[0]["type"] == "latlong"
    assert sc[0]["column_names"] == ["latitude", "longitude"]
    assert sc[0]["number"] == 800
    assert sum(g["number"] for g in sc[0]["geohashes4"]) == 800
    assert 1 <= len(sc[0]["ranges"]) <= 3
    for r in sc[0]["ranges"]:
        [lo_lon, hi_lat], [hi_lon, lo_lat] = r["range"]["coordinates"]
        assert lo_lat < hi_lat and lo_lon < hi_lon

    # temporal coverage with resolution
    tc = doc["temporal_coverage"]
    assert tc[0]["column_names"] == ["observedDate"]
    assert tc[0]["column_types"] == ["http://schema.org/DateTime"]
    assert tc[0]["temporal_resolution"] == "day"
    assert tc[0]["ranges"]
    lo = min(r["range"]["gte"] for r in tc[0]["ranges"])
    hi = max(r["range"]["lte"] for r in tc[0]["ranges"])
    start = np.datetime64("2023-01-01", "s").astype("int64")
    end = np.datetime64("2024-01-01", "s").astype("int64")
    assert start <= lo <= hi <= end

    # sample: header + 20 CRLF rows, cells truncated
    lines = doc["sample"].split("\r\n")
    assert lines[0].startswith("site_id,latitude")
    assert len([l for l in lines if l]) == 21

    # categorical column
    assert "http://schema.org/Enumeration" in cols["siteKind"]["semantic_types"]

    # document is JSON-serializable (the ES-insertable deliverable)
    json.dumps(doc)


def test_profile_document_wkt_polygon_coverage(ray_session, tmp_path):
    """A WKT-polygon column profiles as GEO_POLYGON and contributes a
    bbox spatial-coverage entry built from its ring vertices (reference
    types polygons via profile_types.py:203-204; envelope ranges follow
    the point-coverage shape, core.py:781-830)."""
    from auctus_ray.pipelines.document import profile_dataset_document
    from auctus_ray.pipelines.profile import T_GEO_POLYGON

    rng = np.random.default_rng(3)
    n = 120
    # unit squares jittered inside lon [30, 40], lat [10, 20]
    x0 = 30 + 9 * rng.random(n)
    y0 = 10 + 9 * rng.random(n)
    polys = [
        f"POLYGON (({x:.3f} {y:.3f}, {x + 1:.3f} {y:.3f}, "
        f"{x + 1:.3f} {y + 1:.3f}, {x:.3f} {y + 1:.3f}, {x:.3f} {y:.3f}))"
        for x, y in zip(x0, y0)
    ]
    p = tmp_path / "shapes.parquet"
    pq.write_table(
        pa.table(
            {
                "zone": pa.array(polys, pa.string()),
                "value": pa.array(rng.random(n), pa.float64()),
            }
        ),
        str(p),
    )
    doc = profile_dataset_document(str(p), include_sample=False)
    cols = {c["name"]: c for c in doc["columns"]}
    assert cols["zone"]["structural_type"] == T_GEO_POLYGON
    assert "spatial" in doc["types"]
    sc = [e for e in doc["spatial_coverage"] if e["type"] == "polygon"]
    assert len(sc) == 1
    assert sc[0]["column_names"] == ["zone"]
    assert sc[0]["number"] == 5 * n  # every ring vertex counted
    assert sum(g["number"] for g in sc[0]["geohashes4"]) == 5 * n
    assert 1 <= len(sc[0]["ranges"]) <= 3
    # the envelope hull covers the vertex cloud
    lo_lons = [r["range"]["coordinates"][0][0] for r in sc[0]["ranges"]]
    hi_lats = [r["range"]["coordinates"][0][1] for r in sc[0]["ranges"]]
    hi_lons = [r["range"]["coordinates"][1][0] for r in sc[0]["ranges"]]
    lo_lats = [r["range"]["coordinates"][1][1] for r in sc[0]["ranges"]]
    # boxes are built from a bounded coordinate subsample (like the
    # lat/long pair coverage): they sit inside the true bbox and span
    # most of the vertex cloud
    assert 30 <= min(lo_lons) and max(hi_lons) <= 41
    assert 10 <= min(lo_lats) and max(hi_lats) <= 21
    assert max(hi_lons) - min(lo_lons) > 5
    assert max(hi_lats) - min(lo_lats) > 5
    json.dumps(doc)


def test_profile_document_schema_conformance(ray_session, geo_table_path,
                                             tmp_path):
    """Every assembled profile document validates against the repo's
    JSON-Schema contract (docs/schemas/profile_result_schema.json),
    which mirrors the reference's dataset-metadata definition
    (docs/schemas/query_result_schema.json) — the way the reference's
    test_integ.py:23-60 schema-validates every API response. Covers
    the lat/long, WKT-polygon and plain-numeric legs."""
    import os

    import jsonschema

    from auctus_ray.pipelines.document import profile_dataset_document

    schema = json.load(
        open(
            os.path.join(
                os.path.dirname(__file__), "..", "docs", "schemas",
                "profile_result_schema.json",
            )
        )
    )
    jsonschema.Draft7Validator.check_schema(schema)

    docs = [profile_dataset_document(geo_table_path)]
    # polygon fixture
    polys = [
        f"POLYGON (({30 + i % 7} 10, {40 + i % 7} 40, 20 40, {30 + i % 7} 10))"
        for i in range(60)
    ]
    p = tmp_path / "zones.parquet"
    pq.write_table(pa.table({"zone": pa.array(polys)}), str(p))
    docs.append(profile_dataset_document(str(p), include_sample=False))
    # plain numeric/categorical fixture
    p2 = tmp_path / "plain.parquet"
    pq.write_table(
        pa.table(
            {
                "k": pa.array(np.arange(50), pa.int64()),
                "cat": pa.array([["a", "b"][i % 2] for i in range(50)]),
            }
        ),
        str(p2),
    )
    docs.append(profile_dataset_document(str(p2), include_sample=False))
    for doc in docs:
        jsonschema.validate(json.loads(json.dumps(doc)), schema)
    # the validation is not vacuous: a broken doc fails
    bad = dict(docs[0])
    bad["columns"] = [{"name": "x"}]  # missing required type fields
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


def test_profile_document_driver_query(ray_session):
    from auctus_ray.pipelines.document import profile_dataset_doc

    out = profile_dataset_doc("/root/testdata/sf0.001")
    assert out.num_rows == 2
    docs = {t: json.loads(d) for t, d in zip(out["table"].to_pylist(), out["doc"].to_pylist())}
    assert docs["events"]["nb_columns"] == 6
    assert "temporal_coverage" in docs["events"]
    assert docs["documents"]["nb_rows"] > 0


def test_profile_document_unclean_numeric_column(ray_session, tmp_path):
    """A string column the profiler classifies numeric under the 2%
    unclean tolerance must still produce a plot (regression: raw Arrow
    cast raised ArrowInvalid on the junk cells)."""
    import pyarrow.parquet as pq

    from auctus_ray.pipelines.document import profile_dataset_document

    vals = [str(i) for i in range(99)] + ["N/A"]
    p = tmp_path / "unclean.parquet"
    pq.write_table(pa.table({"reading": pa.array(vals, pa.string())}), str(p))
    doc = profile_dataset_document(str(p), include_sample=False)
    col = doc["columns"][0]
    assert col["structural_type"].endswith("Integer")
    assert sum(b["count"] for b in col["plot"]["data"]) == 99  # junk excluded


def test_latlong_pairing_by_index_proximity(ray_session, tmp_path):
    """Interleaved [a_lat, b_lat, b_lon, a_lon] layouts pair each lat
    with its OWN lon (nearest column index), not positionally."""
    import numpy as np
    import pyarrow.parquet as pq

    from auctus_ray.pipelines.document import profile_dataset_document

    n = 200
    rng = np.random.Generator(np.random.PCG64(5))
    tbl = pa.table(
        {
            "pickup_latitude": pa.array(40.7 + rng.normal(0, 0.01, n)),
            "dropoff_latitude": pa.array(34.0 + rng.normal(0, 0.01, n)),
            "dropoff_longitude": pa.array(-118.2 + rng.normal(0, 0.01, n)),
            "pickup_longitude": pa.array(-74.0 + rng.normal(0, 0.01, n)),
        }
    )
    p = tmp_path / "geo2.parquet"
    pq.write_table(tbl, str(p))
    doc = profile_dataset_document(str(p), include_sample=False)
    pairs = [tuple(sc["column_names"]) for sc in doc["spatial_coverage"]]
    assert ("pickup_latitude", "pickup_longitude") in pairs
    assert ("dropoff_latitude", "dropoff_longitude") in pairs


def test_profile_through_ingestion_chain(ray_session, tmp_path):
    """Reference flow detect -> convert -> profile: a CSV with garbage
    title lines profiles IDENTICALLY to its clean equivalent, and an
    xlsx of the same data yields the same column profiles."""
    from auctus_ray.pipelines.document import profile_dataset_document

    body = (
        "city,population,score\n"
        "springfield,30000,1.5\n"
        "shelbyville,20000,2.5\n"
        "ogdenville,10000,3.5\n"
        "north haverbrook,5000,4.5\n"
    )
    clean = tmp_path / "clean.csv"
    clean.write_text(body)
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("Annual census extract\nprepared by hand\n" + body)

    d_clean = profile_dataset_document(str(clean))
    d_dirty = profile_dataset_document(str(dirty))
    for d in (d_clean, d_dirty):
        d.pop("id", None)
        d.pop("date", None)
        d.pop("size", None)  # dirty file is bigger on disk
        d.pop("filename", None)
    assert d_clean["columns"] == d_dirty["columns"]
    assert d_clean["nb_rows"] == d_dirty["nb_rows"] == 4


def test_d3m_writer(ray_session, tmp_path):
    """D3M dataset-dir writer: layout, datasetDoc.json type mapping,
    streaming d3mIndex generation contiguous across blocks, and the
    3.2.0 resFormat variant (reference d3m.py:220-287 parity)."""
    import csv
    import json

    import pyarrow as pa
    import ray.data

    from auctus_ray.pipelines.profile import T_CATEGORICAL, T_TEXT
    from auctus_ray.sources.d3m import write_d3m_dataset

    t = pa.table(
        {
            "name": pa.array([f"n{i}" for i in range(10)]),
            "score": pa.array([float(i) / 2 for i in range(10)]),
            "count": pa.array(list(range(10)), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)  # index must span blocks
    dest = str(tmp_path / "d3m_ds")
    write_d3m_dataset(ds, dest, "ds-001", need_d3mindex=True)

    doc = json.load(open(f"{dest}/datasetDoc.json"))
    assert doc["about"]["datasetID"] == "ds-001"
    assert doc["about"]["datasetSchemaVersion"] == "4.0.0"
    res = doc["dataResources"][0]
    assert res["resPath"] == "tables/learningData.csv"
    assert res["resFormat"] == {"text/csv": ["csv"]}
    by_name = {c["colName"]: c for c in res["columns"]}
    assert by_name["d3mIndex"]["role"] == ["index"]
    assert by_name["d3mIndex"]["colType"] == "integer"
    assert by_name["score"]["colType"] == "real"
    assert by_name["count"]["colType"] == "integer"
    assert by_name["name"]["colType"] == "string"
    assert [c["colIndex"] for c in res["columns"]] == [0, 1, 2, 3]

    rows = list(csv.DictReader(open(f"{dest}/tables/learningData.csv")))
    assert len(rows) == 10
    assert [int(r["d3mIndex"]) for r in rows] == list(range(10))
    assert {r["name"] for r in rows} == {f"n{i}" for i in range(10)}

    # semantic-type precedence + 3.2.0 resFormat, from a pa.Table
    dest2 = str(tmp_path / "d3m_ds2")
    write_d3m_dataset(
        t, dest2, "ds-002", version="3.2.0",
        metadata={
            "name": "My data",
            "columns": [
                {"name": "name", "structural_type": T_TEXT,
                 "semantic_types": [T_CATEGORICAL]},
                {"name": "score", "structural_type":
                 "http://schema.org/Float", "semantic_types": []},
                {"name": "count", "structural_type":
                 "http://schema.org/Integer", "semantic_types": []},
            ],
        },
    )
    doc2 = json.load(open(f"{dest2}/datasetDoc.json"))
    res2 = doc2["dataResources"][0]
    assert res2["resFormat"] == ["text/csv"]
    assert doc2["about"]["datasetName"] == "My data"
    by2 = {c["colName"]: c for c in res2["columns"]}
    assert by2["name"]["colType"] == "categorical"
    assert "d3mIndex" not in by2


def test_polygon_coverage_tolerates_malformed_vertex(ray_session, tmp_path):
    """Regression: a cell matching the polygon vote regex but holding a
    non-float token (e.g. '1.2.3') must drop that vertex, not crash the
    whole dataset profile inside map_batches."""
    from auctus_ray.pipelines.document import profile_dataset_document
    from auctus_ray.pipelines.profile import T_GEO_POLYGON

    good = [
        "POLYGON ((30.0 10.0, 31.0 10.0, 31.0 11.0, 30.0 11.0, 30.0 10.0))"
    ] * 120
    # matches the vote regex ([0-9 .,]+ admits a second dot) but the
    # first vertex token is not a float; the second vertex is fine
    bad = "POLYGON ((1.2.3 4.0, 32.0 12.0))"
    p = tmp_path / "badshape.parquet"
    pq.write_table(
        pa.table({"zone": pa.array(good + [bad], pa.string())}), str(p)
    )
    doc = profile_dataset_document(str(p), include_sample=False)
    cols = {c["name"]: c for c in doc["columns"]}
    assert cols["zone"]["structural_type"] == T_GEO_POLYGON
    sc = [e for e in doc["spatial_coverage"] if e["type"] == "polygon"]
    assert len(sc) == 1
    # 5 vertices x 120 good cells + the bad cell's one valid vertex;
    # the malformed vertex is dropped, not fatal
    assert sc[0]["number"] == 5 * 120 + 1
