"""Nominatim geocoder client (T3): transport-injected tests mirroring
the reference's mocked suite (tests/test_profile.py:725-857) — batch
size 20, 414/500 batch-splitting, the 200-request cap, per-run cache,
gateway-error retries, and the ADDRESS profile integration."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from auctus_ray.functions.geocode import (
    MAX_ADDRESS_LENGTH,
    GeocodeHTTPError,
    GeocoderUnavailable,
    NominatimClient,
)

ADDRESSES = {
    "70 Washington Square S, New York, NY 10012": (40.7294, -73.9972),
    "6 MetroTech, Brooklyn, NY 11201": (40.6944, -73.9857),
    "251 Mercer St, New York, NY 10012": (40.7287, -73.9957),
}


def fake_transport(table=ADDRESSES, fail_first=0, fail_status=500,
                   log=None):
    """list[list[{'lat','lon'}]] per query; optionally fails the first
    N calls with the given status (the reference mock fails once with
    500 to exercise the batch split)."""
    state = {"calls": 0}

    def transport(url, queries):
        state["calls"] += 1
        if log is not None:
            log.append(list(queries))
        if state["calls"] <= fail_first:
            raise GeocodeHTTPError("fake failure", fail_status)
        out = []
        for q in queries:
            if q in table:
                lat, lon = table[q]
                out.append([{"lat": lat, "lon": lon}])
            else:
                out.append([])
        return out

    transport.state = state
    return transport


def test_resolve_all_basic_cache_and_skips():
    c = NominatimClient("http://nominatim/", fake_transport())
    vals = (
        list(ADDRESSES)
        + ["", "   ", None]  # empties don't count
        + ["x" * (MAX_ADDRESS_LENGTH + 1)]  # too long: skipped, counted
        + [list(ADDRESSES)[0]]  # repeat: served from cache
        + ["nowhere special"]  # resolves to nothing
    )
    locations, non_empty = c.resolve_all(vals)
    assert non_empty == 6  # 3 + long + repeat + nowhere
    assert len(locations) == 4  # 3 uniques + 1 cached repeat
    assert locations[0] == ADDRESSES[list(ADDRESSES)[0]]
    assert c.cache["nowhere special"] is None
    # one transport call: 4 distinct queryable values < batch size 20
    assert c.n_requests == 1


def test_batch_flush_at_20_and_request_cap():
    table = {f"addr {i}": (1.0 + i, 2.0 + i) for i in range(1000)}
    log: list = []
    c = NominatimClient("http://nominatim/", fake_transport(table, log=log))
    locations, non_empty = c.resolve_all(
        [f"addr {i}" for i in range(1000)], max_requests=200
    )
    # flushed in batches of exactly 20 (reference NOMINATIM_BATCH_SIZE)
    assert all(len(q) == 20 for q in log)
    # the cap stops QUERYING at 200 distinct values (reference
    # spatial.py:316-318) — everything after is skipped, not queried
    assert len(c.cache) == 200
    assert len(locations) == 200
    assert non_empty == 1000


def test_500_splits_batch_in_half():
    """A failing batch splits recursively (reference _nominatim_batch,
    spatial.py:255-268) — the reference test's fail-once-with-500."""
    log: list = []
    c = NominatimClient(
        "http://nominatim/", fake_transport(fail_first=1, log=log)
    )
    locations, non_empty = c.resolve_all(list(ADDRESSES))
    assert len(locations) == 3 and non_empty == 3
    # first call = all 3 (failed), then two halves of 1 and 2
    assert [len(q) for q in log] == [3, 1, 2]


def test_414_splits_and_single_failure_raises():
    # splitting bottoms out at one query: the failure then propagates
    def always_414(url, queries):
        raise GeocodeHTTPError("uri too long", 414)

    c = NominatimClient("http://nominatim/", always_414)
    with pytest.raises(GeocodeHTTPError):
        c.resolve_all(["a", "b"])


def test_gateway_errors_retry_then_succeed():
    c = NominatimClient(
        "http://nominatim/",
        fake_transport(fail_first=4, fail_status=503),
    )
    locations, _ = c.resolve_all(list(ADDRESSES))
    assert len(locations) == 3  # 5th attempt of the same batch succeeds


def test_default_transport_fails_fast():
    c = NominatimClient("http://nominatim/")
    with pytest.raises(GeocoderUnavailable):
        c.resolve_all(["somewhere"])


def test_profile_document_address_column(ray_session, tmp_path):
    """End-to-end ADDRESS detection through the shared geocoder actor
    (reference core.py:448-463 + the mocked-Nominatim suite): the
    free-text address column gains the address semantic type, address
    spatial coverage, and the dataset counts as spatial."""
    from auctus_ray.functions.geocode import T_ADDRESS
    from auctus_ray.pipelines.document import profile_dataset_document

    addrs = list(ADDRESSES) * 20  # 60 rows, >=4 words each (free text)
    tbl = pa.table(
        {
            "place": pa.array([f"p{i}" for i in range(len(addrs))]),
            "loc": pa.array(addrs, pa.string()),
        }
    )
    p = tmp_path / "addresses.parquet"
    pq.write_table(tbl, str(p))
    doc = profile_dataset_document(
        str(p),
        include_sample=False,
        nominatim="http://nominatim/",
        nominatim_transport=fake_transport(fail_first=1),
    )
    cols = {c["name"]: c for c in doc["columns"]}
    assert T_ADDRESS in cols["loc"]["semantic_types"]
    assert "spatial" in doc["types"]
    assert doc["nb_spatial_columns"] == 1
    sc = [e for e in doc["spatial_coverage"] if e["type"] == "address"]
    assert len(sc) == 1
    assert sc[0]["column_names"] == ["loc"]
    assert sc[0]["number"] == 60  # every occurrence resolved (cached)
    lats = [ll[0] for ll in ADDRESSES.values()]
    lons = [ll[1] for ll in ADDRESSES.values()]
    for r in sc[0]["ranges"]:
        [lo_lon, hi_lat], [hi_lon, lo_lat] = r["range"]["coordinates"]
        assert min(lats) - 1 <= lo_lat <= hi_lat <= max(lats) + 1
        assert min(lons) - 1 <= lo_lon <= hi_lon <= max(lons) + 1
    # non-address free text is untouched
    assert T_ADDRESS not in cols["place"].get("semantic_types", [])


def test_profile_document_mostly_unresolvable_not_address(ray_session,
                                                          tmp_path):
    """>20% unresolved values reject the ADDRESS tag (reference
    MAX_UNCLEAN_ADDRESSES, core.py:38)."""
    from auctus_ray.functions.geocode import T_ADDRESS
    from auctus_ray.pipelines.document import profile_dataset_document

    vals = (list(ADDRESSES) + ["not a real place at all"] * 7) * 6
    tbl = pa.table({"loc": pa.array(vals, pa.string())})
    p = tmp_path / "mixed.parquet"
    pq.write_table(tbl, str(p))
    doc = profile_dataset_document(
        str(p),
        include_sample=False,
        nominatim="http://nominatim/",
        nominatim_transport=fake_transport(),
    )
    cols = {c["name"]: c for c in doc["columns"]}
    assert T_ADDRESS not in cols["loc"]["semantic_types"]
    assert "spatial" not in doc["types"]


def test_midstream_split_clears_batch_no_double_append():
    """Regression: a 500-split at the ==20 mid-stream flush must empty
    the caller's batch — a stale batch re-queried every value at the
    final flush (double-appending locations) and the ==BATCH_SIZE
    flush never fired again."""
    table = {f"addr {i}": (1.0 + i, 2.0 + i) for i in range(25)}
    log: list = []
    c = NominatimClient(
        "http://nominatim/", fake_transport(table, fail_first=1, log=log)
    )
    locations, non_empty = c.resolve_all([f"addr {i}" for i in range(25)])
    # flush of 20 fails once -> two halves of 10; final flush is the
    # remaining 5 only (no re-query of the first 20)
    assert [len(q) for q in log] == [20, 10, 10, 5]
    assert len(locations) == 25 and non_empty == 25
    assert len(set(map(tuple, locations))) == 25  # no duplicates
