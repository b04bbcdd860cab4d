"""Discoverer plugin surface (reference lib_core/discovery.py:20-167):
record/pending/profile/delete lifecycle with resumable, content-keyed
profiling."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture()
def source_dir(tmp_path):
    root = tmp_path / "src"
    root.mkdir()
    pq.write_table(
        pa.table(
            {
                "k": pa.array(np.arange(100), pa.int64()),
                "v": pa.array(np.arange(100) * 0.5, pa.float64()),
            }
        ),
        str(root / "numbers.parquet"),
    )
    (root / "cities.csv").write_text(
        "garbage line before the header\n"
        "name,population\n"
        "springfield,30000\n"
        "shelbyville,25000\n"
    )
    (root / "README.md").write_text("not a dataset")
    return str(root)


def test_discover_profile_resume_delete(ray_session, tmp_path, source_dir):
    from auctus_ray.sources.discovery import LocalDirectoryDiscoverer

    cat = str(tmp_path / "catalog")
    d = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    found = d.discover_datasets()
    assert found == ["localdir.cities", "localdir.numbers"]
    assert [x["id"] for x in d.pending()] == found

    profiled = d.profile_pending(include_sample=False)
    assert profiled == found
    assert d.pending() == []

    # profile documents landed, one JSON per dataset, with real content
    prof_path = os.path.join(cat, "profiles", "localdir.numbers.json")
    doc = json.load(open(prof_path))
    assert doc["nb_rows"] == 100 and doc["id"] == "localdir.numbers"
    cities = json.load(
        open(os.path.join(cat, "profiles", "localdir.cities.json"))
    )
    # the garbage header was skipped by the ingestion chain
    assert cities["nb_rows"] == 2
    assert {c["name"] for c in cities["columns"]} == {"name", "population"}

    # resume: a fresh Discoverer over the same catalog re-profiles nothing
    d2 = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    assert d2.profile_pending() == []

    # content change -> fingerprint change -> pending again (only that one)
    with open(os.path.join(source_dir, "cities.csv"), "a") as f:
        f.write("ogdenville,12000\n")
    d2.discover_datasets()
    assert [x["id"] for x in d2.pending()] == ["localdir.cities"]
    assert d2.profile_pending(include_sample=False) == ["localdir.cities"]
    cities2 = json.load(
        open(os.path.join(cat, "profiles", "localdir.cities.json"))
    )
    assert cities2["nb_rows"] == 3

    # tombstone: listing drops it, profile file removed, journal survives
    d2.delete_dataset(dataset_id="cities")
    assert [x["id"] for x in d2.datasets()] == ["localdir.numbers"]
    assert not os.path.exists(os.path.join(cat, "profiles", "localdir.cities.json"))
    # re-record after delete -> pending again (delete-then-reinsert, D5)
    d2.discover_datasets()
    assert [x["id"] for x in d2.pending()] == ["localdir.cities"]


def test_record_dataset_defaults(tmp_path):
    from auctus_ray.sources.discovery import Discoverer

    d = Discoverer("plug", str(tmp_path / "cat"))
    full = d.record_dataset(
        {"path": "/nonexistent"},
        {"description": "<p>Fine <em>data</em></p>"},
        dataset_id="x1",
    )
    assert full == "plug.x1"
    rec = d.datasets()[0]
    assert rec["metadata"]["name"] == "x1"
    assert rec["metadata"]["source"] == "plug"
    assert rec["metadata"]["description"] == "Fine data"
    assert rec["materialize"]["identifier"] == "plug"
    assert rec["materialize"]["date"].endswith("Z")
    # auto-generated ids are prefixed and unique
    a = d.record_dataset({}, {})
    b = d.record_dataset({}, {})
    assert a != b and a.startswith("plug.")


def test_discover_profile_index_search_lifecycle(
    ray_session, tmp_path, source_dir
):
    """The full reference loop: discover -> profile -> incremental
    keyword index -> search, with version-aware replace, dataset
    deletion, reinsert, and purging compaction
    (add_dataset_to_index / delete_dataset_from_index,
    common.py:451-561, over the segment machinery)."""
    from auctus_ray.index.segments import compact, load_segments
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        search_datasets,
    )

    cat = str(tmp_path / "catalog")
    root = str(tmp_path / "segroot")
    d = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    d.discover_datasets()
    assert d.profile_pending(seg_root=root, include_sample=False) == [
        "localdir.cities", "localdir.numbers",
    ]

    # column-name keyword reaches the right dataset
    hits = search_datasets(root, "population")
    assert [h["dataset_id"] for h in hits] == ["localdir.cities"]
    # source terms-filter
    assert search_datasets(root, "cities", source=["nope"]) == []
    assert search_datasets(root, "cities", source=["localdir"])

    # content change -> re-profile -> the stale version is masked,
    # exactly one live doc per dataset
    with open(os.path.join(source_dir, "cities.csv"), "a") as f:
        f.write("ogdenville,12000\n")
    d.discover_datasets()
    assert d.profile_pending(seg_root=root, include_sample=False) == [
        "localdir.cities"
    ]
    hits = search_datasets(root, "population", k=10)
    assert [h["dataset_id"] for h in hits] == ["localdir.cities"]

    # delete -> masked; re-record + re-profile -> searchable again
    d.delete_dataset(dataset_id="cities", seg_root=root)
    assert search_datasets(root, "population") == []
    d.discover_datasets()
    assert d.profile_pending(seg_root=root, include_sample=False) == [
        "localdir.cities"
    ]
    hits = search_datasets(root, "population")
    assert [h["dataset_id"] for h in hits] == ["localdir.cities"]

    # compaction purges masked versions into one segment
    assert len(load_segments(root)) >= 2
    compact(root, n_shards=1)
    assert len(load_segments(root)) == 1
    hits = search_datasets(root, "population")
    assert [h["dataset_id"] for h in hits] == ["localdir.cities"]
    assert search_datasets(root, "numbers")


def test_write_to_shared_storage(ray_session, tmp_path):
    """Reference discovery.py:128-139: datasets written to shared
    storage profile from the stored copy (no materialize.path), and
    deletion removes the stored file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.sources.discovery import Discoverer

    cat = str(tmp_path / "cat")
    d = Discoverer("plug", cat)
    buf = pa.BufferOutputStream()
    pq.write_table(pa.table({"x": [1, 2, 3]}), buf)
    with d.write_to_shared_storage("stored1") as fp:
        fp.write(buf.getvalue().to_pybytes())
    full = d.record_dataset({}, {"name": "stored1"}, dataset_id="stored1")
    assert [x["id"] for x in d.pending()] == [full]
    assert d.profile_pending(include_sample=False) == [full]
    import json as _json
    import os as _os

    doc = _json.load(open(_os.path.join(cat, "profiles", f"{full}.json")))
    assert doc["nb_rows"] == 3
    d.delete_dataset(dataset_id="stored1")
    assert not _os.path.exists(
        _os.path.join(cat, "storage", full)
    )


def test_reprocess_all_versioned_replace(ray_session, tmp_path, source_dir):
    """reprocess_all (reference scripts/reprocess_all.py) re-queues
    every live dataset with UNCHANGED content; the chained version key
    must tombstone the old indexed doc so exactly one live doc per
    dataset survives — no duplicates, same search results."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        search_datasets,
    )

    cat = str(tmp_path / "cat")
    root = str(tmp_path / "root")
    d = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    d.discover_datasets()
    d.profile_pending(seg_root=root, include_sample=False)
    before = search_datasets(root, "population")
    assert [h["dataset_id"] for h in before] == ["localdir.cities"]

    assert d.reprocess_all() == 2
    assert [x["id"] for x in d.pending()] == [
        "localdir.cities", "localdir.numbers",
    ]
    assert d.profile_pending(seg_root=root, include_sample=False) == [
        "localdir.cities", "localdir.numbers",
    ]
    after = search_datasets(root, "population", k=10)
    assert [h["dataset_id"] for h in after] == ["localdir.cities"]
    # scores may shift (df/avgdl include masked stale versions until
    # compaction), but there is exactly ONE live doc per dataset
    assert len(search_datasets(root, "numbers", k=10)) == 1
    # idempotent: nothing pending after the drain
    assert d.profile_pending(seg_root=root) == []


def _socrata_listing(rows):
    """Socrata datasets() payload: [{'resource': {...}, 'link': ...}]."""
    return [
        {
            "resource": {
                "id": rid,
                "name": name,
                "type": typ,
                "updatedAt": upd,
                "description": desc,
            },
            "link": f"https://{dom}/d/{rid}",
        }
        for rid, name, typ, upd, desc, dom in rows
    ]


def test_socrata_discoverer_mocked_transport(ray_session, tmp_path):
    """Reference Socrata plugin semantics through injected transports
    (socrata_discovery.py:24-161): type gate, unchanged-skip by
    updatedAt, materialize/metadata contract, CSV materialization into
    shared storage (profile_pending then profiles it), and the
    per-domain deletion sweep."""
    from auctus_ray.sources.discovery import SocrataDiscoverer

    dom = "data.example.org"
    listing = {"rows": [
        ("aaaa-0001", "Population", "dataset", "2024-01-01", "people", dom),
        ("bbbb-0002", "A chart", "chart", "2024-01-01", "", dom),
        ("cccc-0003", "Weather", "dataset", "2024-02-01", "", dom),
    ]}
    calls = {"listing": 0, "data": []}

    def listing_transport(url):
        assert url == dom
        calls["listing"] += 1
        return _socrata_listing(listing["rows"])

    def data_transport(direct_url):
        calls["data"].append(direct_url)
        rid = direct_url.split("/views/")[1].split("/")[0]
        return (
            f"city,val\nspringfield,{rid}\nshelbyville,{rid}\n".encode()
        )

    cat = str(tmp_path / "cat")
    d = SocrataDiscoverer(
        "socrata", cat, [{"url": dom}],
        listing_transport=listing_transport, data_transport=data_transport,
    )
    found = d.discover_datasets()
    # type gate: the chart is skipped; ids follow the reference shape
    assert found == [
        "socrata.data-example-org.aaaa-0001",
        "socrata.data-example-org.cccc-0003",
    ]
    assert not d.errors
    # materialize contract (reference :149-160)
    mats = {x["id"]: x["materialize"] for x in d.datasets()}
    m = mats["socrata.data-example-org.aaaa-0001"]
    assert m["socrata_id"] == "aaaa-0001"
    assert m["socrata_domain"] == dom
    assert m["socrata_updated"] == "2024-01-01"
    assert m["direct_url"].endswith("/api/views/aaaa-0001/rows.csv?accessType=DOWNLOAD")
    metas = {x["id"]: x["metadata"] for x in d.datasets()}
    assert metas["socrata.data-example-org.aaaa-0001"]["description"] == "people"
    assert metas["socrata.data-example-org.aaaa-0001"]["source_url"] == (
        f"https://{dom}/d/aaaa-0001"
    )

    # the downloaded CSVs profile end-to-end from shared storage
    done = d.profile_pending(include_sample=False)
    assert sorted(done) == found

    # unchanged listing: nothing re-records, nothing re-profiles
    assert d.discover_datasets() == []
    assert d.profile_pending(include_sample=False) == []

    # an updatedAt bump re-records and re-profiles that dataset only
    listing["rows"][0] = (
        "aaaa-0001", "Population", "dataset", "2024-03-01", "people", dom,
    )
    assert d.discover_datasets() == ["socrata.data-example-org.aaaa-0001"]

    # deletion sweep: dropping a dataset from the listing tombstones it
    listing["rows"] = [listing["rows"][0]]
    d.discover_datasets()
    ids = {x["id"] for x in d.datasets()}
    assert "socrata.data-example-org.cccc-0003" not in ids
    assert "socrata.data-example-org.aaaa-0001" in ids

    # a failing domain is contained, not fatal (reference :36-41)
    d2 = SocrataDiscoverer(
        "socrata", cat, [{"url": "down.example.org"}, {"url": dom}],
        listing_transport=lambda u: (_ for _ in ()).throw(IOError("503"))
        if u != dom else _socrata_listing(listing["rows"]),
        data_transport=data_transport,
    )
    d2.discover_datasets()
    assert d2.errors and "down.example.org" in d2.errors[0]


def test_handle_query_on_demand_search(ray_session, tmp_path, source_dir):
    """On-demand discovery (reference docs/internals.rst:30-58, NOAA
    handle_query): a query-reactive plugin publishes datasets for the
    user's query; they are profiled, indexed, and considered in that
    same query's results. Re-querying does not re-profile (publish is
    'profiled if necessary'); a failing plugin is contained."""
    from auctus_ray.sources.discovery import (
        Discoverer,
        LocalDirectoryDiscoverer,
        search_datasets,
        search_with_on_demand,
    )

    class WeatherOnDemand(Discoverer):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.queries_seen = []

        def handle_query(self, query, publish):
            self.queries_seen.append(query)
            if "temperature" not in query["keywords"]:
                return
            with self.write_to_shared_storage("weather1") as fp:
                fp.write(b"city,temperature\nspringfield,21\nshelbyville,19\n")
            publish(
                {"noaa_datatype": "TAVG"},
                {"name": "City temperature"},
                dataset_id="weather1",
            )

    class Broken(Discoverer):
        def handle_query(self, query, publish):
            raise IOError("upstream 503")

    cat = str(tmp_path / "cat")
    root = str(tmp_path / "segroot")
    # ahead-of-time plugin seeds the index so the search has a corpus
    aot = LocalDirectoryDiscoverer("localdir", str(tmp_path / "c2"), source_dir)
    aot.discover_datasets()
    aot.profile_pending(seg_root=root, include_sample=False)

    ondemand = WeatherOnDemand("noaa", cat)
    broken = Broken("badplug", str(tmp_path / "c3"))

    # before: the index has nothing for the query
    assert search_datasets(root, "temperature") == []
    hits = search_with_on_demand(
        [ondemand, broken, aot], root, "temperature"
    )
    assert [h["dataset_id"] for h in hits] == ["noaa.weather1"]
    assert ondemand.queries_seen[0]["keywords"] == "temperature"
    # the published dataset is recorded + profiled like any other
    assert {x["id"] for x in ondemand.datasets()} == {"noaa.weather1"}

    # profiled-if-necessary: same query again re-publishes (record is
    # re-journaled) but the unchanged fingerprint skips re-profiling
    hits = search_with_on_demand([ondemand], root, "temperature")
    assert [h["dataset_id"] for h in hits] == ["noaa.weather1"]
    assert ondemand.profile_pending(seg_root=root) == []

    # a non-matching query publishes nothing and still searches fine
    assert search_with_on_demand([ondemand], root, "population")
    # facet shape carries contained plugin errors
    res = search_with_on_demand([broken], root, "temperature", facets=True)
    assert res["on_demand_errors"] == ["badplug: upstream 503"]
    assert res["results"][0]["dataset_id"] == "noaa.weather1"


def test_zenodo_discoverer_mocked_transport(ray_session, tmp_path):
    """Reference Zenodo plugin semantics through injected transports
    (zenodo_discovery.py:16-162): paginated listing, per-FILE datasets
    with the extension gate, '<title> - <filename>' metadata +
    license/keywords, skip-known, materialization into shared storage
    (profile_pending then profiles it), deletion sweep by record id,
    and per-record error containment."""
    from auctus_ray.sources.discovery import ZenodoDiscoverer

    def rec(rid, title, files, modified="2024-01-01", keywords=None):
        return {
            "id": rid,
            "title": title,
            "modified": modified,
            "metadata": {
                "description": f"about {title}",
                "keywords": keywords or [],
                "license": "cc-by",
            },
            "files": [
                {
                    "id": fid,
                    "filename": fn,
                    "filesize": 10,
                    "links": {"download": f"https://zenodo.org/f/{rid}/{fid}"},
                }
                for fid, fn in files
            ],
        }

    pages = {
        "p1": ([rec(100, "Crops", [("f1", "yield.csv"), ("f2", "notes.PDF")],
                    keywords=["agri", "food"]),
                rec(200, "Rain", [("f3", "rain.xlsx")])], "p2"),
        "p2": ([rec(300, "Bad", [("f4", "x.csv")])], None),
    }
    listing_calls = []

    def listing_transport(url):
        listing_calls.append(url)
        return pages[url]

    def data_transport(direct_url):
        return b"a,b\n1,2\n3,4\n"

    cat = str(tmp_path / "cat")
    d = ZenodoDiscoverer(
        "zenodo", cat, start_url="p1",
        listing_transport=listing_transport, data_transport=data_transport,
    )
    found = d.discover_datasets()
    # pagination followed; one dataset per TABULAR file (pdf gated out)
    assert listing_calls == ["p1", "p2"]
    assert found == ["zenodo.100.f1", "zenodo.200.f3", "zenodo.300.f4"]
    metas = {x["id"]: x["metadata"] for x in d.datasets()}
    m = metas["zenodo.100.f1"]
    assert m["name"] == "Crops - yield.csv"
    assert m["license"] == "cc-by"
    assert m["source_url"] == "https://zenodo.org/record/100"
    assert "agri, food" in m["description"]
    assert m["size"] == 10
    mats = {x["id"]: x["materialize"] for x in d.datasets()}
    assert mats["zenodo.200.f3"]["zenodo_record_id"] == 200
    assert mats["zenodo.200.f3"]["zenodo_file_id"] == "f3"
    assert mats["zenodo.200.f3"]["direct_url"] == "https://zenodo.org/f/200/f3"

    # the downloaded files profile end-to-end from shared storage
    done = d.profile_pending(include_sample=False)
    assert sorted(done) == found

    # second sweep: everything known -> nothing re-records; a NEW file
    # on a known record still records (our divergence from the
    # reference's early return at :124/:139)
    pages["p1"][0][0]["files"].append(
        {"id": "f5", "filename": "extra.csv", "filesize": 10,
         "links": {"download": "https://zenodo.org/f/100/f5"}}
    )
    assert d.discover_datasets() == ["zenodo.100.f5"]

    # deletion sweep: a record gone from the listing tombstones all
    # its file datasets
    pages["p2"] = ([], None)
    d.discover_datasets()
    ids = {x["id"] for x in d.datasets()}
    assert "zenodo.300.f4" not in ids
    assert "zenodo.100.f1" in ids and "zenodo.200.f3" in ids

    # a malformed record is contained, not fatal
    pages["p2"] = ([{"id": 400}, rec(500, "OK", [("f6", "ok.csv")])], None)
    d2_found = d.discover_datasets()
    assert "zenodo.500.f6" in d2_found
    assert d.errors and d.errors[0].startswith("400:")


def test_ckan_discoverer_mocked_transport(ray_session, tmp_path):
    """Reference CKAN plugin semantics through injected transports
    (ckan_discovery.py:16-193): package_search pagination by start
    until a short page, per-RESOURCE datasets with the format gate,
    '<title> - <resource>' metadata with license/notes/resource
    description, unchanged-skip by metadata_modified, download_url ->
    url fallback, per-domain deletion sweep by package id, and
    per-domain error containment."""
    from auctus_ray.sources.discovery import CkanDiscoverer

    dom = "open.example.org"

    def res(rid, name, fmt, modified="2024-01-01", desc="", dl=None, url=None):
        return {"id": rid, "name": name, "format": fmt,
                "metadata_modified": modified, "size": 10,
                "description": desc, "download_url": dl, "url": url}

    pkgs = [
        {"id": "p1", "name": "crops", "title": "Crops",
         "license_title": "cc-by", "notes": "crop stats",
         "resources": [
             res("r1", "yield.csv", "CSV", desc="per county",
                 dl=f"https://{dom}/r1.csv"),
             res("r2", "map.pdf", "PDF", dl=f"https://{dom}/r2.pdf"),
         ]},
        {"id": "p2", "name": "rain", "title": "Rain", "notes": "",
         "resources": [
             res("r3", "rain.xlsx", "XLSX", url=f"https://{dom}/r3.xlsx"),
         ]},
    ]
    state = {"pkgs": pkgs}
    urls = []

    def listing_transport(url):
        urls.append(url)
        from urllib.parse import parse_qs, urlparse
        q = parse_qs(urlparse(url).query)
        start = int(q.get("start", ["0"])[0])
        assert "res_format:(CSV OR XLS OR XLSX)" in q["fq"][0]
        return state["pkgs"][start:start + 100]

    def data_transport(direct_url):
        return b"a,b\n1,2\n"

    cat = str(tmp_path / "cat")
    d = CkanDiscoverer(
        "ckan", cat, [{"url": dom, "keyword_query": "climate"}],
        listing_transport=listing_transport, data_transport=data_transport,
    )
    found = d.discover_datasets()
    # format gate: the PDF resource is skipped; ids are package.resource
    assert found == ["ckan.p1.r1", "ckan.p2.r3"]
    assert not d.errors
    assert "q=climate" in urls[0]
    metas = {x["id"]: x["metadata"] for x in d.datasets()}
    m = metas["ckan.p1.r1"]
    assert m["name"] == "Crops - yield.csv"
    assert m["license"] == "cc-by"
    assert m["source_url"] == f"https://{dom}/dataset/crops"
    # resource description + package notes concatenated
    assert m["description"] == "per county\n\ncrop stats"
    mats = {x["id"]: x["materialize"] for x in d.datasets()}
    assert mats["ckan.p1.r1"]["ckan_package_id"] == "p1"
    assert mats["ckan.p1.r1"]["direct_url"] == f"https://{dom}/r1.csv"
    # download_url -> url fallback
    assert mats["ckan.p2.r3"]["direct_url"] == f"https://{dom}/r3.xlsx"

    # downloaded resources profile end-to-end from shared storage
    assert sorted(d.profile_pending(include_sample=False)) == found

    # unchanged-skip: same listing records nothing
    assert d.discover_datasets() == []
    # a metadata_modified bump re-records that resource only
    pkgs[0]["resources"][0]["metadata_modified"] = "2024-06-01"
    assert d.discover_datasets() == ["ckan.p1.r1"]

    # deletion sweep: a package gone from the listing tombstones its
    # resources
    state["pkgs"] = [pkgs[0]]
    d.discover_datasets()
    ids = {x["id"] for x in d.datasets()}
    assert "ckan.p2.r3" not in ids and "ckan.p1.r1" in ids

    # a missing direct_url is a per-PACKAGE contained error (finer than
    # per-domain: sibling packages and the sweep continue)
    state["pkgs"] = [
        {"id": "p9", "name": "bad", "title": "Bad",
         "resources": [res("r9", "x.csv", "CSV")]},
    ]
    d.discover_datasets()
    assert d.errors and d.errors[0].startswith("p9:")

    # pagination: 150 single-resource packages -> two pages
    state["pkgs"] = [
        {"id": f"q{i}", "name": f"q{i}", "title": f"Q{i}",
         "resources": [res(f"s{i}", f"{i}.csv", "CSV",
                           dl=f"https://{dom}/{i}.csv")]}
        for i in range(150)
    ]
    urls.clear()
    d2 = CkanDiscoverer(
        "ckan2", str(tmp_path / "cat2"), [{"url": dom}],
        listing_transport=listing_transport,
    )
    assert len(d2.discover_datasets()) == 150
    assert len(urls) == 2 and "start=100" in urls[1]


def test_drain_crash_after_index_heals(ray_session, tmp_path, source_dir,
                                       monkeypatch):
    """Kill-and-resume for the discovery drain: crash AFTER the drain's
    index segment committed and the sketch rows appended but BEFORE the
    'profiled' journal marks. The retry must re-profile, re-index
    (versioned replace — no duplicate live docs) and re-append sketches
    (stale map supersedes the orphaned first append — no duplicate live
    sketch rows)."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        search_datasets,
    )

    cat = str(tmp_path / "cat")
    root = str(tmp_path / "root")
    d = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    d.discover_datasets()

    real = LocalDirectoryDiscoverer._index_batch

    def crash_after_index(self, seg_root, to_index):
        real(self, seg_root, to_index)
        raise RuntimeError("simulated crash after index commit")

    monkeypatch.setattr(
        LocalDirectoryDiscoverer, "_index_batch", crash_after_index
    )
    with pytest.raises(RuntimeError, match="simulated crash"):
        d.profile_pending(seg_root=root, include_sample=False)
    monkeypatch.setattr(LocalDirectoryDiscoverer, "_index_batch", real)

    # nothing was journaled as profiled: everything is still pending,
    # even though a segment committed and sketch rows were appended
    d2 = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    assert [x["id"] for x in d2.pending()] == [
        "localdir.cities", "localdir.numbers",
    ]
    assert d2.profile_pending(seg_root=root, include_sample=False) == [
        "localdir.cities", "localdir.numbers",
    ]
    # exactly ONE live doc per dataset in keyword search
    hits = search_datasets(root, "population", k=10)
    assert [h["dataset_id"] for h in hits] == ["localdir.cities"]
    assert len(search_datasets(root, "numbers", k=10)) == 1
    # exactly ONE live sketch-row set per dataset in the sketch table
    live = d2.sketch_table.dataset().take_all()
    per_ds = {}
    for r in live:
        per_ds.setdefault(r["dataset_id"], set()).add(r["seq"])
    assert set(per_ds) == {"localdir.cities", "localdir.numbers"}
    assert all(len(seqs) == 1 for seqs in per_ds.values())
    # idempotent afterwards
    assert d2.profile_pending(seg_root=root) == []


def test_coverage_filtered_search(ray_session, tmp_path):
    """The reference's 'variables' query filters (temporal range /
    spatial bbox / granularity, apiserver/search/__init__.py:186-330)
    over the metadata index: coverage scalars ride the docmap as
    doc-values and range-filter keyword hits."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        search_datasets,
    )

    src = tmp_path / "src"
    src.mkdir()
    # spatial dataset: NYC-ish lat/lon pair
    rng = np.random.default_rng(7)
    n = 200
    pq.write_table(
        pa.table(
            {
                "pickup_latitude": pa.array(
                    40.6 + 0.3 * rng.random(n), pa.float64()
                ),
                "pickup_longitude": pa.array(
                    -74.1 + 0.4 * rng.random(n), pa.float64()
                ),
                "fare": pa.array(rng.random(n) * 30, pa.float64()),
            }
        ),
        str(src / "trips.parquet"),
    )
    # temporal dataset: daily 2015 observations
    days = np.arange("2015-01-01", "2016-01-01", dtype="datetime64[D]")
    pq.write_table(
        pa.table(
            {
                "date": pa.array(
                    [str(d) + "T00:00:00" for d in days], pa.string()
                ),
                "temp": pa.array(
                    10 + 15 * np.sin(np.arange(days.size) / 58.0), pa.float64()
                ),
            }
        ),
        str(src / "weather.parquet"),
    )
    # no coverage at all
    pq.write_table(
        pa.table({"k": pa.array(np.arange(50), pa.int64())}),
        str(src / "plain.parquet"),
    )
    # TWO temporal columns at different resolutions: a granularity
    # filter must match on ANY column's resolution, not just the first
    # (reference nests per-column temporal_resolution terms,
    # apiserver/search/__init__.py:212-330)
    months = np.arange("2012-01", "2022-01", dtype="datetime64[M]")
    pq.write_table(
        pa.table(
            {
                "obs_day": pa.array(
                    [str(d) + "T00:00:00" for d in days[: months.size]],
                    pa.string(),
                ),
                "period_month": pa.array(
                    [str(m) + "-01T00:00:00" for m in months], pa.string()
                ),
                "val": pa.array(
                    np.arange(months.size, dtype=np.float64), pa.float64()
                ),
            }
        ),
        str(src / "mixed.parquet"),
    )

    cat = str(tmp_path / "cat")
    root = str(tmp_path / "segroot")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    done = d.profile_pending(seg_root=root, include_sample=False)
    assert sorted(done) == [
        "localdir.mixed", "localdir.plain", "localdir.trips",
        "localdir.weather",
    ]

    def ids(**kw):
        return sorted(
            h["dataset_id"] for h in search_datasets(root, "localdir", k=10, **kw)
        )

    # unfiltered keyword hit: every dataset (id text contains 'localdir')
    assert ids() == [
        "localdir.mixed", "localdir.plain", "localdir.trips",
        "localdir.weather",
    ]
    # temporal intersect: the 2015 daily table + mixed (2012-2021 months)
    assert ids(temporal=("2015-06-01", "2015-07-01")) == [
        "localdir.mixed", "localdir.weather",
    ]
    # one-sided: start after weather's coverage -> only mixed reaches 2020
    assert ids(temporal=("2020-01-01", None)) == ["localdir.mixed"]
    # one-sided: end before everything -> nothing; end inside -> both
    assert ids(temporal=(None, "2010-01-01")) == []
    assert ids(temporal=(None, "2015-02-01")) == [
        "localdir.mixed", "localdir.weather",
    ]
    # bbox intersect: only the NYC trips table
    assert ids(bbox=(-74.2, 40.5, -73.5, 41.0)) == ["localdir.trips"]
    assert ids(bbox=(10.0, 50.0, 11.0, 51.0)) == []
    # granularity term filter: matches ANY temporal column's resolution
    # (mixed has day AND month columns — the flatten-to-first bug would
    # miss one of them)
    assert ids(granularity="day") == ["localdir.mixed", "localdir.weather"]
    assert ids(granularity="month") == ["localdir.mixed"]
    assert ids(granularity="year") == []
    # filters compose (AND): spatial bbox + wrong source -> nothing
    assert ids(bbox=(-74.2, 40.5, -73.5, 41.0), source=["elsewhere"]) == []

    # dataset-type facet: trips = spatial+numerical, weather/mixed =
    # temporal+numerical, plain = numerical (reference 'type' agg over
    # the multi-valued types field, core.py:729-746)
    out = search_datasets(root, "localdir", k=10, facets=True)
    assert out["facets"]["type"] == {"numerical": 4, "spatial": 1, "temporal": 2}
    assert out["total"] == 4

    # compaction carries the attrs: same filtered results afterwards
    from auctus_ray.index.segments import compact, load_segments

    compact(root, n_shards=1)
    assert len(load_segments(root)) == 1
    assert ids(temporal=("2015-06-01", "2015-07-01")) == [
        "localdir.mixed", "localdir.weather",
    ]
    assert ids(bbox=(-74.2, 40.5, -73.5, 41.0)) == ["localdir.trips"]
    assert ids(granularity="month") == ["localdir.mixed"]


def test_dataset_search_facets_and_pagination(ray_session, tmp_path):
    """facets=True returns the reference search-response shape
    (results + source/license buckets over ALL matches + total,
    search/__init__.py:587-643); page paginates disjointly."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        search_datasets,
    )

    src = tmp_path / "src"
    src.mkdir()
    for i in range(5):
        pq.write_table(
            pa.table({"k": pa.array(np.arange(20) + i, pa.int64())}),
            str(src / f"tbl{i}.parquet"),
        )
    cat = str(tmp_path / "cat")
    root = str(tmp_path / "root")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    assert len(d.profile_pending(seg_root=root, include_sample=False)) == 5

    out = search_datasets(root, "localdir", k=3, facets=True)
    assert isinstance(out, dict)
    assert len(out["results"]) == 3
    assert out["total"] == 5
    assert out["facets"]["source"] == {"localdir": 5}
    assert out["facets"]["license"] == {}  # no license metadata recorded
    assert out["facets"]["type"] == {"numerical": 5}  # int tables

    # pagination: pages are disjoint, ordered, and cover the matches
    p1 = search_datasets(root, "localdir", k=3, page=1)
    p2 = search_datasets(root, "localdir", k=3, page=2)
    ids1 = [h["dataset_id"] for h in p1]
    ids2 = [h["dataset_id"] for h in p2]
    assert len(ids1) == 3 and len(ids2) == 2
    assert not set(ids1) & set(ids2)


def test_multi_facet_equals_single_facets(ray_session, tmp_path, source_dir):
    """facet_by=[a, b] returns exactly the two single-attr facet runs
    (the multi-agg search body, reference search/__init__.py:587-603)
    through the segmented searcher."""
    from auctus_ray.index.search import Searcher
    from auctus_ray.sources.discovery import LocalDirectoryDiscoverer

    cat = str(tmp_path / "cat")
    root = str(tmp_path / "root")
    d = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    d.discover_datasets()
    d.profile_pending(seg_root=root, include_sample=False)
    s = Searcher(root)
    _, _, multi = s.search("localdir", k=5, operator="and",
                           facet_by=["repo", "license"])
    _, _, f_repo = s.search("localdir", k=5, operator="and", facet_by="repo")
    _, _, f_lic = s.search("localdir", k=5, operator="and", facet_by="license")
    assert multi == {"repo": f_repo, "license": f_lic}


def test_dataset_search_distributed_equals_local(ray_session, tmp_path, source_dir):
    """distributed=N serves the identical results (ids, scores, facets,
    total) through the (segment, shard-group) actor fan-out."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        search_datasets,
    )

    cat = str(tmp_path / "cat")
    root = str(tmp_path / "root")
    d = LocalDirectoryDiscoverer("localdir", cat, source_dir)
    d.discover_datasets()
    d.profile_pending(seg_root=root, include_sample=False)
    local = search_datasets(root, "localdir", k=5, facets=True)
    dist = search_datasets(root, "localdir", k=5, facets=True, distributed=2)
    assert dist == local


def test_join_search_catalog(ray_session, tmp_path):
    """Joinable-dataset search across the whole profiled catalog via
    persisted per-column Lazo sketches (the reference's profiler->Lazo
    server->join-search flow, core.py:475-521 + search/join.py:141-170):
    query time touches only sketch files, never the datasets."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        join_search_catalog,
    )

    src = tmp_path / "src"
    src.mkdir()
    cities = [f"city{i:03d}" for i in range(200)]
    pq.write_table(
        pa.table(
            {
                "city": pa.array(cities, pa.string()),
                "pop": pa.array(np.arange(200), pa.int64()),
            }
        ),
        str(src / "population.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "place": pa.array(cities[:100], pa.string()),
                "temp": pa.array(np.arange(100) * 0.5, pa.float64()),
            }
        ),
        str(src / "weather.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "name": pa.array([f"person{i}" for i in range(150)], pa.string()),
                "age": pa.array(np.arange(150), pa.int64()),
            }
        ),
        str(src / "people.parquet"),
    )
    cat = str(tmp_path / "cat")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    d.profile_pending(include_sample=False)
    # ONE sketch-table part per DRAIN, not one file per dataset (the
    # file-per-dataset layout is O(catalog) file opens per query)
    import glob as _glob

    assert not _glob.glob(os.path.join(cat, "sketches", "*"))
    parts = _glob.glob(os.path.join(cat, "sketch_table", "part-*.parquet"))
    assert len(parts) == 1
    assert pq.read_table(parts[0]).num_rows == 6  # 3 datasets x 2 cols

    # query = weather.place (contained in population.city): population
    # must rank first with containment ~1; people.name scores ~0
    out = join_search_catalog(
        cat, str(src / "weather.parquet"), "place",
        exclude={"localdir.weather"},
    ).to_pylist()
    assert out[0]["dataset_id"] == "localdir.population"
    assert out[0]["column_name"] == "city"
    assert out[0]["containment"] > 0.8
    tail = {r["dataset_id"]: r["containment"] for r in out[1:]}
    assert all(c < 0.3 for c in tail.values())
    assert "localdir.weather" not in {r["dataset_id"] for r in out}

    # deletion removes the dataset's sketches from the catalog
    d.delete_dataset(dataset_id="population")
    out2 = join_search_catalog(
        cat, str(src / "weather.parquet"), "place",
        exclude={"localdir.weather"},
    ).to_pylist()
    assert all(r["dataset_id"] != "localdir.population" for r in out2)


def test_union_search_catalog(ray_session, tmp_path):
    """Unionable-dataset search across the profiled catalog: fuzzy
    schema matching against the recorded per-dataset (column, type
    class) listings — no dataset rescans at query time (reference
    union flow, apiserver/search/union.py:13-87)."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        union_search_catalog,
    )

    src = tmp_path / "src"
    src.mkdir()
    base = pa.table(
        {
            "city": pa.array(["a", "b"], pa.string()),
            "population": pa.array([1, 2], pa.int64()),
            "area": pa.array([0.5, 0.7], pa.float64()),
        }
    )
    pq.write_table(base, str(src / "query.parquet"))
    # near-identical schema (typo column name) -> strong union candidate
    pq.write_table(
        pa.table(
            {
                "citty": pa.array(["x"], pa.string()),
                "population": pa.array([9], pa.int64()),
                "area": pa.array([1.0], pa.float64()),
            }
        ),
        str(src / "match.parquet"),
    )
    # type-mismatched twin: same names, population as string -> the
    # population pair is rejected (type-class equality gate)
    pq.write_table(
        pa.table(
            {
                "city": pa.array(["y"], pa.string()),
                "population": pa.array(["9"], pa.string()),
            }
        ),
        str(src / "mismatch.parquet"),
    )
    # unrelated schema -> <=1 pair -> dropped entirely
    pq.write_table(
        pa.table({"zz": pa.array([1], pa.int64())}),
        str(src / "noise.parquet"),
    )
    cat = str(tmp_path / "cat")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    d.profile_pending(include_sample=False)

    out = union_search_catalog(
        cat, str(src / "query.parquet"), exclude={"localdir.query"}
    ).to_pylist()
    ids = [r["dataset_id"] for r in out]
    assert ids[0] == "localdir.match"
    assert out[0]["n_pairs"] == 3
    assert "population=population" in out[0]["matched"]
    assert "city=citty" in out[0]["matched"]
    assert "localdir.noise" not in ids
    assert "localdir.query" not in ids
    # type gate: int-vs-str population is rejected, leaving city as the
    # only pair; <=1 pair drops the dataset (reference union.py:83-86)
    assert "localdir.mismatch" not in ids


def test_augmentation_search_catalog(ray_session, tmp_path):
    """Combined join+union augmentation over the catalog: interleaved
    ranked results, reading only sketch/schema files (reference
    get_augmentation_search_results, search/__init__.py:369-420)."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        augmentation_search_catalog,
    )

    src = tmp_path / "src"
    src.mkdir()
    cities = [f"city{i:03d}" for i in range(120)]
    pq.write_table(
        pa.table(
            {
                "city": pa.array(cities, pa.string()),
                "pop": pa.array(np.arange(120), pa.int64()),
            }
        ),
        str(src / "query.parquet"),
    )
    # joinable: contains all the query's cities under another schema
    pq.write_table(
        pa.table(
            {
                "location": pa.array(cities, pa.string()),
                "gdp": pa.array(np.arange(120) * 1.5, pa.float64()),
            }
        ),
        str(src / "economy.parquet"),
    )
    # unionable: near-identical schema
    pq.write_table(
        pa.table(
            {
                "citty": pa.array(cities[:10], pa.string()),
                "pop": pa.array(np.arange(10), pa.int64()),
            }
        ),
        str(src / "more_cities.parquet"),
    )
    cat = str(tmp_path / "cat")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    d.profile_pending(include_sample=False)

    out = augmentation_search_catalog(
        cat, str(src / "query.parquet"), exclude={"localdir.query"}
    ).to_pylist()
    assert out[0]["aug_type"] == "join"
    assert out[0]["dataset_id"] == "localdir.economy"
    assert out[0]["detail"] == "city->location"
    assert out[0]["score"] > 0.8
    unions = [r for r in out if r["aug_type"] == "union"]
    assert unions and unions[0]["dataset_id"] == "localdir.more_cities"
    assert "city=citty" in unions[0]["detail"]
    assert [r["rank"] for r in out] == list(range(1, len(out) + 1))


def test_backfill_sketches_and_error_parking(ray_session, tmp_path):
    """(1) Datasets profiled before the sketch catalog existed are
    invisible to catalog search until backfill_sketches() writes their
    files (no re-profiling). (2) A poison file is parked after its
    error mark — not retried on every drain — until reprocess_all or a
    content change re-queues it."""
    from auctus_ray.sources.discovery import (
        LocalDirectoryDiscoverer,
        join_search_catalog,
    )

    src = tmp_path / "src"
    src.mkdir()
    vals = [f"v{i}" for i in range(80)]
    pq.write_table(
        pa.table({"name": pa.array(vals, pa.string())}),
        str(src / "full.parquet"),
    )
    pq.write_table(
        pa.table({"alias": pa.array(vals[:30], pa.string())}),
        str(src / "part.parquet"),
    )
    (src / "bad.xlsx").write_bytes(b"PK\x03\x04" + b"\x00" * 40)
    cat = str(tmp_path / "cat")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    done = d.profile_pending(include_sample=False, column_sketches=False)
    assert sorted(done) == ["localdir.full", "localdir.part"]
    # error parked: the poison file is NOT pending anymore
    assert d.pending() == []
    assert d.profile_pending(include_sample=False) == []

    # no sketches yet -> catalog search is empty; backfill fills it
    assert join_search_catalog(
        cat, str(src / "part.parquet"), "alias",
        exclude={"localdir.part"},
    ).num_rows == 0
    ids = d.backfill_sketches()
    assert "localdir.full" in ids
    out = join_search_catalog(
        cat, str(src / "part.parquet"), "alias",
        exclude={"localdir.part"},
    ).to_pylist()
    assert out and out[0]["dataset_id"] == "localdir.full"
    assert out[0]["containment"] > 0.8

    # reprocess_all re-queues EVERY attempted dataset — including the
    # parked error (a profiler upgrade may fix the decode)
    assert d.reprocess_all() == 3
    assert {x["id"] for x in d.pending()} == {
        "localdir.bad", "localdir.full", "localdir.part",
    }


def test_sweeps_spare_errored_listing_entries(ray_session, tmp_path):
    """A listing entry that ERRORS during processing is still present at
    the source, so the deletion sweep must not tombstone its live data
    (regression: Socrata/Zenodo/CKAN all marked errored entries unseen
    and deleted them)."""
    from auctus_ray.sources.discovery import (
        CkanDiscoverer,
        SocrataDiscoverer,
        ZenodoDiscoverer,
    )

    # --- Socrata: record fine, then the updated entry's download fails
    dom = "data.example.org"
    rows = [("aaaa-0001", "Pop", "dataset", "2024-01-01", "", dom)]
    ok = {"fail": False}

    def data_transport(direct_url):
        if ok["fail"]:
            raise IOError("transient 500")
        return b"a,b\n1,2\n"

    d = SocrataDiscoverer(
        "socrata", str(tmp_path / "s"), [{"url": dom}],
        listing_transport=lambda u: _socrata_listing(rows),
        data_transport=data_transport,
    )
    assert d.discover_datasets() == ["socrata.data-example-org.aaaa-0001"]
    rows[0] = ("aaaa-0001", "Pop", "dataset", "2024-02-01", "", dom)
    ok["fail"] = True
    d.discover_datasets()
    assert d.errors and "aaaa-0001" in d.errors[0]
    assert {x["id"] for x in d.datasets()} == {
        "socrata.data-example-org.aaaa-0001"
    }

    # --- Zenodo: a malformed NEW sibling file errors the record; the
    # record's previously recorded dataset survives the sweep
    recs = [{
        "id": 100, "title": "Crops", "modified": "2024-01-01",
        "metadata": {},
        "files": [{"id": "f1", "filename": "a.csv", "filesize": 3,
                   "links": {"download": "u1"}}],
    }]
    z = ZenodoDiscoverer(
        "zenodo", str(tmp_path / "z"), start_url="p1",
        listing_transport=lambda u: (recs, None),
        data_transport=lambda u: b"a,b\n1,2\n",
    )
    assert z.discover_datasets() == ["zenodo.100.f1"]
    recs[0]["files"].append(
        {"id": "f9", "filename": "b.csv", "links": {"download": "u9"}}
    )  # no 'filesize' -> KeyError mid-record
    z.discover_datasets()
    assert z.errors and "100" in z.errors[0]
    assert {x["id"] for x in z.datasets()} == {"zenodo.100.f1"}

    # --- CKAN: a malformed resource errors the package; its recorded
    # dataset survives the sweep, and the error is contained per-package
    # (pagination and other packages continue)
    cdom = "open.example.org"
    pkgs = [
        {"id": "p1", "name": "crops", "title": "Crops",
         "resources": [{"id": "r1", "name": "y.csv", "format": "CSV",
                        "metadata_modified": "2024-01-01", "size": 1,
                        "description": "", "url": "u1"}]},
        {"id": "p2", "name": "rain", "title": "Rain",
         "resources": [{"id": "r2", "name": "r.xlsx", "format": "XLSX",
                        "metadata_modified": "2024-01-01", "size": 1,
                        "description": "", "url": "u2"}]},
    ]
    c = CkanDiscoverer(
        "ckan", str(tmp_path / "c"), [{"url": cdom}],
        listing_transport=lambda u: pkgs if "start=0" in u else [],
        data_transport=lambda u: b"a,b\n1,2\n",
    )
    assert len(c.discover_datasets()) == 2
    pkgs[0]["resources"][0] = {"id": "r1"}  # malformed: no format key
    recorded = c.discover_datasets()
    assert recorded == []  # p2 unchanged-skips, p1 errors
    assert c.errors and "p1" in c.errors[-1]
    assert {x["id"] for x in c.datasets()} == {"ckan.p1.r1", "ckan.p2.r2"}


def test_ckan_missing_download_url_key_falls_back(ray_session, tmp_path):
    """A CKAN resource dict with NO download_url key (optional in CKAN)
    must fall back to url, not KeyError the domain."""
    from auctus_ray.sources.discovery import CkanDiscoverer

    pkgs = [{"id": "p1", "name": "x", "title": "X",
             "resources": [{"id": "r1", "name": "x.csv", "format": "CSV",
                            "metadata_modified": "2024-01-01", "size": 1,
                            "description": "", "url": "https://u/x.csv"}]}]
    c = CkanDiscoverer(
        "ckan", str(tmp_path / "c2"), [{"url": "d.org"}],
        listing_transport=lambda u: pkgs if "start=0" in u else [],
        data_transport=lambda u: b"a,b\n1,2\n",
    )
    assert c.discover_datasets() == ["ckan.p1.r1"]
    assert not c.errors
    mats = {x["id"]: x["materialize"] for x in c.datasets()}
    assert mats["ckan.p1.r1"]["direct_url"] == "https://u/x.csv"


def test_on_demand_errors_out_on_list_response(ray_session, tmp_path,
                                               source_dir):
    """Contained plugin errors must be observable on the plain-list
    (facets=False) response via errors_out (the dict shape already
    carries on_demand_errors; the list shape silently dropped them)."""
    from auctus_ray.sources.discovery import (
        Discoverer,
        LocalDirectoryDiscoverer,
        search_with_on_demand,
    )

    class Broken(Discoverer):
        def handle_query(self, query, publish):
            raise RuntimeError("plugin exploded")

    root = str(tmp_path / "seg")
    aot = LocalDirectoryDiscoverer("localdir", str(tmp_path / "c"), source_dir)
    aot.discover_datasets()
    aot.profile_pending(seg_root=root, include_sample=False)
    errs: list = []
    res = search_with_on_demand(
        [Broken("broken", str(tmp_path / "bcat"))], root, "anything",
        errors_out=errs,
    )
    assert isinstance(res, list)
    assert errs and "plugin exploded" in errs[0]


def test_empty_listing_never_mass_deletes(ray_session, tmp_path):
    """Regression: a throttled endpoint surfacing an EMPTY listing must
    not tombstone the domain's recorded datasets — the sweep is skipped
    and an error recorded instead."""
    from auctus_ray.sources.discovery import SocrataDiscoverer

    dom = "data.example.org"
    rows = [("aaaa-0001", "Pop", "dataset", "2024-01-01", "", dom)]
    state = {"rows": rows}
    d = SocrataDiscoverer(
        "socrata", str(tmp_path / "s"), [{"url": dom}],
        listing_transport=lambda u: _socrata_listing(state["rows"]),
        data_transport=lambda u: b"a,b\n1,2\n",
    )
    assert d.discover_datasets() == ["socrata.data-example-org.aaaa-0001"]
    state["rows"] = []  # transient failure shape: empty listing
    d.discover_datasets()
    assert {x["id"] for x in d.datasets()} == {
        "socrata.data-example-org.aaaa-0001"
    }
    assert d.errors and "deletion sweep skipped" in d.errors[-1]


def test_metadata_only_update_requeues(ray_session, tmp_path, source_dir):
    """Regression: a rename with identical bytes never re-profiled, so
    dataset-search served the stale title forever. The discovery
    fingerprint now covers metadata, so the doc re-indexes."""
    from auctus_ray.sources.discovery import Discoverer, search_datasets

    class Meta(Discoverer):
        def __init__(self, *a, name="Old Title", **kw):
            super().__init__(*a, **kw)
            self.name = name

        def discover_datasets(self):
            with self.write_to_shared_storage("d1") as fp:
                fp.write(b"city,v\nparis,1\nlyon,2\n")
            return [
                self.record_dataset({}, {"name": self.name}, dataset_id="d1")
            ]

    root = str(tmp_path / "seg")
    m = Meta("meta", str(tmp_path / "cat"))
    m.discover_datasets()
    assert m.profile_pending(seg_root=root, include_sample=False)
    assert search_datasets(root, "old title")
    # metadata-only change: same bytes, new name -> re-queued, re-indexed
    m.name = "Fresh Name"
    m.discover_datasets()
    assert [d["id"] for d in m.pending()] == ["meta.d1"]
    assert m.profile_pending(seg_root=root, include_sample=False)
    hits = search_datasets(root, "fresh name")
    assert [h["dataset_id"] for h in hits] == ["meta.d1"]
    assert not search_datasets(root, "old title")
