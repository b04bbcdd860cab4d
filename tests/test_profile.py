"""Profiling semantics vs reference-style golden fixtures (FIXTURES.md §B;
modeled on the reference's tests/test_profile.py golden expectations)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctus_ray.pipelines.profile import (
    T_BOOLEAN,
    T_CATEGORICAL,
    T_DATE_TIME,
    T_FLOAT,
    T_ID,
    T_INTEGER,
    T_LATITUDE,
    T_LONGITUDE,
    T_MISSING,
    T_TEXT,
    finalize_profile,
    numeric_ranges_kmeans,
    profile_partials,
)


def _profile(table: pa.Table) -> dict:
    parts = profile_partials(table).to_pylist()
    out = finalize_profile(parts)
    return {r["column"]: r for r in out.to_pylist()}


def test_basic_fixture_types():
    """FIXTURES.md 'basic': int / bool / categorical / text columns."""
    n = 100
    rng = np.random.default_rng(0)
    table = pa.table(
        {
            "name": pa.array([f"unique word {i} here now" for i in range(n)]),
            "color": pa.array([["red", "blue"][i % 2] for i in range(n)]),
            "number": pa.array(rng.integers(4, 12, n)),
            "what": pa.array([["true", "false"][i % 2] for i in range(n)]),
        }
    )
    p = _profile(table)
    assert p["number"]["structural_type"] == T_INTEGER
    assert p["what"]["structural_type"] == T_TEXT
    assert T_BOOLEAN in p["what"]["semantic_types"]
    assert T_CATEGORICAL in p["what"]["semantic_types"]
    assert p["color"]["structural_type"] == T_TEXT
    assert T_CATEGORICAL in p["color"]["semantic_types"]
    assert p["color"]["num_distinct_values"] == 2
    # free text: >=50% of rows have >=4 words
    assert T_TEXT in p["name"]["semantic_types"]
    # exact moments
    nums = table["number"].to_numpy()
    assert p["number"]["mean"] == pytest.approx(nums.mean(), abs=1e-6)
    assert p["number"]["stddev"] == pytest.approx(nums.std(), abs=1e-6)


def test_unclean_tolerance_2_percent():
    """2% garbage still counts as INTEGER (profile_types.py MAX_UNCLEAN)."""
    vals = [str(i) for i in range(99)] + ["oops"]
    p = _profile(pa.table({"x": pa.array(vals)}))
    assert p["x"]["structural_type"] == T_INTEGER
    vals = [str(i) for i in range(90)] + ["oops"] * 10
    p = _profile(pa.table({"x": pa.array(vals)}))
    assert p["x"]["structural_type"] == T_TEXT


def test_missing_and_empty():
    p = _profile(pa.table({"x": pa.array(["", "", "", None])}))
    assert p["x"]["structural_type"] == T_MISSING
    p = _profile(pa.table({"x": pa.array(["1", "2", "", ""])}))
    assert p["x"]["structural_type"] == T_INTEGER
    assert p["x"]["missing_values_ratio"] == pytest.approx(0.5)


def test_latlong_by_name_and_range():
    """FIXTURES.md 'geo': lat/long pairing by name + value range."""
    n = 50
    rng = np.random.default_rng(1)
    table = pa.table(
        {
            "lat": pa.array([f"{v:.6f}" for v in rng.uniform(40.6, 40.8, n)]),
            "longitude": pa.array([f"{v:.6f}" for v in rng.uniform(-74.1, -73.9, n)]),
            "height": pa.array([f"{v:.2f}" for v in rng.uniform(0, 500, n)]),
        }
    )
    p = _profile(table)
    assert p["lat"]["structural_type"] == T_FLOAT
    assert T_LATITUDE in p["lat"]["semantic_types"]
    assert T_LONGITUDE in p["longitude"]["semantic_types"]
    assert T_LATITUDE not in p["height"]["semantic_types"]


def test_wkt_polygon_structural_type():
    """WKT polygons decide GEO_POLYGON (reference _re_wkt_polygon vote
    profile_types.py:48-55, decision :203-204): single and multi-ring
    match; negative coordinates deliberately do NOT (the reference
    pattern allows only digit/space/dot inside rings), and 2% garbage
    is tolerated like every structural decision."""
    from auctus_ray.pipelines.profile import T_GEO_POINT, T_GEO_POLYGON

    polys = [
        f"POLYGON (({30 + i} 10, {40 + i} 40, {20 + i} 40, {30 + i} 10))"
        for i in range(99)
    ] + ["oops"]
    p = _profile(pa.table({"shape": pa.array(polys)}))
    assert p["shape"]["structural_type"] == T_GEO_POLYGON

    # multi-ring (hole) + no-space-after-POLYGON variants match too
    rings = [
        "POLYGON((35 10, 45 45, 15 40, 35 10), (20 30, 35 35, 30 20, 20 30))"
    ] * 50
    p = _profile(pa.table({"shape": pa.array(rings)}))
    assert p["shape"]["structural_type"] == T_GEO_POLYGON

    # negative coordinates fall through to TEXT (reference parity)
    neg = ["POLYGON ((-30 10, 40 40, 20 40, -30 10))"] * 50
    p = _profile(pa.table({"shape": pa.array(neg)}))
    assert p["shape"]["structural_type"] == T_TEXT

    # points still win over polygons in the decision order
    pts = ["POINT (30 10)"] * 50
    p = _profile(pa.table({"pt": pa.array(pts)}))
    assert p["pt"]["structural_type"] == T_GEO_POINT

    # polygon columns contribute the spatial dataset type
    from auctus_ray.pipelines.profile import determine_dataset_type

    assert determine_dataset_type(T_GEO_POLYGON, []) == "spatial"


def test_year_special_case():
    """Reference 'year' golden case (test_profile.py:355-416): int-looking
    years become TEXT + DATE_TIME."""
    p = _profile(pa.table({"year": pa.array([str(y) for y in range(1990, 2020)])}))
    assert p["year"]["structural_type"] == T_TEXT
    assert T_DATE_TIME in p["year"]["semantic_types"]


def test_id_by_column_name():
    p = _profile(pa.table({"user_id": pa.array([str(i) for i in range(50)])}))
    assert T_ID in p["user_id"]["semantic_types"]


def test_date_detection():
    p = _profile(
        pa.table({"d": pa.array([f"2020-01-{i + 1:02d}" for i in range(28)])})
    )
    assert T_DATE_TIME in p["d"]["semantic_types"]


def test_int_looking_dates_yyyymmdd():
    """'daily' fixture: YYYYMMDD ints are datetimes, not integers —
    strict-parse overrides (profile_types.py:349-356)... reference keeps
    structural INTEGER unless parse threshold met at TEXT; here they vote
    int structurally and the distinct-sample date check flags them."""
    p = _profile(
        pa.table({"aug_date": pa.array([f"202001{i + 1:02d}" for i in range(28)])})
    )
    assert p["aug_date"]["structural_type"] in (T_INTEGER, T_TEXT)


def test_kmeans_ranges_deterministic():
    rng = np.random.default_rng(2)
    vals = np.concatenate(
        [rng.normal(0, 1, 500), rng.normal(50, 1, 400), rng.normal(100, 1, 300)]
    )
    r1 = numeric_ranges_kmeans(vals)
    r2 = numeric_ranges_kmeans(vals)
    assert r1 == r2
    assert len(r1) == 3
    assert r1[0][0] < 5 and r1[2][1] > 95
    # clusters under 10% of rows are dropped
    vals2 = np.concatenate([rng.normal(0, 1, 950), rng.normal(100, 1, 50)])
    assert len(numeric_ranges_kmeans(vals2)) < 3


class TestScalars:
    def test_strip_html(self):
        from auctus_ray.functions.scalars import strip_html

        assert (
            strip_html('see <a href="http://x.com/p">docs</a> &amp; more')
            == "see docs (http://x.com/p) & more"
        )
        assert strip_html('<a href="https://x.com/">x.com</a>') == "x.com"
        assert strip_html("<p>hi</p><br/>") == "hi"

    def test_truncate(self):
        from auctus_ray.functions.scalars import truncate_string

        assert truncate_string("short") == "short"
        long = "word " * 50
        out = truncate_string(long)
        assert len(out) <= 140 and out.endswith("...")
        assert truncate_string("x" * 200) == "x" * 137 + "..."

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_dataset_id_roundtrip(self, s):
        from auctus_ray.functions.scalars import decode_dataset_id, encode_dataset_id

        import re

        enc = encode_dataset_id(s)
        assert decode_dataset_id(enc) == s
        assert not re.search(r"[^A-Za-z0-9_.-]", enc)

    def test_name_similarity(self):
        """Union-search 3-gram math (reference test_search.py:350+)."""
        from auctus_ray.functions.scalars import name_similarity

        assert name_similarity("color", "color") == 1.0
        assert name_similarity("ab", "ab") == 1.0
        assert name_similarity("color", "colour") == pytest.approx(2 / 5)
        assert name_similarity("abc", "xyz") == 0.0


class TestTemporalResolution:
    """Reference semantics (lib_profiler/temporal.py:36-71; mirrored from
    the reference's TestDates resolution cases)."""

    def _res(self, strs):
        import numpy as np

        from auctus_ray.functions.temporal import get_temporal_resolution

        return get_temporal_resolution(np.array(strs, dtype="datetime64[s]"))

    def test_daily(self):
        assert self._res([f"2020-01-{d:02d}" for d in range(1, 29)]) == "day"

    def test_hourly(self):
        assert self._res([f"2020-01-01T{h:02d}:00" for h in range(24)]) == "hour"

    def test_yearly(self):
        assert self._res([f"{y}-01-01" for y in range(2000, 2020)]) == "year"

    def test_monthly(self):
        assert self._res(
            [f"2019-{m:02d}-15" for m in range(1, 13)]
            + [f"2020-{m:02d}-15" for m in range(1, 13)]
        ) == "month"

    def test_weekly(self):
        assert self._res(
            [f"2020-01-{d:02d}" for d in (6, 13, 20, 27)]
            + [f"2020-02-{d:02d}" for d in (3, 10, 17)]
        ) == "week"

    def test_single_value(self):
        assert self._res(["2020-01-01T00:00:30"]) == "second"
        assert self._res(["2020-01-01T00:30:00"]) == "minute"
        assert self._res(["2020-01-01T05:00:00"]) == "hour"
        assert self._res(["2020-01-01"]) == "day"

    def test_tolerance(self):
        # 28 daily values + 1 duplicate-day second: still 'day' (5% slack)
        vals = [f"2020-01-{d:02d}" for d in range(1, 29)] + ["2020-01-05T10:00:00"]
        assert self._res(vals) == "day"


class TestStemmerAndSynonyms:
    def test_porter_vectors(self):
        from auctus_ray.functions.stemmer import porter_stem

        cases = {
            "caresses": "caress", "ponies": "poni", "flies": "fli",
            "agreed": "agre", "plastered": "plaster", "motoring": "motor",
            "sing": "sing", "conflated": "conflat", "hopping": "hop",
            "happy": "happi", "sky": "sky", "relational": "relat",
            "conditional": "condit", "rational": "ration",
            "generalization": "gener", "connection": "connect",
            "probate": "probat", "controller": "control",
        }
        for w, expect in cases.items():
            assert porter_stem(w) == expect, w

    def test_stemming_analyzer(self):
        from auctus_ray.tokenize import tokenize_array, tokenize_text

        import pyarrow as pa

        out = tokenize_text("parsing connections quickly", "text_en")
        assert out == ["pars", "connect", "quickli"]
        arr = tokenize_array(
            pa.array(["parsing connections quickly"]), "text_en"
        ).to_pylist()
        assert arr == [out]
        # code_stem keeps identifier splitting then stems
        assert tokenize_text("getConnections", "code_stem") == ["get", "connect"]

    def test_search_time_synonyms(self, ray_session, tmp_path):
        """Engine with synonyms == oracle with synonyms, and synonyms
        actually widen recall (search-time only, like the reference)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from auctus_ray.index.build import build_index
        from auctus_ray.index.oracle import OracleIndex
        from auctus_ray.index.search import Searcher

        rows = {
            "repo": [f"r/{i}" for i in range(8)],
            "path": [f"f{i}.py" for i in range(8)],
            "commit": [f"c{i}" for i in range(8)],
            "lang": ["python"] * 8,
            "content": [
                "the quick fox", "a fast fox", "a rapid fox", "slow snail",
                "quick dog", "fast dog", "lazy cat", "speedy cat",
            ],
        }
        t = pa.table({k: pa.array(v, pa.string()) for k, v in rows.items()})
        p = str(tmp_path / "syn.parquet")
        pq.write_table(t, p)
        idx = str(tmp_path / "syn_idx")
        build_index([p], idx, n_shards=2)
        syn = {"quick": ["fast", "rapid"]}
        s = Searcher(idx, synonyms=syn)
        o = OracleIndex(t, synonyms=syn)
        d_s, sc_s = s.search("quick", k=8, operator="or")
        d_o, sc_o = o.search("quick", k=8, operator="or")
        assert (d_s == d_o).all() and (sc_s == sc_o).all()
        # expansion found the fast/rapid docs too
        plain = Searcher(idx)
        d_plain, _ = plain.search("quick", k=8, operator="or")
        assert len(d_s) > len(d_plain)


def test_profile_temporal_resolution_field():
    p = _profile(pa.table({"d": pa.array([f"2020-01-{i + 1:02d}" for i in range(28)])}))
    assert p["d"]["temporal_resolution"] == "day"
    p = _profile(
        pa.table({"h": pa.array([f"2020-01-01 {h:02d}:00:00" for h in range(24)])})
    )
    assert p["h"]["temporal_resolution"] == "hour"


def test_admin_area_resolution(ray_session):
    """T2+ADMIN: a column of country names profiles as AdministrativeArea
    + categorical (reference profile_types.py:266-275)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from auctus_ray.pipelines.profile import finalize_profile, profile_partials

    names = ["France", "Germany", "Japan", "Brazil", "Canada",
             "India", "Kenya", "Peru", "Norway", "Spain"] * 10
    batch = pa.table({"country": pa.array(names, pa.string())})
    partials = profile_partials(batch).to_pylist()
    prof = finalize_profile(partials).to_pylist()
    sem = prof[0]["semantic_types"]
    assert "http://schema.org/AdministrativeArea" in sem
    assert "http://schema.org/Enumeration" in sem
    assert "http://schema.org/Text" not in sem  # admin forces categorical

    # disambiguation picks the common level: states, not country 'Georgia'
    from auctus_ray.functions.admin import resolve_admin_column

    states = ["California", "Texas", "Georgia", "Nevada", "Oregon", "Utah"]
    out = resolve_admin_column(states)
    assert out["level"] == 1
    assert [a["code"] for a in out["areas"]] == [
        "US-CA", "US-TX", "US-GA", "US-NV", "US-OR", "US-UT"
    ]

    # non-place values stay non-admin
    assert resolve_admin_column(["alpha", "beta", "gamma", "delta"]) is None


def test_admin_country_level_and_unresolved_value():
    """Countries resolve at level 0 with their ISO codes; a value that
    resolves to no area is left out of the areas, and the column stays
    admin while more than 70% of its values resolve."""
    from auctus_ray.functions.admin import resolve_admin_column

    out = resolve_admin_column(["France", "Germany", "Italy", "Spain", "not a place"])
    assert out["level"] == 0
    assert [a["code"] for a in out["areas"]] == ["FR", "DE", "IT", "ES"]


def test_manual_annotation_overrides(ray_session):
    """Manual per-column annotations replace inferred types while the
    computed statistics stay (reference core.py:612-619)."""
    import pyarrow as pa

    from auctus_ray.pipelines.profile import (
        T_CATEGORICAL,
        T_ID,
        T_INTEGER,
        T_TEXT,
        finalize_profile,
        profile_partials,
    )

    batch = pa.table({"code": pa.array(["1", "2", "3", "4"] * 5, pa.string())})
    partials = profile_partials(batch).to_pylist()
    # inferred: integer
    prof = finalize_profile(partials).to_pylist()[0]
    assert prof["structural_type"] == T_INTEGER
    # annotated: force text + categorical-id semantics
    prof2 = finalize_profile(
        partials,
        annotations={
            "code": {
                "structural_type": T_TEXT,
                "semantic_types": [T_ID, T_CATEGORICAL],
            }
        },
    ).to_pylist()[0]
    assert prof2["structural_type"] == T_TEXT
    assert set(prof2["semantic_types"].split(";")) == {T_ID, T_CATEGORICAL}
    assert prof2["num_distinct_values"] == 4  # stats preserved


def test_synonyms_from_file(ray_session, tmp_path):
    """A Solr-format synonyms.txt (equivalence groups + explicit
    mappings, the reference's docker/synonyms.txt format) loaded by
    path gives the same results as the equivalent dict."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.index.build import build_index
    from auctus_ray.index.search import Searcher, load_synonyms

    rows = {
        "repo": [f"r/{i}" for i in range(8)],
        "path": [f"f{i}.py" for i in range(8)],
        "commit": [f"c{i}" for i in range(8)],
        "lang": ["python"] * 8,
        "content": [
            "the quick fox", "a fast fox", "a rapid fox", "slow snail",
            "quick dog", "fast dog", "lazy cat", "speedy cat",
        ],
    }
    t = pa.table({k: pa.array(v, pa.string()) for k, v in rows.items()})
    p = str(tmp_path / "synf.parquet")
    pq.write_table(t, p)
    idx = str(tmp_path / "synf_idx")
    build_index([p], idx, n_shards=2)

    syn_path = tmp_path / "synonyms.txt"
    syn_path.write_text(
        "# test synonyms (Solr format)\n"
        "\n"
        "quick, fast, rapid\n"
        "speedy => fast\n"
    )
    loaded = load_synonyms(str(syn_path))
    assert loaded["quick"] == ["fast", "rapid"]
    assert loaded["fast"] == ["quick", "rapid"]
    assert loaded["speedy"] == ["fast"]
    assert "fast" in loaded and "speedy" not in loaded.get("fast", [])

    s_file = Searcher(idx, synonyms=str(syn_path))
    s_dict = Searcher(idx, synonyms={"quick": ["fast", "rapid"]})
    d_f, sc_f = s_file.search("quick", k=8, operator="or")
    d_d, sc_d = s_dict.search("quick", k=8, operator="or")
    assert (d_f == d_d).all() and (sc_f == sc_d).all()
    # the explicit mapping widens 'speedy' to the fast docs
    plain = Searcher(idx)
    d_sp, _ = s_file.search("speedy", k=8, operator="or")
    d_pl, _ = plain.search("speedy", k=8, operator="or")
    assert len(d_sp) > len(d_pl)
