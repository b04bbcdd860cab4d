"""Training-data operators: dedup oracles with planted duplicates, ANN
recall vs brute force, text stats."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def dup_docs(ray_session):
    """60 docs: 3 exact-dup clusters, 2 near-dup pairs, rest unique."""
    import ray.data

    rng = np.random.Generator(np.random.PCG64(7))
    vocab = [f"w{i}" for i in range(200)]
    texts, ids = [], []
    base = {}
    for i in range(60):
        ids.append(i)
        if i in (10, 11, 12):  # exact dups of doc 9
            texts.append(base[9])
        elif i in (20, 21):  # exact dups of doc 19
            texts.append(base[19])
        elif i == 30:  # near dup of 29: one token changed
            toks = base[29].split()
            toks[5] = "changedtoken"
            texts.append(" ".join(toks))
        elif i == 40:  # near dup of 39: two tokens changed
            toks = base[39].split()
            toks[3], toks[7] = "xx1", "xx2"
            texts.append(" ".join(toks))
        else:
            t = " ".join(rng.choice(vocab, 40))
            base[i] = t
            texts.append(t)
    table = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    )
    return ray.data.from_arrow(table), table


def test_minhash_lsh_finds_planted_near_dups(dup_docs):
    from auctus_ray.functions.dedup import (
        jaccard,
        lsh_candidate_pairs,
        minhash_signatures,
        verify_pairs_jaccard,
    )

    ds, table = dup_docs
    sigs = minhash_signatures(ds, n_perm=64, k_shingle=3)
    pairs = lsh_candidate_pairs(sigs, n_bands=16)
    verified = verify_pairs_jaccard(pairs, ds, threshold=0.5, k=3).to_pandas()
    found = set(zip(verified["id_a"], verified["id_b"]))
    # exact dup clusters must be found
    assert (9, 10) in found and (9, 11) in found and (10, 11) in found
    assert (19, 20) in found
    # near-dup with one changed token (high jaccard)
    texts = dict(zip(table["doc_id"].to_pylist(), table["text"].to_pylist()))
    assert jaccard(texts[29], texts[30], 3) >= 0.5
    assert (29, 30) in found
    # all reported pairs truly exceed the threshold (no false positives)
    for a, b, j in zip(verified["id_a"], verified["id_b"], verified["jaccard"]):
        assert jaccard(texts[a], texts[b], 3) == pytest.approx(j)
        assert j >= 0.5


def test_simhash_near_dups(dup_docs):
    from auctus_ray.functions.dedup import simhash_near_dup_pairs, SimHasher

    ds, table = dup_docs
    out = simhash_near_dup_pairs(ds, max_hamming=3).to_pandas()
    found = set(zip(out["id_a"], out["id_b"]))
    assert (9, 10) in found  # exact dup -> hamming 0
    # verify reported hamming distances are exact
    texts = dict(zip(table["doc_id"].to_pylist(), table["text"].to_pylist()))
    for a, b, h in zip(out["id_a"], out["id_b"], out["hamming"]):
        ha, hb = SimHasher.simhash64(texts[a]), SimHasher.simhash64(texts[b])
        assert bin(ha ^ hb).count("1") == h


def test_ann_brute_force_exact(ray_session):
    """Brute-force distributed top-k == single-process numpy top-k."""
    import ray.data

    from auctus_ray.functions.ann import brute_force_topk

    rng = np.random.Generator(np.random.PCG64(3))
    n, d = 500, 16
    mat = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.int64)
    flat = pa.array(mat.astype(np.float32).ravel(), pa.float32())
    offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    table = pa.table(
        {"vec_id": pa.array(ids), "embedding": pa.ListArray.from_arrays(offs, flat)}
    )
    ds = ray.data.from_arrow(table).repartition(4)
    q = mat[:3].astype(np.float32).astype(np.float64)
    out = (
        brute_force_topk(ds, q, k=10)
        .to_pandas()
        .sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
    )
    # single-process reference on the same float32-rounded data
    m64 = mat.astype(np.float32).astype(np.float64)
    m64n = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qn @ m64n.T
    for qi in range(3):
        sub = out[out["query_id"] == qi]
        expect_idx = np.lexsort((ids, -sims[qi]))[:10]
        assert list(sub["vec_id"]) == list(ids[expect_idx])
        assert np.allclose(sub["cosine"].values, sims[qi][expect_idx], rtol=0, atol=0)


def test_ann_lsh_recall(ray_session):
    """LSH-bucketed ANN must recall the (self-similar) top hit and keep
    reasonable overlap with brute force."""
    import ray.data

    from auctus_ray.functions.ann import brute_force_topk, lsh_topk

    rng = np.random.Generator(np.random.PCG64(5))
    n, d = 400, 16
    mat = rng.standard_normal((n, d)).astype(np.float32)
    flat = pa.array(mat.ravel(), pa.float32())
    offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    table = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.ListArray.from_arrays(offs, flat),
        }
    )
    ds = ray.data.from_arrow(table)
    q = mat[:2].astype(np.float64)
    bf = brute_force_topk(ds, q, k=5).to_pandas()
    ann = lsh_topk(ds, q, k=5, n_planes=6).to_pandas()
    for qi in range(2):
        bf_ids = list(bf[bf["query_id"] == qi]["vec_id"])
        ann_ids = list(ann[ann["query_id"] == qi]["vec_id"])
        assert qi in ann_ids  # the identical vector is always in its own bucket
        assert len(set(bf_ids) & set(ann_ids)) >= 1


def test_quality_and_langid(ray_session):
    import ray.data

    from auctus_ray.functions.textstats import LangId, QualityScorer

    table = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "the cat and the dog, in a house!",
                    "le chat et la porte est pour un une",
                    "der hund und die katze ist ein",
                    "",
                ]
            ),
        }
    )
    ds = ray.data.from_arrow(table)
    q = ds.map_batches(QualityScorer, batch_format="pyarrow", concurrency=1).to_pandas()
    row0 = q[q["doc_id"] == 0].iloc[0]
    assert row0["n_tokens"] == 8
    assert row0["stop_cnt"] == 5  # the, and, the, in, a
    lid = LangId()
    texts = table["text"].combine_chunks()
    assert lid._predict_array(texts) == ["en", "fr", "de", "und"]


def test_embedding_near_dup(ray_session):
    """Planted duplicate + near-duplicate vectors must be found; reported
    cosines are exact."""
    import ray.data

    from auctus_ray.functions.dedup import embedding_near_dup_pairs

    rng = np.random.Generator(np.random.PCG64(9))
    n, d = 200, 16
    mat = rng.standard_normal((n, d)).astype(np.float32)
    mat[10] = mat[9]                      # exact dup
    mat[20] = mat[19] + 0.01 * rng.standard_normal(d).astype(np.float32)  # near dup
    flat = pa.array(mat.ravel(), pa.float32())
    offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    t = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.ListArray.from_arrays(offs, flat)})
    out = embedding_near_dup_pairs(
        ray.data.from_arrow(t), threshold=0.95, n_planes=6
    ).to_pandas()
    found = set(zip(out["id_a"], out["id_b"]))
    assert (9, 10) in found
    assert (19, 20) in found
    m64 = mat.astype(np.float64)
    m64 = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    for a, b, c in zip(out["id_a"], out["id_b"], out["cosine"]):
        assert c == pytest.approx(float(m64[a] @ m64[b]), abs=1e-12)
        assert c >= 0.95


def test_pivot_wide_to_long(ray_session):
    """S5: years_pivoted fixture semantics (reference pivot.py golden
    pair: (place, 2017, 2018, 2019) -> (place, date, value))."""
    import ray.data

    from auctus_ray.functions.augment import pivot_wide_to_long

    wide = pa.table(
        {
            "place": pa.array(["nyc", "rio"]),
            "2017": pa.array([1.0, 4.0]),
            "2018": pa.array([2.0, 5.0]),
            "2019": pa.array([3.0, 6.0]),
        }
    )
    out = pivot_wide_to_long(
        ray.data.from_arrow(wide), ["place"], ["2017", "2018", "2019"]
    ).to_pandas()
    assert len(out) == 6
    assert list(out.columns) == ["place", "date", "value"]
    nyc = out[out["place"] == "nyc"].set_index("date")["value"]
    assert nyc.to_dict() == {"2017": 1.0, "2018": 2.0, "2019": 3.0}


class TestSpatial:
    def test_geohash_roundtrip_known(self):
        import numpy as np

        from auctus_ray.functions.spatial import decode_hash, hash_locations

        (h,) = hash_locations(np.array([57.64911]), np.array([10.40744]), base=32, precision=11)
        assert h == "u4pruydqqvj"
        la0, la1, lo0, lo1 = decode_hash("u4pruydqqvj", base=32)
        assert la0 <= 57.64911 <= la1 and lo0 <= 10.40744 <= lo1

    def test_geohash_roundtrip_property(self):
        import numpy as np

        from auctus_ray.functions.spatial import decode_hash, hash_locations

        rng = np.random.default_rng(4)
        lats = rng.uniform(-89, 89, 50)
        longs = rng.uniform(-179, 179, 50)
        for base in (4, 32):
            hs = hash_locations(lats, longs, base=base, precision=12)
            for lat, lon, h in zip(lats, longs, hs):
                la0, la1, lo0, lo1 = decode_hash(h, base=base)
                assert la0 <= lat <= la1 and lo0 <= lon <= lo1
                # prefix decodes to an enclosing box
                pa0, pa1, po0, po1 = decode_hash(h[:4], base=base)
                assert pa0 <= la0 and pa1 >= la1 and po0 <= lo0 and po1 >= lo1

    def test_geohash_sketch_merge_and_limit(self):
        import numpy as np

        from auctus_ray.functions.spatial import GeohashSketch

        rng = np.random.default_rng(5)
        a, b = GeohashSketch(number=10, precision=8), GeohashSketch(number=10, precision=8)
        a.add_points(rng.uniform(40, 41, 200), rng.uniform(-74, -73, 200))
        b.add_points(rng.uniform(40, 41, 200), rng.uniform(-74, -73, 200))
        merged = a.merge(b)
        assert merged.total == 400
        hashes = merged.get_hashes()
        assert sum(n for _, n in hashes) == 400
        assert len(hashes) <= 10 or merged.effective_precision() == 8
        # clustered points keep precision; scattered points cap it
        c = GeohashSketch(number=5, precision=8)
        c.add_points(rng.uniform(-89, 89, 500), rng.uniform(-179, 179, 500))
        assert c.effective_precision() < 8


def test_spatial_ranges_kmeans():
    """A3: three clusters -> three bboxes; degenerate clusters inflate;
    outlier clusters (<10%) drop."""
    import numpy as np

    from auctus_ray.functions.spatial import spatial_ranges_kmeans

    rng = np.random.default_rng(6)
    lats = np.concatenate([rng.normal(0, 0.1, 400), rng.normal(40, 0.1, 300),
                           rng.normal(-40, 0.1, 300)])
    longs = np.concatenate([rng.normal(0, 0.1, 400), rng.normal(70, 0.1, 300),
                            rng.normal(-70, 0.1, 300)])
    boxes = spatial_ranges_kmeans(lats, longs)
    assert len(boxes) == 3
    assert boxes == sorted(boxes)
    for lat_lo, lat_hi, lon_lo, lon_hi in boxes:
        assert lat_hi > lat_lo and lon_hi > lon_lo
    # identical points -> one inflated non-degenerate box
    one = spatial_ranges_kmeans(np.full(50, 10.0), np.full(50, 20.0))
    assert len(one) == 1
    lat_lo, lat_hi, lon_lo, lon_hi = one[0]
    assert lat_hi - lat_lo >= 9e-5 and lon_hi - lon_lo >= 9e-5  # ~1e-4 minus fp rounding
    # outlier cluster under 10% is dropped
    lats2 = np.concatenate([np.zeros(95) + rng.normal(0, 0.01, 95), np.full(5, 80.0)])
    longs2 = np.concatenate([np.zeros(95) + rng.normal(0, 0.01, 95), np.full(5, 80.0)])
    assert len(spatial_ranges_kmeans(lats2, longs2)) <= 2


def test_fuzzy_column_candidates():
    """J8: a typo'd column name within the ES AUTO edit budget becomes a
    union candidate even when its 3-gram similarity is poor — the
    reference's ES fuzzy clause (apiserver/search/union.py:95), as
    unionsearch.score_candidate applies it: ``edit_distance(l, r, cap)
    <= cap`` with ``cap = auto_fuzziness(l)``."""
    from auctus_ray.functions.scalars import auto_fuzziness, edit_distance

    assert edit_distance("price", "pric") == 1
    assert edit_distance("price", "prcie") == 2
    assert edit_distance("price", "quantity") == 3  # capped: returns cap+1
    assert edit_distance("a", "abcd") == 3

    def fuzzy(left, right, cap=None):
        cap = auto_fuzziness(left) if cap is None else cap
        return edit_distance(left.lower(), right.lower(), cap) <= cap

    assert fuzzy("price", "pric") and fuzzy("qty", "qey")
    assert not fuzzy("price", "other")

    # ES AUTO fuzziness: short names get 0 edits ('id' must NOT fuzz
    # onto 'no'), 3-5 chars get 1, 6+ get 2
    assert (auto_fuzziness("id"), auto_fuzziness("price"),
            auto_fuzziness("status")) == (0, 1, 2)
    assert not fuzzy("id", "no")
    assert fuzzy("status", "sattus")
    # a flat cap of 2 would admit the short pair
    assert fuzzy("id", "no", cap=2)


def test_ivf_topk_recall_and_exactness(ray_session):
    """IVF ANN: nprobe == n_centroids is EXACT (equals brute force);
    modest nprobe keeps the self-hit and real overlap."""
    import ray.data

    from auctus_ray.functions.ann import brute_force_topk, ivf_topk, train_ivf

    rng = np.random.Generator(np.random.PCG64(9))
    n, d = 600, 16
    mat = rng.standard_normal((n, d)).astype(np.float32)
    flat = pa.array(mat.ravel(), pa.float32())
    offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    table = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.ListArray.from_arrays(offs, flat),
        }
    )
    ds = ray.data.from_arrow(table)
    q = mat[:2].astype(np.float64)
    bf = brute_force_topk(ds, q, k=5).to_pandas()

    params = train_ivf(ds, n_centroids=16, sample_size=600)
    assert params.centroids.shape == (16, d)

    # exact when probing every list
    exact = ivf_topk(ds, q, k=5, params=params, nprobe=16).to_pandas()
    for qi in range(2):
        b = bf[bf["query_id"] == qi].reset_index(drop=True)
        e = exact[exact["query_id"] == qi].reset_index(drop=True)
        assert list(b["vec_id"]) == list(e["vec_id"])
        assert np.allclose(b["cosine"], e["cosine"])

    # approximate at nprobe=4: the identical vector must survive
    approx = ivf_topk(ds, q, k=5, params=params, nprobe=4).to_pandas()
    for qi in range(2):
        ids = list(approx[approx["query_id"] == qi]["vec_id"])
        assert qi in ids
        bf_ids = set(bf[bf["query_id"] == qi]["vec_id"])
        assert len(bf_ids & set(ids)) >= 1


def test_edit_distance_empty_strings():
    """Regression: the banded loop skipped empty strings entirely."""
    from auctus_ray.functions.scalars import edit_distance

    assert edit_distance("ab", "") == 2
    assert edit_distance("", "ab") == 2
    assert edit_distance("", "") == 0
    assert edit_distance("abc", "") == 3  # over cap -> cap+1


def test_jaccard_pairs_vec_matches_scalar():
    """The batch-vectorized per-pair Jaccard kernel equals the scalar
    set formula on random sorted-unique segments, including empty/empty
    (=1.0) and empty/non-empty (=0.0) pairs."""
    from auctus_ray.functions.dedup import _jaccard_pairs_vec

    rng = np.random.default_rng(17)
    seg_a, seg_b = [], []
    for _ in range(200):
        seg_a.append(np.unique(rng.integers(-50, 50, rng.integers(0, 30))))
        seg_b.append(np.unique(rng.integers(-50, 50, rng.integers(0, 30))))
    seg_a[0] = seg_a[1] = np.empty(0, np.int64)  # empty vs empty / vs non
    flat_a = np.concatenate(seg_a).astype(np.int64)
    flat_b = np.concatenate(seg_b).astype(np.int64)
    len_a = np.array([s.size for s in seg_a], np.int64)
    len_b = np.array([s.size for s in seg_b], np.int64)
    got = _jaccard_pairs_vec(flat_a, len_a, flat_b, len_b)

    def scalar(A, B):
        if A.size == 0 and B.size == 0:
            return 1.0
        inter = np.intersect1d(A, B, assume_unique=True).size
        u = A.size + B.size - inter
        return inter / u if u else 0.0

    want = np.array([scalar(a, b) for a, b in zip(seg_a, seg_b)])
    assert np.array_equal(got, want)


def test_minhash_verify_join_path(dup_docs):
    """The Dataset.join verify path (taken when the candidate set
    exceeds the broadcast threshold) produces the same verified pairs
    as the broadcast path."""
    from auctus_ray.functions.dedup import (
        lsh_candidate_pairs,
        minhash_signatures,
        verify_pairs_jaccard,
    )

    ds, table = dup_docs
    sigs = minhash_signatures(ds, n_perm=64, k_shingle=3)
    pairs = lsh_candidate_pairs(sigs, n_bands=16)
    bcast = verify_pairs_jaccard(pairs, ds, threshold=0.5, k=3).to_pandas()
    joined = verify_pairs_jaccard(
        pairs, ds, threshold=0.5, k=3, broadcast_bytes=0
    ).to_pandas()
    a = set(zip(bcast["id_a"], bcast["id_b"], bcast["jaccard"].round(9)))
    b = set(zip(joined["id_a"], joined["id_b"], joined["jaccard"].round(9)))
    assert a == b and len(a) > 0


def test_cache_dataset_planner(dup_docs):
    """cache_dataset materializes under the byte threshold, FS-
    checkpoints above it or when the size is unknown (scale default) —
    and the near-dup chain is identical through either plan."""
    import ray.data
    from auctus_ray.functions.dedup import (
        lsh_candidate_pairs,
        minhash_signatures,
        verify_pairs_jaccard,
    )
    from auctus_ray.util import cache_dataset

    ds, _ = dup_docs
    small = ray.data.range(10)
    assert cache_dataset(small, est_bytes=100).count() == 10  # materialize leg
    assert cache_dataset(small, est_bytes=10**12).count() == 10  # fs leg
    assert cache_dataset(small, est_bytes=None).count() == 10  # unknown -> fs

    sigs = minhash_signatures(ds, n_perm=64, k_shingle=3)
    out = {}
    for tag, nbytes in (("mat", 100), ("fs", 10**15)):
        pairs = lsh_candidate_pairs(sigs, n_bands=16, input_bytes=nbytes)
        ver = verify_pairs_jaccard(
            pairs, ds, threshold=0.5, k=3, input_bytes=nbytes
        ).to_pandas()
        out[tag] = set(zip(ver["id_a"], ver["id_b"], ver["jaccard"].round(9)))
    assert out["mat"] == out["fs"] and len(out["mat"]) > 0


def test_sha256_hex_array_null_extents():
    """ADVICE regression: a null slot with NON-EMPTY underlying extents
    (offsets monotonic but not equal) must hash as the empty string."""
    import hashlib

    import pyarrow as pa
    from auctus_ray.util import sha256_hex_array

    base = pa.array(["abc", "def", "ghi"])
    # mask-constructed array: offsets still span 'def' under the null
    masked = pa.StringArray.from_buffers(
        len(base), base.buffers()[1], base.buffers()[2],
        pa.array([True, False, True]).buffers()[1], 1,
    )
    assert masked.null_count == 1
    got = sha256_hex_array(masked).to_pylist()
    assert got[0] == hashlib.sha256(b"abc").hexdigest()
    assert got[1] == hashlib.sha256(b"").hexdigest()
    assert got[2] == hashlib.sha256(b"ghi").hexdigest()


def test_lsh_hot_bucket_join_path(dup_docs):
    """The distributed hot-bucket semi-join (broadcast_threshold=0)
    yields the same candidate pairs as the broadcast filter."""
    from auctus_ray.functions.dedup import lsh_candidate_pairs, minhash_signatures

    ds, _ = dup_docs
    sigs = minhash_signatures(ds, n_perm=64, k_shingle=3).materialize()
    p_b = lsh_candidate_pairs(sigs, n_bands=16).to_pandas()
    p_j = lsh_candidate_pairs(sigs, n_bands=16, broadcast_bytes=0).to_pandas()
    assert set(zip(p_b["id_a"], p_b["id_b"])) == set(zip(p_j["id_a"], p_j["id_b"]))


def test_union_search_pagination_and_greedy(ray_session):
    """union_search returns ranked candidates; pagination slices the
    same ranked list; greedy 1-1 never reuses a column on either side."""
    from auctus_ray.pipelines.unionsearch import union_search

    full = union_search("/root/testdata/sf0.001").to_pandas()
    assert list(full["rank"]) == list(range(1, len(full) + 1))
    assert (full["n_pairs"] >= 2).all()
    # descending score order, ties by table name
    s = list(zip(-full["sum_sim_e9"], full["cand_table"]))
    assert s == sorted(s)
    for m in full["matched"]:
        ls = [p.split("=")[0] for p in m.split(",")]
        rs = [p.split("=")[1] for p in m.split(",")]
        assert len(set(ls)) == len(ls) and len(set(rs)) == len(rs)
    page2 = union_search("/root/testdata/sf0.001", page=1, size=1).to_pandas()
    if len(full) > 1:
        assert page2["cand_table"].iloc[0] == full["cand_table"].iloc[1]
        assert page2["rank"].iloc[0] == 2


def _write_xlsx_fixture(path):
    """Minimal real xlsx: shared strings (incl. a rich-text run),
    inline strings, numbers, a gap cell, a garbage title row, and a
    NON-default sheet name proving workbook->rels resolution."""
    import zipfile

    ns = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
    wb = (
        f'<workbook {ns} xmlns:r="http://schemas.openxmlformats.org/'
        'officeDocument/2006/relationships"><sheets>'
        '<sheet name="Data" sheetId="1" r:id="rId1"/></sheets></workbook>'
    )
    rels = (
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/'
        '2006/relationships"><Relationship Id="rId1" Type="x" '
        'Target="worksheets/data.xml"/></Relationships>'
    )
    sst = (
        f"<sst {ns}><si><t>id</t></si><si><t>name</t></si>"
        "<si><r><t>va</t></r><r><t>lue</t></r></si>"
        "<si><t>alpha</t></si></sst>"
    )
    sheet = (
        f"<worksheet {ns}><sheetData>"
        '<row r="1"><c r="A1" t="inlineStr"><is><t>Quarterly report</t></is></c></row>'
        '<row r="2"><c r="A2" t="s"><v>0</v></c><c r="B2" t="s"><v>1</v></c>'
        '<c r="C2" t="s"><v>2</v></c></row>'
        '<row r="3"><c r="A3"><v>1</v></c><c r="B3" t="s"><v>3</v></c>'
        '<c r="C3"><v>10</v></c></row>'
        '<row r="4"><c r="A4"><v>2</v></c><c r="B4" t="inlineStr">'
        "<is><t>beta</t></is></c>"
        '<c r="C4"><v>20</v></c></row>'
        '<row r="5"><c r="A5"><v>3</v></c><c r="C5"><v>30</v></c></row>'
        '<row r="6"><c r="A6"><v>4</v></c><c r="B6" t="s"><v>3</v></c>'
        '<c r="C6"><v>40</v></c></row>'
        "</sheetData></worksheet>"
    )
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("xl/workbook.xml", wb)
        z.writestr("xl/_rels/workbook.xml.rels", rels)
        z.writestr("xl/sharedStrings.xml", sst)
        z.writestr("xl/worksheets/data.xml", sheet)


def test_xlsx_ingest(ray_session, tmp_path):
    """The stdlib xlsx decoder feeds the standard CSV chain: rich-text
    shared-string header ('value'), inline strings, a gap cell, and the
    garbage title row skipped by the converted file's own sniff."""
    from auctus_ray.sources.ingest import read_table_auto, sniff_format

    book = tmp_path / "book.xlsx"
    _write_xlsx_fixture(book)
    plan = sniff_format(str(book))
    assert plan["format"] == "xlsx"
    df = read_table_auto(str(book)).to_pandas()
    assert list(df.columns) == ["id", "name", "value"]
    assert len(df) == 4
    assert df["value"].sum() == 100
    assert df["id"].tolist() == [1, 2, 3, 4]
    assert df["name"].tolist()[0] == "alpha" and df["name"].tolist()[1] == "beta"
    gap = df["name"].tolist()[2]  # the gap cell: empty (Arrow CSV
    assert gap == "" or gap is None or gap != gap  # default) or null


def test_ingest_sniffer_and_auto_read(ray_session, tmp_path):
    """S2/S3/S4: magic-byte + delimiter sniffing, garbage-header skip,
    and the fused distributed read reproduce the reference's
    detect-and-convert chain (detect.py:25-193)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from auctus_ray.sources.ingest import (
        ConversionUnavailable,
        count_rows_to_skip,
        ingest_to_parquet,
        read_table_auto,
        sniff_format,
    )

    # plain CSV with 2 garbage title lines before a 3-column table
    csv_path = tmp_path / "garbage.csv"
    csv_path.write_text(
        "Quarterly report\n"
        "generated 2020-01-01 by the export tool\n"
        "id,name,value\n"
        "1,a,10\n2,b,20\n3,c,30\n4,d,40\n"
    )
    plan = sniff_format(str(csv_path))
    assert plan["format"] == "csv"
    assert {"identifier": "skip_rows", "nb_rows": 2} in plan["convert"]
    ds = read_table_auto(str(csv_path))
    df = ds.to_pandas()
    assert list(df.columns) == ["id", "name", "value"]
    assert len(df) == 4 and df["value"].sum() == 100

    # semicolon-delimited file sniffs as non-comma and reads identically
    tsv_path = tmp_path / "data.txt"
    tsv_path.write_text("id;name;value\n1;a;10\n2;b;20\n3;c;30\n")
    plan = sniff_format(str(tsv_path))
    assert {"identifier": "tsv", "separator": ";"} in plan["convert"]
    df = read_table_auto(str(tsv_path)).to_pandas()
    assert list(df.columns) == ["id", "name", "value"] and len(df) == 3

    # parquet detected by magic and read natively (column-pruned)
    pq_path = tmp_path / "t.parquet"
    pq.write_table(pa.table({"x": [1, 2], "y": ["a", "b"]}), pq_path)
    assert sniff_format(str(pq_path))["format"] == "parquet"
    df = read_table_auto(str(pq_path), columns=["x"]).to_pandas()
    assert list(df.columns) == ["x"]

    # truncated/malformed xls -> fail-fast (real decodes: test_xls.py)
    fake_xls = tmp_path / "book.xls"
    fake_xls.write_bytes(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 64)
    assert sniff_format(str(fake_xls))["format"] == "xls"
    with _pytest.raises(ConversionUnavailable):
        read_table_auto(str(fake_xls))

    # count_rows_to_skip stabilization rule (reference core.py:135-173)
    import io

    assert count_rows_to_skip(io.StringIO("a,b\n1,2\n3,4\n5,6\n7,8\n")) == 0
    assert count_rows_to_skip(io.StringIO("title\na,b\n1,2\n3,4\n5,6\n")) == 1
    # short file: the stable run reaches EOF before the confirmation
    # budget — still trusted (>= 2 consistent rows)
    assert count_rows_to_skip(io.StringIO("title\na,b\n1,2\n")) == 1
    # ragged alternating widths never stabilize: skip NOTHING instead
    # of the last unconfirmed run start (which would drop real rows)
    ragged = "".join(("x\n" if i % 2 else "y,z\n") for i in range(12))
    assert count_rows_to_skip(io.StringIO(ragged)) == 0

    # garbage line BEFORE a non-comma table (defeats the raw
    # csv.Sniffer; our retry-with-dropped-lines finds both steps)
    hard = tmp_path / "hard.txt"
    hard.write_text("Report title\nid;v\n1;2\n3;4\n5;6\n")
    plan = sniff_format(str(hard))
    assert {"identifier": "tsv", "separator": ";"} in plan["convert"]
    assert {"identifier": "skip_rows", "nb_rows": 1} in plan["convert"]
    df = read_table_auto(str(hard)).to_pandas()
    assert list(df.columns) == ["id", "v"] and len(df) == 3

    # pivoted temporal table: year columns unpivot to long rows
    piv = tmp_path / "pivot.csv"
    piv.write_text("region,2018,2019,2020\nN,1,2,3\nS,4,5,6\n")
    plan = sniff_format(str(piv))
    pivot_entries = [e for e in plan["convert"] if e["identifier"] == "pivot"]
    # tie between non_dates and non_years resolves to 'date'
    # (reference min([non_dates, non_years], key=len) tie order)
    assert pivot_entries and pivot_entries[0]["date_label"] == "date"
    assert pivot_entries[0]["except_columns"] == [0]
    long_df = read_table_auto(str(piv)).to_pandas()
    assert list(long_df.columns) == ["region", "date", "value"]
    assert len(long_df) == 6 and long_df["value"].sum() == 21

    # end-to-end conversion chain to the native format
    out = tmp_path / "converted"
    ds2, plan2 = ingest_to_parquet(str(csv_path), str(out))
    assert ds2.count() == 4 and plan2["format"] == "csv"


def test_stata_ingest(ray_session, tmp_path):
    """S4 Stata leg (reference stata.py:7-18): a .dta file detected by
    magic bytes decodes through the conversion chain with the
    reference's '%g' float and ISO-8601 date formatting."""
    import pandas as pd

    from auctus_ray.sources.ingest import read_table_auto, sniff_format

    src = pd.DataFrame(
        {
            "id": [1, 2, 3],
            "name": ["alpha", "beta", "gamma"],
            "ratio": [0.5, 2.0, 12345.678],
            "when": pd.to_datetime(
                ["2020-01-01", "2020-06-15", "2021-12-31"]
            ),
        }
    )
    dta = tmp_path / "survey.dta"
    src.to_stata(str(dta), write_index=False)
    assert sniff_format(str(dta))["format"] == "stata"
    df = read_table_auto(str(dta)).to_pandas()
    assert list(df.columns) == ["id", "name", "ratio", "when"]
    assert df["id"].tolist() == [1, 2, 3]
    assert df["name"].tolist() == ["alpha", "beta", "gamma"]
    # '%g' formatting (reference fidelity): 2.0 -> "2" stays numeric,
    # and 12345.678 rounds to 6 significant digits (12345.7)
    assert df["ratio"].tolist() == [0.5, 2.0, 12345.7]
    assert str(df["when"].iloc[0]).startswith("2020-01-01")
    # column pruning applies on the converted read
    df2 = read_table_auto(str(dta), columns=["id"]).to_pandas()
    assert list(df2.columns) == ["id"]


def _write_sav(path, compression, cases, long_names=None):
    """Minimal spec-following .sav writer (PSPP 'System File Format'):
    vars = AGE (F8.2 numeric), NAME (A12 string, 2 elements), WHEN
    (DATE11), STAMP (DATETIME20). Test fixture only — the engine never
    writes .sav."""
    import struct as st
    from datetime import datetime

    epoch = datetime(1582, 10, 14)

    def fmt(ftype, width, dec=0):
        return (ftype << 16) | (width << 8) | dec

    def var(width, fmt_i, name):
        return st.pack("<iiiiii", 2, width, 0, 0, fmt_i, fmt_i) + name

    out = bytearray()
    out += b"$FL2" + b"@" * 60
    out += st.pack("<iiiii", 2, 5, compression, 0, len(cases))
    out += st.pack("<d", 100.0)
    out += b"01 Jan 26" + b"00:00:00" + b" " * 64 + b"\x00" * 3
    out += var(0, fmt(5, 8, 2), b"AGE     ")
    out += var(12, fmt(1, 12), b"NAME    ")
    out += var(-1, 0, b"        ")  # continuation of NAME
    out += var(0, fmt(20, 11), b"WHEN    ")
    out += var(0, fmt(22, 20), b"STAMP   ")
    if long_names:
        payload = "\t".join(f"{k}={v}" for k, v in long_names.items()).encode()
        out += st.pack("<iiii", 7, 13, 1, len(payload)) + payload
    out += st.pack("<ii", 999, 0)

    sysmis = st.unpack("<d", b"\xff\xff\xff\xff\xff\xff\xef\xff")[0]

    def elements(age, name, when, stamp):
        els = []
        els.append(None if age is None else st.pack("<d", float(age)))
        padded = name.encode().ljust(16)
        els.append(padded[:8])
        els.append(padded[8:])
        els.append(st.pack("<d", (when - epoch).total_seconds()))
        els.append(st.pack("<d", (stamp - epoch).total_seconds()))
        return els

    if compression == 0:
        for c in cases:
            for el in elements(*c):
                out += el if el is not None else st.pack("<d", sysmis)
    else:
        codes, literals = [], []
        for c in cases:
            for el in elements(*c):
                if el is None:
                    codes.append(255)
                elif el == b"        ":
                    codes.append(254)
                else:
                    codes.append(253)
                    literals.append(el)
        codes.append(252)
        li = iter(literals)
        consumed = 0
        for i in range(0, len(codes), 8):
            block = codes[i : i + 8]
            block += [0] * (8 - len(block))
            out += bytes(block)
            for code in block:
                if code == 253:
                    out += next(li)
    path.write_bytes(bytes(out))


def test_spss_ingest(ray_session, tmp_path):
    """S4 SPSS leg: the stdlib .sav reader (sources/sav.py; reference
    spss.py:7-16 via pyreadstat) decodes uncompressed and bytecode-
    compressed system files identically — numerics, multi-element
    strings, DATE/DATETIME as ISO-8601, sysmis as null, long variable
    names — and zsav fails fast."""
    from datetime import datetime

    import pytest as _pytest

    from auctus_ray.sources.ingest import (
        ConversionUnavailable,
        read_table_auto,
        sniff_format,
    )

    cases = [
        (34.5, "alice", datetime(2020, 3, 5), datetime(2020, 3, 5, 12, 30, 15)),
        (None, "bob jr.", datetime(1999, 12, 31), datetime(2000, 1, 1, 0, 0, 1)),
        (103.0, "", datetime(2021, 7, 1), datetime(2021, 7, 1, 6, 0, 0)),
    ]
    dfs = []
    for comp in (0, 1):
        sav = tmp_path / f"survey_c{comp}.sav"
        _write_sav(sav, comp, cases, long_names={"AGE": "age_years"})
        assert sniff_format(str(sav))["format"] == "spss"
        df = read_table_auto(str(sav)).to_pandas()
        assert list(df.columns) == ["age_years", "NAME", "WHEN", "STAMP"]
        assert df["age_years"].tolist()[0] == 34.5
        assert df["age_years"].isna().tolist() == [False, True, False]
        # 103.0 is integral: the bytecode writer could compress it as
        # code 203 (value 103 = 203 - bias); we wrote it literal, but
        # the reader must accept both — exercised below
        assert df["age_years"].tolist()[2] == 103.0
        assert df["NAME"].fillna("").tolist() == ["alice", "bob jr.", ""]
        assert str(df["WHEN"].iloc[0]).startswith("2020-03-05")
        assert str(df["STAMP"].iloc[1]).startswith("2000-01-01 00:00:01")
        dfs.append(df)
    assert dfs[0].fillna(0).equals(dfs[1].fillna(0))

    # compressible-numeric opcode (value = code - bias)
    import struct as st

    from auctus_ray.sources.sav import SavReader

    raw = bytearray((tmp_path / "survey_c1.sav").read_bytes())
    with open(tmp_path / "survey_c1.sav", "rb") as fp:
        r = SavReader(fp)
        data_at = raw.find(st.pack("<ii", 999, 0)) + 8
    # first command block's first code: 253 (literal 34.5) -> swap in
    # code 203 (= 103 + bias 100) and drop its 8-byte literal
    assert raw[data_at] == 253
    raw[data_at] = 203
    del raw[data_at + 8 : data_at + 16]
    comp203 = tmp_path / "c203.sav"
    comp203.write_bytes(bytes(raw))
    with open(comp203, "rb") as fp:
        rows = list(SavReader(fp).rows())
    assert rows[0][0] == 103.0

    # zsav ($FL3) fails fast
    z = tmp_path / "z.zsav"
    z.write_bytes(b"$FL3" + b"\x00" * 200)
    assert sniff_format(str(z))["format"] == "spss"
    with _pytest.raises(ConversionUnavailable):
        read_table_auto(str(z))


def test_aggregate_join_null_semantics(ray_session):
    """Reference agg semantics (augmentation.py:234-257): sum/mean/max/
    min are null for all-null groups (NaN-preserving _sum/np.mean),
    count counts non-null, first takes the row at min order even when
    its value is null, unmatched left rows keep nulls."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from auctus_ray.functions.augment import aggregate_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 2], pa.int64()),
                "ord": pa.array([10, 20, 5, 6], pa.int64()),
                "v": pa.array([None, 7, None, None], pa.int64()),
            }
        )
    )
    out = (
        aggregate_join(
            left, right, left_on="k", right_on="k",
            agg_spec={"v": ["sum", "mean", "min", "max", "count", "first"]},
            order_col="ord",
        )
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    # k=1: one null + one 7 -> sum 7, mean 7.0, count 1, first = null (row ord=10)
    assert out.loc[1, "sum v"] == 7 and out.loc[1, "count v"] == 1
    assert out.loc[1, "mean v"] == 7.0
    assert pd.isna(out.loc[1, "first v"])
    # k=2: all-null group -> NaN-preserving aggregates, count 0
    assert pd.isna(out.loc[2, "sum v"]) and pd.isna(out.loc[2, "mean v"])
    assert pd.isna(out.loc[2, "min v"]) and pd.isna(out.loc[2, "max v"])
    assert out.loc[2, "count v"] == 0
    # k=3: unmatched left row -> all nulls
    assert out.loc[3].isna().all()


def test_ingest_quoted_newline_garbage_and_dirty_pivot(ray_session, tmp_path):
    """Round-3 review fixes: (a) a quoted garbage field spanning lines
    is ONE CSV record but multiple physical lines — the skip count must
    be physical; (b) a pivoted table with a non-numeric cell must carry
    values as strings, not crash on a float cast."""
    from auctus_ray.sources.ingest import read_table_auto, sniff_format

    p = tmp_path / "quoted.csv"
    p.write_text('"Quarterly\nreport"\nid,name,value\n1,a,10\n2,b,20\n3,c,30\n')
    plan = sniff_format(str(p))
    skips = [e for e in plan["convert"] if e["identifier"] == "skip_rows"]
    assert skips and skips[0]["nb_rows"] == 2  # 1 record == 2 physical lines
    df = read_table_auto(str(p)).to_pandas()
    assert list(df.columns) == ["id", "name", "value"] and len(df) == 3

    piv = tmp_path / "dirty_pivot.csv"
    piv.write_text("region,2018,2019,2020\nN,1,2,~missing~\nS,4,5,6\n")
    df = read_table_auto(str(piv)).to_pandas()
    assert list(df.columns) == ["region", "date", "value"]
    assert len(df) == 6 and "~missing~" in set(df["value"])


def test_revenue_planner_paths_agree_on_orphan_orders(ray_session, tmp_path):
    """An order whose customer is missing must not surface as a
    spurious empty-name group in the broadcast plan (inner-join
    semantics on both planner paths)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from auctus_ray.pipelines.relational import revenue_by_nation

    d = tmp_path / "sf_orphan"
    d.mkdir()
    pq.write_table(
        pa.table({"n_nationkey": pa.array([0, 1]), "n_name": pa.array(["A", "B"])}),
        d / "nation.parquet",
    )
    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2]), "c_nationkey": pa.array([0, 1])}),
        d / "customer.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_custkey": pa.array([1, 2, 999]),  # 999 has no customer
                "o_totalprice": pa.array([10.0, 20.0, 30.0]),
            }
        ),
        d / "orders.parquet",
    )
    bcast = revenue_by_nation(str(d)).to_pandas().sort_values("n_name").reset_index(drop=True)
    shuf = revenue_by_nation(str(d), broadcast_bytes=0).to_pandas().sort_values("n_name").reset_index(drop=True)
    assert bcast.equals(shuf)
    assert set(bcast["n_name"]) == {"A", "B"}  # no "" group; orphan dropped


# ---------------------------------------------------------- property tests


from hypothesis import given, settings
from hypothesis import strategies as st

_name = st.text(
    alphabet="abcdefghij_0123456789", min_size=1, max_size=16
)


@given(a=_name, b=_name)
@settings(max_examples=200, deadline=None)
def test_name_similarity_counts_properties(a, b):
    from auctus_ray.functions.scalars import name_similarity_counts

    ia, ua = name_similarity_counts(a, a)
    assert ia == ua > 0  # self-similarity is exactly 1
    iab, uab = name_similarity_counts(a, b)
    iba, uba = name_similarity_counts(b, a)
    assert (iab, uab) == (iba, uba)  # symmetric
    assert 0 <= iab <= uab  # jaccard in [0, 1]


@given(a=_name, b=_name)
@settings(max_examples=200, deadline=None)
def test_edit_distance_matches_full_dp(a, b):
    """Banded early-exit distance == classic full DP, capped at 3."""
    from auctus_ray.functions.scalars import edit_distance

    def full_dp(x, y):
        prev = list(range(len(y) + 1))
        for i, cx in enumerate(x, 1):
            cur = [i]
            for j, cy in enumerate(y, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (cx != cy)))
            prev = cur
        return prev[-1]

    cap = 2
    got = edit_distance(a, b, cap)
    want = min(full_dp(a, b), cap + 1)
    assert got == want
    assert edit_distance(b, a, cap) == got  # symmetric


@given(
    n_garbage=st.integers(0, 3),
    n_cols=st.integers(2, 5),
    n_rows=st.integers(4, 8),
    delim=st.sampled_from([",", ";", "\t", "|"]),
)
@settings(max_examples=40, deadline=None)
def test_sniffer_skip_property(tmp_path_factory, n_garbage, n_cols, n_rows, delim):
    """For any table preceded by garbage lines with a DIFFERENT column
    count, the sniffer finds the delimiter and the physical skip."""
    from auctus_ray.sources.ingest import sniff_format

    d = tmp_path_factory.mktemp("sniffprop")
    cols = [f"col{i}" for i in range(n_cols)]
    lines = [f"garbage title {i}" for i in range(n_garbage)]
    lines.append(delim.join(cols))
    for r in range(n_rows):
        lines.append(delim.join(f"v{r}x{c}" for c in range(n_cols)))
    p = d / "t.csv"
    p.write_text("\n".join(lines) + "\n")
    plan = sniff_format(str(p))
    delims = {e["separator"] for e in plan["convert"] if e["identifier"] == "tsv"}
    if delim != ",":
        assert delims == {delim}
    skip = sum(
        e["nb_rows"] for e in plan["convert"] if e["identifier"] == "skip_rows"
    )
    assert skip == n_garbage


@settings(max_examples=40, deadline=None)
@given(
    cases=st.lists(
        st.tuples(
            st.one_of(
                st.none(),
                st.floats(
                    min_value=-1e9, max_value=1e9,
                    allow_nan=False, allow_infinity=False,
                ),
                st.integers(min_value=-99, max_value=151),  # bias range
            ),
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=12,
            ),
            st.datetimes(
                min_value=__import__("datetime").datetime(1800, 1, 1),
                max_value=__import__("datetime").datetime(2200, 1, 1),
            ).map(lambda d: d.replace(microsecond=0)),
            st.datetimes(
                min_value=__import__("datetime").datetime(1800, 1, 1),
                max_value=__import__("datetime").datetime(2200, 1, 1),
            ).map(lambda d: d.replace(microsecond=0)),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_sav_compression_invariance(cases, tmp_path_factory):
    """The .sav reader decodes uncompressed and bytecode-compressed
    files identically for arbitrary case data (numeric incl. sysmis,
    ASCII strings with trailing-space rstrip, DATE/DATETIME)."""
    from auctus_ray.sources.sav import SavReader

    tmp = tmp_path_factory.mktemp("sav_prop")
    rows = []
    for comp in (0, 1):
        p = tmp / f"c{comp}.sav"
        _write_sav(p, comp, cases)
        with open(p, "rb") as fp:
            r = SavReader(fp)
            rows.append(list(r.rows()))
    assert rows[0] == rows[1]
    # strings rstrip trailing spaces (space-padded storage)
    for (age, name, when, stamp), got in zip(cases, rows[0]):
        assert got[1] == name.rstrip()
        assert got[0] == (float(age) if age is not None else None)
        assert got[2] == when.date()
        assert got[3] == stamp


def test_ngram_jaccard_pairs_exact(dup_docs):
    """The inverted-shingle exact join reports exactly the pairs the
    per-pair jaccard() helper reports (same shingle definition), with
    exact values — planted exact/near dups all found."""
    from auctus_ray.functions.dedup import jaccard, ngram_jaccard_pairs

    ds, table = dup_docs
    out = ngram_jaccard_pairs(ds, k=3, threshold=0.5).to_pandas()
    found = set(zip(out["id_a"], out["id_b"]))
    assert (9, 10) in found and (10, 11) in found and (19, 20) in found
    assert (29, 30) in found
    texts = dict(zip(table["doc_id"].to_pylist(), table["text"].to_pylist()))
    for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"]):
        assert jaccard(texts[a], texts[b], 3) == pytest.approx(j)
    # completeness: brute-force all pairs >= threshold == reported set
    ids = table["doc_id"].to_pylist()
    expect = {
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if jaccard(texts[a], texts[b], 3) >= 0.5
    }
    assert found == expect


def test_xlsx_trailing_empty_cells(ray_session, tmp_path):
    """Excel omits trailing empty <c> elements entirely; the converted
    CSV must still be rectangular (padded to the sheet width) or the
    Arrow read behind read_table_auto fails on the short row."""
    import zipfile

    ns = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
    sheet = (
        f"<worksheet {ns}><sheetData>"
        '<row r="1"><c r="A1" t="inlineStr"><is><t>a</t></is></c>'
        '<c r="B1" t="inlineStr"><is><t>b</t></is></c>'
        '<c r="C1" t="inlineStr"><is><t>c</t></is></c></row>'
        '<row r="2"><c r="A2"><v>1</v></c><c r="B2"><v>2</v></c>'
        '<c r="C2"><v>3</v></c></row>'
        '<row r="3"><c r="A3"><v>4</v></c></row>'  # B3/C3 omitted
        '<row r="4"><c r="A4"><v>5</v></c><c r="B4"><v>6</v></c></row>'
        "</sheetData></worksheet>"
    )
    book = tmp_path / "trail.xlsx"
    with zipfile.ZipFile(book, "w") as z:
        z.writestr("xl/worksheets/sheet1.xml", sheet)

    from auctus_ray.sources.ingest import read_table_auto

    df = read_table_auto(str(book)).to_pandas()
    assert list(df.columns) == ["a", "b", "c"]
    assert len(df) == 3
    assert df["a"].tolist() == [1, 4, 5]
    assert df["b"].isna().tolist() == [False, True, False]
    assert df["c"].isna().tolist() == [False, True, True]


def test_converted_cache_is_sweepable(tmp_path):
    """Conversion caches carry the .cache suffix so the watermark
    sweeper (state/cache.py) can evict them."""
    import pandas as pd

    from auctus_ray.sources.ingest import _converted_path

    df = pd.DataFrame({"x": [1, 2]})
    dta = tmp_path / "t.dta"
    df.to_stata(str(dta), write_index=False)
    out = _converted_path(str(dta), "stata")
    assert "/stata_" in out and out.split("/")[-2].endswith(".cache")


def test_profile_pending_poison_file(ray_session, tmp_path):
    """A file whose decode fails (multi-sheet xlsx etc.) must not wedge
    the drain: the bad dataset journals an error, everything else
    profiles (reference: per-message ack/nack in the profiler queue)."""
    import pyarrow as _pa
    import pyarrow.parquet as _pq

    from auctus_ray.sources.discovery import LocalDirectoryDiscoverer

    src = tmp_path / "src"
    src.mkdir()
    _pq.write_table(
        _pa.table({"k": _pa.array(np.arange(10), _pa.int64())}),
        str(src / "good.parquet"),
    )
    # truncated OLE2 magic -> ConversionUnavailable inside profiling
    (src / "bad.xlsx").write_bytes(b"PK\x03\x04" + b"\x00" * 60)
    cat = str(tmp_path / "cat")
    d = LocalDirectoryDiscoverer("localdir", cat, str(src))
    d.discover_datasets()
    done = d.profile_pending(include_sample=False)
    assert done == ["localdir.good"]
    rec = d.catalog.latest("profiled", "localdir.bad")
    assert rec is not None and rec["status"] == "error"


def test_xlsx_date_cells(ray_session, tmp_path):
    """Numeric cells styled with a date numFmt decode to ISO-8601, not
    raw Excel serials (regression: '44197' leaked into the CSV and
    profiled as a number). Built-in id 14 and a custom y/m/d code both
    classify; an unstyled number stays numeric."""
    import zipfile

    from auctus_ray.sources.ingest import xlsx_to_csv

    ns = 'xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"'
    wb = (
        f'<workbook {ns} xmlns:r="http://schemas.openxmlformats.org/'
        'officeDocument/2006/relationships"><sheets>'
        '<sheet name="D" sheetId="1" r:id="rId1"/></sheets></workbook>'
    )
    rels = (
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/'
        '2006/relationships"><Relationship Id="rId1" Type="x" '
        'Target="worksheets/s.xml"/></Relationships>'
    )
    styles = (
        f"<styleSheet {ns}>"
        '<numFmts count="1"><numFmt numFmtId="164" formatCode="yyyy\\-mm\\-dd"/></numFmts>'
        "<cellXfs count=\"3\">"
        '<xf numFmtId="0"/><xf numFmtId="14"/><xf numFmtId="164"/>'
        "</cellXfs></styleSheet>"
    )
    sheet = (
        f"<worksheet {ns}><sheetData>"
        '<row r="1"><c r="A1" t="inlineStr"><is><t>when</t></is></c>'
        '<c r="B1" t="inlineStr"><is><t>custom</t></is></c>'
        '<c r="C1" t="inlineStr"><is><t>amount</t></is></c></row>'
        '<row r="2"><c r="A2" s="1"><v>44197</v></c>'
        '<c r="B2" s="2"><v>44198.5</v></c>'
        '<c r="C2" s="0"><v>44197</v></c></row>'
        "</sheetData></worksheet>"
    )
    p = tmp_path / "dates.xlsx"
    with zipfile.ZipFile(str(p), "w") as z:
        z.writestr("xl/workbook.xml", wb)
        z.writestr("xl/_rels/workbook.xml.rels", rels)
        z.writestr("xl/styles.xml", styles)
        z.writestr("xl/worksheets/s.xml", sheet)
    out = tmp_path / "dates.csv"
    xlsx_to_csv(str(p), str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "when,custom,amount"
    # 1900 mode: serial 44197 = 2021-01-01; 44198.5 = 2021-01-02 12:00
    assert lines[1] == "2021-01-01T00:00:00,2021-01-02T12:00:00,44197"


def test_sav_truncation_and_encoding(tmp_path):
    """Regressions: (1) a file truncated at a case BOUNDARY with a known
    case count must raise SavError, not silently yield fewer rows;
    (2) mid-string truncation raises SavError (not the PEP 479
    RuntimeError a genexp produced); (3) declared-encoding column
    names decode correctly even though the encoding record follows the
    variable records."""
    import struct as st
    from datetime import datetime

    import pytest as _pytest

    from auctus_ray.sources.sav import SavError, SavReader

    cases = [
        (1.0, "alice", datetime(2020, 1, 1), datetime(2020, 1, 1, 1)),
        (2.0, "bob", datetime(2020, 1, 2), datetime(2020, 1, 2, 2)),
    ]
    p = tmp_path / "t.sav"
    _write_sav(p, 0, cases)
    raw = p.read_bytes()

    # (1) drop the ENTIRE last case (5 elements x 8 bytes)
    (tmp_path / "cut.sav").write_bytes(raw[:-40])
    with open(tmp_path / "cut.sav", "rb") as fp:
        with _pytest.raises(SavError, match="1 of 2"):
            list(SavReader(fp).rows())

    # (2) cut INSIDE the second case's string elements
    (tmp_path / "mid.sav").write_bytes(raw[:-24])
    with open(tmp_path / "mid.sav", "rb") as fp:
        with _pytest.raises(SavError, match="truncated"):
            list(SavReader(fp).rows())

    # (3) cp1252 long name; encoding record written AFTER subtype 13.
    # Build with a same-length ASCII placeholder, then byte-patch it to
    # the cp1252 encoding (lengths must match the record header).
    p2 = tmp_path / "enc.sav"
    _write_sav(p2, 0, cases, long_names={"AGE": "Xge"})
    raw2 = bytearray(p2.read_bytes())
    # splice a subtype-20 encoding record just before the 999 terminator
    term = st.pack("<ii", 999, 0)
    i = bytes(raw2).index(term)
    enc_payload = b"WINDOWS-1252"
    rec = st.pack("<iiii", 7, 20, 1, len(enc_payload)) + enc_payload
    raw2[i:i] = rec
    patched = bytes(raw2).replace(b"AGE=Xge", "AGE=\u00e2ge".encode("cp1252"))
    p2.write_bytes(patched)
    with open(p2, "rb") as fp:
        r = SavReader(fp)
        assert r.columns[0] == "âge"
        assert len(list(r.rows())) == 2


def test_manifest_tolerates_torn_tail(tmp_path):
    """A kill mid-append leaves a partial trailing JSON line; the
    journal must load (dropping the uncommitted record) — resume is the
    whole point. Mid-file corruption still raises."""
    import json as _json

    import pytest as _pytest

    from auctus_ray.state.manifest import Manifest

    d = str(tmp_path / "idx")
    m = Manifest(d)
    m.mark("tok", "p1", "fp1", "done")
    m.mark("tok", "p2", "fp2", "done")
    path = tmp_path / "idx" / "manifest.jsonl"
    with open(path, "a") as f:
        f.write('{"stage": "tok", "partition": "p3", "fi')  # torn tail
    m2 = Manifest(d)
    assert m2.is_done("tok", "p1", "fp1") and m2.is_done("tok", "p2", "fp2")
    assert m2.latest("tok", "p3") is None
    # appending after the torn line keeps the journal loadable
    m2.mark("tok", "p3", "fp3", "done")
    assert Manifest(d).is_done("tok", "p3", "fp3")
    # corruption NOT at the tail is an error
    lines = open(path).read().splitlines()
    lines.insert(1, "{broken")
    open(path, "w").write("\n".join(lines) + "\n")
    with _pytest.raises(_json.JSONDecodeError):
        Manifest(d)


def test_skip_rows_budget_exhaustion_not_trusted():
    """Regression: a >=2-row run at the END OF THE BUDGET (not EOF) was
    trusted, returning skip counts above MAX_SKIPPED_ROWS and dropping
    real rows of a width-shifting file."""
    import io

    from auctus_ray.sources.ingest import count_rows_to_skip

    rows = ["a,b,c"] * 3 + ["a,b,c,d,e,f"] * 3 + ["a,b,c"] * 2
    rows += ["a,b,c,d,e,f"] * 200
    assert count_rows_to_skip(io.StringIO("\n".join(rows) + "\n")) == 0


def test_xls_corrupt_content_fails_fast(tmp_path):
    """Regression: corrupt BIFF content raised raw struct.error /
    IndexError out of the decoder instead of ConversionUnavailable."""
    import pytest as _pytest

    from auctus_ray.sources.ingest import ConversionUnavailable, xls_to_csv

    # valid OLE2 magic, then garbage
    p = tmp_path / "bad.xls"
    p.write_bytes(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 500)
    with _pytest.raises(ConversionUnavailable):
        xls_to_csv(str(p), str(tmp_path / "out.csv"))


def test_sketchtable_stale_map_tracks_churn_only(ray_session, tmp_path):
    """Regression: every APPEND entered the staleness map, so steady
    ingest of new datasets forced a full-table compaction per ~1024
    datasets; only re-appends (churn) belong there."""
    from auctus_ray.sources.sketchtable import SketchTable

    t = SketchTable(str(tmp_path))
    row = [{"column_name": "c", "tclass": "str", "n_perm": 4,
            "card": 2, "mins": b"\x00" * 32}]
    t.append({"d1": row})
    t.append({"d2": row})
    st = t._load()
    assert st["stale"] == {}  # first-time appends: no churn
    assert set(st["latest"]) == {"d1", "d2"}
    t.append({"d1": row})  # re-append: supersedes -> churn
    st = t._load()
    assert set(st["stale"]) == {"d1"}
    # live view: exactly one row per dataset (old d1 rows hidden)
    ds = t.dataset()
    got = ds.to_pandas()
    assert sorted(got["dataset_id"]) == ["d1", "d2"]
    # pruned reads that omit dataset_id still work (auto-added)
    ds2 = t.dataset(columns=["column_name", "tclass"])
    assert len(ds2.to_pandas()) == 2
