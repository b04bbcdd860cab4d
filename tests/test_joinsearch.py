"""Textual join search (J7 Lazo containment): exact path vs planted
ground truth, sketch-estimate accuracy, top-300 cap."""

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def columns_ds(ray_session):
    """Query column Q = 0..99; candidates with known containment:
    full (100%), half (50%), tenth (10%), none (0%)."""
    import ray.data

    def col(vals):
        return ray.data.from_arrow(
            pa.table({"value": pa.array([str(v) for v in vals], pa.string())})
        )

    q = col(range(100))
    cands = {
        ("d", "full"): col(range(100)),
        ("d", "half"): col(list(range(50)) + list(range(1000, 1050))),
        ("d", "tenth"): col(list(range(10)) + list(range(2000, 2090))),
        ("d", "none"): col(range(5000, 5100)),
    }
    return q, cands


def _candidate_values(cands):
    """{(dataset_id, column_name): values Dataset} -> one
    (dataset_id, column_name, value) Dataset, the catalog-values shape
    exact_containment_scores reads."""
    parts = [
        ds.map_batches(
            lambda t, d=d, c=c: pa.table(
                {
                    "dataset_id": pa.array([d] * t.num_rows, pa.string()),
                    "column_name": pa.array([c] * t.num_rows, pa.string()),
                    "value": t["value"],
                }
            ),
            batch_format="pyarrow",
        )
        for (d, c), ds in sorted(cands.items())
    ]
    return parts[0].union(*parts[1:])


def test_exact_containment(columns_ds):
    from auctus_ray.functions.joinsearch import exact_containment_scores

    q, cands = columns_ds
    out = exact_containment_scores(
        q, _candidate_values(cands), catalog=sorted(cands)
    )
    got = {
        (d, c): s
        for d, c, s in zip(
            out["dataset_id"].to_pylist(),
            out["column_name"].to_pylist(),
            out["containment"].to_pylist(),
        )
    }
    assert got == {
        ("d", "full"): 1.0,
        ("d", "half"): 0.5,
        ("d", "tenth"): 0.1,
        ("d", "none"): 0.0,
    }
    # ranking: score desc
    assert out["containment"].to_pylist() == sorted(
        out["containment"].to_pylist(), reverse=True
    )


def test_exact_containment_single_pipeline(columns_ds):
    """The one-pipeline catalog path (exact_containment_scores) scores
    every candidate in one pass and zero-fills the candidates no query
    value reaches."""
    from auctus_ray.functions.joinsearch import exact_containment_scores

    q, cands = columns_ds
    out = exact_containment_scores(
        q, _candidate_values(cands), catalog=sorted(cands)
    )
    got = {
        (d, c): s
        for d, c, s in zip(
            out["dataset_id"].to_pylist(),
            out["column_name"].to_pylist(),
            out["containment"].to_pylist(),
        )
    }
    assert got[("d", "full")] == 1.0
    assert got[("d", "half")] == 0.5
    assert got[("d", "none")] == 0.0  # zero-filled from the catalog


def test_lazo_estimate_close_to_exact(columns_ds):
    """The Lazo sketch containment estimate (n_perm=256) lands within
    0.12 of the exact score for each planted candidate."""
    from auctus_ray.functions.joinsearch import lazo_containment, sketch_column

    q, cands = columns_ds
    sk_q = sketch_column(q, n_perm=256)
    exact = {("d", "full"): 1.0, ("d", "half"): 0.5,
             ("d", "tenth"): 0.1, ("d", "none"): 0.0}
    assert sorted(cands) == sorted(exact)
    for key, cand in sorted(cands.items()):
        s = lazo_containment(sk_q, sketch_column(cand, n_perm=256))
        assert abs(s - exact[key]) <= 0.12, (key, s)


def test_candidate_cap(ray_session):
    """More candidates than max_candidates -> exactly the cap survives,
    highest containment first (reference MAX_LAZO_CANDIDATES_SIZE=300,
    apiserver/search/join.py:13)."""
    import ray.data

    from auctus_ray.functions.joinsearch import exact_containment_scores

    def col(vals):
        return ray.data.from_arrow(
            pa.table({"value": pa.array([str(v) for v in vals], pa.string())})
        )

    q = col(range(20))
    cands = {("d", f"c{i:02d}"): col(range(i)) for i in range(1, 11)}
    out = exact_containment_scores(
        q, _candidate_values(cands), max_candidates=3, catalog=sorted(cands)
    )
    assert out.num_rows == 3
    # top-3 by containment = the biggest prefixes (c10, c09, c08)
    assert out["column_name"].to_pylist() == ["c10", "c09", "c08"]


def test_bbox_overlap_scores(ray_session):
    """J6 spatial join search: overlap-area scoring mirrors the
    reference's painless script (intersection area / query coverage),
    non-intersecting candidates are dropped."""
    import ray.data

    from auctus_ray.functions.spatial import bbox_overlap_scores

    boxes = ray.data.from_arrow(
        pa.table(
            {
                "dataset_id": pa.array(["inside", "partial", "outside"], pa.string()),
                "min_lat": pa.array([2.0, 8.0, 50.0]),
                "max_lat": pa.array([4.0, 12.0, 60.0]),
                "min_lon": pa.array([2.0, 8.0, 50.0]),
                "max_lon": pa.array([4.0, 12.0, 60.0]),
            }
        )
    )
    # one query envelope [0,10]x[0,10]; coverage = 100
    out = bbox_overlap_scores(boxes, [(0.0, 10.0, 0.0, 10.0)]).to_pandas()
    got = dict(zip(out["dataset_id"], out["score"]))
    assert got == {"inside": pytest.approx(4.0 / 100), "partial": pytest.approx(4.0 / 100)}
    assert "outside" not in got

    # two query envelopes: scores sum, coverage is the total area
    out2 = bbox_overlap_scores(
        boxes, [(0.0, 10.0, 0.0, 10.0), (7.0, 13.0, 7.0, 13.0)]
    ).to_pandas()
    got2 = dict(zip(out2["dataset_id"], out2["score"]))
    cov = 100.0 + 36.0
    assert got2["inside"] == pytest.approx(4.0 / cov)
    # partial intersects both: 2x2 with the first, 4x4 with the second
    assert got2["partial"] == pytest.approx((4.0 + 16.0) / cov)


def test_containment_join_path_matches_broadcast(ray_session):
    """broadcast_threshold=0 forces the hash-semi-join membership plan;
    scores must equal the broadcast searchsorted plan exactly."""
    from auctus_ray.pipelines.joinsearch import (
        CATALOG,
        QUERY_COL,
        QUERY_TABLE,
        _catalog_values,
        _distinct,
    )
    from auctus_ray.functions.joinsearch import exact_containment_scores

    sf = "/root/testdata/sf0.001"
    q = _distinct(sf, QUERY_TABLE, QUERY_COL)
    cat = [(t, c) for t, c in CATALOG if not (t == QUERY_TABLE and c == QUERY_COL)]
    bcast = exact_containment_scores(
        q, _catalog_values(sf), catalog=cat
    ).to_pandas()
    joined = exact_containment_scores(
        _distinct(sf, QUERY_TABLE, QUERY_COL), _catalog_values(sf),
        catalog=cat, broadcast_bytes=0,
    ).to_pandas()
    assert bcast.equals(joined)


def test_exact_containment_empty_query_zero_fills(ray_session, columns_ds):
    """Regression: an empty/all-null query column must return every
    known catalog candidate at containment 0.0 (the per-candidate
    path's historical shape), not an empty table."""
    import ray.data

    from auctus_ray.functions.joinsearch import exact_containment_scores

    _, cands = columns_ds
    allv = ray.data.from_arrow(
        pa.table(
            {
                "dataset_id": pa.array(["d"], pa.string()),
                "column_name": pa.array(["full"], pa.string()),
                "value": pa.array(["x"], pa.string()),
            }
        )
    )
    empty_q = ray.data.from_arrow(
        pa.table({"value": pa.array([], pa.string())})
    )
    out = exact_containment_scores(empty_q, allv, catalog=sorted(cands))
    assert out.num_rows == len(cands)
    assert set(out["containment"].to_pylist()) == {0.0}
