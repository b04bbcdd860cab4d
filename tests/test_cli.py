"""CLI end-to-end smoke: the command surface had no coverage while its
ray-init plumbing was refactored through _ray_up — each command runs in
a real subprocess (its own Ray session, its own shutdown path)."""

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.run(
        [sys.executable, "-m", "auctus_ray.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_cli_end_to_end(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy("/root/testdata/sf0.001/region.parquet", src)
    shutil.copy("/root/testdata/sf0.001/nation.parquet", src)

    # sniff (non-Ray path: exercises the guarded finally block too)
    r = _run(["ingest", str(src / "region.parquet")], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout.splitlines()[-1])["format"] == "parquet"

    # discover -> profile -> persistent sketch catalog
    r = _run(
        ["discover", "--root", str(src), "--catalog", "cat", "--no-sample"],
        str(tmp_path),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert "profiled 2" in r.stdout

    # catalog join search over the persisted sketches
    r = _run(
        ["catalog-joinsearch", "--catalog", "cat",
         "--input", str(src / "nation.parquet"), "--column", "n_name",
         "-k", "5"],
        str(tmp_path),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    hits = json.loads(r.stdout.splitlines()[-1])
    assert hits[0]["dataset_id"] == "localdir.nation"
    assert hits[0]["containment"] == 1.0

    # combined augmentation search
    r = _run(
        ["catalog-augsearch", "--catalog", "cat",
         "--input", str(src / "nation.parquet"), "-k", "4"],
        str(tmp_path),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rows = json.loads(r.stdout.splitlines()[-1])
    assert {x["aug_type"] for x in rows} == {"join", "union"}

    # profile document JSON
    r = _run(
        ["profile-doc", "--input", str(src / "region.parquet"),
         "--no-sample"],
        str(tmp_path),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout)
    assert doc["nb_rows"] == 5

    # gen -> build -> query, locally and through 2 shard actors
    r = _run(["gen", "--out", "corpus", "--rows", "400",
              "--mean-tokens", "40"], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    r = _run(["build", "--input", "corpus", "--index", "idx",
              "--shards", "4"], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    query = ["--query", "the license", "--operator", "or"]

    def hits(args):
        r = _run(args, str(tmp_path))
        assert r.returncode == 0, r.stderr[-2000:]
        out = json.loads(r.stdout.splitlines()[-1])["hits"]
        assert out and all(h["path"] is not None for h in out)
        return out

    mono = hits(["query", "--index", "idx", *query])
    assert hits(["query", "--index", "idx", *query, "--distributed", "2"]) == mono
    # a wildcard expands against the querying process's own searcher,
    # and the expanded terms score through the actors
    wild = ["query", "--index", "idx", "--query", "lic*"]
    assert hits([*wild, "--distributed", "2"]) == hits(wild)

    # two segments over the same corpus, searched locally and through 2
    # actors: identical hits, and the same scores as the monolithic build
    for part in ("corpus/corpus-00000[01]*.parquet",
                 "corpus/corpus-00000[23]*.parquet"):
        r = _run(["seg", "add", "--root", "segs", "--input", part,
                  "--shards", "4"], str(tmp_path))
        assert r.returncode == 0, r.stderr[-2000:]
    seg = hits(["seg", "search", "--root", "segs", *query])
    assert seg[0]["score"] > 0
    assert hits(["seg", "search", "--root", "segs", *query,
                 "--distributed", "2"]) == seg
    assert hits(["query", "--index", "segs", *query]) == seg
    assert [h["score"] for h in seg] == [h["score"] for h in mono]

    # the segment root is self-contained: with the corpus moved away, a
    # delete and a compaction leave every earlier hit but the deleted
    # one, scored like a fresh segment over the surviving rows (the
    # purge changes n_docs and avgdl, so the scores move)
    every = ["seg", "search", "--root", "segs", *query, "-k", "400"]
    before = hits(every)
    gone = before[0]["path"]
    shutil.move(tmp_path / "corpus", tmp_path / "corpus-moved")
    r = _run(["seg", "delete", "--root", "segs", "--values", gone], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    deleted = json.loads(r.stdout.splitlines()[-1])
    r = _run(["seg", "compact", "--root", "segs", "--shards", "4"], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    after = hits(every)
    assert sorted(h["path"] for h in after) == sorted(
        h["path"] for h in before if h["path"] != gone
    )
    rows = pa.concat_tables(
        [pq.read_table(p) for p in sorted((tmp_path / "corpus-moved").iterdir())]
    )
    pq.write_table(
        rows.filter(pc.not_equal(rows["path"], gone)), tmp_path / "survivors.parquet"
    )
    r = _run(["seg", "add", "--root", "fresh", "--input", "survivors.parquet",
              "--shards", "4"], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    assert hits(["seg", "search", "--root", "fresh", *query, "-k", "400"]) == after

    # the delete reported every row of the path; a new commit of them
    # added afterwards is an update by key: searchable, untouched by it
    old = rows.filter(pc.equal(rows["path"], gone))
    assert deleted == {"deleted": old.num_rows} and old.num_rows >= 1
    pq.write_table(
        old.set_column(old.schema.get_field_index("commit"), "commit",
                       pa.array(["v2"] * old.num_rows)),
        tmp_path / "update.parquet",
    )
    r = _run(["seg", "add", "--root", "segs", "--input", "update.parquet",
              "--shards", "4"], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    assert [h["commit"] for h in hits(every) if h["path"] == gone] == ["v2"] * old.num_rows

    # a hit that cannot be hydrated is an error, not a rank-only row
    shutil.rmtree(tmp_path / "idx" / "docmap")
    r = _run(["query", "--index", "idx", *query], str(tmp_path))
    assert r.returncode != 0


def test_cli_stats_bytes_per_index_part(built_index, tmp_path):
    """`cli stats` reports the bytes of each index part, the build's
    tokenized/ shuffle files among them, the docmap's Parquet files
    apart from its stored-fields files, the term dictionary's term and
    block counts, as the files on disk give them, and the postings
    blocks' bits per posting. Its shard figures, from the term
    dictionary's rows, equal the build's per-bucket encode records."""
    from auctus_ray.index.codec import TermDictionary
    from auctus_ray.state.manifest import Manifest

    idx = built_index.index_dir
    r = _run(["stats", "--index", idx], str(tmp_path))
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.splitlines()[-1])

    def size(root, keep=lambda name: True):
        return sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(os.path.join(idx, root)) for f in files if keep(f)
        )

    assert out["bytes"] == {
        "postings": size("postings", lambda f: f.startswith("shard=") and f.endswith(".bin")),
        "dictionary": os.path.getsize(os.path.join(idx, "postings", "terms.bin")),
        "docmap": size("docmap", lambda f: f.endswith(".parquet")),
        "stored": size("docmap", lambda f: f.endswith(".stored")),
        "tokenized": size("tokenized"),
    }
    assert all(v > 0 for v in out["bytes"].values())
    assert out["bytes"]["docmap"] + out["bytes"]["stored"] == size("docmap")
    d = TermDictionary(os.path.join(idx, "postings", "terms.bin"))
    assert out["dictionary"] == {"n_terms": d.n_terms, "n_blocks": d.n_blocks}
    assert d.n_terms == out["global"]["n_terms"] > 0
    shards = out["shards"]
    assert shards["bits_per_posting"] == round(
        8 * shards["bytes_total"] / shards["postings_total"], 4
    )
    assert 0 < shards["bits_per_posting"] < 64
    recs = [r["metrics"] for r in Manifest(idx).records()
            if r["stage"] == "encode" and r["partition"].startswith("bucket=")]
    posts = [m["n_postings"] for m in recs]
    assert shards == {
        "n": len(recs),
        "postings_total": sum(posts),
        "skew_max_over_mean": round(max(posts) / (sum(posts) / len(posts)), 4),
        "bytes_total": sum(m["bytes"] for m in recs),
        "bits_per_posting": shards["bits_per_posting"],
    }
