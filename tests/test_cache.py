"""Watermark cache eviction (reference cache_cleaner/cache.py:40-140)."""

import os
import time


def _mk_entry(root, name, size, age_s):
    p = os.path.join(root, name)
    if name.endswith(".cache") and size > 10_000:
        os.makedirs(p)
        with open(os.path.join(p, "data.bin"), "wb") as f:
            f.write(b"x" * size)
        target = p
    else:
        with open(p, "wb") as f:
            f.write(b"x" * size)
        target = p
    t = time.time() - age_s
    os.utime(target, (t, t))
    return p


def test_clear_caches_watermarks(tmp_path):
    from auctus_ray.state.cache import clear_caches, measure_cache_dir

    root = str(tmp_path)
    newest = _mk_entry(root, "a.cache", 40_000, age_s=10)
    mid = _mk_entry(root, "b.cache", 40_000, age_s=100)
    oldest = _mk_entry(root, "c.cache", 40_000, age_s=1000)
    temp = _mk_entry(root, "d.temp", 20_000, age_s=5)
    _mk_entry(root, "ignored.txt", 99_000, age_s=1)

    n, sz = measure_cache_dir(root)
    assert n == 4 and sz == 140_000  # .txt not counted

    # under the high watermark: no-op
    assert clear_caches([root], high_bytes=200_000) == []

    # over high: keep newest entries under low; .temp counts against the
    # budget but is never evicted
    deleted = clear_caches([root], high_bytes=120_000, low_bytes=70_000)
    assert set(deleted) == {mid, oldest}
    assert os.path.exists(newest) and os.path.exists(temp)

    # in-use protection wins over age
    n2 = _mk_entry(root, "n2.cache", 40_000, age_s=500)
    deleted = clear_caches(
        [root], high_bytes=50_000, low_bytes=10_000,
        should_keep=lambda p: p == n2,
    )
    assert n2 not in deleted and os.path.exists(n2)
    assert newest in deleted


def test_clear_caches_missing_dir(tmp_path):
    from auctus_ray.state.cache import clear_caches, measure_cache_dir

    missing = str(tmp_path / "nope")
    assert measure_cache_dir(missing) == (0, 0)
    assert clear_caches([missing], high_bytes=1) == []


def test_clear_caches_true_lru_with_oversized_newest(tmp_path):
    """Regression: the keep-scan skipped a newest entry bigger than
    low_bytes while retaining older small ones — the reference
    cache_cleaner deletes OLDEST until under the low mark, so the
    newest entry survives even when it alone exceeds low_bytes."""
    import os
    import time

    from auctus_ray.state.cache import clear_caches

    d = tmp_path / "cache"
    d.mkdir()

    def entry(name, size, age):
        p = d / f"{name}.cache"
        p.write_bytes(b"x" * size)
        t = time.time() - age
        os.utime(p, (t, t))
        return str(p)

    c = entry("old_c", 4000, 300)
    b = entry("old_b", 5000, 200)
    a = entry("new_a", 15000, 0)  # newest and biggest
    deleted = clear_caches([str(d)], high_bytes=20000, low_bytes=16000)
    # oldest deleted first until <= low: c (24k -> 20k), b (-> 15k);
    # the newest entry survives — the old greedy keep-scan would have
    # evicted it (15k > 16k budget after keeping b+c) while keeping
    # the stale ones
    assert set(deleted) == {c, b}
    assert os.path.exists(a)
