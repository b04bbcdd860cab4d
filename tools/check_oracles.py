"""Driver-mimic: run every queries() entry and compare against its
oracle_sql() via DuckDB (row count + schema-ordered value comparison).

Usage: python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import sys
import os
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df):
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb
    import ray

    if not ray.is_initialized():
        # as many logical CPUs as the host gives this process: with more
        # (e.g. 8 on a 1-CPU host) near_dup_ngram_exact stalls
        ray.init(
            address="local", num_cpus=len(os.sched_getaffinity(0)),
            include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs, sqls = e.queries(), e.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        # a misspelled name must not silently verify nothing and print
        # "FAILURES: none"
        print(f"FAIL  unknown query name(s): {sorted(unknown)}")
        print(f"FAILURES: {sorted(unknown)}")
        return 2
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"rows  {name}: {len(got)} rows ({dt:.1f}s) [rows-only]")
            continue
        try:
            expect = canon(con.sql(sqls[name]).df())
        except Exception as ex:
            print(f"FAIL  {name}: oracle SQL raised {ex}")
            failures.append(name)
            continue
        ok_rows = len(got) == len(expect)
        ok_cols = list(got.columns) == list(expect.columns)
        ok_vals = ok_rows and ok_cols and got.equals(expect)
        if not ok_vals and ok_rows and ok_cols:
            # detailed diff (dtype-only mismatches would otherwise FAIL
            # with no printed difference — equals() is dtype-strict)
            for c in got.columns:
                if got[c].dtype != expect[c].dtype:
                    print(
                        f"      col {c}: dtype got={got[c].dtype} "
                        f"expect={expect[c].dtype}"
                    )
            import numpy as np

            for c in got.columns:
                a, b = got[c].values, expect[c].values
                if got[c].dtype.kind == "f":
                    neq = ~np.isclose(a.astype(float), b.astype(float), rtol=0, atol=0, equal_nan=True)
                else:
                    neq = a != b
                if neq.any():
                    i = int(np.flatnonzero(neq)[0])
                    print(f"      col {c}: first diff row {i}: got={a[i]!r} expect={b[i]!r} (n={neq.sum()})")
        status = "ok   " if ok_vals else "FAIL "
        print(f"{status} {name}: rows {len(got)}/{len(expect)} cols_ok={ok_cols} vals_ok={ok_vals} ({dt:.1f}s)")
        if not ok_vals:
            if not ok_cols:
                print(f"      got cols    {list(got.columns)}")
                print(f"      expect cols {list(expect.columns)}")
            failures.append(name)
    print("FAILURES:", failures if failures else "none")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
