"""Augmentation operators: aggregating join (reference augmentation
`agg_functions`) and wide-to-long pivot (S5 ingest).

Both stream over Ray Datasets; the reference's pandas semantics are
documented on each function.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


AGG_NAMES = ("first", "mean", "sum", "max", "min", "count")


def aggregate_join(left_ds, right_ds, left_on: str, right_on: str,
                   agg_spec: dict[str, list[str] | str],
                   order_col: str | None = None, num_partitions: int = 32):
    """Left-cardinality-preserving join with USER-SPECIFIED per-column
    aggregation functions — the reference augmentation's `agg_functions`
    knob (lib_augmentation/augmentation.py:250-336: per column any of
    first/mean/sum/max/min/count, output renamed to "{agg} {col}").

    Semantics mirrored from the reference's pandas agg map
    (augmentation.py:234-257):
      * sum/mean/max/min skip nulls and are null for all-null groups
        (the reference's NaN-preserving `_sum`/np.mean);
      * count counts non-null values;
      * first is the value at the FIRST row of the group — the reference
        takes data order (`series.iloc[0]`); a distributed engine has no
        stable data order, so `order_col` defines it explicitly and MUST
        be unique within each key (e.g. a row id) or the winner is
        nondeterministic;
      * left rows with no right match keep nulls for every agg column.

    Shape: per-batch vectorized partial aggregation (pyarrow group_by)
    -> one small groupby(key) merge of partials -> hash-partitioned
    `Dataset.join` (left_outer) onto the left. Only partial rows (one
    per key per batch) shuffle — never the right table's raw rows.
    """
    import pyarrow.compute as pc

    from auctus_ray.util import join_partitions

    spec: dict[str, list[str]] = {
        c: [f] if isinstance(f, str) else list(f) for c, f in agg_spec.items()
    }
    for c, fs in spec.items():
        for f in fs:
            if f not in AGG_NAMES:
                raise ValueError(f"unknown aggregation {f!r} for column {c!r}")
    needs_first = any("first" in fs for fs in spec.values())
    if needs_first and order_col is None:
        raise ValueError("agg 'first' requires order_col")

    read_cols = [right_on] + sorted(spec)
    if needs_first and order_col not in read_cols:
        read_cols.append(order_col)

    def partial(batch: pa.Table) -> pa.Table:
        if needs_first:
            batch = batch.sort_by([(order_col, "ascending")])
        aggs, names = [], []
        for c, fs in spec.items():
            want = set(fs)
            if want & {"sum", "mean"}:
                aggs.append((c, "sum"))
                names.append(f"s__{c}")
            if want & {"count", "mean"}:
                aggs.append((c, "count"))
                names.append(f"c__{c}")
            if "min" in want:
                aggs.append((c, "min"))
                names.append(f"mn__{c}")
            if "max" in want:
                aggs.append((c, "max"))
                names.append(f"mx__{c}")
            if "first" in want:
                aggs.append((c, "first", pc.ScalarAggregateOptions(skip_nulls=False)))
                names.append(f"fv__{c}")
        if needs_first:
            aggs.append((order_col, "min"))
            names.append("fo__")
        # use_threads=False when first is requested: the threaded hash
        # aggregate documents NO stable scan order, which would break
        # the sorted-batch "first" pairing (order_col min <-> value)
        g = batch.select(read_cols).group_by(
            right_on, use_threads=not needs_first
        ).aggregate(aggs)
        # aggregate outputs come back in request order (named
        # "{col}_{agg}"); map them positionally onto our partial names
        data = {right_on: g[right_on]}
        out_cols = [n for n in g.column_names if n != right_on]
        for out_name, src in zip(names, out_cols):
            data[out_name] = g[src]
        return pa.table(data)

    partials = right_ds.map_batches(partial, batch_format="pyarrow")

    # merge of partials: ONE Ray aggregate — sum/count/min/max via the
    # built-in mergeable aggregates, `first` via a custom arg-min
    # AggregateFn over the (local first-order, local first-value)
    # partial pair (vectorized np.argmin per block; no extra join,
    # no per-group Python)
    from ray.data.aggregate import AggregateFn
    from ray.data.aggregate import Max as RMax
    from ray.data.aggregate import Min as RMin
    from ray.data.aggregate import Sum as RSum

    def argmin_agg(order_name: str, value_name: str, out_name: str) -> AggregateFn:
        def acc_block(a, block: pa.Table):
            valid = block.filter(pc.is_valid(block[order_name]))
            if valid.num_rows == 0:
                return a
            fo = valid[order_name].to_numpy(zero_copy_only=False)
            i = int(np.argmin(fo))
            cand = (int(fo[i]), valid[value_name][i].as_py())
            return cand if a[0] is None or cand[0] < a[0] else a

        def merge(a, b):
            if a[0] is None:
                return b
            if b[0] is None:
                return a
            return a if a[0] <= b[0] else b

        return AggregateFn(
            init=lambda k: (None, None),
            merge=merge,
            name=out_name,
            accumulate_block=acc_block,
            finalize=lambda a: a[1],
        )

    raggs = []
    for c, fs in spec.items():
        want = set(fs)
        if want & {"sum", "mean"}:
            raggs.append(RSum(f"s__{c}", alias_name=f"s__{c}"))
        if want & {"count", "mean"}:
            raggs.append(RSum(f"c__{c}", alias_name=f"c__{c}"))
        if "min" in want:
            raggs.append(RMin(f"mn__{c}", alias_name=f"mn__{c}"))
        if "max" in want:
            raggs.append(RMax(f"mx__{c}", alias_name=f"mx__{c}"))
        if "first" in want:
            raggs.append(argmin_agg("fo__", f"fv__{c}", f"fv__{c}"))
    merged = partials.groupby(right_on).aggregate(*raggs)

    nparts = join_partitions(num_partitions)

    rschema = right_ds.schema()
    rtypes = {n: t for n, t in zip(rschema.names, rschema.types)}

    def finalize(t: pa.Table) -> pa.Table:
        def typed(col, want):
            # all-null agg outputs infer Arrow `null`, which Acero (the
            # join kernel) rejects as a non-key field — pin the dtype
            return pc.cast(col, want) if col.type != want else col

        def null_typed(col, fallback):
            # pin only when inference degenerated to `null` (keeps the
            # aggregate's widened sum type on the normal path)
            return pc.cast(col, fallback) if pa.types.is_null(col.type) else col

        data = {right_on: t[right_on]}
        for c, fs in spec.items():
            for f in fs:
                name = f"{f} {c}"
                if f == "sum":
                    data[name] = null_typed(t[f"s__{c}"], rtypes[c])
                elif f == "count":
                    data[name] = typed(t[f"c__{c}"], pa.int64())
                elif f == "mean":
                    data[name] = pc.divide(
                        pc.cast(t[f"s__{c}"], pa.float64()),
                        pc.cast(t[f"c__{c}"], pa.float64()),
                    )
                elif f == "min":
                    data[name] = typed(t[f"mn__{c}"], rtypes[c])
                elif f == "max":
                    data[name] = typed(t[f"mx__{c}"], rtypes[c])
                elif f == "first":
                    data[name] = typed(t[f"fv__{c}"], rtypes[c])
        return pa.table(data)

    merged = merged.map_batches(finalize, batch_format="pyarrow")
    from auctus_ray.util import drop_schema_metadata

    # metadata-free schemas keep Ray's join-stage schema hashing happy
    return drop_schema_metadata(left_ds).join(
        merged,
        "left_outer",
        num_partitions=nparts,
        on=(left_on,),
        right_on=(right_on,),
    )


def pivot_wide_to_long(ds, carried_cols: list[str], value_cols: list[str],
                       var_name: str = "date", value_name: str = "value",
                       value_cast: str = "float"):
    """S5 wide->long unpivot (reference pivot converter,
    lib_materialize/datamart_materialize/pivot.py:9-40: tables whose
    columns are dates/years become (carried..., date, value) rows).
    A flat_map-shaped map_batches: each input row emits one row per
    value column. value_cast: "float" (numeric tables) or "string"
    (mixed/dirty cells carried through untouched, like the reference's
    CSV rewriter)."""
    import pyarrow as pa

    def unpivot(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        k = len(value_cols)
        cols = {}
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        for c in carried_cols:
            col = batch[c].combine_chunks() if isinstance(batch[c], pa.ChunkedArray) else batch[c]
            # repeat each carried value k times (row-major explode)
            cols[c] = col.take(idx)
        cols[var_name] = pa.array(value_cols * n, pa.string())
        if value_cast == "string":
            import pyarrow.compute as pc

            casted = [pc.cast(batch[vc], pa.string()) for vc in value_cols]
            stacked = np.empty(n * k, dtype=object)
            for j, v in enumerate(casted):
                stacked[j::k] = v.to_pylist()
            cols[value_name] = pa.array(stacked, pa.string())
        else:
            casted = [batch[vc].cast(pa.float64()) for vc in value_cols]
            stacked = np.empty(n * k, dtype=np.float64)
            null_mask = np.zeros(n * k, dtype=bool)
            for j, v in enumerate(casted):
                stacked[j::k] = v.to_numpy(zero_copy_only=False)
                # missing cells stay NULL in the long output (to_numpy
                # silently turns them into NaN floats, which downstream
                # is_null filters would miss); the string path already
                # preserves them
                null_mask[j::k] = v.is_null().to_numpy(zero_copy_only=False)
            cols[value_name] = pa.array(stacked, mask=null_mask)
        return pa.table(cols)

    return ds.map_batches(unpivot, batch_format="pyarrow")
