"""Aggregation stages with the partial/final (combiner) pattern.

The reference's own Parquet analytics path already demonstrates
partial-then-final aggregation (per-file group_by count, vstack, re-group sum
— /root/reference/src/polars_analysis.rs:222-284).  Here the partial happens
*inside* ``map_batches`` via Arrow's in-batch hash groupby, so the final
combine only ever sees one row per (key, block) — this is also the
salted-key answer to hot-key skew: a hot key contributes at most
``num_blocks`` partial rows regardless of its row count.

Every grouped aggregate finishes in ``_grouped_fold``, which picks its final
combine from the size of the materialized partials: within
``Config.broadcast_max_bytes`` they are combined on the driver (the
reference's vstack + re-group), beyond it they are hash-repartitioned on the
keys and folded per block.  Callers never choose.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_NULL_SENTINEL = "\x00__null__"


def _fill(batch: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        if batch.schema.field(c).type == pa.string():
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(i, c, pc.fill_null(batch[c], _NULL_SENTINEL))
    return batch


def _restore(batch: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        if batch.schema.field(c).type == pa.string():
            arr = batch[c]
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, pc.if_else(pc.equal(arr, _NULL_SENTINEL),
                                 pa.nulls(len(batch), pa.string()), arr))
    return batch


def grouped_count(ds: rd.Dataset, keys: list[str],
                  alias: str = "cnt") -> rd.Dataset:
    """groupby(keys).count() with per-batch partial counts (combiner first).

    Null key values group together (matching SQL GROUP BY), via sentinel fill.
    """
    def partial(b: pa.Table) -> pa.Table:
        b = _fill(b.select(keys), keys)
        g = b.group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + [alias])

    return _grouped_fold(ds, keys, partial, [(alias, "sum")])


def grouped_sum(ds: rd.Dataset, keys: list[str], value_col: str,
                alias: str = "sum") -> rd.Dataset:
    """groupby(keys).sum(value_col) with the same partial/final combiner
    plan as ``grouped_count`` — the in-batch Arrow partial means the final
    combine sees one row per (key, block)."""
    def partial(b: pa.Table) -> pa.Table:
        b = _fill(b.select(keys + [value_col]), keys)
        g = b.group_by(keys).aggregate([(value_col, "sum")])
        return g.rename_columns(keys + [alias])

    return _grouped_fold(ds, keys, partial, [(alias, "sum")])


def _grouped_fold(ds: rd.Dataset, keys: list[str], partial,
                  aggs: list[tuple[str, str]]) -> rd.Dataset:
    """The one final combine under every grouped aggregate here.

    ``partial`` maps a batch to keys + the partial columns named in
    ``aggs``; each (column, combine) pair folds that column per key with an
    associative+commutative Arrow hash aggregate ("sum", "min", "max"), so
    the partial/final split is exact.  The partials are materialized, and
    their size picks the final: within ``Config.broadcast_max_bytes`` the
    driver concatenates and re-groups them (the reference's A2 final step,
    src/polars_analysis.rs:222-241 — no exchange for a 26-row result);
    beyond it they are hash-repartitioned on ``keys`` and each block is
    folded on its own.  Output: keys + the ``aggs`` columns, null keys
    restored."""
    import ray

    from ..config import get_config
    names = [c for c, _ in aggs]

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate(aggs)
        return _restore(g.rename_columns(keys + names), keys)

    pre = ds.map_batches(partial, batch_format="pyarrow",
                         batch_size=None).materialize()
    if pre.size_bytes() > get_config().broadcast_max_bytes:
        from .dedup import _num_partitions, _use_hash_shuffle
        return _use_hash_shuffle(pre).repartition(
            num_blocks=_num_partitions(ds), keys=keys) \
            .map_batches(final, batch_format="pyarrow", batch_size=None)
    # empty blocks arrive as ZERO-COLUMN tables (parallelism-dependent) —
    # or, downstream of a pandas-block stage, as raw zero-row pandas frames
    # that to_arrow_refs passes through unconverted — drop both before concat
    import pandas as _pd
    blocks = []
    for t in ray.get(list(pre.to_arrow_refs())):
        if isinstance(t, _pd.DataFrame):
            if not len(t):
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows > 0:
            blocks.append(t)
    if not blocks:
        # no partial rows: run ``partial`` on an empty batch of the input's
        # schema so keys and values keep their types
        base = getattr(ds.schema(), "base_schema", None)
        blocks = [partial(base.empty_table()) if isinstance(base, pa.Schema)
                  else pa.table({**{k: pa.array([], pa.string())
                                    for k in keys},
                                 **{n: pa.array([], pa.int64())
                                    for n in names}})]
    return rd.from_arrow(final(pa.concat_tables(
        blocks, promote_options="permissive")))


def grouped_min(ds: rd.Dataset, keys: list[str], value_col: str,
                alias: str = "min") -> rd.Dataset:
    """groupby(keys).min(value_col) with the same partial/final combiner
    plan as ``grouped_count`` — min is associative+commutative so the
    in-batch partial is exact, and the final combine sees one row per
    (key, block)."""
    def partial(b: pa.Table) -> pa.Table:
        b = _fill(b.select(keys + [value_col]), keys)
        g = b.group_by(keys).aggregate([(value_col, "min")])
        return g.rename_columns(keys + [alias])

    return _grouped_fold(ds, keys, partial, [(alias, "min")])


def grouped_max(ds: rd.Dataset, keys: list[str], value_col: str,
                alias: str = "max") -> rd.Dataset:
    """groupby(keys).max(value_col) — ``grouped_min``'s mirror (max is
    associative+commutative, partial/final split exact)."""
    def partial(b: pa.Table) -> pa.Table:
        b = _fill(b.select(keys + [value_col]), keys)
        g = b.group_by(keys).aggregate([(value_col, "max")])
        return g.rename_columns(keys + [alias])

    return _grouped_fold(ds, keys, partial, [(alias, "max")])


def top_k(ds: rd.Dataset, sort_col: str, keys_asc: list[str], k: int) -> rd.Dataset:
    """O2/O3: sort desc on ``sort_col`` with deterministic ascending
    tie-breaks, take k (reference sort+take(10),
    /root/reference/src/parse_opts.rs:228-229)."""
    cols = [sort_col] + keys_asc
    desc = [True] + [False] * len(keys_asc)
    return ds.sort(cols, descending=desc).limit(k)


def grouped_top_k(ds: rd.Dataset, group_cols: list[str], order_col: str,
                  k: int, descending: bool = True,
                  tie_cols: list[str] | None = None) -> rd.Dataset:
    """Per-GROUP top-k (SQL ``row_number() OVER (PARTITION BY group ORDER
    BY order_col) <= k``), distributed as partial/final:

    1. per-block partial: each block keeps at most k rows per group — a
       correct combiner, since a row in the global per-group top-k is
       necessarily in its own block's per-group top-k;
    2. one hash exchange on ``group_cols`` co-locates each group's
       survivors (≤ k × n_blocks rows per group, usually ≪ the group);
    3. the same kernel per partition yields the exact answer.

    The kernel is one Arrow multi-column sort + a vectorized numpy
    rank-within-group (boundary cumsum over the sorted order) — no
    per-group Python.  Ties are broken ascending on ``tie_cols`` so the
    result is deterministic and oracle-checkable against ROW_NUMBER.
    Null group keys form their own group (SQL GROUP BY parity) via the
    sentinel fill; null order values sort last.
    """
    import numpy as np

    tie_cols = tie_cols or []
    sort_keys = [(c, "ascending") for c in group_cols] \
        + [(order_col, "descending" if descending else "ascending")] \
        + [(c, "ascending") for c in tie_cols]

    def head_per_group(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        t = _fill(t, group_cols)
        t = t.take(pc.sort_indices(
            t, sort_keys=sort_keys, null_placement="at_end"))
        n = t.num_rows
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for c in group_cols:
            col = t[c].combine_chunks()
            a, b = col.slice(1), col.slice(0, n - 1)
            # null-safe equality: null==null is SAME group (SQL GROUP BY)
            same = pc.or_(pc.fill_null(pc.equal(a, b), False),
                          pc.and_(pc.is_null(a), pc.is_null(b)))
            change[1:] |= ~np.asarray(same)
        gid = np.cumsum(change) - 1
        starts = np.flatnonzero(change)
        rank = np.arange(n) - starts[gid]
        return _restore(t.filter(pa.array(rank < k)), group_cols)

    from .dedup import _num_partitions, _use_hash_shuffle
    pre = ds.map_batches(head_per_group, batch_format="pyarrow",
                         batch_size=None)
    return _use_hash_shuffle(pre).repartition(
        num_blocks=_num_partitions(ds), keys=group_cols) \
        .map_batches(head_per_group, batch_format="pyarrow",
                     batch_size=None)


def add_year_month(batch: pa.Table) -> pa.Table:
    """A3: derive partition columns from the fact timestamp
    (/root/reference/src/polars_analysis.rs:83-93)."""
    return (batch
            .append_column("year", pc.cast(pc.year(batch["datetime"]), pa.int32()))
            .append_column("month", pc.cast(pc.month(batch["datetime"]), pa.int32())))


def grouped_count_rollup(ds: rd.Dataset, keys: list[str], alias: str = "cnt",
                         grp_col: str = "grp_id") -> rd.Dataset:
    """GROUP BY ROLLUP(keys) counts — every trailing-prefix grouping level
    in ONE pass / one final combine (the reference reports per-(service,server)
    AND per-service totals as separate queries; a 100-TB corpus can't
    afford a scan per level).  Per batch: one in-batch full-key count,
    then each coarser level folds from that already-tiny partial (never
    re-touching the batch rows); all levels union into the same final
    combine, keyed by (keys..., ``grp_col``).  ``grp_col`` follows SQL
    ``GROUPING(keys...)`` bit semantics (trailing-roll levels: 0, 1, 3,
    ...), so rolled cells (emitted NULL) can never collide with genuine
    null key values at a different level.  String keys only (the sentinel
    trick needs a string domain).  Empty input -> 0 rows (note: SQL ROLLUP
    emits a grand-total row even for empty input; callers on possibly
    empty corpora must add it — the queries here run on never-empty
    sinks)."""
    for k in keys:
        f = ds.schema().base_schema.field(k)
        assert f.type in (pa.string(), pa.large_string()), (k, f.type)
    full = keys + [grp_col]

    def partial(b: pa.Table) -> pa.Table:
        base = _fill(b.select(keys), keys)
        g = base.group_by(keys).aggregate([([], "count_all")]) \
            .rename_columns(keys + ["n"])
        outs = []
        for level in range(len(keys) + 1):
            kept = keys[:len(keys) - level]
            if kept:
                gl = g.group_by(kept).aggregate([("n", "sum")]) \
                    .rename_columns(kept + ["n"])
            elif g.num_rows:
                gl = pa.table({"n": pa.array(
                    [pc.sum(g["n"]).as_py()], pa.int64())})
            else:
                continue
            cols = {k: gl[k] for k in kept}
            for k in keys[len(kept):]:
                cols[k] = pa.array([_NULL_SENTINEL] * gl.num_rows,
                                   pa.string())
            cols[grp_col] = pa.array([(1 << level) - 1] * gl.num_rows,
                                     pa.int64())
            cols[alias] = pc.cast(gl["n"], pa.int64())
            outs.append(pa.table(cols))
        live = [t for t in outs if t.num_rows]
        if not live:
            return pa.table(
                {**{k: pa.array([], pa.string()) for k in keys},
                 grp_col: pa.array([], pa.int64()),
                 alias: pa.array([], pa.int64())})
        return pa.concat_tables(live)

    return _grouped_fold(ds, full, partial, [(alias, "sum")])


def grouped_count_cube(ds: rd.Dataset, keys: list[str], alias: str = "cnt",
                       grp_col: str = "grp_id") -> rd.Dataset:
    """GROUP BY CUBE(keys) counts — ALL 2^k grouping sets in one pass /
    one final combine (ROLLUP's trailing-prefix levels generalized to every
    subset; the dashboard shape "totals by service, by server, by pair,
    and overall" without four scans).  Per batch: one in-batch full-key
    count, then each of the 2^k subsets folds from that already-tiny
    partial.  ``grp_col`` follows SQL ``GROUPING(keys...)`` bit semantics
    (bit for keys[i] = 1 << (k-1-i) when keys[i] is rolled up), so rolled
    NULL cells can't collide with genuine null key values in a different
    grouping set.  String keys only; same empty-input caveat as
    ``grouped_count_rollup``."""
    for k in keys:
        f = ds.schema().base_schema.field(k)
        assert f.type in (pa.string(), pa.large_string()), (k, f.type)
    nk = len(keys)
    full = keys + [grp_col]

    def partial(b: pa.Table) -> pa.Table:
        base = _fill(b.select(keys), keys)
        g = base.group_by(keys).aggregate([([], "count_all")]) \
            .rename_columns(keys + ["n"])
        outs = []
        for mask in range(1 << nk):
            kept = [keys[i] for i in range(nk)
                    if not (mask & (1 << (nk - 1 - i)))]
            if kept:
                gl = g.group_by(kept).aggregate([("n", "sum")]) \
                    .rename_columns(kept + ["n"])
            elif g.num_rows:
                gl = pa.table({"n": pa.array(
                    [pc.sum(g["n"]).as_py()], pa.int64())})
            else:
                continue
            cols = {k: gl[k] for k in kept}
            for k in keys:
                if k not in kept:
                    cols[k] = pa.array([_NULL_SENTINEL] * gl.num_rows,
                                       pa.string())
            cols[grp_col] = pa.array([mask] * gl.num_rows, pa.int64())
            cols[alias] = pc.cast(gl["n"], pa.int64())
            outs.append(pa.table(cols).select(full + [alias]))
        live = [t for t in outs if t.num_rows]
        if not live:
            return pa.table(
                {**{k: pa.array([], pa.string()) for k in keys},
                 grp_col: pa.array([], pa.int64()),
                 alias: pa.array([], pa.int64())})
        return pa.concat_tables(live)

    return _grouped_fold(ds, full, partial, [(alias, "sum")])


def pivot_counts(ds: rd.Dataset, key: str, col: str,
                 values: list[str], alias_fmt: str = "{v}") -> rd.Dataset:
    """Crosstab: one row per ``key``, one int64 count column per value of
    ``col`` (``values`` must enumerate them — a pivot's output schema is
    fixed up front; unseen values produce all-zero columns, values outside
    the list are NOT counted).  Same combiner discipline as
    ``grouped_count``: the per-batch hash count collapses the batch to one
    row per (key, col) BEFORE the local pivot, so the final combine sees
    at most len(values) ints per (key, block).  SQL equivalent:
    ``count(*) FILTER (WHERE col = v) AS v`` per value."""
    names = [alias_fmt.format(v=v) for v in values]

    def partial(b: pa.Table) -> pa.Table:
        base = _fill(b.select([key, col]), [key])
        g = base.group_by([key, col]).aggregate([([], "count_all")]) \
            .rename_columns([key, col, "n"])
        n = pc.cast(g["n"], pa.int64())
        wide = pa.table(
            {key: g[key],
             **{name: pc.if_else(pc.equal(g[col], v), n, pa.scalar(0))
                for name, v in zip(names, values)}})
        out = wide.group_by([key]).aggregate([(nm, "sum") for nm in names])
        return out.rename_columns([key] + names)

    out = _grouped_fold(ds, [key], partial, [(nm, "sum") for nm in names])

    def finish(b: pa.Table) -> pa.Table:
        # a key whose rows all have a null ``col`` sums to null: count 0
        return pa.table({key: b[key], **{nm: pc.fill_null(b[nm], 0)
                                         for nm in names}})
    return out.map_batches(finish, batch_format="pyarrow", batch_size=None)


def grouped_stats(ds: rd.Dataset, keys: list[str], value_col: str,
                  round_to: int = 6) -> rd.Dataset:
    """Per-group (n, mean, std, min, max) in ONE pass via the classic
    mergeable-moments fold: each batch emits (n, Σv, Σv², min, max) per
    key, the final combine sums/extremizes them, and mean/sample-std
    derive at the end (std = sqrt((Σv² − (Σv)²/n)/(n−1)), null for n<2 —
    SQL stddev_samp semantics).  Exactly the reference's A6 EmailStats
    fold generalized to grouped form (src/ses_client.rs:68-109 folds one
    global row).  mean/std round half-away-from-zero to ``round_to`` (the
    oracle restates std from the same Σ/Σ² formula, so both sides round
    the same quantity); min/max are exact."""
    import numpy as np
    from ..functions.util import round_half_up

    def partial(b: pa.Table) -> pa.Table:
        b = _fill(b.select(keys + [value_col]), keys)
        v2 = pc.multiply(b[value_col], b[value_col])
        b = b.append_column("_v2", v2)
        g = b.group_by(keys).aggregate([
            (value_col, "count"), (value_col, "sum"), ("_v2", "sum"),
            (value_col, "min"), (value_col, "max")])
        return g.rename_columns(keys + ["_n", "_s", "_ss", "_min", "_max"])

    out = _grouped_fold(ds, keys, partial, [
        ("_n", "sum"), ("_s", "sum"), ("_ss", "sum"), ("_min", "min"),
        ("_max", "max")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["_n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = b["_s"].to_numpy(zero_copy_only=False)
        ss = b["_ss"].to_numpy(zero_copy_only=False)
        mean = s / n
        with np.errstate(invalid="ignore"):
            var = np.where(n > 1, (ss - s * s / n) / (n - 1), np.nan)
            std = np.sqrt(np.maximum(var, 0.0))
        t = pa.table({
            **{k: b[k] for k in keys},
            "n": pa.array(n.astype(np.int64)),
            "mean": pa.array(round_half_up(mean, round_to)),
            "std": pa.array(np.where(np.isnan(std), np.nan,
                                     round_half_up(std, round_to))),
            "min_v": b["_min"], "max_v": b["_max"],
        })
        if t.num_rows:
            mask = pa.array(~np.isnan(std))
            i = t.schema.get_field_index("std")
            t = t.set_column(i, "std", pc.if_else(
                mask, t["std"], pa.nulls(t.num_rows, pa.float64())))
        return t

    return out.map_batches(finish, batch_format="pyarrow", batch_size=None)
