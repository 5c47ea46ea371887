"""Exact dedup (reference §2.8 D1-D6) and the one keyed fold under every
keyed exchange of the stage modules.

Keep-first semantics, made deterministic for a distributed shuffle (SURVEY
§7.4): within a natural-key group the kept row is the minimum under
``(ts, conv_id, turn_idx)`` — the distributed re-statement of the
reference's "sort by datetime, dedup adjacent, keep first"
(/root/reference/src/parse_logs.rs:198-201) and of its SQL self-join delete
that keeps the smallest id (/root/reference/src/host_country_metadata.rs:179-209).

NULL-key handling: the reference needed a second SQL query because
``username = NULL`` never matches in SQL (host_country_metadata.rs:192-203);
here nulls are filled with a sentinel before the groupby so null == null
(matching the reference's *intent*), then restored.

Scale note: ``keyed_fold`` runs a vectorized per-block combiner, then
finishes by the size of its materialized partials — on the driver (the
reference's vstack + re-group, src/polars_analysis.rs:222-241) while they
fit ``Config.broadcast_max_bytes``, else through one hash-partition
exchange on the key columns with the same vectorized kernel per block.  No
per-group Python.  A skewed key maps to one (service,server,hour,host,user)
bucket, bounded by construction; a pathological single hot key would be
salted into (key, hash(order) % S) sub-buckets with a second tiny pass.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

NATURAL_KEY = ["service", "server", "datetime", "host", "username"]
ORDER_COLS = ["ts", "conv_id", "turn_idx"]
_NULL_SENTINEL = "\x00__null__"


def _fill_sentinel(batch: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        t = batch.schema.field(c).type
        if pa.types.is_null(t):  # all-null column (e.g. from pandas None)
            batch = batch.set_column(
                batch.schema.get_field_index(c), c,
                batch[c].cast(pa.string()))
            t = pa.string()
        if t == pa.string():
            batch = batch.set_column(
                batch.schema.get_field_index(c), c,
                pc.fill_null(batch[c], _NULL_SENTINEL),
            )
    return batch


def _restore_sentinel(batch: pa.Table, cols: list[str]) -> pa.Table:
    for c in cols:
        if batch.schema.field(c).type == pa.string():
            arr = batch[c]
            mask = pc.equal(arr, _NULL_SENTINEL)
            batch = batch.set_column(
                batch.schema.get_field_index(c), c,
                pc.if_else(mask, pa.nulls(len(batch), pa.string()), arr),
            )
    return batch


def _use_hash_shuffle(ds: rd.Dataset, nparts: int | None = None) -> rd.Dataset:
    """Key-based repartition requires HASH_SHUFFLE; each Dataset chain
    carries its own DataContext snapshot (`ds.context`), so setting it here
    scopes the strategy to THIS plan, not to other plans in the process.

    Also caps ``default_hash_shuffle_parallelism`` to the data-sized
    partition count: Ray's default is 200 hash-aggregate partitions, whose
    actor pool starves small CPU budgets (observed deadlock at 4 CPUs when a
    downstream groupby inherited HASH_SHUFFLE from a join).

    Also caps each hash op's TOTAL aggregator-actor CPU reservation to
    ~1/4 of the session's CPUs: on a CLUSTER (cluster-config resources
    visible) Ray reserves min(1, CPU/2/nparts) per partition — half the
    cluster per hash op — so a plan with two hash exchanges (a partitioned
    join feeding a groupby) would reserve every core for long-lived
    aggregator actors and the 1-CPU shuffle-map tasks that feed them could
    never schedule.  The override may only ever LOWER the reservation:
    Ray's local-mode fallbacks (0.0625 shuffle / 0.01 aggregate / 0.125
    join per partition) are already small, and raising them toward a
    "budget" deadlocked a 4-CPU session running two exchanges at once
    (observed with IVF's bucket shuffle + final aggregate)."""
    import ray as _ray
    from ray.data.context import ShuffleStrategy
    ds.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    n = nparts or _num_partitions(ds)
    ds.context.default_hash_shuffle_parallelism = n
    try:
        cpus = _ray.cluster_resources().get("CPU", 0) or 0
    except Exception:
        cpus = 0
    if cpus:
        budget = (cpus / 4.0) / n   # per-partition share of a CPU/4 pool
        for knob, local_default in (
                ("hash_shuffle_operator_actor_num_cpus_per_partition_override",
                 0.0625),
                ("hash_aggregate_operator_actor_num_cpus_per_partition_override",
                 0.01),
                ("join_operator_actor_num_cpus_per_partition_override",
                 0.125)):
            per_part = min(local_default, budget)
            cur = getattr(ds.context, knob, None)
            if cur is None or cur > per_part:
                setattr(ds.context, knob, per_part)
    return ds


_PARQUET_TO_ARROW = 3  # text parquet decompresses ~3x into Arrow memory


def _estimate_bytes(ds: rd.Dataset) -> int | None:
    """Estimated in-memory bytes of ``ds`` — metadata only, never triggers
    execution.  A MATERIALIZED dataset reports its exact block bytes
    (``size_bytes`` is metadata there); a lazy one is sized from its INPUT
    FILE sizes (``ds.size_bytes()`` would run the plan).  Derived lazy
    datasets (map_batches output) report no input files -> ``None``
    (unknown).  Only the exchange's partition count reads it; the
    driver-vs-exchange choices size materialized data exactly."""
    import os
    if isinstance(ds, rd.dataset.MaterializedDataset):
        try:
            sz = ds.size_bytes()
            if sz is not None:
                return sz
        except Exception:
            pass
    try:
        files = ds.input_files()
    except Exception:
        return None
    total = 0
    for f in files or []:
        p = f[len("file://"):] if f.startswith("file://") else f
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total * _PARQUET_TO_ARROW if total else None


def _num_partitions(ds: rd.Dataset | None = None,
                    expansion: float = 1.0) -> int:
    """Hash-exchange partition count, derived from DATA VOLUME (estimated
    input bytes / target-partition-bytes, floor 8), not CPU count: each
    partition is an aggregator actor with real per-partition scatter
    overhead (measured: 8 partitions beat 64 by 5x on small data), while a
    constant count would mean 12.5 TB/partition at 100 TB.  Overrides via
    the unified Config: ``shuffle_partitions`` pins the count;
    ``target_partition_bytes`` changes the per-partition target (default
    256 MB).  ``expansion`` scales the estimate for explode-shaped inputs
    (a shingle stream is ~NGRAM x its document bytes — sizing those off
    the root files alone under-partitions them)."""
    from ..config import get_config
    cfg = get_config()
    if cfg.shuffle_partitions:
        return cfg.shuffle_partitions
    floor = 8
    if ds is None:
        return floor
    est = _estimate_bytes(ds)
    if not est:
        return floor
    est = int(est * expansion)
    return max(floor, min(4096, -(-est // cfg.target_partition_bytes)))


def _arrow_schema(ds: rd.Dataset) -> pa.Schema:
    """``ds.schema().base_schema`` as a ``pa.Schema`` even when the dataset
    is pandas-backed (``from_pandas`` yields a PandasBlockSchema; object
    columns, whose type an empty frame cannot tell, become strings)."""
    sch = ds.schema().base_schema
    if isinstance(sch, pa.Schema):
        return sch
    empty = pd.DataFrame({n: pd.Series([], dtype=object if t is None else t)
                          for n, t in zip(sch.names, sch.types)})
    return pa.schema([pa.field(f.name, pa.string())
                      if pa.types.is_null(f.type) else f
                      for f in pa.Schema.from_pandas(empty,
                                                     preserve_index=False)])


def _collect_table(ds: rd.Dataset) -> pa.Table:
    """Materialize a SMALL dataset to one Arrow table on the driver
    (callers gate on size first).  Avoids the pandas round-trip of
    ``to_pandas`` so column types survive exactly.

    Empty blocks arrive as ZERO-COLUMN tables (parallelism-dependent) or,
    downstream of a pandas-block stage, as raw zero-row pandas frames that
    ``to_arrow_refs`` passes through unconverted; both are dropped.  With no
    rows left the result is the dataset's own empty schema; an all-empty
    DERIVED dataset can lose its schema entirely, which raises (callers
    must guard: which columns would an unknown empty table have?)."""
    blocks = []
    for t in ray.get(list(ds.to_arrow_refs())):
        if isinstance(t, pd.DataFrame):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows:
            blocks.append(t)
    if blocks:
        return pa.concat_tables(blocks, promote_options="default")
    if ds.schema() is None:
        raise ValueError(
            "empty dataset with no recoverable Arrow schema; guard the "
            "call site (e.g. skip the join when the dim is empty)")
    return _arrow_schema(ds).empty_table()


def keyed_fold(ds: rd.Dataset, keys: list[str], partial,
               final) -> rd.Dataset:
    """The one keyed exchange of the stage modules: combine per block, then
    finish by size.

    ``partial`` maps each input batch to a combined Arrow table holding
    ``keys``; the partials are materialized.  Within
    ``Config.broadcast_max_bytes`` the driver concatenates them and runs
    ``final`` once (one output block — no exchange for a few thousand
    keys); beyond it they are hash-repartitioned on ``keys`` into
    ``_num_partitions(ds)`` blocks and ``final`` runs per block, so
    ``final`` must be exact on any key-complete subset of the partials.
    Zero-column and zero-row blocks reach ``final`` as an empty table of the
    partials' schema (or of ``partial`` over an empty batch of the input
    schema when no partial ran, or of string ``keys`` alone when Ray knows
    no input schema either), so an empty result keeps its columns on both
    paths."""
    from ..config import get_config
    pre = ds.map_batches(partial, batch_format="pyarrow",
                         batch_size=None).materialize()
    if pre.schema() is not None:
        empty = _arrow_schema(pre).empty_table()
    elif ds.schema() is not None:
        empty = partial(_arrow_schema(ds).empty_table())
    else:               # Ray reports no schema at all: string keys alone
        empty = pa.table({k: pa.array([], pa.string()) for k in keys})
    if pre.size_bytes() <= get_config().broadcast_max_bytes:
        return rd.from_arrow(final(_collect_table(pre) if pre.count()
                                   else empty))
    return _use_hash_shuffle(pre).repartition(
        num_blocks=_num_partitions(ds), keys=keys).map_batches(
        lambda t: final(t if t.num_rows else empty),
        batch_format="pyarrow", batch_size=None)


def dedup_keep_first(ds: rd.Dataset, keys: list[str] | None = None,
                     order: list[str] | None = None) -> rd.Dataset:
    """Exact dedup on ``keys`` keeping the minimum row under ``order``.

    Plan: ``keyed_fold`` with one vectorized Arrow sort + adjacent-duplicate
    drop as both the per-block combiner and the final (the global winner is
    the min over per-block winners).  No per-group Python calls — the
    kernel is O(block log block) regardless of how many distinct keys exist
    (the common log-dedup case is millions of tiny groups, where
    groupby().map_groups() would pay a Python call per group)."""
    keys = keys or NATURAL_KEY
    order = order or ORDER_COLS

    def keep_first(b: pa.Table) -> pa.Table:
        # pure-Arrow keep-first: sort by (keys..., order...) then drop rows
        # whose key tuple equals the previous row's (adjacent-dup mask)
        if b.num_rows <= 1:
            return b
        srt = b.sort_by([(c, "ascending") for c in keys + order])
        n = srt.num_rows
        same = None
        for c in keys:
            col = srt[c].combine_chunks() if isinstance(srt[c], pa.ChunkedArray) \
                else srt[c]
            a, b_ = col.slice(1), col.slice(0, n - 1)
            eq = pc.fill_null(pc.equal(a, b_), False)
            # null == null groups together (SQL PARTITION BY semantics):
            # the string sentinel covers string keys, but a null in a
            # NON-string key (datetime in NATURAL_KEY) compared null ->
            # False and kept both duplicates (r03 review)
            eq = pc.or_(eq, pc.and_(pc.is_null(a), pc.is_null(b_)))
            same = eq if same is None else pc.and_(same, eq)
        mask = pa.concat_arrays([pa.array([True]), pc.invert(same)])
        return srt.filter(mask)

    def pre_dedup(b: pa.Table) -> pa.Table:
        # combiner: per-block keep-first before the final, so only one
        # candidate row per (key, block) reaches it
        return keep_first(_fill_sentinel(b, keys))

    return keyed_fold(ds, keys, pre_dedup,
                      lambda t: _restore_sentinel(keep_first(t), keys))


def distinct_rows(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """D4/D6: distinct over ``cols`` (keep-any) through ``keyed_fold``:
    per-batch distinct as the combiner (only unique rows per block reach
    the final), the same distinct as the final."""
    def batch_distinct(b: pa.Table) -> pa.Table:
        b = _fill_sentinel(b.select(cols), cols)
        return b.group_by(cols).aggregate([])

    return keyed_fold(ds, cols, batch_distinct,
                      lambda t: _restore_sentinel(batch_distinct(t), cols))
