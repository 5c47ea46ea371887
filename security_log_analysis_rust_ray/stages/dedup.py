"""Exact dedup shuffles (reference §2.8 D1-D6).

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

Scale note: one hash-partition exchange on the key columns, then a single
vectorized sort+drop_duplicates per block — no per-group Python.  A skewed
key maps to one (service,server,hour,host,user) bucket, bounded by
construction; a pathological single hot key would be salted into
(key, hash(order) % S) sub-buckets with a second tiny pass.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
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
    (unknown), so a caller that wants a small derived dim broadcast should
    ``materialize()`` it first."""
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


def dedup_keep_first(ds: rd.Dataset, keys: list[str] | None = None,
                     order: list[str] | None = None) -> rd.Dataset:
    """Exact dedup on ``keys`` keeping the minimum row under ``order``.

    Plan: hash-repartition on the key columns (all rows of a key land in one
    block), then one vectorized pandas sort+drop_duplicates per block.  No
    per-group Python calls — the per-block kernel is O(block log block)
    regardless of how many distinct keys exist (the common log-dedup case is
    millions of tiny groups, where groupby().map_groups() would pay a Python
    call per group)."""
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
        # combiner: per-block keep-first BEFORE the shuffle — the global
        # winner is the min over per-block winners (min-of-min), so only one
        # candidate row per (key, block) enters the exchange
        return keep_first(_fill_sentinel(b, keys))

    out = _use_hash_shuffle(ds).map_batches(
        pre_dedup, batch_format="pyarrow", batch_size=None)
    out = out.repartition(num_blocks=_num_partitions(ds), keys=keys)
    out = out.map_batches(keep_first, batch_format="pyarrow", batch_size=None)
    return out.map_batches(lambda b: _restore_sentinel(b, keys),
                           batch_format="pyarrow", batch_size=None)


def distinct_rows(ds: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """D4/D6: distinct over ``cols`` (keep-any): per-batch pre-distinct
    (combiner — only unique rows per block enter the shuffle), then
    hash-repartition + per-block distinct."""
    def batch_distinct(b: pa.Table) -> pa.Table:
        b = _fill_sentinel(b.select(cols), cols)
        return b.group_by(cols).aggregate([])

    pre = _use_hash_shuffle(ds).map_batches(
        batch_distinct, batch_format="pyarrow", batch_size=None)
    pre = pre.repartition(num_blocks=_num_partitions(ds), keys=cols)
    out = pre.map_batches(batch_distinct, batch_format="pyarrow",
                          batch_size=None)
    return out.map_batches(lambda b: _restore_sentinel(b, cols),
                           batch_format="pyarrow", batch_size=None)
