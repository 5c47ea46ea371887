"""General relational coverage over the star-schema tables: partial/final
grouped aggregates, broadcast hash joins (small dim side), windowed event
counts.  These generalize the reference's filter->join->group->sort surface
(SURVEY §2.5/2.6) beyond the log domain."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.util import round_half_up
from ..sources.readers import read_table
from ..stages.aggregate import grouped_count, grouped_fold, grouped_sum


def lineitem_pricing_summary(sf_dir: str) -> rd.Dataset:
    """TPC-H Q1-flavored pricing summary: per (returnflag, linestatus) sums
    over a derived revenue column; partial sums per batch, one grouped
    fold."""
    keys = ["l_returnflag", "l_linestatus"]
    ds = read_table(sf_dir, "lineitem", columns=keys + [
        "l_quantity", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = b.select(keys + ["l_quantity"]).append_column("revenue", rev)
        return t.group_by(keys).aggregate(
            [("l_quantity", "sum"), ("revenue", "sum"), ([], "count_all")]) \
            .rename_columns(keys + ["sum_qty", "sum_revenue", "cnt"])

    out = grouped_fold(ds, keys, partial, [
        ("sum_qty", "sum"), ("sum_revenue", "sum"), ("cnt", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "sum_qty": pa.array(round_half_up(b["sum_qty"].to_numpy())),
            "sum_revenue": pa.array(round_half_up(b["sum_revenue"].to_numpy(), 4)),
            "cnt": b["cnt"],
        })
    return out.map_batches(finish, batch_format="pyarrow")


def orders_by_nation(sf_dir: str) -> rd.Dataset:
    """orders |x| customer |x| nation via the SIZE-AWARE lookup join
    (stages/joins.py, VERDICT r01 #6): customer is a fact-scale table, so
    it broadcasts only while its estimated bytes stay under the threshold
    and flips to a partitioned hash-shuffle join beyond it; nation (25
    rows) always broadcasts."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])
    nation_ds = read_table(sf_dir, "nation",
                           columns=["n_nationkey", "n_name"])
    nparts = _num_partitions(orders)
    j = lookup_join(orders, cust, "o_custkey", "c_custkey", nparts=nparts)
    j2 = lookup_join(j, nation_ds, "c_nationkey", "n_nationkey",
                     nparts=nparts)
    ds = j2.map_batches(
        lambda b: pa.table({"nation": b["n_name"],
                            "o_totalprice": b["o_totalprice"]}),
        batch_format="pyarrow", batch_size=None)
    out = grouped_sum(ds, ["nation"], "o_totalprice", "total_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "nation": b["nation"],
            "total_price": pa.array(round_half_up(b["total_f"].to_numpy(), 2)),
        })
    return out.map_batches(finish, batch_format="pyarrow")


def top_parts_by_revenue(sf_dir: str, k: int = 5) -> rd.Dataset:
    """lineitem |x| part -> revenue per brand -> top-k.  part is
    FACT-SCALE (200k rows/sf — GBs at 100x), so the join goes through the
    size-aware lookup_join (VERDICT r02 #3: the old driver-built Python
    dict broadcast it unconditionally): Arrow index_in/take probe while
    part's estimated bytes fit the Config threshold, partitioned hash join
    beyond it."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_extendedprice", "l_discount"])
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    j = lookup_join(li, part, "l_partkey", "p_partkey",
                    nparts=_num_partitions(li))
    ds = j.map_batches(
        lambda b: pa.table({
            "brand": b["p_brand"],
            "revenue": pc.multiply(
                b["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), b["l_discount"]))}),
        batch_format="pyarrow", batch_size=None)
    out = grouped_sum(ds, ["brand"], "revenue", "rev_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "brand": b["brand"],
            "revenue": pa.array(round_half_up(b["rev_f"].to_numpy(), 2)),
        })
    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "brand"], descending=[True, False]).limit(k)


Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-01-01"


def shipping_priority(sf_dir: str, k: int = 10) -> rd.Dataset:
    """TPC-H Q3-flavored 3-way join: customer (segment filter) |x| orders
    (date filter) |x| lineitem (date filter) -> revenue per order ->
    top-k.  All joins go through the size-aware lookup_join; filters push
    into the batch scans before any join, so only qualifying rows shuffle.
    Output: (o_orderkey, o_orderdate, o_orderpriority, revenue)."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    cutoff = pd.Timestamp(Q3_DATE)
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["c_mktsegment"], Q3_SEGMENT)).select(["c_custkey"]),
            batch_format="pyarrow", batch_size=None)
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate",
                                 "o_orderpriority"]) \
        .map_batches(lambda b: b.filter(
            pc.less(b["o_orderdate"], pa.scalar(cutoff))),
            batch_format="pyarrow", batch_size=None)
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount",
                             "l_shipdate"]) \
        .map_batches(lambda b: b.filter(
            pc.greater(b["l_shipdate"], pa.scalar(cutoff))),
            batch_format="pyarrow", batch_size=None)

    nparts = _num_partitions(read_table(sf_dir, "lineitem",
                                        columns=["l_orderkey"]))
    j1 = lookup_join(orders, cust, "o_custkey", "c_custkey", nparts=nparts)
    j2 = lookup_join(li, j1, "l_orderkey", "o_orderkey", nparts=nparts)

    def derive(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({"o_orderkey": b["l_orderkey"],
                         "o_orderdate": b["o_orderdate"],
                         "o_orderpriority": b["o_orderpriority"],
                         "revenue": rev})

    keys = ["o_orderkey", "o_orderdate", "o_orderpriority"]
    out = grouped_sum(j2.map_batches(derive, batch_format="pyarrow",
                                     batch_size=None),
                      keys, "revenue", "rev_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_orderdate": b["o_orderdate"],
            "o_orderpriority": b["o_orderpriority"],
            "revenue": pa.array(round_half_up(b["rev_f"].to_numpy(), 2)),
        })
    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "o_orderkey"], descending=[True, False]).limit(k)


Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"


def local_supplier_volume(sf_dir: str) -> rd.Dataset:
    """TPC-H Q5-flavored 6-table join: revenue per nation for lineitems
    where the CUSTOMER and the SUPPLIER sit in the same nation of one
    region, over a one-year order window.  Exercises the full snowflake
    (region -> nation -> {customer, supplier} -> orders -> lineitem) as a
    chain of size-aware lookup_joins with every filter pushed below the
    joins: region x nation collapse to a tiny broadcast dim, orders are
    date-pruned at the scan, and lineitem (the only true fact stream)
    never shuffles — it probes broadcast sides batch-by-batch while they
    fit the Config byte budget and flips to partitioned hash joins beyond
    it.  Output: (nation, revenue) sorted by revenue desc."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    lo, hi = pd.Timestamp(Q5_DATE_LO), pd.Timestamp(Q5_DATE_HI)

    region = read_table(sf_dir, "region", columns=["r_regionkey", "r_name"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["r_name"], Q5_REGION)).select(["r_regionkey"]),
            batch_format="pyarrow", batch_size=None).materialize()
    # materialized: a derived dim reports no input files, so the size gate
    # could not see how tiny this is (<=25 rows by construction) and would
    # send the whole lineitem stream through a needless nation-key shuffle
    nation = lookup_join(
        read_table(sf_dir, "nation",
                   columns=["n_nationkey", "n_name", "n_regionkey"]),
        region, "n_regionkey", "r_regionkey", how="inner") \
        .map_batches(lambda b: b.select(["n_nationkey", "n_name"]),
                     batch_format="pyarrow", batch_size=None).materialize()

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda b: b.filter(pc.and_(
            pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
            pc.less(b["o_orderdate"], pa.scalar(hi))))
            .select(["o_orderkey", "o_custkey"]),
            batch_format="pyarrow", batch_size=None)
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])
    supp = read_table(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])
    nparts = _num_partitions(li)

    # orders gain the customer's nation; lineitems gain (order, cust
    # nation), then the supplier's nation; "local" = the two nations agree
    o_cust = lookup_join(orders, cust, "o_custkey", "c_custkey",
                         nparts=nparts, how="inner")
    j = lookup_join(li, o_cust.map_batches(
        lambda b: b.select(["o_orderkey", "c_nationkey"]),
        batch_format="pyarrow", batch_size=None),
        "l_orderkey", "o_orderkey", nparts=nparts, how="inner")
    j = lookup_join(j, supp, "l_suppkey", "s_suppkey",
                    nparts=nparts, how="inner")
    j = j.map_batches(lambda b: b.filter(
        pc.equal(b["c_nationkey"], b["s_nationkey"])),
        batch_format="pyarrow", batch_size=None)
    j = lookup_join(j, nation, "s_nationkey", "n_nationkey",
                    nparts=nparts, how="inner")

    ds = j.map_batches(
        lambda b: pa.table({
            "nation": b["n_name"],
            "revenue": pc.multiply(
                b["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), b["l_discount"]))}),
        batch_format="pyarrow", batch_size=None)
    out = grouped_sum(ds, ["nation"], "revenue", "rev_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "nation": b["nation"],
            "revenue": pa.array(round_half_up(b["rev_f"].to_numpy(), 2)),
        })
    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "nation"], descending=[True, False])


Q10_DATE_LO = "1998-01-01"
Q10_DATE_HI = "1998-04-01"


def returned_items_report(sf_dir: str, k: int = 20) -> rd.Dataset:
    """TPC-H Q10-flavored returned-items report: revenue lost to RETURNED
    lineitems per customer over one order quarter, top-k customers.
    customer |x| orders (quarter filter) |x| lineitem (returnflag='R')
    |x| nation — all through the size-aware lookup_join with filters
    pushed below every join (the lineitem scan keeps only ~1/3 of rows,
    orders ~1/25), so the fact stream that reaches the exchange is already
    pruned.  Output: (c_custkey, c_name, n_name, c_acctbal, revenue)
    sorted revenue desc, c_custkey asc, LIMIT k."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    lo, hi = pd.Timestamp(Q10_DATE_LO), pd.Timestamp(Q10_DATE_HI)
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda b: b.filter(pc.and_(
            pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
            pc.less(b["o_orderdate"], pa.scalar(hi))))
            .select(["o_orderkey", "o_custkey"]),
            batch_format="pyarrow", batch_size=None)
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount",
                             "l_returnflag"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["l_returnflag"], "R"))
            .select(["l_orderkey", "l_extendedprice", "l_discount"]),
            batch_format="pyarrow", batch_size=None)
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_acctbal",
                               "c_nationkey"])
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"])

    nparts = _num_partitions(li)
    j = lookup_join(li, orders, "l_orderkey", "o_orderkey",
                    nparts=nparts, how="inner")
    j = lookup_join(j, cust, "o_custkey", "c_custkey",
                    nparts=nparts, how="inner")
    j = lookup_join(j, nation, "c_nationkey", "n_nationkey",
                    nparts=nparts, how="inner")

    # lookup_join drops each dim's key, keeping the fact-side key —
    # o_custkey IS the surviving customer key; renamed on output
    keys = ["o_custkey", "c_name", "n_name", "c_acctbal"]

    def derive(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({k: b[k] for k in keys} | {"revenue": rev})

    out = grouped_sum(j.map_batches(derive, batch_format="pyarrow",
                                    batch_size=None),
                      keys, "revenue", "rev_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b["o_custkey"], "c_name": b["c_name"],
            "n_name": b["n_name"], "c_acctbal": b["c_acctbal"],
            "revenue": pa.array(round_half_up(b["rev_f"].to_numpy(), 2))})
    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "c_custkey"], descending=[True, False]).limit(k)


def events_hourly_heatmap(sf_dir: str) -> rd.Dataset:
    """Calendar heatmap: event counts per (ISO day-of-week, hour) — the
    7x24 activity matrix.  Bucketing fuses into the pruned read (one
    int32 pair per row leaves the scan) and the 168-key space's partials
    (one row per (cell, block)) fold on the driver, no exchange.  dow follows SQL isodow (Mon=1..Sun=7)."""
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events", columns=["ts"])

    def cells(b: pa.Table) -> pa.Table:
        # Arrow day_of_week(count_from_zero=True, week_start Monday)=0..6
        dow = pc.add(pc.day_of_week(b["ts"]), pa.scalar(1))
        return pa.table({"dow": pc.cast(dow, pa.int32()),
                         "hour": pc.cast(pc.hour(b["ts"]), pa.int32())})

    cells_ds = ds.map_batches(cells, batch_format="pyarrow",
                              batch_size=None)
    return agg.grouped_count(cells_ds, ["dow", "hour"])


CHURN_IDLE_US = 24 * 3600 * 1_000_000   # churn = idle >= 1 day at corpus end


def churned_users(sf_dir: str) -> rd.Dataset:
    """Users whose LAST event precedes the corpus watermark by >= 1 day —
    the inactivity report every engagement pipeline runs, pinned to the
    data's own high-water mark so it is meaningful at any scale factor.
    One grouped-max fold (partial per-block max -> one exchange row per
    (user, block)); the watermark is the max of the per-user maxes (a
    scalar tree-reduce over the already-tiny fold result), then a
    vectorized cutoff filter.  The fact table never shuffles raw rows.
    Output: (user_id, last_ts)."""
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    last = agg.grouped_max(ds, ["user_id"], "ts",
                           alias="last_ts").materialize()
    wm = last.max("last_ts")
    cut = pd.Timestamp(wm) - pd.Timedelta(microseconds=CHURN_IDLE_US)
    return last.map_batches(
        lambda b: b.filter(pc.less(b["last_ts"], pa.scalar(cut))),
        batch_format="pyarrow", batch_size=None)


def user_running_totals(sf_dir: str) -> rd.Dataset:
    """Per-user running cumulative `value` over time — the windowed
    cumulative-aggregate shape.  Hash-repartition by user, then ONE
    Arrow-native kernel per block across all its users: sort, global
    cumsum, subtract each user segment's entering offset (numpy over
    zero-copy Arrow views — no pandas conversion, no per-group Python;
    oracle = SQL window SUM OVER)."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value"])

    def block_cum(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "event_id": pa.array([], pa.int64()),
                             "running_value": pa.array([], pa.float64())})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        u = b["user_id"].to_numpy()
        v = b["value"].to_numpy()
        # INTEGER-CENTS global cumsum minus each segment's entering
        # offset: int64 arithmetic is exact in any order, so the
        # subtraction form carries none of the float cancellation that
        # ruled it out for float64 (it could flip the .005 rounding
        # boundary vs the oracle's left-to-right window SUM) — and it is
        # fully vectorized, no per-user Python loop
        cents = np.rint(v * 100.0).astype(np.int64)
        gcum = np.cumsum(cents)
        first = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(first)
        # offset entering each segment = global cumsum just before it
        seg_off = np.where(starts > 0, gcum[starts - 1], 0)
        seg_id = np.cumsum(first) - 1
        run = (gcum - seg_off[seg_id]) / 100.0
        return pa.table({"user_id": b["user_id"],
                         "event_id": b["event_id"],
                         "running_value": pa.array(round_half_up(run, 2))})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_cum, batch_format="pyarrow", batch_size=None)


def user_cumulative_distinct(sf_dir: str) -> rd.Dataset:
    """Per-user RUNNING DISTINCT event-type count — the "how fast does a
    user's behavioral repertoire grow" windowed shape (cumulative
    cardinality, not cumulative sum: the aggregate is over a SET, so the
    kernel needs first-occurrence detection, not arithmetic).

    ONE user_id hash exchange, then one Arrow-native kernel per block
    across all its users: dictionary-encode types, one lexsort names each
    (user, type)'s first row in time order, a second pass cumsums the
    first-occurrence flags per user segment — integers throughout, so the
    fold is exact at any scale.  Output (event_id, user_id, n_types_seen),
    fact-scale and streaming."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type"])

    def block_cum_distinct(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "n_types_seen": pa.array([], pa.int64())})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        u = b["user_id"].to_numpy()
        et = b["event_type"].combine_chunks() \
            if isinstance(b["event_type"], pa.ChunkedArray) \
            else b["event_type"]
        codes = np.asarray(et.dictionary_encode()
                           .indices.to_numpy(zero_copy_only=False),
                           dtype=np.int64)
        n = len(u)
        # first occurrence of each (user, type) in time order: stable
        # lexsort by (user, type, time-position); a row is "first" when
        # its (user, type) differs from the previous sorted row
        order = np.lexsort((np.arange(n), codes, u))
        us, cs = u[order], codes[order]
        first_sorted = np.r_[True, (us[1:] != us[:-1]) | (cs[1:] != cs[:-1])]
        first = np.empty(n, dtype=np.int64)
        first[order] = first_sorted.astype(np.int64)
        # per-user running count of first-occurrences, in time order
        seg_first = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(seg_first)
        lens = np.diff(np.r_[starts, n])
        cum = np.cumsum(first)
        base = cum[starts] - first[starts]
        running = cum - np.repeat(base, lens)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "n_types_seen": pa.array(running, pa.int64())})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_cum_distinct, batch_format="pyarrow", batch_size=None)


def _asof_match_idx(u: np.ndarray, t: np.ndarray,
                    is_match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segmented backward as-of core over numpy views: for each row i of
    arrays sorted with equal-``u`` rows contiguous and ``t`` ascending
    within each segment, return (idx, found) where idx[i] is the position
    of the LATEST match row m in i's segment with t[m] <= t[i].
    Match-by-VALUE tie semantics (a same-t match sorted after row i still
    counts), matching SQL RANGE frames / pandas merge_asof.  One
    maximum.accumulate over segment-offset-encoded indices — no per-group
    Python, no pandas."""
    n = len(u)
    if n == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    first = np.r_[True, u[1:] != u[:-1]]
    gid = np.cumsum(first) - 1
    base = gid * np.int64(n + 1)   # strictly jumps at segment starts, so
    # the running max can never carry a previous user's match across
    val = base + np.where(is_match, np.arange(n, dtype=np.int64) + 1, 0)
    run = np.maximum.accumulate(val)
    # lift each row to the END of its (u, t) tie group so same-t matches
    # anywhere in the group are visible (value semantics, not positional)
    last = np.r_[(u[1:] != u[:-1]) | (t[1:] != t[:-1]), True]
    lasts = np.flatnonzero(last)
    cnt = np.diff(np.r_[np.int64(-1), lasts])
    run = run[np.repeat(lasts, cnt)]
    sig = run - base
    found = sig > 0
    return np.maximum(sig - 1, 0), found


def _asof_match_ts(u: np.ndarray, t: np.ndarray,
                   is_match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_asof_match_idx`` projected to the matched row's t value."""
    idx, found = _asof_match_idx(u, t, is_match)
    return t[idx], found


def events_asof_signup(sf_dir: str) -> rd.Dataset:
    """AS-OF JOIN (custom operator — Ray Data has none): for every event,
    attach the timestamp of the user's most recent PRIOR-OR-EQUAL 'signup'
    event.  Implementation: partition by user (groupby), sort within the
    block, then the Arrow-native segmented scan ``_asof_match_ts`` (numpy
    over zero-copy columns — no pandas conversion in the hot path).
    Partitioning assumption: the join key (user_id) co-locates both sides;
    skewed users are bounded by per-user event counts."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type"])

    def block_asof(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "last_signup_ts": pa.array([], pa.timestamp("us"))})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        u = b["user_id"].to_numpy()
        t = b["ts"].cast(pa.int64()).to_numpy()
        is_s = pc.equal(b["event_type"], "signup").to_numpy(
            zero_copy_only=False)
        ts_m, found = _asof_match_ts(u, t, is_s)
        return pa.table({
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "last_signup_ts": pa.array(ts_m, pa.timestamp("us"),
                                       mask=~found)})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_asof, batch_format="pyarrow", batch_size=None)


_IJ_MARK = "__slar_ij__"


def interval_join(left: rd.Dataset, right: rd.Dataset, key: str,
                  left_ts: str, lo_col: str, hi_col: str,
                  right_payload: list[str], how: str = "inner") -> rd.Dataset:
    """RANGE/INTERVAL JOIN (custom operator — Ray Data has none): attach
    ``right``'s payload to every ``left`` row whose ``left_ts`` falls in
    ``[lo_col, hi_col]`` of a same-``key`` interval.

    Partitioning ASSUMPTION (documented, like the as-of join): intervals
    are NON-OVERLAPPING per key, so each left row matches at most one
    interval — then the match is exactly "the interval with the greatest
    lo <= ts, if its hi >= ts", i.e. the backward as-of core
    (``_asof_match_idx``) over the tagged union plus an upper-bound mask.
    Overlapping intervals would need the m:n expansion of ``hash_join`` +
    a range filter instead.

    Plan: tag both sides into one NULL-PADDED common schema (typed
    ``pa.nulls`` — no pandas NaN coercion anywhere), ONE hash exchange on
    ``key`` (the same co-locate exchange every windowed op here uses),
    then one numpy-over-Arrow kernel per block across all of its keys:
    dictionary-encode the key to segment codes, lexsort once, run the
    as-of scan, gather payload with a null-masked ``take`` — no per-key
    Python, nothing driver-side, no pandas conversion."""
    from ..stages.joins import _arrow_schema
    assert how in ("inner", "left"), how
    lsch, rsch = _arrow_schema(left), _arrow_schema(right)
    # normalize integer keys to int64 on BOTH sides: the hash exchange
    # partitions by value+type, so differing integer widths would land
    # equal keys in different partitions (r03 review, now Arrow-level —
    # nulls stay int64, the pandas float64-coercion problem is gone)
    kt = lsch.field(key).type
    key_cast = pa.int64() if pa.types.is_integer(kt) else None

    left_cols = list(lsch.names)
    extra = [c for c in right_payload if c not in (key, lo_col, hi_col)]
    right_cols = [key, lo_col, hi_col] + extra
    # one common schema: left fields + the right-only fields, key cast
    def _f(c, t):
        return pa.field(c, pa.int64() if c == key and key_cast else t)
    uni_fields = [_f(c, lsch.field(c).type) for c in left_cols] +         [_f(c, rsch.field(c).type) for c in right_cols
         if c not in left_cols] + [pa.field(_IJ_MARK, pa.int8())]
    uni_schema = pa.schema(uni_fields)

    def _tag(mark: int, present: list[str]):
        def tag(b: pa.Table) -> pa.Table:
            cols = {}
            for f in uni_fields:
                if f.name == _IJ_MARK:
                    cols[f.name] = pa.nulls(b.num_rows, pa.int8()).fill_null(mark)
                elif f.name in present:
                    cols[f.name] = b[f.name].cast(f.type)
                else:
                    cols[f.name] = pa.nulls(b.num_rows, f.type)
            return pa.table(cols).cast(uni_schema)
        return tag

    from ..pipelines.streaming import _by_key_blocks
    uni = left.map_batches(_tag(0, left_cols), batch_format="pyarrow",
                           batch_size=None)         .union(right.map_batches(_tag(1, right_cols),
                                 batch_format="pyarrow", batch_size=None))

    fields = [lsch.field(c) for c in left_cols] + [
        pa.field(c, rsch.field(c).type) for c in right_payload
        if c not in left_cols]
    out_schema = pa.schema(fields)

    def _num(col: pa.ChunkedArray | pa.Array):
        """(float64|int64 ndarray, validity ndarray) for numeric/temporal."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if pa.types.is_floating(col.type):
            arr = pc.fill_null(col, 0.0).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
        else:
            arr = pc.fill_null(col.cast(pa.int64()), 0).to_numpy()
        return arr, valid

    def probe(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or _IJ_MARK not in b.column_names:
            return out_schema.empty_table()
        is_right = pc.equal(b[_IJ_MARK], 1).to_numpy(zero_copy_only=False)
        karr = b[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        kvalid = pc.is_valid(karr).to_numpy(zero_copy_only=False)
        codes = pc.fill_null(
            karr.dictionary_encode().indices.cast(pa.int64()), -1) \
            .to_numpy()
        ts_np, ts_valid = _num(b[left_ts])
        lo_np, lo_valid = _num(b[lo_col])
        hi_np, hi_valid = _num(b[hi_col])
        t = np.where(is_right, lo_np, ts_np)
        part = kvalid & np.where(is_right, lo_valid, ts_valid)
        idx_part = np.flatnonzero(part)
        perm = idx_part[np.lexsort((t[idx_part], codes[idx_part]))]
        src_s, found_s = _asof_match_idx(codes[perm], t[perm],
                                         is_right[perm])
        rid = np.full(b.num_rows, -1, dtype=np.int64)
        rid[perm] = np.where(found_s, perm[src_s], -1)
        lmask = ~is_right
        have = lmask & (rid >= 0)
        hv = np.flatnonzero(have)
        inside = hi_valid[rid[hv]] & (t[hv] <= hi_np[rid[hv]])
        rid[hv[~inside]] = -1
        lrows = np.flatnonzero(lmask if how == "left"
                               else (lmask & (rid >= 0)))
        if not len(lrows):
            return out_schema.empty_table()
        li = pa.array(lrows, pa.int64())
        ridx = rid[lrows]
        ri = pa.array(np.maximum(ridx, 0), pa.int64(),
                      mask=ridx < 0)    # null index -> null payload row
        cols = {c: b[c].take(li) for c in left_cols}
        for c in right_payload:
            if c not in left_cols:
                cols[c] = b[c].take(ri)
        return pa.table(cols).cast(out_schema)

    return _by_key_blocks(uni, [key]).map_batches(
        probe, batch_format="pyarrow", batch_size=None)


def events_in_session(sf_dir: str) -> rd.Dataset:
    """Range-join demo over real derived intervals: attribute every event
    to its session window (sessionize's [session_start, session_end] per
    user — non-overlapping by construction, the interval_join contract).
    Output: (user_id, event_id, session_start) — SQL-checkable via a
    BETWEEN join against the same window CTE."""
    from ..pipelines.streaming import sessionize
    ev = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts"])
    sess = sessionize(sf_dir)
    out = interval_join(ev, sess, key="user_id", left_ts="ts",
                        lo_col="session_start", hi_col="session_end",
                        right_payload=["session_start"], how="inner")
    return out.map_batches(
        lambda b: b.select(["user_id", "event_id", "session_start"]),
        batch_format="pyarrow", batch_size=None)


def events_semi_join_purchasers(sf_dir: str) -> rd.Dataset:
    """SEMI-JOIN, size-aware (stages/joins.semi_join): events of users who
    have at least one 'purchase' event.  A small distinct key set broadcasts
    once with a vectorized is_in probe; past the key-count threshold the
    plan flips to Ray's partitioned left_semi hash join — nothing
    driver-side at scale."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import semi_join
    keys = read_table(sf_dir, "events", columns=["user_id", "event_type"]) \
        .map_batches(
            lambda b: b.filter(pc.equal(b["event_type"], "purchase"))
                       .select(["user_id"]),
            batch_format="pyarrow", batch_size=None)
    fact = read_table(sf_dir, "events",
                      columns=["user_id", "event_id", "event_type", "ts"])
    return semi_join(fact, keys, "user_id", "user_id",
                     nparts=_num_partitions(fact))


HH_K = 256


def hot_hosts(sf_dir: str, k: int = HH_K) -> rd.Dataset:
    """EXACT heavy hitters via the classic two-pass sketch plan: a
    Misra-Gries pass finds candidate keys (guaranteed superset of every
    host with frequency > n/(k+1)), then a cheap second pass exact-counts
    only the candidates and applies the threshold — deterministic, so it
    oracle-checks against plain GROUP BY/HAVING while the sketch pass is
    what scales (per-block summaries of k counters instead of a full
    distinct-key shuffle).  Output: (host, cnt) above the threshold."""
    from ..pipelines.reports import parsed
    from ..stages.aggregate import grouped_count
    from ..stages.sketch import heavy_hitters

    base = parsed(sf_dir)
    # ONE scan yields both the candidate sketch and the exact total n
    # (each MG summary row carries its block's row count) — VERDICT r02 #8
    cand, n = heavy_hitters(base.map_batches(
        lambda b: b.select(["host"]), batch_format="pyarrow",
        batch_size=None), "host", k=k, return_total=True)
    cand_arr = pa.array(sorted(cand["key"].tolist()), pa.string())
    ref = ray.put(cand_arr)

    def only_cands(b: pa.Table) -> pa.Table:
        # task pool, not actor pool: ray.get of the tiny candidate array is
        # a zero-copy plasma read, and a min-1 actor reservation would make
        # this stage non-composable with hash exchanges at small CPU counts
        return b.select(["host"]).filter(
            pc.is_in(b["host"], value_set=ray.get(ref)))

    counted = grouped_count(
        base.map_batches(only_cands, batch_format="pyarrow",
                         batch_size=None),
        ["host"], alias="cnt")
    thresh = n / (k + 1)
    return counted.map_batches(
        lambda b: b.filter(pc.greater(pc.cast(b["cnt"], pa.float64()),
                                      thresh)),
        batch_format="pyarrow", batch_size=None) \
        .sort(["cnt", "host"], descending=[True, False])


def distinct_host_count(sf_dir: str) -> rd.Dataset:
    """Exact COUNT(DISTINCT host) over parsed rows: per-block distinct
    (combiner) -> hash-partitioned distinct -> count, returned as one row.
    (The approximate path at 10^12 scale is an HLL sketch per block merged
    in a tiny second stage — same plan shape, mergeable state.)"""
    from ..pipelines.reports import parsed
    from ..stages.dedup import distinct_rows
    n = distinct_rows(parsed(sf_dir), ["host"]).count()
    return rd.from_pandas(pd.DataFrame({"n_hosts": [n]}))


def events_sliding_3d_counts(sf_dir: str) -> rd.Dataset:
    """SLIDING window (3-day span, 1-day step) event counts per user: each
    row expands to the 3 window-starts covering it (vectorized explode), then
    the usual partial/final count — the standard batch re-statement of a
    sliding event-time window."""
    import numpy as np

    def explode_windows(b: pa.Table) -> pa.Table:
        day = pc.floor_temporal(b["ts"], unit="day")
        day_i = day.cast(pa.int64()) if not isinstance(day, pa.ChunkedArray) \
            else day.combine_chunks().cast(pa.int64())
        d = day_i.to_numpy(zero_copy_only=False)
        users = b["user_id"].to_numpy()
        us_day = 86_400_000_000
        starts = np.concatenate([d - k * us_day for k in range(3)])
        users3 = np.tile(users, 3)
        return pa.table({
            "user_id": pa.array(users3),
            "w_start": pa.array(starts).cast(pa.timestamp("us")),
        })

    from ..stages.aggregate import grouped_count
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"]) \
        .map_batches(explode_windows, batch_format="pyarrow", batch_size=None)
    return grouped_count(ds, ["user_id", "w_start"])


def events_daily_counts(sf_dir: str) -> rd.Dataset:
    """Tumbling 1-day window counts per (user_id, event_type) — the windowed
    aggregate shape (Ray Data has no event-time windows; a window IS a
    groupby on the truncated timestamp — see guide 'Streaming-shaped')."""
    from ..stages.aggregate import grouped_count

    def day(b: pa.Table) -> pa.Table:
        d = pc.floor_temporal(b["ts"], unit="day")
        return b.append_column("day", d)

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"]) \
        .map_batches(day, batch_format="pyarrow")
    return grouped_count(ds, ["user_id", "event_type", "day"])


def host_counts_cms(sf_dir: str) -> rd.Dataset:
    """Approximate per-host frequency via a COUNT-MIN sketch: one streaming
    pass folds every block into a (4 x 2048) int64 sketch (~64 KB rows,
    sum-mergeable — stages/sketch.cms_sketch), the merged sketch is
    broadcast once with ray.put, and the distinct host set is probed
    block-wise with the vectorized min-over-rows query.  Estimates are
    one-sided (est >= true count, within e/W of the stream length w.h.p.)
    — the sketch answer when an exact distinct-key shuffle (grouped_count)
    is too wide.  Deterministic for fixed seeds; pytest bounds it against
    the exact counts.  Output (host, est_cnt)."""
    from ..pipelines.reports import parsed
    from ..stages.dedup import distinct_rows
    from ..stages.sketch import cms_query, cms_sketch

    base = parsed(sf_dir)
    # materialize the one-column projection: the sketch fold consumes it
    # eagerly and the distinct-probe pass would otherwise re-execute the
    # whole read->parse lineage a second time
    hosts = base.map_batches(lambda b: b.select(["host"]),
                             batch_format="pyarrow",
                             batch_size=None).materialize()
    sk = cms_sketch(hosts, "host")
    ref = ray.put(sk)

    def probe(b: pa.Table) -> pa.Table:
        c = b["host"]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        est = cms_query(ray.get(ref), c)
        return pa.table({"host": c, "est_cnt": pa.array(est, pa.int64())})

    return distinct_rows(hosts, ["host"]).map_batches(
        probe, batch_format="pyarrow", batch_size=None)


FUNNEL_STAGES = ("signup", "view", "click", "purchase")


def user_funnel_counts(sf_dir: str) -> rd.Dataset:
    """Ordered-funnel conversion counts: a user completes stage k when the
    FIRST qualifying occurrence of stage k's event type is STRICTLY after
    their stage-(k-1) completion time (stage 1 = first signup).  Output:
    (stage, n_users) — one row per funnel stage, n_users monotonically
    non-increasing.

    Plan: ONE user_id hash exchange co-locates each user's events, a
    single numpy-over-Arrow kernel per block walks the 4 stages with
    scatter-min folds over the block's unique users (no per-user Python,
    no pandas conversion), and the per-block (stage, n) partials fold
    through the tiny grouped_sum — exactly 4 rows ever reach the driver.
    The stage rule is pure timestamp comparison, so the SQL oracle
    states it identically."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages.aggregate import grouped_sum

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    part_schema = pa.schema([pa.field("stage", pa.int64()),
                             pa.field("n", pa.int64())])

    def stages(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        u = b["user_id"].to_numpy()
        ts = b["ts"].cast(pa.int64()).to_numpy()
        uid, inv = np.unique(u, return_inverse=True)
        none = np.iinfo(np.int64).max       # "stage not reached" marker
        counts = []
        prev = None                          # per-user completion time
        for k, ev in enumerate(FUNNEL_STAGES, start=1):
            m = pc.equal(b["event_type"], ev).to_numpy(
                zero_copy_only=False)
            if prev is not None:
                p = prev[inv]
                m &= (p != none) & (ts > p)
            cur = np.full(len(uid), none, dtype=np.int64)
            np.minimum.at(cur, inv[m], ts[m])
            n = int((cur != none).sum())
            counts.append((k, n))
            prev = cur
            if n == 0:
                break
        return pa.table({
            "stage": pa.array([k for k, _ in counts], pa.int64()),
            "n": pa.array([n for _, n in counts], pa.int64()),
        })

    partials = _by_key_blocks(ds, ["user_id"]).map_batches(
        stages, batch_format="pyarrow", batch_size=None)
    out = grouped_sum(partials, ["stage"], "n", alias="n_users")
    return out.sort("stage")


def events_retention_cohorts(sf_dir: str) -> rd.Dataset:
    """Retention cohort matrix: distinct active users per (signup-week
    cohort, activity week).  Composition of the engine's primitives —
    per-user signup time via the ``grouped_min`` combiner, cohort
    attached to the event stream with the size-aware ``lookup_join``
    (user table broadcasts while it fits the byte budget), week
    truncation in the map (Arrow and DuckDB both start ISO weeks on
    Monday), distinct (cohort, week, user) with the per-block combiner,
    then a grouped count.  Output: (cohort_week, activity_week,
    n_users)."""
    from ..stages.aggregate import grouped_count, grouped_min
    from ..stages.dedup import _num_partitions, distinct_rows
    from ..stages.joins import lookup_join

    ev = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def signups(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "signup"))
        return t.select(["user_id", "ts"])

    su = grouped_min(ev.map_batches(signups, batch_format="pyarrow",
                                    batch_size=None),
                     ["user_id"], "ts", alias="signup_ts").materialize()
    nparts = _num_partitions(ev)
    joined = lookup_join(ev, su, "user_id", "user_id", nparts=nparts)

    def weeks(b: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_week": pc.floor_temporal(b["signup_ts"], unit="week"),
            "activity_week": pc.floor_temporal(b["ts"], unit="week"),
            "user_id": b["user_id"],
        })

    triples = distinct_rows(
        joined.map_batches(weeks, batch_format="pyarrow", batch_size=None),
        ["cohort_week", "activity_week", "user_id"])
    return grouped_count(triples, ["cohort_week", "activity_week"],
                         alias="n_users")


def events_user_bands(sf_dir: str) -> rd.Dataset:
    """GeoIP-shaped interval lookup: bucket every event into the quadratic
    user-id band [k^2*4, (k+1)^2*4) derived from the nation dim (irregular
    widths, so the lookup is a genuine non-equi range probe, not a
    disguised modulo), then count and sum per band.  Exercises
    ``stages.joins.range_lookup_join`` — the broadcast searchsorted plan a
    host->country IP-range dim runs at log scale (the reference's
    whois-metadata resolution, src/host_country_metadata.rs:95-175, is the
    point-lookup special case)."""
    from ..stages.joins import range_lookup_join

    bands = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])

    def mk_bands(b: pa.Table) -> pa.Table:
        k = b["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "band": b["n_name"],
            "lo": pa.array(k * k * 4, pa.int64()),
            "hi": pa.array((k + 1) * (k + 1) * 4 - 1, pa.int64()),
        })

    bands = bands.map_batches(mk_bands, batch_format="pyarrow").materialize()
    ev = read_table(sf_dir, "events", columns=["user_id"])
    joined = range_lookup_join(ev, bands, "user_id", "lo", "hi")

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["band"]).aggregate(
            [([], "count_all"), ("user_id", "sum")]) \
            .rename_columns(["band", "cnt", "sum_user"])

    return grouped_fold(joined, ["band"], partial,
                        [("cnt", "sum"), ("sum_user", "sum")]).sort("band")


def events_value_stats(sf_dir: str) -> rd.Dataset:
    """Per-event-type value statistics (n, mean, sample std, min, max) via
    the one-pass mergeable-moments fold in ``agg.grouped_stats`` — the
    grouped generalization of the reference's SES stats fold
    (src/ses_client.rs:68-109)."""
    from ..stages import aggregate as agg
    ev = read_table(sf_dir, "events", columns=["event_type", "value"])
    return agg.grouped_stats(ev, ["event_type"], "value") \
        .sort("event_type")


HIST_BIN_WIDTH = 16.0  # power of two: v / width is IEEE-exact both sides


def events_value_histogram(sf_dir: str) -> rd.Dataset:
    """Fixed-width value histogram (the dashboard distribution panel and
    the cheap precursor to the quantile sketches): bucket =
    floor(value / width) with a power-of-two width so the division is
    bit-exact in engine and SQL alike.  Bucketing fuses into the pruned
    read's map; counts ride the grouped count fold (the bucket space is
    value-range / width, ~21 cells here)."""
    from ..stages import aggregate as agg
    ev = read_table(sf_dir, "events", columns=["value"])

    def bucketize(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        return pa.table({"bucket": np.floor(v / HIST_BIN_WIDTH)
                        .astype(np.int64)})

    return agg.grouped_count(ev.map_batches(bucketize,
                                            batch_format="pyarrow"),
                             ["bucket"]).sort("bucket")


def nation_balance_full_join(sf_dir: str) -> rd.Dataset:
    """FULL OUTER reconciliation of per-nation customer vs supplier balance
    totals (high-balance rows only, so each side covers a DIFFERENT nation
    subset and both unmatched directions genuinely occur).  Exercises
    ``hash_join(how="full")`` — per-key-partition Acero full outer with
    coalesced keys IS the global full outer."""
    from ..stages.joins import hash_join

    def side(table: str, key: str, bal: str, alias: str) -> rd.Dataset:
        ds = read_table(sf_dir, table, columns=[key, bal])

        def keep(b: pa.Table) -> pa.Table:
            return b.filter(pc.greater(b[bal], 4000.0))

        ds = ds.map_batches(keep, batch_format="pyarrow", batch_size=None)
        out = grouped_sum(ds, [key], bal, "t")

        def finish(b: pa.Table) -> pa.Table:
            return pa.table({
                "nk": pc.cast(b[key], pa.int32()),
                alias: pa.array(round_half_up(
                    b["t"].to_numpy(zero_copy_only=False), 2)),
            })
        return out.map_batches(finish, batch_format="pyarrow",
                               batch_size=None)

    cust = side("customer", "c_nationkey", "c_acctbal", "cust_total")
    supp = side("supplier", "s_nationkey", "s_acctbal", "supp_total")
    return hash_join(cust, supp, on=("nk",), how="full").sort("nk")


def events_value_quantiles_by_type(sf_dir: str) -> rd.Dataset:
    """Per-event-type approximate value quantiles (p50/p90/p99) via the
    keyed mergeable quantile-grid fold (stages/sketch.py) — approximate,
    so rows-only; the rank-error bound is pytest-asserted against the
    exact per-group quantiles."""
    from ..stages.sketch import grouped_approx_quantiles
    ev = read_table(sf_dir, "events", columns=["event_type", "value"])
    return grouped_approx_quantiles(ev, ["event_type"], "value",
                                    [0.5, 0.9, 0.99]) \
        .sort(["event_type", "q"])


def daily_active_users_approx(sf_dir: str) -> rd.Dataset:
    """Approximate daily active users (distinct user_id per day) via the
    keyed HLL fold — the canonical DAU metric at 100-TB event volume.
    Day is emitted as an ISO string key (stable across both sketch and
    exact paths).  Approximate -> rows-only; error bound pytest-asserted
    against the exact per-day distinct."""
    from ..stages.sketch import grouped_approx_distinct
    ev = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def day(b: pa.Table) -> pa.Table:
        d = pc.strftime(pc.floor_temporal(b["ts"], unit="day"), "%Y-%m-%d")
        return pa.table({"day": d, "user_id": b["user_id"]})

    dsd = ev.map_batches(day, batch_format="pyarrow", batch_size=None)
    return grouped_approx_distinct(dsd, ["day"], "user_id",
                                   alias="dau_approx").sort("day")


def events_next_purchase(sf_dir: str) -> rd.Dataset:
    """FORWARD as-of join with a tolerance window: for every event, the
    timestamp of the user's NEXT 'purchase' within 7 days (conversion
    attribution).  Same one-exchange plan as ``events_asof_signup`` —
    user_id co-location, ONE ts-sorted ``merge_asof`` per block — with
    direction='forward' + tolerance.  Tie semantics: a same-timestamp
    purchase matches regardless of event_id order (match by ts value, not
    position), which the oracle mirrors with a RANGE window frame.
    Forward = the backward core ``_asof_match_ts`` run over the reversed
    block with negated timestamps (min t >= t_i becomes max -t <= -t_i)."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type"])
    tol_us = 7 * 24 * 3600 * 1_000_000

    def block_asof(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "event_id": pa.array([], pa.int64()),
                "next_purchase_ts": pa.array([], pa.timestamp("us"))})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        u = b["user_id"].to_numpy()
        t = b["ts"].cast(pa.int64()).to_numpy()
        is_p = pc.equal(b["event_type"], "purchase").to_numpy(
            zero_copy_only=False)
        neg_m, found = _asof_match_ts(u[::-1], -t[::-1], is_p[::-1])
        ts_m, found = -neg_m[::-1], found[::-1]
        found &= (ts_m - t) <= tol_us
        return pa.table({
            "user_id": b["user_id"],
            "event_id": b["event_id"],
            "next_purchase_ts": pa.array(
                np.where(found, ts_m, 0), pa.timestamp("us"),
                mask=~found)})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_asof, batch_format="pyarrow", batch_size=None)


def signup_to_purchase_stats(sf_dir: str) -> rd.Dataset:
    """Conversion-delay distribution: per converting user the seconds from
    FIRST signup to FIRST strictly-later purchase, folded to ONE stats row
    (n/mean/std/min/max) via ``grouped_stats`` with a constant key — the
    funnel's "how fast" companion to user_funnel_counts' "how many".
    Plan: two filtered grouped_min combiners (one row per (user, block)
    moves), size-aware join of the two tiny per-user tables, vectorized
    delay + one stats fold.  Exact: the delay is an integer microsecond
    difference divided by 1e6 (both sides IEEE-divide identical
    operands)."""
    from ..stages import aggregate as agg
    from ..stages.joins import lookup_join
    ev = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type"])

    def first_of(kind, alias):
        def f(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b["event_type"], kind))
            return t.select(["user_id", "ts"])
        return agg.grouped_min(
            ev.map_batches(f, batch_format="pyarrow", batch_size=None),
            ["user_id"], "ts", alias=alias)

    su = first_of("signup", "su").materialize()
    pu = first_of("purchase", "pu").materialize()
    both = lookup_join(su, pu, "user_id", "user_id", how="left")

    def delay(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(b["pu"]),
                       pc.greater(b["pu"], b["su"]))
        b = b.filter(keep)
        d = pc.divide(pc.cast(pc.subtract(
            b["pu"].cast(pa.int64()), b["su"].cast(pa.int64())),
            pa.float64()), pa.scalar(1e6))
        return pa.table({"k": pa.array(["all"] * b.num_rows),
                         "delay_s": d})

    delays = both.map_batches(delay, batch_format="pyarrow",
                              batch_size=None)
    return agg.grouped_stats(delays, ["k"], "delay_s")


def cheapest_supplier_per_part(sf_dir: str, min_size: int = 40) -> rd.Dataset:
    """TPC-H Q2-shape groupwise ARGMIN: for every part (restricted to
    ``p_size >= min_size``), the supplier that shipped it at the lowest
    observed unit cost (``l_extendedprice / l_quantity``), joined back to
    supplier and nation names.  Generalizes the reference's
    oldest-unprocessed LIMIT-1 scan (src/security_log_http.rs: min-row
    lookup) from one global argmin to one argmin PER KEY.

    Plan (scale-safe, two exchanges):
      1. in-batch grouped min of unit cost per (part, supplier) — the
         combiner collapses fact-scale lineitem to at most
         |part x supplier| rows per block before anything moves;
      2. global grouped_min on (part, supplier);
      3. per-part argmin via dedup_keep_first (hash-repartition on
         l_partkey, one vectorized sort + adjacent-dup mask per block) with
         the deterministic (cost, suppkey) tie-break;
      4. winners (one row per part) join part/supplier/nation through the
         size-aware lookup_join — never a driver-side dict.
    Exactness: unit cost is one IEEE division of identical operands on
    both engine and oracle sides; min/argmin over identical float sets is
    bit-stable (no accumulation), so the float compare is safe."""
    from ..stages import aggregate as agg
    from ..stages.dedup import _num_partitions, dedup_keep_first
    from ..stages.joins import lookup_join

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey",
                             "l_extendedprice", "l_quantity"])

    def unit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_quantity"], pa.scalar(0.0)))
        cost = pc.divide(b["l_extendedprice"],
                         pc.cast(b["l_quantity"], pa.float64()))
        return pa.table({"l_partkey": b["l_partkey"],
                         "l_suppkey": b["l_suppkey"], "cost": cost})

    per_ps = agg.grouped_min(
        li.map_batches(unit, batch_format="pyarrow", batch_size=None),
        ["l_partkey", "l_suppkey"], "cost", alias="cost")
    winners = dedup_keep_first(per_ps, keys=["l_partkey"],
                               order=["cost", "l_suppkey"])

    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_name", "p_size"])
    part = part.map_batches(
        lambda b: b.filter(pc.greater_equal(b["p_size"],
                                            pa.scalar(min_size))),
        batch_format="pyarrow", batch_size=None)
    supp = read_table(sf_dir, "supplier",
                      columns=["s_suppkey", "s_name", "s_nationkey"])
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"])
    nparts = _num_partitions(winners)
    j = lookup_join(winners, part, "l_partkey", "p_partkey", nparts=nparts)
    j = lookup_join(j, supp, "l_suppkey", "s_suppkey", nparts=nparts)
    j = lookup_join(j, nation, "s_nationkey", "n_nationkey", nparts=nparts)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": b["l_partkey"],
            "p_name": b["p_name"],
            "s_name": b["s_name"],
            "nation": b["n_name"],
            "unit_cost": pa.array(round_half_up(b["cost"].to_numpy(), 6)),
        })
    return j.map_batches(finish, batch_format="pyarrow") \
        .sort("p_partkey")


def idle_high_balance_customers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q22-shape: customers whose balance exceeds the average
    POSITIVE balance and who have never placed an URGENT order, counted +
    summed per nation.  (The synthetic orders table covers every customer,
    so the NOT-IN leg filters on o_orderpriority to stay non-trivial.)
    The anti-join leg is the reference's J3 dangling-host shape
    (src/security_log_http.rs cleanup query) on customer vs order keys.

    Exactness: the above-average predicate is restated in integer cents —
    ``bal_cents * n_pos > sum_cents_pos`` — so the distributed sum and
    DuckDB's sum agree bit-for-bit (float sums are order-dependent; int64
    sums are not).  Plan: one combiner pass folds the two scalars, the
    filtered customers anti-join the orders key set through the
    size-aware path, then a tiny per-nation groupby."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import anti_join, lookup_join

    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(b["c_acctbal"],
                                         pa.scalar(100.0))), pa.int64())
        return pa.table({"c_custkey": b["c_custkey"],
                         "c_nationkey": b["c_nationkey"], "bal_cents": c})

    cc = cust.map_batches(cents, batch_format="pyarrow",
                          batch_size=None).materialize()

    def pos_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["bal_cents"], pa.scalar(0, pa.int64())))
        return pa.table({
            "s": pa.array([pc.sum(t["bal_cents"]).as_py() or 0],
                          pa.int64()),
            "n": pa.array([t.num_rows], pa.int64())})

    parts = cc.map_batches(pos_partial, batch_format="pyarrow") \
        .take_all()  # one 2-int row per block — driver combine is exact
    tot_s = sum(r["s"] for r in parts)
    tot_n = sum(r["n"] for r in parts)

    rich = cc.map_batches(
        lambda b, s=tot_s, n=tot_n: b.filter(
            pc.greater(pc.multiply(b["bal_cents"],
                                   pa.scalar(n, pa.int64())),
                       pa.scalar(s, pa.int64()))),
        batch_format="pyarrow", batch_size=None)
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderpriority"])
    urgent = orders.map_batches(
        lambda b: b.filter(pc.equal(b["o_orderpriority"],
                                    pa.scalar("1-URGENT"))).select(
            ["o_custkey"]),
        batch_format="pyarrow", batch_size=None)
    idle = anti_join(rich, urgent, "c_custkey", "o_custkey",
                     nparts=_num_partitions(cc))

    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"])
    j = lookup_join(idle, nation, "c_nationkey", "n_nationkey")

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["n_name"]).aggregate(
            [("bal_cents", "sum"), ([], "count_all")]) \
            .rename_columns(["nation", "cents", "n_custs"])

    out = grouped_fold(j, ["nation"], partial,
                       [("cents", "sum"), ("n_custs", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        bal = pc.divide(pc.cast(b["cents"], pa.float64()),
                        pa.scalar(100.0))
        return pa.table({"nation": b["nation"],
                         "n_custs": b["n_custs"],
                         "total_bal": bal})
    return out.map_batches(finish, batch_format="pyarrow").sort("nation")


def supplier_variety(sf_dir: str, excl_bal: float = 2000.0,
                     k: int = 30) -> rd.Dataset:
    """TPC-H Q16-shape: per (p_brand, p_size), how many DISTINCT suppliers
    shipped that part class — excluding low-balance suppliers (the Q16
    'complaints' NOT-IN leg, done as the size-aware anti-join).  Plan:
    fact-scale lineitem |x| part via lookup_join, in-batch distinct
    combiner on (brand, size, suppkey), ONE hash exchange that both
    finishes the distinct and (because brand/size prefix the key) feeds
    the per-(brand,size) count without a second shuffle."""
    from ..stages.dedup import _num_partitions, distinct_rows
    from ..stages.joins import anti_join, lookup_join

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_size"])
    excl = read_table(sf_dir, "supplier",
                      columns=["s_suppkey", "s_acctbal"]).map_batches(
        lambda b: b.filter(pc.less(b["s_acctbal"],
                                   pa.scalar(excl_bal))).select(
            ["s_suppkey"]),
        batch_format="pyarrow", batch_size=None)

    nparts = _num_partitions(li)
    li = anti_join(li, excl, "l_suppkey", "s_suppkey", nparts=nparts)
    j = lookup_join(li, part, "l_partkey", "p_partkey", nparts=nparts)
    trip = j.map_batches(
        lambda b: b.select(["p_brand", "p_size", "l_suppkey"]),
        batch_format="pyarrow", batch_size=None)
    uniq = distinct_rows(trip, ["p_brand", "p_size", "l_suppkey"])

    def pcount(b: pa.Table) -> pa.Table:
        return b.group_by(["p_brand", "p_size"]).aggregate(
            [("l_suppkey", "count")]).rename_columns(
            ["p_brand", "p_size", "supplier_cnt"])

    out = grouped_fold(uniq, ["p_brand", "p_size"], pcount,
                       [("supplier_cnt", "sum")])
    return out.sort(["supplier_cnt", "p_brand", "p_size"],
                    descending=[True, False, False]).limit(k)


def modal_hour_by_type(sf_dir: str) -> rd.Dataset:
    """Grouped MODE: for every event_type, the hour-of-day with the most
    events (deterministic tie-break on the smaller hour) — the per-key
    argmax sibling of cheapest_supplier_per_part's argmin, over exact
    integer counts so engine and oracle agree bit-for-bit.  Plan: in-batch
    (type, hour) count combiner, one grouped sum, then per-type argmax via
    dedup_keep_first on (-cnt, hour)."""
    from ..stages.dedup import dedup_keep_first

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def hour(b: pa.Table) -> pa.Table:
        return pa.table({"event_type": b["event_type"],
                         "hour": pc.cast(pc.hour(b["ts"]), pa.int64())})

    counts = grouped_count(ds.map_batches(hour, batch_format="pyarrow"),
                           ["event_type", "hour"]).map_batches(
        lambda b: b.append_column("neg_cnt", pc.negate(b["cnt"])),
        batch_format="pyarrow", batch_size=None)
    win = dedup_keep_first(counts, keys=["event_type"],
                           order=["neg_cnt", "hour"])
    return win.select_columns(["event_type", "hour", "cnt"]) \
        .sort("event_type")


def events_value_hour_corr(sf_dir: str) -> rd.Dataset:
    """Grouped Pearson correlation between event value and hour-of-day,
    per event_type — the two-variable extension of grouped_stats'
    sum-of-squares fold.  One combiner pass emits the six partial sums
    (n, sx, sy, sxx, syy, sxy) per (type, block); one grouped fold
    finishes; r is computed from the folded sums with the SAME explicit
    formula the oracle SQL uses (rounded to 6: float partial-sum order
    differs between engine and DuckDB only in final ulps)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    sums = ["n", "sx", "sy", "sxx", "syy", "sxy"]
    aggs = [(c, "sum") for c in sums]

    def partials(b: pa.Table) -> pa.Table:
        x = b["value"]
        y = pc.cast(pc.hour(b["ts"]), pa.float64())
        t = pa.table({
            "event_type": b["event_type"],
            "n": pa.array(np.ones(b.num_rows)),
            "sx": x, "sy": y,
            "sxx": pc.multiply(x, x), "syy": pc.multiply(y, y),
            "sxy": pc.multiply(x, y)})
        return t.group_by(["event_type"]).aggregate(aggs) \
            .rename_columns(["event_type"] + sums)

    folded = grouped_fold(ds, ["event_type"], partials, aggs)

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy()
        sx, sy = b["sx"].to_numpy(), b["sy"].to_numpy()
        sxx, syy = b["sxx"].to_numpy(), b["syy"].to_numpy()
        sxy = b["sxy"].to_numpy()
        cov = n * sxy - sx * sy
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        denom = np.sqrt(vx * vy)
        r = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0),
                     np.nan)
        return pa.table({
            "event_type": b["event_type"],
            "n": pa.array(n.astype(np.int64)),
            "corr": pa.array(round_half_up(r, 6)),
        })
    return folded.map_batches(finish, batch_format="pyarrow") \
        .sort("event_type")


WEEK_US = 7 * 24 * 3600 * 1_000_000


def user_retention_cohorts(sf_dir: str) -> rd.Dataset:
    """Weekly retention-cohort grid: users cohorted by their FIRST active
    epoch-week; for every (cohort_week, week_offset) cell, how many of
    that cohort's users were active offset weeks later — the
    product-analytics triangle, and the corpus-freshness view a crawl
    pipeline runs on document fetch dates.  Weeks are exact integer
    µs-epoch divisions (floor(epoch_us / week_us)) so engine and oracle
    agree bit-for-bit with no date_trunc/datediff semantics in play.

    Plan (one exchange): in-batch distinct (user, week) combiner shrinks
    the fact stream to active-cells; hash-exchange on user_id lands each
    user's cells in one block; a single numpy-over-Arrow kernel per
    block finishes the distinct, takes per-user min week (cohort) via a
    scatter-min, and emits per-cell partial counts; the bounded
    (weeks x offsets) keyspace folds through the guarded driver-side
    final.  Generalizes the reference's year/month histogram
    (src/security_log_http.rs A3) to per-entity relative time."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages import aggregate as agg

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def cells(b: pa.Table) -> pa.Table:
        week = pc.divide(pc.cast(b["ts"], pa.int64()), WEEK_US)
        t = pa.table({"user_id": b["user_id"], "week": week})
        return t.group_by(["user_id", "week"]).aggregate([])

    def fold(b: pa.Table) -> pa.Table:
        empty = pa.schema([("cohort_week", pa.int64()),
                           ("week_offset", pa.int64()),
                           ("n_users", pa.int64())]).empty_table()
        if b.num_rows == 0:
            return empty
        # finish the cross-block distinct on (user, week)
        t = b.group_by(["user_id", "week"]).aggregate([])
        u = t["user_id"].to_numpy()
        w = t["week"].to_numpy()
        uid, inv = np.unique(u, return_inverse=True)
        cohort_per_user = np.full(len(uid), np.iinfo(np.int64).max,
                                  dtype=np.int64)
        np.minimum.at(cohort_per_user, inv, w)
        cohort = cohort_per_user[inv]
        cell = pa.table({"cohort_week": pa.array(cohort),
                         "week_offset": pa.array(w - cohort),
                         "one": pa.array(np.ones(len(w), np.int64))})
        g = cell.group_by(["cohort_week", "week_offset"]).aggregate(
            [("one", "sum")])
        return g.rename_columns(["cohort_week", "week_offset", "n_users"])

    partials = _by_key_blocks(
        ds.map_batches(cells, batch_format="pyarrow"),
        ["user_id"]).map_batches(fold, batch_format="pyarrow",
                                 batch_size=None)
    return agg.grouped_sum(partials, ["cohort_week", "week_offset"],
                           "n_users", alias="n_users") \
        .sort(["cohort_week", "week_offset"])


DAY_US = 24 * 3600 * 1_000_000
WAU_WINDOW = 7  # rolling window, days


def rolling_wau(sf_dir: str) -> rd.Dataset:
    """Rolling 7-day distinct active users (the WAU curve): for every
    epoch-day in the data range, how many distinct users had >=1 event in
    the trailing 7-day window ending that day.  Days are exact integer
    µs-epoch divisions so engine and oracle agree bit-for-bit.

    Plan (bounded expansion, no window join): the fact stream shrinks to
    distinct (user, day) active cells first (in-batch combiner + one hash
    exchange); each cell then fans out to the <=7 window-days it can
    serve (a FIXED 7x expansion of the already-tiny cell table — never of
    the fact table); a second distinct collapses users active on several
    days of one window; a grouped count finishes.  This is the exact
    version of the keyed-HLL DAU pipeline, and the window analog of the
    reference's year/month histogram (src/security_log_http.rs:
    get_log_messages aggregation surface)."""
    from ..stages import aggregate as agg
    from ..stages.dedup import distinct_rows

    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def cells(b: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(b["ts"], pa.int64()), DAY_US)
        return pa.table({"user_id": b["user_id"], "day": day}) \
            .group_by(["user_id", "day"]).aggregate([])

    uw = distinct_rows(ev.map_batches(cells, batch_format="pyarrow"),
                       ["user_id", "day"]).materialize()
    max_day = uw.max("day")

    def explode(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy()
        d = b["day"].to_numpy()
        off = np.tile(np.arange(WAU_WINDOW, dtype=np.int64), len(d))
        wd = np.repeat(d, WAU_WINDOW) + off
        keep = wd <= max_day
        return pa.table({"user_id": np.repeat(u, WAU_WINDOW)[keep],
                         "day": wd[keep]})

    pairs = distinct_rows(
        uw.map_batches(explode, batch_format="pyarrow"),
        ["user_id", "day"])
    return agg.grouped_count(pairs, ["day"], alias="n_users").sort("day")


def events_onehot_features(sf_dir: str) -> rd.Dataset:
    """Sparse ONE-HOT feature triplets — the categorical-feature handoff
    to a trainer: every event emits (event_id, feature_id) for its
    event_type and its ISO day-of-week bucket, with feature ids assigned
    by a STABLE global dictionary (sorted (family, value) order, so ids
    are reproducible across runs and shards).  The dictionary is a tiny
    distinct fold broadcast into a stateless vectorized index_in map —
    the fact stream never shuffles.  Output (event_id, feature_id,
    feature) sorted-id-per-row, fact-scale x2, streaming."""
    from ..stages.dedup import distinct_rows
    from ..stages.joins import _collect_table
    ds = read_table(sf_dir, "events", columns=["event_id", "event_type",
                                               "ts"])

    def feats(b: pa.Table) -> pa.Table:
        dow = pc.cast(pc.add(pc.day_of_week(b["ts"]), pa.scalar(1)),
                      pa.int64())
        f1 = pc.binary_join_element_wise(
            pa.array(["type"] * b.num_rows), b["event_type"], "=")
        f2 = pc.binary_join_element_wise(
            pa.array(["dow"] * b.num_rows),
            pc.cast(dow, pa.string()), "=")
        n = b.num_rows
        return pa.table({
            "event_id": pa.concat_arrays(
                [b["event_id"].combine_chunks()
                 if isinstance(b["event_id"], pa.ChunkedArray)
                 else b["event_id"]] * 2),
            "feature": pa.concat_arrays([
                f1.combine_chunks() if isinstance(f1, pa.ChunkedArray)
                else f1,
                f2.combine_chunks() if isinstance(f2, pa.ChunkedArray)
                else f2])})

    fs = ds.map_batches(feats, batch_format="pyarrow", batch_size=None)
    vocab = _collect_table(distinct_rows(
        fs.map_batches(lambda t: t.select(["feature"]),
                       batch_format="pyarrow", batch_size=None),
        ["feature"]))
    names = sorted(v.as_py() for v in vocab["feature"])
    ref = pa.array(names, pa.string())
    import ray as _ray
    href = _ray.put(ref)

    def encode(b: pa.Table) -> pa.Table:
        voc = _ray.get(href)
        idx = pc.index_in(b["feature"], value_set=voc)
        return pa.table({"event_id": b["event_id"],
                         "feature_id": pc.cast(idx, pa.int64()),
                         "feature": b["feature"]})

    return fs.map_batches(encode, batch_format="pyarrow", batch_size=None)


def events_target_encoded(sf_dir: str) -> rd.Dataset:
    """LEAVE-ONE-OUT target encoding of event_type against `value` — the
    leakage-safe categorical encoder: each row's feature is the mean of
    its category's target EXCLUDING the row itself,
    (sum_t - v_i) / (n_t - 1).  One grouped (sum, n) fold broadcasts the
    |types|-row stats table back; the rewrite is stateless and the
    fact stream never co-locates per category.  The fold runs in
    INTEGER CENTS so the category sums are exact in any summation order
    (a float fold differed from the oracle in the last rounded digit —
    the repo's standard cents discipline).  Singleton categories emit
    NULL (no peers to borrow from), exactly as the oracle's NULLIF.
    Output (event_id, loo_mean round 6), fact-scale, streaming."""
    from ..stages.joins import _collect_table, lookup_join
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])

    def fold(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["value"].to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        t = pa.table({"event_type": b["event_type"],
                      "s": pa.array(cents),
                      "n": pa.array(np.ones(b.num_rows, np.int64))})
        return t.group_by(["event_type"]).aggregate(
            [("s", "sum"), ("n", "sum")]) \
            .rename_columns(["event_type", "s", "n"])

    stats = grouped_fold(ds, ["event_type"], fold,
                         [("s", "sum"), ("n", "sum")]).materialize()
    j = lookup_join(ds, stats, "event_type", "event_type", how="inner")

    def loo(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["value"].to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        sv = b["s"].to_numpy(zero_copy_only=False)
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            enc = (sv - cents).astype(np.float64) / (n - 1.0) / 100.0
        out = round_half_up(enc, 6)
        mask = pa.array(n > 1)
        return pa.table({"event_id": b["event_id"],
                         "loo_mean": pc.if_else(
                             mask, pa.array(out),
                             pa.scalar(None, pa.float64()))})

    return j.map_batches(loo, batch_format="pyarrow", batch_size=None)


XCORR_MAX_LAG = 5


def events_daily_lag_correlation(sf_dir: str) -> rd.Dataset:
    """Lagged CROSS-CORRELATION between the 'click' and 'purchase' daily
    count series: corr(click[d], purchase[d+lag]) for lag 0..L — "how
    many days after click volume does purchase volume follow" (the
    lead-lag diagnostic before any causal claim).  The fact stream folds
    partial-first to two calendar-bounded series; the lag loop runs on
    the ~30-row fold.  Pearson r restated with the explicit
    sum-of-products formula on BOTH sides, over the overlapping day
    range of each lag.  Output (lag, n_days, r round 6)."""
    def day_counts(b: pa.Table) -> pa.Table:
        f = b.filter(pc.is_in(b["event_type"],
                              value_set=pa.array(["click", "purchase"])))
        t = pa.table({
            "day": pc.divide(pc.cast(f["ts"], pa.int64()), DAY_US),
            "is_c": pc.cast(pc.equal(f["event_type"], "click"),
                            pa.int64()),
            "is_p": pc.cast(pc.equal(f["event_type"], "purchase"),
                            pa.int64())})
        return t.group_by(["day"]).aggregate(
            [("is_c", "sum"), ("is_p", "sum")]) \
            .rename_columns(["day", "c", "p"])

    daily = grouped_fold(
        read_table(sf_dir, "events", columns=["ts", "event_type"]), ["day"],
        day_counts, [("c", "sum"), ("p", "sum")]) \
        .to_pandas().sort_values("day").reset_index(drop=True)
    empty = pa.table({"lag": pa.array([], pa.int64()),
                      "n_days": pa.array([], pa.int64()),
                      "r": pa.array([], pa.float64())})
    if len(daily) <= XCORR_MAX_LAG + 1:
        return rd.from_arrow(empty)
    # dense day index (the synthetic calendar is dense; reindex guards)
    days = daily["day"].to_numpy()
    full = np.arange(days.min(), days.max() + 1)
    c = np.zeros(len(full)); p = np.zeros(len(full))
    c[days - days.min()] = daily["c"].to_numpy()
    p[days - days.min()] = daily["p"].to_numpy()
    lags, ns, rs = [], [], []
    for lag in range(XCORR_MAX_LAG + 1):
        x = c[:len(full) - lag]
        y = p[lag:]
        n = float(len(x))
        sx, sy = x.sum(), y.sum()
        sxx, syy, sxy = (x * x).sum(), (y * y).sum(), (x * y).sum()
        den = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        if den == 0:
            continue
        lags.append(lag)
        ns.append(len(x))
        rs.append((n * sxy - sx * sy) / den)
    return rd.from_arrow(pa.table({
        "lag": pa.array(lags, pa.int64()),
        "n_days": pa.array(ns, pa.int64()),
        "r": pa.array(round_half_up(np.array(rs), 6))}))


def events_type_drift_scores(sf_dir: str) -> rd.Dataset:
    """Per-type DRIFT SCORE against the pooled distribution, for EVERY
    type in one pass: max over the type's own observation points of
    |F_type - F_global| — the multi-group screening KS (which segments
    moved?) run before pairwise tests.  (Evaluated at the type's own
    points, the convention the oracle states; the classical sup adds
    flat-segment points and only grows the score.)

    ONE global (value, event_id) sort; a summary pass reports per-(block,
    type) counts, the driver prefix-folds per-type AND global entering
    offsets, and each block computes every row's in-type rank with one
    lexsort + arange — all |types| scores from the same scan.  Output
    (event_type, drift) round-6 by type."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .sort(["value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "typ": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        t = b.group_by(["event_type"]).aggregate([([], "count_all")]) \
            .rename_columns(["typ", "cnt"])
        n = t.num_rows
        return pa.table({
            "v0": pa.array([b["value"][0].as_py()] * n, pa.float64()),
            "id0": pa.array([b["event_id"][0].as_py()] * n, pa.int64()),
            "typ": t["typ"], "cnt": t["cnt"]})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "drift": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    blocks = summ.groupby(["v0", "id0"], sort=False)["cnt"].sum() \
        .reset_index().sort_values(["v0", "id0"]).reset_index(drop=True)
    blocks["goff"] = np.r_[0, np.cumsum(blocks["cnt"].to_numpy())[:-1]]
    n_total = int(blocks["cnt"].sum())
    goffs = {(float(r["v0"]), int(r["id0"])): int(r["goff"])
             for _, r in blocks.iterrows()}
    summ = summ.sort_values(["v0", "id0"]).reset_index(drop=True)
    summ["toff"] = summ.groupby("typ", sort=False)["cnt"].cumsum() \
        - summ["cnt"]
    totals = summ.groupby("typ", sort=False)["cnt"].sum().to_dict()
    toffs: dict = {}
    for _, r in summ.iterrows():
        toffs.setdefault((float(r["v0"]), int(r["id0"])), {})[
            r["typ"]] = int(r["toff"])

    def block_drift(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "d": pa.array([], pa.float64())})
        key = (float(b["value"][0].as_py()),
               int(b["event_id"][0].as_py()))
        goff = goffs[key]
        per_type = toffs[key]
        et = b["event_type"].combine_chunks() \
            if isinstance(b["event_type"], pa.ChunkedArray) \
            else b["event_type"]
        enc = et.dictionary_encode()
        codes = np.asarray(enc.indices.to_numpy(zero_copy_only=False),
                           dtype=np.int64)
        names = enc.dictionary.to_pylist()
        n = len(codes)
        # in-block per-type running rank: stable lexsort by (code, pos)
        order = np.lexsort((np.arange(n), codes))
        cs = codes[order]
        first = np.r_[True, cs[1:] != cs[:-1]]
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, n])
        local = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        k_local = np.empty(n, dtype=np.int64)
        k_local[order] = local
        base = np.array([per_type[names[c]] for c in range(len(names))],
                        dtype=np.int64)
        nt = np.array([totals[names[c]] for c in range(len(names))],
                      dtype=np.float64)
        k = base[codes] + k_local + 1
        g = goff + np.arange(n, dtype=np.int64) + 1
        gap = np.abs(k / nt[codes] - g / float(n_total))
        gs = gap[order]
        dmax = np.maximum.reduceat(gs, starts)
        return pa.table({
            "event_type": pa.array([names[cs[i]] for i in starts],
                                   pa.string()),
            "d": pa.array(dmax, pa.float64())})

    from ..stages import aggregate as agg
    folded = agg.grouped_max(
        ds.map_batches(block_drift, batch_format="pyarrow",
                       batch_size=None),
        ["event_type"], "d", alias="d").to_pandas()
    folded = folded.sort_values("event_type").reset_index(drop=True)
    return rd.from_arrow(pa.table({
        "event_type": pa.array(folded["event_type"], pa.string()),
        "drift": pa.array(round_half_up(
            folded["d"].to_numpy(dtype=np.float64), 6))}))


AB_HASH_MULT = 2654435761
AB_HASH_MOD = 1000003


def events_ab_conversion_ztest(sf_dir: str) -> rd.Dataset:
    """A/B TEST READOUT: users hash-split into two arms (the repo's
    deterministic multiplicative split rule), conversion = the user
    produced >=1 'purchase' event, and the two-proportion POOLED z-test
    says whether the arms differ — the experimentation primitive every
    event pipeline grows.  The fact stream folds to one (user,
    converted) row via a grouped max (pre-distinct combiner); arm
    counts and the z arithmetic run on the |users|-sized fold, integers
    until the final formula.  Output one row (n_a, conv_a, n_b, conv_b,
    p_a, p_b, z) round-6."""
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    # conversion = a purchase whose integer cents fall in a 1-in-7
    # slice: an integer-mod rule, exact at any scale AND non-degenerate
    # at every sf (plain "any purchase" saturates to p = 1)
    def flag(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["value"].to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        is_p = pc.equal(b["event_type"], "purchase") \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": b["user_id"],
            "c": pa.array((is_p & (np.mod(cents, 7) == 0))
                          .astype(np.int64))})

    conv = agg.grouped_max(
        ds.map_batches(flag, batch_format="pyarrow", batch_size=None),
        ["user_id"], "c", alias="converted").to_pandas()
    empty = pa.table({k: pa.array([], pa.int64())
                      for k in ["n_a", "conv_a", "n_b", "conv_b"]} |
                     {k: pa.array([], pa.float64())
                      for k in ["p_a", "p_b", "z"]})
    if not len(conv):
        return rd.from_arrow(empty)
    u = conv["user_id"].to_numpy()
    arm_b = ((u * AB_HASH_MULT) % AB_HASH_MOD) % 2 == 1
    c = conv["converted"].to_numpy()
    n_a, n_b = int((~arm_b).sum()), int(arm_b.sum())
    ca, cb = int(c[~arm_b].sum()), int(c[arm_b].sum())
    if n_a == 0 or n_b == 0:
        return rd.from_arrow(empty)
    p_a, p_b = ca / n_a, cb / n_b
    pool = (ca + cb) / (n_a + n_b)
    den = np.sqrt(pool * (1 - pool) * (1 / n_a + 1 / n_b))
    z = (p_a - p_b) / den if den > 0 else 0.0
    return rd.from_arrow(pa.table({
        "n_a": pa.array([n_a], pa.int64()),
        "conv_a": pa.array([ca], pa.int64()),
        "n_b": pa.array([n_b], pa.int64()),
        "conv_b": pa.array([cb], pa.int64()),
        "p_a": pa.array(round_half_up(np.array([p_a]), 6)),
        "p_b": pa.array(round_half_up(np.array([p_b]), 6)),
        "z": pa.array(round_half_up(np.array([z]), 6))}))


FK_EDGES = [
    ("orders.o_custkey->customer", "orders", "o_custkey",
     "customer", "c_custkey"),
    ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
     "orders", "o_orderkey"),
    ("lineitem.l_partkey->part", "lineitem", "l_partkey",
     "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey",
     "supplier", "s_suppkey"),
    ("supplier.s_nationkey->nation", "supplier", "s_nationkey",
     "nation", "n_nationkey"),
    ("customer.c_nationkey->nation", "customer", "c_nationkey",
     "nation", "n_nationkey"),
    ("nation.n_regionkey->region", "nation", "n_regionkey",
     "region", "r_regionkey"),
]


def fk_integrity_audit(sf_dir: str) -> rd.Dataset:
    """Referential-integrity audit over EVERY foreign-key edge of the
    warehouse schema: per edge, the count of child rows whose key has no
    parent (the J3 dangling-host shape, generalized).  Each edge is one
    size-aware anti-join (parent key sets broadcast while under the byte
    budget) followed by a streaming count — child tables never
    co-locate.  A clean warehouse returns all zeros, and the zeros are
    the point: the audit is the gate a 100-TB ingest runs before
    publishing a snapshot.  Output (edge, violations) by edge."""
    from ..stages import aggregate as agg
    from ..stages.joins import _collect_table, anti_join
    # ALL edges audit in ONE pipeline: child and parent key streams are
    # tagged with their edge index and fused into a single int64
    # (edge << 48 | key — warehouse surrogate keys fit 48 bits by
    # construction), so one size-aware anti-join + one grouped count
    # covers every edge instead of 7 sequential executions
    EDGE_SHIFT = 48

    def tag(i: int, col: str):
        def fn(b: pa.Table) -> pa.Table:
            k = b[col].to_numpy(zero_copy_only=False).astype(np.int64)
            # the fuse is only injective for keys in [0, 2^48); a negative
            # or oversized key would alias into another edge's keyspace and
            # silently corrupt the audit — fail loudly instead
            if k.size and (k.min() < 0 or k.max() >= (1 << EDGE_SHIFT)):
                raise ValueError(
                    f"fk_integrity_audit: {col} key outside [0, 2^{EDGE_SHIFT})"
                    " — fused-edge encoding would alias")
            return pa.table({"fused": pa.array(
                (np.int64(i) << EDGE_SHIFT) | k, pa.int64())})
        return fn

    childs, parents = [], []
    for i, (_, child, ck, parent, pk) in enumerate(FK_EDGES):
        childs.append(read_table(sf_dir, child, columns=[ck])
                      .map_batches(tag(i, ck), batch_format="pyarrow",
                                   batch_size=None))
        parents.append(read_table(sf_dir, parent, columns=[pk])
                       .map_batches(tag(i, pk), batch_format="pyarrow",
                                    batch_size=None))
    child_ds = childs[0].union(*childs[1:])
    parent_ds = parents[0].union(*parents[1:])
    missing = anti_join(child_ds, parent_ds, "fused", "fused")
    cnt = _collect_table(agg.grouped_count(
        missing.map_batches(
            lambda b, sh=EDGE_SHIFT: pa.table({"edge_idx": pa.array(
                b["fused"].to_numpy(zero_copy_only=False) >> sh)}),
            batch_format="pyarrow", batch_size=None),
        ["edge_idx"]))
    viol = {int(e.as_py()): int(c.as_py())
            for e, c in zip(cnt["edge_idx"], cnt["cnt"])} \
        if cnt.num_rows else {}
    return rd.from_arrow(pa.table({
        "edge": pa.array([e[0] for e in FK_EDGES], pa.string()),
        "violations": pa.array([viol.get(i, 0)
                                for i in range(len(FK_EDGES))],
                               pa.int64())}))


def user_survival_curve(sf_dir: str) -> rd.Dataset:
    """KAPLAN–MEIER survival curve for time-to-SECOND-event (days): the
    churn-analysis estimator that handles CENSORING correctly — a user
    with only one event hasn't "died", they're censored at the corpus
    watermark, and dropping them (the naive mean) biases the curve.

    Plan: ONE user exchange -> per-block vectorized (first, second)
    event times per user segment -> (duration_days, observed) rows ->
    the calendar-x-2-sized grouped count fold; the KM product
    S(t) = prod_{t'<=t} (1 - d/n) runs on that tiny fold (at-risk counts
    = reverse cumsum).  Output (t_days, at_risk, events, survival
    round-6) at each OBSERVED event time, by t."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    wm = int(pc.cast(pa.scalar(
        read_table(sf_dir, "events", columns=["ts"]).max("ts")),
        pa.int64()).as_py())

    def first_two(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"dur": pa.array([], pa.int64()),
                             "ev": pa.array([], pa.int64())})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        u = b["user_id"].to_numpy()
        t = b["ts"].cast(pa.int64()).to_numpy()
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        lens = np.diff(np.r_[starts, len(u)])
        t1 = t[starts]
        has2 = lens >= 2
        t2 = np.where(has2, t[np.minimum(starts + 1, len(t) - 1)], wm)
        dur = (t2 - t1) // DAY_US
        return pa.table({"dur": pa.array(dur, pa.int64()),
                         "ev": pa.array(has2.astype(np.int64))})

    fold = grouped_count(_by_key_blocks(ds, ["user_id"]).map_batches(
        first_two, batch_format="pyarrow", batch_size=None),
        ["dur", "ev"], "c").to_pandas()
    empty = pa.table({"t_days": pa.array([], pa.int64()),
                      "at_risk": pa.array([], pa.int64()),
                      "events": pa.array([], pa.int64()),
                      "survival": pa.array([], pa.float64())})
    if not len(fold):
        return rd.from_arrow(empty)
    # at-risk at time t = subjects with duration >= t (reverse cumsum)
    durs = np.sort(fold["dur"].unique())
    cnt_at = fold.groupby("dur")["c"].sum().reindex(durs).to_numpy()
    total = int(cnt_at.sum())
    entered_before = np.concatenate([[0], np.cumsum(cnt_at)[:-1]])
    at_risk_by_dur = total - entered_before
    ev_counts = fold[fold["ev"] == 1].set_index("dur")["c"]
    t_days, at_risk, events, surv = [], [], [], []
    s_run = 1.0
    for i, d in enumerate(durs):
        e = int(ev_counts.get(d, 0))
        if e == 0:
            continue
        n = int(at_risk_by_dur[i])
        s_run *= (1.0 - e / n)
        t_days.append(int(d))
        at_risk.append(n)
        events.append(e)
        surv.append(s_run)
    return rd.from_arrow(pa.table({
        "t_days": pa.array(t_days, pa.int64()),
        "at_risk": pa.array(at_risk, pa.int64()),
        "events": pa.array(events, pa.int64()),
        "survival": pa.array(round_half_up(np.array(surv), 6))}))


SEAS_MA = 7   # centered moving-average window for the trend


def _daily_counts(sf_dir: str) -> pd.DataFrame:
    """(day, cnt) event counts per calendar day, sorted by day — the
    calendar-bounded series (~30 rows a month whatever the fact scale)
    under the daily smoothing / decomposition / change-point ops."""
    days = read_table(sf_dir, "events", columns=["ts"]).map_batches(
        lambda b: pa.table({"day": pc.floor_temporal(b["ts"], unit="day")}),
        batch_format="pyarrow")
    return grouped_count(days, ["day"]).to_pandas() \
        .sort_values("day").reset_index(drop=True)


def events_seasonal_decompose(sf_dir: str) -> rd.Dataset:
    """Classical additive SEASONAL DECOMPOSITION of the daily count
    series: cnt = trend (centered 7-day moving average) + weekday
    effect (per-ISO-dow mean of the detrended series) + residual — the
    "is Monday really slower, or is it the trend" dashboard view.  Only
    days with a FULL centered window carry a trend (the SQL states the
    same count(*)=7 frame guard).  The fact stream folds partial-first
    to the calendar-bounded series; decomposition runs on the ~30-row
    fold.  Output (day, cnt, trend, dow_effect, residual) round-6."""
    daily = _daily_counts(sf_dir)
    empty = pa.table({"day": pa.array([], pa.timestamp("us")),
                      "cnt": pa.array([], pa.int64()),
                      "trend": pa.array([], pa.float64()),
                      "dow_effect": pa.array([], pa.float64()),
                      "residual": pa.array([], pa.float64())})
    if len(daily) < SEAS_MA:
        return rd.from_arrow(empty)
    x = daily["cnt"].to_numpy().astype(np.float64)
    half = SEAS_MA // 2
    n = len(x)
    cs = np.concatenate([[0.0], np.cumsum(x)])
    trend = np.full(n, np.nan)
    idx = np.arange(half, n - half)
    trend[idx] = (cs[idx + half + 1] - cs[idx - half]) / SEAS_MA
    # ISO dow of each day
    dow = pd.to_datetime(daily["day"]).dt.isocalendar().day.to_numpy()
    det = x - trend
    eff = np.full(n, np.nan)
    for d in range(1, 8):
        m = (dow == d) & ~np.isnan(trend)
        if m.any():
            eff[dow == d] = det[m].sum() / m.sum()
    keep = ~np.isnan(trend)
    res = x[keep] - trend[keep] - eff[keep]
    return rd.from_arrow(pa.table({
        "day": pa.array(daily["day"].astype("datetime64[us]")
                        .to_numpy()[keep]),
        "cnt": pa.array(daily["cnt"].to_numpy()[keep], pa.int64()),
        "trend": pa.array(round_half_up(trend[keep], 6)),
        "dow_effect": pa.array(round_half_up(eff[keep], 6)),
        "residual": pa.array(round_half_up(res, 6))}))


RFM_BINS = 5


def user_rfm_segments(sf_dir: str) -> rd.Dataset:
    """RFM SEGMENTATION: per-user Recency (days since last event at the
    corpus watermark), Frequency (events), Monetary (sum value in
    cents), each scored 1..5 by NTILE over the user population, plus the
    classic champion/at-risk labels.  The fact stream folds
    partial-first to the |users|-cardinality RFM table (grouped
    max/count/sum); the scoring runs on that dim-sized fold with
    DuckDB's exact big-tiles-first ntile rule so the oracle matches
    tile-for-tile.  Output (user_id, recency_days, frequency, monetary,
    r_score, f_score, m_score, segment) by user."""
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "value"])

    def fold(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b["value"].to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        t = pa.table({"user_id": b["user_id"],
                      "last": pc.cast(b["ts"], pa.int64()),
                      "n": pa.array(np.ones(b.num_rows, np.int64)),
                      "m": pa.array(cents)})
        return t.group_by(["user_id"]).aggregate(
            [("last", "max"), ("n", "sum"), ("m", "sum")]) \
            .rename_columns(["user_id", "last", "frequency", "monetary"])

    from ..stages.joins import lookup_join
    rfm = grouped_fold(ds, ["user_id"], fold, [
        ("last", "max"), ("frequency", "sum"), ("monetary", "sum")]) \
        .materialize()
    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "recency_days": pa.array([], pa.int64()),
                      "frequency": pa.array([], pa.int64()),
                      "monetary": pa.array([], pa.int64()),
                      "r_score": pa.array([], pa.int64()),
                      "f_score": pa.array([], pa.int64()),
                      "m_score": pa.array([], pa.int64()),
                      "segment": pa.array([], pa.string())})
    if rfm.count() == 0:
        return rd.from_arrow(empty)
    wm = int(rfm.max("last"))          # one driver scalar, never a table

    def with_recency(b: pa.Table) -> pa.Table:
        rec = (wm - b["last"].to_numpy()) // DAY_US
        return pa.table({"user_id": b["user_id"],
                         "recency_days": pa.array(rec, pa.int64()),
                         "frequency": b["frequency"],
                         "monetary": b["monetary"]})

    base = rfm.map_batches(with_recency, batch_format="pyarrow",
                           batch_size=None).materialize()
    # the three NTILE(5) scores run DISTRIBUTED (the events_value_ntile
    # block-offset plan: global sort -> one summary row per block ->
    # driver folds block counts into exclusive rank offsets -> in-block
    # arange + the big-tiles-first SQL rule).  Driver state is one row
    # per BLOCK, never per user — the |users| fold itself never lands on
    # the driver.  recency: SMALLER is better (asc); frequency/monetary:
    # BIGGER is better (desc); user_id breaks ties, matching DuckDB's
    # ntile(5) OVER (ORDER BY key [DESC], user_id).
    out = base
    for col, asc, score_col in (("recency_days", True, "r_score"),
                                ("frequency", False, "f_score"),
                                ("monetary", False, "m_score")):
        scores = _user_ntile_scores(
            base.select_columns(["user_id", col]), col, asc,
            RFM_BINS, score_col)
        out = lookup_join(out, scores, "user_id", "user_id",
                          nparts=8).materialize()

    def label(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        r_s = b["r_score"].to_numpy()
        f_s = b["f_score"].to_numpy()
        seg = np.where((r_s == 1) & (f_s == 1), "champion",
                       np.where((r_s >= 4) & (f_s <= 2),
                                "at_risk", "regular"))
        return pa.table({
            "user_id": b["user_id"],
            "recency_days": b["recency_days"],
            "frequency": b["frequency"],
            "monetary": b["monetary"],
            "r_score": b["r_score"],
            "f_score": b["f_score"],
            "m_score": b["m_score"],
            "segment": pa.array(seg.astype(object), pa.string())})

    return out.map_batches(label, batch_format="pyarrow", batch_size=None)


def _user_ntile_scores(ds: rd.Dataset, key: str, asc: bool,
                       n_tiles: int, out_col: str) -> rd.Dataset:
    """GLOBAL NTILE over a (user_id, key) dataset — the
    ``events_value_ntile`` block-offset plan without the type partition:
    one global sort on (key [DESC], user_id), each block emits ONE
    (first-row user_id, row-count) summary row, the driver folds those
    per-block rows into exclusive rank offsets (user_id is globally
    unique, so the first-row id alone recovers block order), and a final
    vectorized pass adds the in-block arange and applies DuckDB's
    big-tiles-first rule (first ``n % t`` tiles get ``n//t + 1`` rows).
    Returns (user_id, out_col 1..n_tiles); driver state is one row per
    block."""
    s = ds.sort([key, "user_id"],
                descending=[not asc, False]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"k0": pa.array([], pa.int64()),
                             "id0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"k0": pc.cast(b[key].slice(0, 1), pa.int64()),
                         "id0": b["user_id"].slice(0, 1),
                         "cnt": pa.array([b.num_rows], pa.int64())})

    summ = s.map_batches(summary, batch_format="pyarrow",
                         batch_size=None).to_pandas()
    summ = summ.sort_values(["k0", "id0"], ascending=[asc, True],
                            kind="stable").reset_index(drop=True)
    offs = summ["cnt"].cumsum().shift(fill_value=0)
    n = int(summ["cnt"].sum())
    ref = ray.put({int(i): int(o) for i, o in zip(summ["id0"], offs)})
    base_sz, rem = divmod(n, n_tiles)
    big = rem * (base_sz + 1)

    def attach(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             out_col: pa.array([], pa.int64())})
        off = ray.get(ref)[int(b["user_id"][0].as_py())]
        rank0 = off + np.arange(b.num_rows, dtype=np.int64)
        inbig = rank0 < big
        tile = np.where(inbig, rank0 // max(base_sz + 1, 1),
                        rem + (rank0 - big) // max(base_sz, 1))
        return pa.table({"user_id": b["user_id"],
                         out_col: pa.array(tile + 1, pa.int64())})

    return s.map_batches(attach, batch_format="pyarrow", batch_size=None)


def user_behavior_entropy(sf_dir: str) -> rd.Dataset:
    """Per-user Shannon entropy of the event-type distribution — the
    behavioral-diversity score (0 = one-trick user, ln|types| = uniform).
    One (user, type) grouped count (pre-distinct combiner shape), then a
    per-block vectorized entropy fold over each user's contiguous rows
    after ONE user exchange — the |users|-cardinality result streams.
    Output (user_id, n_events, entropy round 6) by user."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    counts = agg.grouped_count(ds, ["user_id", "event_type"], alias="c")

    def block_entropy(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "entropy": pa.array([], pa.float64())})
        b = b.sort_by([("user_id", "ascending"),
                       ("event_type", "ascending")])
        u = b["user_id"].to_numpy()
        c = b["c"].to_numpy().astype(np.float64)
        first = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, len(u)])
        gid = np.cumsum(first) - 1
        tot = np.bincount(gid, weights=c)
        p = c / tot[gid]
        ent = -np.bincount(gid, weights=p * np.log(p))
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "n_events": pa.array(tot.astype(np.int64), pa.int64()),
            "entropy": pa.array(round_half_up(ent, 6))})

    return _by_key_blocks(counts, ["user_id"]).map_batches(
        block_entropy, batch_format="pyarrow", batch_size=None) \
        .sort("user_id")


BAND_EPS = 0.01   # |value_a - value_b| < eps pairs the rows


def events_value_band_join(sf_dir: str) -> rd.Dataset:
    """BAND (theta) JOIN: pairs of (click, view) events whose values lie
    within eps of each other — the numeric near-match join (record
    linkage on a measurement, sensor cross-calibration).  A theta join
    is not an equi-join, so it becomes one by BUCKETING: the click side
    keys on bucket floor(v/eps); the view side replicates to its bucket
    AND both neighbors, so every qualifying pair meets in EXACTLY one
    bucket (the click row's own) and the exact |diff| < eps filter runs
    vectorized after a size-aware hash join on the bucket key — never an
    all-pairs cross product.  Output (a_id, b_id, diff round 6) with
    a = click, b = view."""
    from ..stages.joins import hash_join
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])

    # buckets come from EXACT integer cents (round(v*100)), not float
    # floor(v/eps): two independent float divisions can disagree by a
    # whole bucket right at an eps boundary and silently drop a pair the
    # exact |diff| < eps filter would keep.  With eps = 1 cent and cent
    # rounding error <= 0.5 each side, a qualifying pair's buckets are
    # provably <= 1 apart, so the +/-1 replication below never misses.
    def _cents(v: np.ndarray) -> np.ndarray:
        # rint (nearest), not floor: |rint(x) - x| <= 0.5 regardless of
        # float error, which is exactly the bound the +/-1 proof needs
        return np.rint(v / BAND_EPS).astype(np.int64)

    def side_a(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "click"))
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table({"a_id": t["event_id"],
                         "va": t["value"],
                         "bucket": pa.array(_cents(v))})

    def side_b(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "view"))
        v = t["value"].to_numpy(zero_copy_only=False)
        base = _cents(v)
        n = len(base)
        return pa.table({
            "b_id": pa.array(np.tile(t["event_id"].to_numpy(), 3)),
            "vb": pa.array(np.tile(v, 3)),
            "bucket": pa.array(np.concatenate(
                [base - 1, base, base + 1]))})

    a = ds.map_batches(side_a, batch_format="pyarrow", batch_size=None)
    bb = ds.map_batches(side_b, batch_format="pyarrow", batch_size=None)
    j = hash_join(a, bb, on=("bucket",), nparts=8)

    def finish(t: pa.Table) -> pa.Table:
        va = t["va"].to_numpy(zero_copy_only=False)
        vb = t["vb"].to_numpy(zero_copy_only=False)
        keep = np.abs(va - vb) < BAND_EPS
        t = t.filter(pa.array(keep))
        d = np.abs(t["va"].to_numpy() - t["vb"].to_numpy())
        return pa.table({"a_id": t["a_id"], "b_id": t["b_id"],
                         "diff": pa.array(round_half_up(d, 6))})

    return j.map_batches(finish, batch_format="pyarrow", batch_size=None)


def user_longest_streak(sf_dir: str) -> rd.Dataset:
    """Longest run of CONSECUTIVE active days per user — the
    gaps-and-islands shape (engagement streaks).  The fact stream
    collapses to distinct (user, day) cells first (in-batch combiner +
    one exchange — the rolling_wau reduction); each user's cells then
    co-locate once and a vectorized island scan (day - position is
    constant within an island) finds the max run per user.  Output
    (user_id, longest_streak) by user."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages.dedup import distinct_rows
    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def cells(b: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(b["ts"], pa.int64()), DAY_US)
        return pa.table({"user_id": b["user_id"], "day": day}) \
            .group_by(["user_id", "day"]).aggregate([])

    uw = distinct_rows(ev.map_batches(cells, batch_format="pyarrow"),
                       ["user_id", "day"])

    def block_streaks(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "longest_streak": pa.array([], pa.int64())})
        b = b.sort_by([("user_id", "ascending"), ("day", "ascending")])
        u = b["user_id"].to_numpy()
        d = b["day"].to_numpy()
        n = len(u)
        # island id: increments when the user changes OR the day gap > 1
        brk = np.r_[True, (u[1:] != u[:-1]) | (np.diff(d) != 1)]
        isl = np.cumsum(brk) - 1
        lens = np.bincount(isl)                    # island lengths
        first_user = u[np.flatnonzero(brk)]        # island -> user
        order = np.argsort(first_user, kind="stable")
        fu, ln = first_user[order], lens[order]
        ufirst = np.r_[True, fu[1:] != fu[:-1]]
        best = np.maximum.reduceat(ln, np.flatnonzero(ufirst))
        return pa.table({"user_id": pa.array(fu[ufirst], pa.int64()),
                         "longest_streak": pa.array(best, pa.int64())})

    return _by_key_blocks(uw, ["user_id"]).map_batches(
        block_streaks, batch_format="pyarrow", batch_size=None) \
        .sort("user_id")


SEASONAL_LAG_DAYS = 7


def events_seasonal_backtest(sf_dir: str) -> rd.Dataset:
    """Seasonal-naive forecast backtest: predict each day's event count
    with the count 7 days earlier and report the per-day absolute error
    plus the overall MAE — the baseline every forecasting pipeline must
    beat before shipping a model.  The fact stream folds partial-first
    to the calendar-bounded daily series; lag/MAE arithmetic runs on the
    ~30-row fold (all-integer until the final division).  Output
    (day, cnt, forecast, abs_err, mae round 6) for days with a
    7-day-old reference."""
    daily = _daily_counts(sf_dir)
    empty = pa.table({"day": pa.array([], pa.timestamp("us")),
                      "cnt": pa.array([], pa.int64()),
                      "forecast": pa.array([], pa.int64()),
                      "abs_err": pa.array([], pa.int64()),
                      "mae": pa.array([], pa.float64())})
    if len(daily) <= SEASONAL_LAG_DAYS:
        return rd.from_arrow(empty)
    # the synthetic calendar is dense, so positional lag == day lag;
    # guard anyway: require the lagged row to be exactly 7 days back
    d_us = daily["day"].astype("datetime64[us]").astype("int64").to_numpy()
    cnt = daily["cnt"].to_numpy()
    lag_ok = np.zeros(len(daily), dtype=bool)
    fc = np.zeros(len(daily), dtype=np.int64)
    idx = np.searchsorted(d_us, d_us - SEASONAL_LAG_DAYS * DAY_US)
    hit = (idx < len(d_us)) & (d_us[np.minimum(idx, len(d_us) - 1)]
                               == d_us - SEASONAL_LAG_DAYS * DAY_US)
    lag_ok = hit
    fc[hit] = cnt[idx[hit]]
    keep = np.flatnonzero(lag_ok)
    err = np.abs(cnt[keep] - fc[keep])
    mae = float(err.sum()) / len(keep)
    return rd.from_arrow(pa.table({
        "day": pa.array(daily["day"].astype("datetime64[us]")
                        .to_numpy()[keep]),
        "cnt": pa.array(cnt[keep], pa.int64()),
        "forecast": pa.array(fc[keep], pa.int64()),
        "abs_err": pa.array(err, pa.int64()),
        "mae": pa.array(round_half_up(np.full(len(keep), mae), 6))}))


def rolling_wau_approx(sf_dir: str) -> rd.Dataset:
    """Approximate rolling 7-day WAU via HLL REGISTER ALGEBRA — the sketch
    answer to ``rolling_wau``'s exact plan: per-day 4 KB HLL registers
    (the keyed fold of ``grouped_distinct_registers``), then each output
    day's estimate is the elementwise MAX of its <=7 trailing daily
    registers.  At 100-TB event volume this replaces the exact plan's 7x
    (user, day) cell fan-out + second global distinct with |days| x 4 KB
    of mergeable state — the union is the one set operation HLL supports
    exactly, so windows need no re-scan of the fact stream.  Approximate
    -> rows-only; error pytest-bounded against the exact WAU curve.
    Output (day, wau_approx) for the same day set as ``rolling_wau``."""
    from ..stages.sketch import grouped_distinct_registers, hll_estimate
    ev = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def dayed(b: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(b["ts"], pa.int64()), DAY_US)
        return pa.table({"day": day, "user_id": b["user_id"]})

    regs = grouped_distinct_registers(
        ev.map_batches(dayed, batch_format="pyarrow", batch_size=None),
        ["day"], "user_id")
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "wau_approx": pa.array([], pa.int64())})
    if regs.num_rows == 0:
        return rd.from_arrow(empty)
    day_reg = {int(d.as_py()): np.frombuffer(r.as_py(), dtype=np.uint8)
               for d, r in zip(regs["day"], regs["reg"])}
    lo, hi = min(day_reg), max(day_reg)
    days, ests = [], []
    for d in range(lo, hi + 1):
        window = [day_reg[w] for w in range(d - (WAU_WINDOW - 1), d + 1)
                  if w in day_reg]
        if not window:
            continue
        days.append(d)
        ests.append(int(round(hll_estimate(np.maximum.reduce(window)))))
    return rd.from_arrow(pa.table({"day": pa.array(days, pa.int64()),
                                   "wau_approx": pa.array(ests, pa.int64())}))


def _supplier_edges(sf_dir: str) -> rd.Dataset:
    """Distinct undirected (a < b) supplier co-occurrence edges: suppliers
    are linked when they ship lines of the SAME order.  Distinct (order,
    supplier) cells -> one order-key exchange -> per-order pair expansion
    (orders have <= 7 lines, so the per-group fan-out is bounded by 21 —
    no hot-group hazard) -> distinct edges.  Shared by the triangle count
    and the k-core peel."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages.dedup import distinct_rows

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])

    def cells(b: pa.Table) -> pa.Table:
        return pa.table({"o": b["l_orderkey"], "s": b["l_suppkey"]}) \
            .group_by(["o", "s"]).aggregate([])

    so = distinct_rows(li.map_batches(cells, batch_format="pyarrow"),
                       ["o", "s"])

    def pairs(b: pa.Table) -> pa.Table:
        o = b["o"].to_numpy()
        s = b["s"].to_numpy()
        idx = np.lexsort((s, o))
        o, s = o[idx], s[idx]
        starts = np.r_[True, o[1:] != o[:-1]]
        gid = np.cumsum(starts) - 1
        counts = np.bincount(gid)
        pos = np.arange(len(o)) - np.r_[0, np.cumsum(counts)[:-1]][gid]
        aa, bb = [], []
        for d in range(1, int(counts.max() if len(counts) else 0) + 1):
            m = pos + d < counts[gid]
            if not m.any():
                break
            lo = np.flatnonzero(m)
            aa.append(s[lo])
            bb.append(s[lo + d])
        if not aa:
            return pa.schema([("a", pa.int64()), ("b", pa.int64())]) \
                .empty_table()
        a = np.concatenate(aa).astype(np.int64)
        c = np.concatenate(bb).astype(np.int64)
        return pa.table({"a": np.minimum(a, c), "b": np.maximum(a, c)})

    return distinct_rows(
        _by_key_blocks(so, ["o"]).map_batches(
            pairs, batch_format="pyarrow", batch_size=None),
        ["a", "b"]).materialize()


def supplier_kcore(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Suppliers in the k-core of the co-occurrence graph — the standard
    dense-backbone extraction (who stays after iteratively peeling
    low-degree suppliers).  Edge extraction shared with
    ``supplier_triangles``; the peel is ``stages/graph.py:kcore``
    (size-aware: one numpy task under 5M edges, else per-round grouped
    degree counts + anti-join deletions).  Returns (node,) supplier
    keys, validated by a pure-Python peel in pytest."""
    from ..stages.graph import kcore
    return kcore(_supplier_edges(sf_dir), k)


def supplier_triangles(sf_dir: str) -> rd.Dataset:
    """Triangle count of the supplier co-occurrence graph: suppliers are
    linked when they ship lines of the SAME order; the result is the
    number of supplier triples that are pairwise linked — the classic
    graph-clustering statistic (one number).

    Plan (the MapReduce wedge-check algorithm, Suri & Vassilvitskii
    WWW'11): distinct (order, supplier) cells, per-order pair expansion
    with ids ordered a<b (orders have <=7 lines, so the per-group pair
    fan-out is bounded by 21 — no hot-group hazard), distinct edges, one
    hash join E(a,b)⋈E(b,c) builds wedges with a<b<c, and a semi-join of
    the wedge's closing pair (a,c) against the edge set counts each
    triangle exactly once.  At web scale the same plan orients edges by
    DEGREE instead of id (low->high) to bound the wedge fan-out of hub
    nodes; id order keeps the oracle exact here.  Generalizes the
    conversation host-transition graph ops (host_pagerank) to a
    closed-form, oracle-checkable statistic."""
    from ..stages.joins import hash_join, semi_join

    edges = _supplier_edges(sf_dir)

    right = edges.map_batches(
        lambda b: pa.table({"b2": b["a"], "c": b["b"]}),
        batch_format="pyarrow")
    wedges = hash_join(edges, right, on=("b",), right_on=("b2",),
                       how="inner")

    FUSE = np.int64(1) << np.int64(32)  # suppkey < 2^32 by construction

    def fuse(cols: tuple[str, str]):
        def f(b: pa.Table) -> pa.Table:
            k = b[cols[0]].to_numpy().astype(np.int64) * FUSE \
                + b[cols[1]].to_numpy().astype(np.int64)
            return b.append_column("k", pa.array(k))
        return f

    closing = wedges.map_batches(fuse(("a", "c")), batch_format="pyarrow")
    ek = edges.map_batches(fuse(("a", "b")), batch_format="pyarrow") \
        .select_columns(["k"])
    tri = semi_join(closing, ek, "k", "k")

    def count_block(b: pa.Table) -> pa.Table:
        return pa.table({"_partial": pa.array([len(b)], pa.int64())})

    partials = tri.map_batches(count_block, batch_format="pyarrow",
                               batch_size=None)
    total = int(sum(r["_partial"] for r in partials.take_all()))
    return rd.from_arrow(pa.table({"n_triangles":
                                   pa.array([total], pa.int64())}))


def _skyline_block(b: pa.Table) -> pa.Table:
    """Per-block 2-D skyline kernel (minimize p_retailprice, maximize
    p_size).  One Arrow sort + vectorized per-price-group max and a strict
    prefix max over groups — no per-row Python.  Dominance: q dominates p
    iff q.price <= p.price AND q.size >= p.size with at least one strict;
    exact duplicates on both axes never dominate each other, so both
    survive (matching the NOT EXISTS oracle)."""
    if b.num_rows == 0:
        return b
    b = b.take(pc.sort_indices(b, sort_keys=[
        ("p_retailprice", "ascending"), ("p_size", "descending"),
        ("p_partkey", "ascending")]))
    price = b["p_retailprice"].to_numpy()
    size = b["p_size"].to_numpy()
    first = np.r_[True, price[1:] != price[:-1]]
    gid = np.cumsum(first) - 1
    # size is sorted desc within each equal-price group -> group max is the
    # group's first element
    gmax = size[first]
    # strict prefix max: best size among all strictly-cheaper groups
    prefix = np.r_[np.iinfo(np.int64).min,
                   np.maximum.accumulate(gmax)[:-1]]
    keep = (size == gmax[gid]) & (size > prefix[gid])
    return b.filter(pa.array(keep))


def part_price_size_skyline(sf_dir: str) -> rd.Dataset:
    """Pareto frontier (skyline) over part: parts for which no other part
    is at-most-as-expensive AND at-least-as-big with one strict — the
    classic price/quality trade-off operator relational engines lack.

    Skyline admits an EXACT combiner: a point dominated inside its own
    block is dominated by a point that block retains, so local-skyline ->
    concat -> final-skyline equals the global skyline.  The exchange
    carries only frontier candidates (expected O(log n) per block for
    independent dims), so the single-partition final pass sees
    blocks x frontier rows, never the table.  Generalizes the reference's
    sort+filter reporting surface (/root/reference/src/parse_opts.rs:
    228-229) to a multi-objective rule."""
    ds = read_table(sf_dir, "part",
                    columns=["p_partkey", "p_retailprice", "p_size"])
    local = ds.map_batches(_skyline_block, batch_format="pyarrow",
                           batch_size=None)
    return local.repartition(num_blocks=1).map_batches(
        _skyline_block, batch_format="pyarrow", batch_size=None)


def events_value_ntile(sf_dir: str, n_tiles: int = 4) -> rd.Dataset:
    """Per-group NTILE(4): every event gets its within-type value quartile
    (SQL ``ntile(4) OVER (PARTITION BY event_type ORDER BY value,
    event_id)``) — the distributed windowed-rank operator behind
    equal-depth bucketing and per-domain curriculum tiers.

    A group does NOT fit one partition at 100 TB, so this never collects a
    group: ONE global sort on (type, value, id), then the
    ``doc_quality_percentile`` block-summary plan PER TYPE SEGMENT — each
    block emits one (first-row key, segment type, segment count) row per
    within-block type run, the driver folds those few-per-block rows into
    exclusive per-type rank offsets and per-type totals, and a final
    vectorized pass adds the in-block arange and applies the SQL tile rule
    (first ``total % n`` tiles one row bigger).  Driver state is one row
    per block-segment, never per event."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .sort(["event_type", "value", "event_id"]).materialize()

    def seg_summary(b: pa.Table) -> pa.Table:
        empty = pa.table({"id0": pa.array([], pa.int64()),
                          "t0": pa.array([], pa.string()),
                          "v0": pa.array([], pa.float64()),
                          "seg": pa.array([], pa.int64()),
                          "typ": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        t = b["event_type"].to_numpy(zero_copy_only=False)
        first = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(first)
        cnt = np.diff(np.r_[starts, len(t)])
        k = len(starts)
        return pa.table({
            "id0": pa.array(np.full(k, b["event_id"][0].as_py(), np.int64)),
            "t0": pa.array([t[0]] * k, pa.string()),
            "v0": pa.array(np.full(k, b["value"][0].as_py(), np.float64)),
            "seg": pa.array(np.arange(k, dtype=np.int64)),
            "typ": pa.array(t[starts]),
            "cnt": pa.array(cnt.astype(np.int64))})

    summ = ds.map_batches(seg_summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    if not len(summ):
        return rd.from_arrow(pa.table({
            "event_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64()),
            "quartile": pa.array([], pa.int64())}))
    # recover global block order by each block's FIRST-ROW full sort key
    # (type, value, event_id) -- unique because event_id is; segments
    # within a block are already ordered by `seg`.
    summ = summ.sort_values(["t0", "v0", "id0", "seg"], kind="stable")
    # exclusive per-type prefix: cumsum within type minus own count
    summ["off"] = summ.groupby("typ")["cnt"].cumsum() - summ["cnt"]
    totals = summ.groupby("typ")["cnt"].sum().to_dict()
    offmap = {(int(i), int(s)): int(o)
              for i, s, o in zip(summ["id0"], summ["seg"], summ["off"])}
    ref = ray.put((offmap, totals, int(n_tiles)))

    def attach(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "event_type": pa.array([], pa.string()),
                             "value": pa.array([], pa.float64()),
                             "quartile": pa.array([], pa.int64())})
        offmap, totals, nt = ray.get(ref)
        t = b["event_type"].to_numpy(zero_copy_only=False)
        first = np.r_[True, t[1:] != t[:-1]]
        starts = np.flatnonzero(first)
        gid = np.cumsum(first) - 1
        id0 = int(b["event_id"][0].as_py())
        segoff = np.array([offmap[(id0, int(s))]
                           for s in range(len(starts))], np.int64)
        rank0 = segoff[gid] + (np.arange(len(t)) - starts[gid])
        tot = np.array([totals[x] for x in t[starts]], np.int64)[gid]
        base, rem = tot // nt, tot % nt
        big = rem * (base + 1)
        inbig = rank0 < big
        # guard base==0 (fewer rows than tiles): every tile holds one row
        tile = np.where(inbig, rank0 // np.maximum(base + 1, 1),
                        rem + (rank0 - big) // np.maximum(base, 1))
        return pa.table({"event_id": b["event_id"],
                         "event_type": b["event_type"],
                         "value": b["value"],
                         "quartile": pa.array(tile + 1, pa.int64())})

    return ds.map_batches(attach, batch_format="pyarrow", batch_size=None)


def order_priority_exists_counts(sf_dir: str) -> rd.Dataset:
    """TPC-H Q4 shape: per-priority count of orders that have AT LEAST ONE
    returned lineitem (``EXISTS`` decorrelated to a semi-join).  The
    existence probe never joins rows: returned lineitems reduce to a
    DISTINCT orderkey set (per-block distinct combiner before the ONE hash
    exchange), the size-aware ``semi_join`` keeps qualifying orders, and
    the 5-key priority count is one grouped count fold.
    Generalizes the reference's filtered-count reports
    (/root/reference/src/parse_opts.rs:208-233) to an EXISTS gate."""
    from ..stages.dedup import distinct_rows
    from ..stages.joins import semi_join
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_returnflag"])

    def returned(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["l_returnflag"], "R")) \
                .select(["l_orderkey"])

    keys = distinct_rows(
        li.map_batches(returned, batch_format="pyarrow"), ["l_orderkey"])
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderpriority"])
    qual = semi_join(orders, keys, "o_orderkey", "l_orderkey")
    from ..stages.aggregate import grouped_count
    return grouped_count(qual, ["o_orderpriority"], alias="n_orders")


def line_priority_counts(sf_dir: str) -> rd.Dataset:
    """TPC-H Q12 shape: per returnflag, how many lineitems belong to
    high-priority (1-URGENT/2-HIGH) vs lower-priority orders — the
    CASE-bucketed dual count over a fact-to-fact join.  The orders side
    carries only (key, 1-bit flag) through the size-aware ``lookup_join``;
    both CASE sums fold in-batch (flag sum and its complement), so the
    exchange moves <= 2 ints per (flag, block)."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderpriority"])

    def flag(b: pa.Table) -> pa.Table:
        hi = pc.is_in(b["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "hi": pc.cast(hi, pa.int64())})

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_returnflag"])
    j = lookup_join(li, orders.map_batches(flag, batch_format="pyarrow"),
                    "l_orderkey", "o_orderkey",
                    nparts=_num_partitions(li))

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"l_returnflag": b["l_returnflag"], "hi": b["hi"],
                      "lo": pc.subtract(pa.scalar(1, pa.int64()), b["hi"])})
        return t.group_by(["l_returnflag"]).aggregate(
            [("hi", "sum"), ("lo", "sum")]) \
            .rename_columns(["l_returnflag", "high_line_count",
                             "low_line_count"])

    return grouped_fold(j, ["l_returnflag"], partial, [
        ("high_line_count", "sum"), ("low_line_count", "sum")])


def promo_revenue_share(sf_dir: str) -> rd.Dataset:
    """TPC-H Q14 shape: promo parts' share of total revenue, percent.
    The part side carries only (key, 1-bit promo flag) through the
    size-aware ``lookup_join``; BOTH conditional sums fold per block
    (revenue and its promo-masked copy), so one scan and a 2-scalar
    exchange produce the ratio.  Rounded 6 like every float oracle."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join
    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])

    def flag(b: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": b["p_partkey"],
            "promo": pc.cast(pc.equal(b["p_type"], "PROMO"), pa.float64())})

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_extendedprice", "l_discount"])
    j = lookup_join(li, part.map_batches(flag, batch_format="pyarrow"),
                    "l_partkey", "p_partkey", nparts=_num_partitions(li))

    def partial(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        promo = pc.multiply(rev, b["promo"])
        return pa.table({
            "rev_p": pa.array([pc.sum(rev).as_py() or 0.0], pa.float64()),
            "promo_p": pa.array([pc.sum(promo).as_py() or 0.0],
                                pa.float64())})

    parts = j.map_batches(partial, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    share = 100.0 * parts["promo_p"].sum() / parts["rev_p"].sum()
    return rd.from_arrow(pa.table({
        "promo_share": pa.array(round_half_up(np.array([share])),
                                pa.float64())}))


def user_time_weighted_value(sf_dir: str) -> rd.Dataset:
    """Per-user TIME-WEIGHTED average value (TWAP): each event's value
    holds until the user's next event; the average weights each value by
    its holding time in µs.  Users with a single event have no holding
    interval and are excluded (SQL semantics: sum of zero weights ->
    NULL -> dropped).

    ONE hash exchange on user_id, then a single vectorized kernel per
    block across ALL its users: sort, one grouped shift for the next
    timestamp, masked weighted sums per user via np.bincount — no
    per-user Python.  Weighted sums stay exact int64·float products
    summed in user order, mirrored left-to-right in the oracle; result
    rounded 6."""
    from ..stages.dedup import _num_partitions, _use_hash_shuffle
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    nparts = _num_partitions(ds)
    rep = _use_hash_shuffle(ds, nparts).repartition(
        num_blocks=nparts, keys=["user_id"])

    def kernel(b: pa.Table) -> pa.Table:
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "twap": pa.array([], pa.float64())})
        if b.num_rows == 0:
            return empty
        # (ts, value) tie-break mirrors the oracle's lead() ORDER BY so
        # the per-group float summation ORDER matches bit-for-bit
        b = b.take(pc.sort_indices(b, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending"),
            ("value", "ascending")]))
        u = b["user_id"].to_numpy()
        t = b["ts"].cast(pa.int64()).to_numpy()
        v = b["value"].to_numpy()
        n = len(u)
        same_next = np.r_[u[1:] == u[:-1], False]
        dt = np.zeros(n, dtype=np.float64)
        dt[:-1] = (t[1:] - t[:-1]).astype(np.float64)
        dt[~same_next] = 0.0
        first = np.r_[True, u[1:] != u[:-1]]
        gid = np.cumsum(first) - 1
        wsum = np.bincount(gid, weights=v * dt)
        wtot = np.bincount(gid, weights=dt)
        keep = wtot > 0
        return pa.table({
            "user_id": pa.array(u[np.flatnonzero(first)][keep], pa.int64()),
            "twap": pa.array(round_half_up(wsum[keep] / wtot[keep]),
                             pa.float64())})

    return rep.map_batches(kernel, batch_format="pyarrow", batch_size=None)


ROLLING_WINDOW_US = 7 * 24 * 3600 * 1_000_000


def user_rolling_value_7d(sf_dir: str) -> rd.Dataset:
    """Per-user ROLLING 7-DAY value sum at every event — the SQL RANGE
    frame (``SUM(value) OVER (PARTITION BY user ORDER BY ts RANGE 7 DAYS
    PRECEDING)``), which Ray Data has no operator for.

    ONE hash exchange on user_id, then a single vectorized kernel per
    block across ALL its users: sort by (user, ts, event_id), build a
    GLOBALLY sorted fused key ``gid * (max_in_group_span + W + 1) +
    (ts - group_start)`` — consecutive group bases differ by more than
    any query can reach, so ONE np.searchsorted resolves every row's
    window bounds with no per-user Python; the rolling sum is two gathers
    of the global value cumsum.  RANGE-frame tie semantics (equal-ts
    peers AFTER the current row are IN the frame) come from the
    side='right' upper bound.  The fused key is overflow-guarded: a
    partition whose groups x span exceed int64 raises with the
    repartition hint (at 100 TB you raise nparts, the per-partition group
    count is the knob)."""
    from ..stages.dedup import _num_partitions, _use_hash_shuffle
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])
    nparts = _num_partitions(ds)
    rep = _use_hash_shuffle(ds, nparts).repartition(
        num_blocks=nparts, keys=["user_id"])
    W = ROLLING_WINDOW_US

    def kernel(b: pa.Table) -> pa.Table:
        empty = pa.table({"event_id": pa.array([], pa.int64()),
                          "user_id": pa.array([], pa.int64()),
                          "rolling_7d": pa.array([], pa.float64())})
        if b.num_rows == 0:
            return empty
        b = b.take(pc.sort_indices(b, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending"),
            ("event_id", "ascending")]))
        u = b["user_id"].to_numpy()
        t = b["ts"].cast(pa.int64()).to_numpy()
        v = b["value"].to_numpy()
        first = np.r_[True, u[1:] != u[:-1]]
        gid = np.cumsum(first) - 1
        gstart = np.flatnonzero(first)
        rel = t - t[gstart][gid]
        span = int(rel.max()) if len(rel) else 0
        base_step = span + W + 1
        if gid[-1] + 1 and base_step > (2**63 - 1) // (int(gid[-1]) + 1):
            raise OverflowError(
                "fused rolling-window key overflows int64 for this "
                "partition; raise the partition count so fewer groups "
                "share a block")
        fused = gid * base_step + rel
        lo = np.searchsorted(fused, fused - W, side="left")
        hi = np.searchsorted(fused, fused, side="right")
        csum = np.r_[0.0, np.cumsum(v)]
        return pa.table({
            "event_id": b["event_id"],
            "user_id": b["user_id"],
            "rolling_7d": pa.array(round_half_up(csum[hi] - csum[lo]),
                                   pa.float64())})

    return rep.map_batches(kernel, batch_format="pyarrow", batch_size=None)


def events_value_median_exact(sf_dir: str) -> rd.Dataset:
    """EXACT global median by distributed selection — the order statistic
    an approximate sketch can't certify.  Lower median: the element at
    rank ceil(n/2) under (value, event_id) order.

    No full materialization on the driver: ONE global sort, a (first-key,
    row-count) summary row per block (the ``doc_quality_percentile``
    plan), the driver folds block counts to locate WHICH block holds the
    target rank, and a final map extracts that single row — every other
    block short-circuits on its first-key check.  Output one row
    (median_value,)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "value"]) \
        .sort(["value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"v0": b["value"].slice(0, 1),
                         "id0": b["event_id"].slice(0, 1),
                         "cnt": pa.array([b.num_rows], pa.int64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    if not len(summ):
        return rd.from_arrow(pa.table({
            "median_value": pa.array([], pa.float64())}))
    summ = summ.sort_values(["v0", "id0"]).reset_index(drop=True)
    n = int(summ["cnt"].sum())
    target = (n + 1) // 2  # 1-based rank of the lower median
    ends = summ["cnt"].cumsum()
    blk = int(np.searchsorted(ends.to_numpy(), target))
    in_blk = target - (int(ends.iloc[blk - 1]) if blk else 0) - 1
    key = (float(summ["v0"].iloc[blk]), int(summ["id0"].iloc[blk]))

    def extract(b: pa.Table) -> pa.Table:
        empty = pa.table({"median_value": pa.array([], pa.float64())})
        if b.num_rows == 0 or \
                (float(b["value"][0].as_py()),
                 int(b["event_id"][0].as_py())) != key:
            return empty
        return pa.table({"median_value": b["value"].slice(in_blk, 1)})

    return ds.map_batches(extract, batch_format="pyarrow",
                          batch_size=None)


def _grouped_ranks_select(ds: rd.Dataset, targets_fn) -> rd.Dataset:
    """EXACT per-group RANK SELECTION over a (event_type, value, event_id)
    Dataset — the generalized selection core under the grouped median, MAD
    and winsorization bounds: one global sort, per-block type-segment
    summaries, a driver rank plan, one extract pass.  ``targets_fn`` maps
    the per-type row totals (pd.Series indexed by type) to a DataFrame
    (typ, target, label) of 1-based ranks to select — possibly SEVERAL per
    type (e.g. p05 and p95), all resolved against the SAME summary fold
    and extract pass.  Output (event_type, label, value) unsorted."""
    ds = ds.sort(["event_type", "value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        out = {"t0": [], "v0": [], "id0": [], "seg": [], "typ": [],
               "cnt": []}
        if b.num_rows:
            t = b["event_type"].to_numpy(zero_copy_only=False)
            starts = np.flatnonzero(
                np.r_[True, t[1:] != t[:-1]])
            ends = np.r_[starts[1:], len(t)]
            for s_i, (s, e) in enumerate(zip(starts, ends)):
                out["t0"].append(t[0])
                out["v0"].append(b["value"][0].as_py())
                out["id0"].append(b["event_id"][0].as_py())
                out["seg"].append(s_i)
                out["typ"].append(t[s])
                out["cnt"].append(int(e - s))
        return pa.table({"t0": pa.array(out["t0"], pa.string()),
                         "v0": pa.array(out["v0"], pa.float64()),
                         "id0": pa.array(out["id0"], pa.int64()),
                         "seg": pa.array(out["seg"], pa.int64()),
                         "typ": pa.array(out["typ"], pa.string()),
                         "cnt": pa.array(out["cnt"], pa.int64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "label": pa.array([], pa.string()),
                      "value": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    # global segment order = (block first key, in-block segment index)
    summ = summ.sort_values(["t0", "v0", "id0", "seg"]) \
        .reset_index(drop=True)
    # in-block row offset where each segment starts
    summ["seg_base"] = summ.groupby(["t0", "v0", "id0"], sort=False)["cnt"] \
        .cumsum() - summ["cnt"]
    # per-type exclusive prefix counts across segments (already in
    # global order within each type because the sort is type-major)
    summ["prev"] = summ.groupby("typ", sort=False)["cnt"].cumsum() \
        - summ["cnt"]
    totals = summ.groupby("typ", sort=False)["cnt"].sum()
    tdf = targets_fn(totals)
    # locate each (type, label)'s target segment: prev < target <= prev+cnt
    j = summ.merge(tdf, on="typ", how="inner")
    hit = (j["target"] > j["prev"]) & (j["target"] <= j["prev"] + j["cnt"])
    picks = {}  # block first key -> [(in-block row position, label)]
    for i in np.flatnonzero(hit.to_numpy()):
        key = (j["t0"].iat[i], float(j["v0"].iat[i]), int(j["id0"].iat[i]))
        pos = int(j["seg_base"].iat[i]
                  + (j["target"].iat[i] - j["prev"].iat[i]) - 1)
        picks.setdefault(key, []).append((pos, j["label"].iat[i]))

    def extract(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        key = (b["event_type"][0].as_py(), float(b["value"][0].as_py()),
               int(b["event_id"][0].as_py()))
        sel = picks.get(key)
        if not sel:
            return empty
        sel = sorted(sel)
        idx = pa.array([p for p, _ in sel], pa.int64())
        return pa.table({"event_type": b["event_type"].take(idx),
                         "label": pa.array([lb for _, lb in sel],
                                           pa.string()),
                         "value": b["value"].take(idx)})

    return ds.map_batches(extract, batch_format="pyarrow",
                          batch_size=None)


CONT_QS = (0.25, 0.5, 0.75)


def events_value_quartiles_cont_by_type(sf_dir: str) -> rd.Dataset:
    """INTERPOLATED per-group quartiles — SQL ``quantile_cont`` (the
    continuous order statistic: value at fractional rank q*(n-1),
    linearly interpolated between the two bracketing rows).  BOTH
    bracketing order statistics of every (type, q) resolve against ONE
    ``_grouped_ranks_select`` pass (<= 6 ranks per type, one global sort
    + one summary fold + one extract — never one selection per
    quantile); the interpolation runs on the |types|x6 driver fold with
    DuckDB's own ``lower + (upper - lower) * fraction`` expression, and
    the fractions (0.25/0.5/0.75 x integer) are exact in float64 — so
    engine and oracle agree bit-for-bit.  Output (event_type, q,
    value_cont round 6) ordered by (type, q)."""
    from ..stages.joins import _collect_table
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])
    captured: dict = {}

    def targets_fn(totals: pd.Series) -> pd.DataFrame:
        captured["totals"] = totals
        n = totals.to_numpy(dtype=np.int64)
        typs = totals.index.to_numpy()
        rows = {"typ": [], "target": [], "label": []}
        for q in CONT_QS:
            idx = q * (n - 1)
            lo = np.floor(idx).astype(np.int64) + 1
            hi = np.minimum(lo + 1, n)
            for t, lo_r, hi_r in zip(typs, lo, hi):
                rows["typ"] += [t, t]
                rows["target"] += [int(lo_r), int(hi_r)]
                rows["label"] += [f"{q}|lo", f"{q}|hi"]
        return pd.DataFrame(rows)

    sel = _collect_table(
        _grouped_ranks_select(ds, targets_fn)).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "q": pa.array([], pa.float64()),
                      "value_cont": pa.array([], pa.float64())})
    if not len(sel):
        return rd.from_arrow(empty)
    parts = sel["label"].str.split("|", expand=True)
    sel["q"], sel["side"] = parts[0].astype(float), parts[1]
    piv = sel.pivot_table(index=["event_type", "q"], columns="side",
                          values="value", aggfunc="first").reset_index()
    totals = captured["totals"]
    n = totals.reindex(piv["event_type"]).to_numpy(dtype=np.int64)
    idx = piv["q"].to_numpy() * (n - 1)
    fr = idx - np.floor(idx)
    lo = piv["lo"].to_numpy()
    hi = piv["hi"].to_numpy()
    v = lo + (hi - lo) * fr
    return rd.from_arrow(pa.table({
        "event_type": pa.array(piv["event_type"], pa.string()),
        "q": pa.array(piv["q"].to_numpy(), pa.float64()),
        "value_cont": pa.array(round_half_up(v, 6))})) \
        .sort(["event_type", "q"])


def _grouped_lower_median(ds: rd.Dataset, out_col: str) -> rd.Dataset:
    """EXACT per-group lower median — the one-target instance of
    ``_grouped_ranks_select`` (rank = (n+1)//2).  Output
    (event_type, <out_col>) unsorted."""
    def targets_fn(totals: pd.Series) -> pd.DataFrame:
        return pd.DataFrame({"typ": totals.index.to_numpy(),
                             "target": ((totals + 1) // 2).to_numpy(),
                             "label": "m"})
    sel = _grouped_ranks_select(ds, targets_fn)
    return sel.map_batches(
        lambda b, oc=out_col: pa.table({
            "event_type": b["event_type"],
            oc: b["value"]}),
        batch_format="pyarrow", batch_size=None)


WINSOR_LO_P, WINSOR_HI_P = 0.05, 0.95


def events_value_winsorized(sf_dir: str) -> rd.Dataset:
    """Per-group WINSORIZATION — clamp every value into its own type's
    exact [p05, p95] band (the outlier-robust normalization a feature /
    reward pipeline applies before scaling).  The bound ranks use the
    lower (discrete) percentile rule rank = floor(p*(n-1)) + 1.

    Plan: BOTH bounds of every type resolve against ONE
    ``_grouped_ranks_select`` pass (one global sort + one summary fold +
    one extract — not one selection per percentile); the |types|x2 bound
    table broadcasts back through a size-aware lookup_join and the fact
    stream rewrites statelessly — groups never co-locate, output stays
    streaming.  Output (event_id, event_type, value_w round 6)."""
    from ..stages.joins import _collect_table, lookup_join
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])

    def targets_fn(totals: pd.Series) -> pd.DataFrame:
        n = totals.to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "typ": np.concatenate([totals.index, totals.index]),
            "target": np.concatenate([
                np.floor(WINSOR_LO_P * (n - 1)).astype(np.int64) + 1,
                np.floor(WINSOR_HI_P * (n - 1)).astype(np.int64) + 1]),
            "label": ["lo"] * len(n) + ["hi"] * len(n)})

    sel = _collect_table(
        _grouped_ranks_select(ds, targets_fn)).to_pandas()
    piv = sel.pivot(index="event_type", columns="label",
                    values="value").reset_index()
    bounds = rd.from_arrow(pa.table({
        "event_type": pa.array(piv["event_type"], pa.string()),
        "lo": pa.array(piv["lo"], pa.float64()),
        "hi": pa.array(piv["hi"], pa.float64())})).materialize()
    j = lookup_join(ds, bounds, "event_type", "event_type", how="inner")

    def clamp(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        w = np.minimum(np.maximum(v, b["lo"].to_numpy()),
                       b["hi"].to_numpy())
        return pa.table({"event_id": b["event_id"],
                         "event_type": b["event_type"],
                         "value_w": pa.array(round_half_up(w, 6))})

    return j.map_batches(clamp, batch_format="pyarrow", batch_size=None)


IQR_FENCE_K = 1.5    # Tukey fence multiplier


def events_value_outliers(sf_dir: str) -> rd.Dataset:
    """Per-group Tukey-fence OUTLIER rows: events whose value falls
    outside [q1 - 1.5*IQR, q3 + 1.5*IQR] for their own type — the
    boxplot outlier rule, as a streaming filter.  q1/q3 use the same
    lower-percentile rank rule as the winsorization bounds
    (floor(p*(n-1)) + 1) and BOTH quartiles of every type resolve
    against ONE ``_grouped_ranks_select`` pass; the |types|x2 fence
    table broadcasts back and the fact stream filters statelessly.
    Output (event_id, event_type, value) — the flagged rows only."""
    from ..stages.joins import _collect_table, lookup_join
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])

    def targets_fn(totals: pd.Series) -> pd.DataFrame:
        n = totals.to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "typ": np.concatenate([totals.index, totals.index]),
            "target": np.concatenate([
                np.floor(0.25 * (n - 1)).astype(np.int64) + 1,
                np.floor(0.75 * (n - 1)).astype(np.int64) + 1]),
            "label": ["q1"] * len(n) + ["q3"] * len(n)})

    sel = _collect_table(
        _grouped_ranks_select(ds, targets_fn)).to_pandas()
    piv = sel.pivot(index="event_type", columns="label",
                    values="value").reset_index()
    q1 = piv["q1"].to_numpy(dtype=np.float64)
    q3 = piv["q3"].to_numpy(dtype=np.float64)
    iqr = q3 - q1
    fences = rd.from_arrow(pa.table({
        "event_type": pa.array(piv["event_type"], pa.string()),
        "lo": pa.array(q1 - IQR_FENCE_K * iqr, pa.float64()),
        "hi": pa.array(q3 + IQR_FENCE_K * iqr, pa.float64())})) \
        .materialize()
    j = lookup_join(ds, fences, "event_type", "event_type", how="inner")

    def flag(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        m = (v < b["lo"].to_numpy()) | (v > b["hi"].to_numpy())
        t = b.filter(pa.array(m))
        return pa.table({"event_id": t["event_id"],
                         "event_type": t["event_type"],
                         "value": t["value"]})

    return j.map_batches(flag, batch_format="pyarrow", batch_size=None)


ROLLING_ROWS_W = 5   # trailing window of 5 events (ROWS frame)


def user_rolling_mean_rows(sf_dir: str) -> rd.Dataset:
    """Per-user trailing-5-EVENTS mean (ROWS frame, vs the RANGE frame of
    ``user_rolling_value_7d``): count-based windows resolve per block
    with one cumsum and a shifted gather — no searchsorted needed since
    the frame is positional.  ONE user exchange; segment boundaries clamp
    the window to each user's own rows.  Output (event_id, user_id,
    mean_5 round 6), fact-scale, streaming."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value"])
    W = ROLLING_ROWS_W

    def block_roll(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "mean_5": pa.array([], pa.float64())})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        u = b["user_id"].to_numpy()
        v = b["value"].to_numpy().astype(np.float64)
        n = len(u)
        first = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, n])
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        # window start = max(segment start, i - W + 1)
        w0 = np.maximum(np.repeat(starts, lens),
                        np.arange(n, dtype=np.int64) - (W - 1))
        c = np.concatenate([[0.0], np.cumsum(v)])
        wsum = c[np.arange(n) + 1] - c[w0]
        wlen = (np.arange(n) - w0 + 1).astype(np.float64)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "mean_5": pa.array(round_half_up(wsum / wlen, 6))})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_roll, batch_format="pyarrow", batch_size=None)


def events_value_median_by_type(sf_dir: str) -> rd.Dataset:
    """EXACT per-group median (lower: rank ceil(n_g/2) under (value,
    event_id) order within each event_type) — distributed PER-GROUP
    selection, the op a per-group collect can't survive at scale because
    one group routinely outweighs a worker.  Plan in
    ``_grouped_lower_median``: groups are never collected; driver state
    is O(blocks x |types|), independent of row count.  Output
    (event_type, median_value), ordered by type."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])
    return _grouped_lower_median(ds, "median_value").sort("event_type")


def events_value_mad_by_type(sf_dir: str) -> rd.Dataset:
    """Per-group MEDIAN ABSOLUTE DEVIATION — the robust scale estimator,
    composed as TWO grouped selections: the per-type median (tiny table)
    broadcasts back into the stream, a stateless map derives
    |value - median|, and the same selection core picks the deviation
    median.  Each pass is one sort + summaries + extract; nothing
    group-sized ever co-locates.  Deviation ties keep (event_id) order
    — identical in the oracle.  Output (event_type, mad) by type."""
    from ..stages.joins import lookup_join

    base = read_table(sf_dir, "events",
                      columns=["event_id", "event_type", "value"])
    med = _grouped_lower_median(base, "m").materialize()  # |types| rows
    j = lookup_join(base, med, "event_type", "event_type")
    dev = j.map_batches(
        lambda b: pa.table({
            "event_id": b["event_id"], "event_type": b["event_type"],
            "value": pc.abs(pc.subtract(b["value"], b["m"]))}),
        batch_format="pyarrow", batch_size=None)
    return _grouped_lower_median(dev, "mad").sort("event_type")


def events_daily_dense(sf_dir: str) -> rd.Dataset:
    """Gap-FILLED daily counts per event_type: every (type, calendar day)
    cell between the corpus min and max day appears, zero-filled — the
    dashboard/timeseries shape where a missing day must read 0, not
    vanish (a plain groupby silently drops empty days and downstream
    anomaly rules never fire).

    The heavy side stays distributed: day truncation fuses into the
    pruned 2-column read and counts fold through the partial/final
    grouped_count exchange.  Only the AGGREGATE (|types| × |days| rows —
    calendar-sized, not data-sized, even at 10^12 events) reaches the
    driver, where the date spine is a cross product + left merge.
    Output (event_type, day, cnt) ordered by (event_type, day)."""
    from ..stages.aggregate import grouped_count

    def day(b: pa.Table) -> pa.Table:
        return pa.table({"event_type": b["event_type"],
                         "day": pc.floor_temporal(b["ts"], unit="day")})

    dd = read_table(sf_dir, "events", columns=["event_type", "ts"]) \
        .map_batches(day, batch_format="pyarrow")
    cp = grouped_count(dd, ["event_type", "day"]).to_pandas()
    if not len(cp):
        return rd.from_arrow(pa.table({
            "event_type": pa.array([], pa.string()),
            "day": pa.array([], pa.timestamp("us")),
            "cnt": pa.array([], pa.int64())}))
    days = pd.date_range(cp["day"].min(), cp["day"].max(), freq="D")
    types = sorted(cp["event_type"].unique())
    spine = pd.MultiIndex.from_product(
        [types, days], names=["event_type", "day"]).to_frame(index=False)
    out = spine.merge(cp, on=["event_type", "day"], how="left")
    out["cnt"] = out["cnt"].fillna(0).astype("int64")
    out["day"] = out["day"].astype("datetime64[us]")
    return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))


SAMPLE_MULT = 2654435761  # Knuth 32-bit multiplier: (id % MOD) * MULT
SAMPLE_MOD = 2147483647   # < 2^62, so the product is int64-exact in SQL too
STRATUM_K = 10


def events_stratified_sample(sf_dir: str, k: int = STRATUM_K) -> rd.Dataset:
    """Deterministic STRATIFIED sample: exactly ``k`` rows per event_type,
    chosen by hash rank (smallest ``(event_id * MULT) % MOD`` wins, id
    tie-break) — the eval-set/debug-slice sampler that is stable under
    corpus growth within a stratum boundary, re-runnable, and
    SQL-replayable, none of which an RNG sample gives you.

    Distributed as the ``grouped_top_k`` partial/final: each block keeps
    at most k rows per stratum (a correct combiner), ONE hash exchange
    ships ≤ k × blocks rows per stratum, the same kernel finishes.  The
    hash fuses into the pruned read.  Output (event_type, event_id,
    hash_rank)."""
    from ..stages.aggregate import grouped_top_k

    def rank(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy()
        hr = ((eid % SAMPLE_MOD) * SAMPLE_MULT) % SAMPLE_MOD
        return pa.table({"event_type": b["event_type"],
                         "event_id": b["event_id"],
                         "hash_rank": pa.array(hr, pa.int64())})

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"]) \
        .map_batches(rank, batch_format="pyarrow")
    return grouped_top_k(ds, ["event_type"], "hash_rank", k,
                         descending=False, tie_cols=["event_id"])


PCTS_EXACT = (0.5, 0.9, 0.99)


def events_value_percentiles_exact(sf_dir: str) -> rd.Dataset:
    """EXACT p50/p90/p99 in ONE distributed selection pass — the SLO
    percentiles a sketch only bounds.  Rank rule: element at
    ceil(p * n) (1-based, (value, event_id) order), the inverse-CDF
    lower statistic.  Same block-summary plan as
    ``events_value_median_exact`` but all targets resolve against one
    summary fold and one extract pass — k percentiles cost one sort +
    two tiny maps, not k.  Output (pct, pct_value)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "value"]) \
        .sort(["value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"v0": b["value"].slice(0, 1),
                         "id0": b["event_id"].slice(0, 1),
                         "cnt": pa.array([b.num_rows], pa.int64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"pct": pa.array([], pa.float64()),
                      "pct_value": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    summ = summ.sort_values(["v0", "id0"]).reset_index(drop=True)
    n = int(summ["cnt"].sum())
    ends = summ["cnt"].cumsum().to_numpy()
    picks: dict[tuple, list[tuple[int, float]]] = {}
    for p in PCTS_EXACT:
        target = int(np.ceil(p * n))
        blk = int(np.searchsorted(ends, target))
        in_blk = target - (int(ends[blk - 1]) if blk else 0) - 1
        key = (float(summ["v0"].iloc[blk]), int(summ["id0"].iloc[blk]))
        picks.setdefault(key, []).append((in_blk, p))

    def extract(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        key = (float(b["value"][0].as_py()), int(b["event_id"][0].as_py()))
        hits = picks.get(key)
        if not hits:
            return empty
        return pa.table({
            "pct": pa.array([p for _, p in hits], pa.float64()),
            "pct_value": pa.array(
                [b["value"][i].as_py() for i, _ in hits], pa.float64())})

    return ds.map_batches(extract, batch_format="pyarrow",
                          batch_size=None).sort("pct")


# ---------------------------------------------------------------------------
# TPC-H Q7/Q13/Q15/Q17/Q18/Q21 report shapes — the remaining classic join/
# aggregate skeletons behind the reference's report endpoints
# (src/security_log_http.rs:589-605 serves exactly these groupby-join-sort
# results over Postgres; SURVEY §2.8).  Every join goes through the
# size-aware lookup_join so dims broadcast and fact-fact exchanges hash-
# partition, and every aggregation folds a per-block partial before the
# shuffle.

Q7_NATION_A = "NATION_3"
Q7_NATION_B = "NATION_7"
Q7_DATE_LO = "1996-01-01"
Q7_DATE_HI = "1998-01-01"


def volume_shipping(sf_dir: str) -> rd.Dataset:
    """TPC-H Q7 shape: bilateral trade volume between two nations by ship
    year.  The supplier side collapses to a tiny broadcast map BEFORE the
    lineitem scan (suppliers outside the two nations are dropped at the
    probe, so the fact stream shrinks immediately); the customer nation
    arrives through orders via the size-aware hash exchange.  Output
    (supp_nation, cust_nation, l_year, revenue) sorted by the keys."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    lo, hi = pd.Timestamp(Q7_DATE_LO), pd.Timestamp(Q7_DATE_HI)
    pair = (Q7_NATION_A, Q7_NATION_B)

    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"]) \
        .map_batches(lambda b: b.filter(pc.is_in(
            b["n_name"], value_set=pa.array(pair))),
            batch_format="pyarrow", batch_size=None).materialize()
    supp = lookup_join(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        nation, "s_nationkey", "n_nationkey", how="inner",
        rename={"n_name": "supp_nation"}) \
        .map_batches(lambda b: b.select(["s_suppkey", "supp_nation"]),
                     batch_format="pyarrow", batch_size=None).materialize()
    cust = lookup_join(
        read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        nation, "c_nationkey", "n_nationkey", how="inner",
        rename={"n_name": "cust_nation"}) \
        .map_batches(lambda b: b.select(["c_custkey", "cust_nation"]),
                     batch_format="pyarrow", batch_size=None)

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey", "l_shipdate",
                             "l_extendedprice", "l_discount"]) \
        .map_batches(lambda b: b.filter(pc.and_(
            pc.greater_equal(b["l_shipdate"], pa.scalar(lo)),
            pc.less(b["l_shipdate"], pa.scalar(hi)))),
            batch_format="pyarrow", batch_size=None)
    nparts = _num_partitions(li)

    # supplier-nation probe first: drops ~23/25ths of the fact stream
    j = lookup_join(li, supp, "l_suppkey", "s_suppkey",
                    nparts=nparts, how="inner")
    orders = lookup_join(
        read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        cust, "o_custkey", "c_custkey", nparts=nparts, how="inner") \
        .map_batches(lambda b: b.select(["o_orderkey", "cust_nation"]),
                     batch_format="pyarrow", batch_size=None)
    j = lookup_join(j, orders, "l_orderkey", "o_orderkey",
                    nparts=nparts, how="inner")

    def derive(b: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.and_(pc.equal(b["supp_nation"], pair[0]),
                    pc.equal(b["cust_nation"], pair[1])),
            pc.and_(pc.equal(b["supp_nation"], pair[1]),
                    pc.equal(b["cust_nation"], pair[0])))
        b = b.filter(keep)
        return pa.table({
            "supp_nation": b["supp_nation"],
            "cust_nation": b["cust_nation"],
            "l_year": pc.year(b["l_shipdate"]),
            "volume": pc.multiply(
                b["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), b["l_discount"]))})

    ds = j.map_batches(derive, batch_format="pyarrow", batch_size=None)
    out = grouped_sum(ds, ["supp_nation", "cust_nation", "l_year"],
                      "volume", "rev_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "supp_nation": b["supp_nation"],
            "cust_nation": b["cust_nation"],
            "l_year": b["l_year"],
            "revenue": pa.array(round_half_up(b["rev_f"].to_numpy(), 2))})
    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["supp_nation", "cust_nation", "l_year"])


Q13_EXCLUDE_PRIORITY = "1-URGENT"


def customer_order_distribution(sf_dir: str) -> rd.Dataset:
    """TPC-H Q13 shape: distribution of order counts per customer,
    INCLUDING zero-order customers (the left join no inner plan can
    fake).  Orders fold to per-customer counts with an in-block partial
    before the shuffle; the count table then attaches to customers via
    the size-aware LEFT lookup join, nulls become zero, and a second
    (tiny, #distinct-counts keys) aggregation builds the histogram.
    Output (c_count, custdist) sorted custdist desc, c_count desc."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderpriority"]) \
        .map_batches(lambda b: b.filter(pc.not_equal(
            b["o_orderpriority"], Q13_EXCLUDE_PRIORITY)),
            batch_format="pyarrow", batch_size=None)
    counts = grouped_count(orders, ["o_custkey"], "c_count")

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    nparts = _num_partitions(cust)
    j = lookup_join(cust, counts, "c_custkey", "o_custkey",
                    nparts=nparts, how="left")

    hist = j.map_batches(
        lambda b: pa.table({
            "c_count": pc.fill_null(b["c_count"], 0).cast(pa.int64())}),
        batch_format="pyarrow", batch_size=None)
    return grouped_count(hist, ["c_count"], "custdist") \
        .sort(["custdist", "c_count"], descending=[True, True])


Q15_DATE_LO = "1996-01-01"
Q15_DATE_HI = "1996-04-01"


def top_supplier(sf_dir: str) -> rd.Dataset:
    """TPC-H Q15 shape: supplier(s) with the maximum quarterly revenue.
    Revenue folds per supplier (partial -> grouped fold, supplier-key
    cardinality, never the lineitem stream); the per-supplier table is
    dim-sized by construction, so it materializes once, the scalar max
    comes off it, and the winners join the supplier names by broadcast.
    Output (s_suppkey, s_name, total_revenue) sorted by s_suppkey."""
    from ..stages.joins import lookup_join

    lo, hi = pd.Timestamp(Q15_DATE_LO), pd.Timestamp(Q15_DATE_HI)
    li = read_table(sf_dir, "lineitem",
                    columns=["l_suppkey", "l_shipdate",
                             "l_extendedprice", "l_discount"]) \
        .map_batches(lambda b: (lambda f: pa.table({
            "l_suppkey": f["l_suppkey"],
            "volume": pc.multiply(
                f["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), f["l_discount"]))}))(
            b.filter(pc.and_(
                pc.greater_equal(b["l_shipdate"], pa.scalar(lo)),
                pc.less(b["l_shipdate"], pa.scalar(hi))))),
            batch_format="pyarrow", batch_size=None)
    rev = grouped_sum(li, ["l_suppkey"], "volume", "rev_f") \
        .map_batches(lambda b: pa.table({
            "l_suppkey": b["l_suppkey"],
            "total_revenue": pa.array(
                round_half_up(b["rev_f"].to_numpy(), 2))}),
            batch_format="pyarrow", batch_size=None) \
        .materialize()  # supplier-key cardinality: dim-sized by construction
    mx = rev.max("total_revenue")
    if mx is None:  # empty fold: no lineitem in the window
        return rd.from_arrow(pa.table({
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "total_revenue": pa.array([], pa.float64())}))
    winners = rev.map_batches(
        lambda b: b.filter(pc.equal(b["total_revenue"],
                                    pa.scalar(float(mx)))),
        batch_format="pyarrow", batch_size=None)
    out = lookup_join(
        winners,
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]),
        "l_suppkey", "s_suppkey", how="inner")
    return out.map_batches(
        lambda b: pa.table({"s_suppkey": b["l_suppkey"],
                            "s_name": b["s_name"],
                            "total_revenue": b["total_revenue"]}),
        batch_format="pyarrow", batch_size=None).sort("s_suppkey")


Q17_BRAND = "Brand#4"
Q17_QTY_FRACTION = 0.2


def small_quantity_revenue(sf_dir: str) -> Any:
    """TPC-H Q17 shape: weekly-averaged revenue lost to small-quantity
    orders of one brand.  The brand filter collapses part to a broadcast
    key set that prunes the lineitem stream at the probe; per-part mean
    quantity folds on the pruned stream (partial sum+count -> grouped fold)
    into a second dim-sized broadcast; the same pruned stream then probes
    the means and a one-row global sum comes off the per-block partials.
    Output one row (avg_yearly)."""
    from ..stages.joins import lookup_join

    brand_parts = read_table(sf_dir, "part",
                             columns=["p_partkey", "p_brand"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["p_brand"], Q17_BRAND)).select(["p_partkey"]),
            batch_format="pyarrow", batch_size=None).materialize()
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_quantity",
                             "l_extendedprice"])
    li = lookup_join(li, brand_parts, "l_partkey", "p_partkey",
                     how="inner")

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["l_partkey"]).aggregate(
            [("l_quantity", "sum"), ([], "count_all")]) \
            .rename_columns(["l_partkey", "qty_sum", "n"])

    stats = grouped_fold(li, ["l_partkey"], partial,
                         [("qty_sum", "sum"), ("n", "sum")]) \
        .map_batches(lambda b: pa.table({
            "l_partkey": b["l_partkey"],
            "qty_cut": pc.multiply(
                pc.divide(b["qty_sum"].cast(pa.float64()),
                          b["n"].cast(pa.float64())),
                pa.scalar(Q17_QTY_FRACTION))}),
            batch_format="pyarrow", batch_size=None) \
        .materialize()  # one row per brand part: dim-sized by construction

    j = lookup_join(li, stats, "l_partkey", "l_partkey")
    small = j.map_batches(
        lambda b: (lambda f: pa.table({
            "price_sum": pa.array(
                [float(pc.sum(f["l_extendedprice"]).as_py() or 0.0)]),
            "n": pa.array([f.num_rows], pa.int64())}))(
            b.filter(pc.less(b["l_quantity"], b["qty_cut"]))),
        batch_format="pyarrow")
    agg = small.to_pandas()  # one row per block
    total = float(agg["price_sum"].sum()) if int(agg["n"].sum()) else None
    val = None if total is None else \
        float(round_half_up(np.array([total / 7.0]), 2)[0])
    return pd.DataFrame({"avg_yearly": pd.array([val], dtype="float64")})


Q18_QTY_THRESHOLD = 300.0


def large_volume_customers(sf_dir: str, k: int = 100) -> rd.Dataset:
    """TPC-H Q18 shape: customers behind orders whose total quantity
    exceeds a threshold.  Per-order quantity folds with an in-block
    partial before the orderkey shuffle; the surviving key set is tiny
    (HAVING > threshold), so orders and then customers attach by
    broadcast probe, never a fact-fact exchange.  Output (c_name,
    c_custkey, o_orderkey, o_orderdate, o_totalprice, total_qty) sorted
    o_totalprice desc, o_orderdate, o_orderkey, limit k."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_quantity"])
    nparts = _num_partitions(li)
    big = grouped_sum(li, ["l_orderkey"], "l_quantity", "total_qty") \
        .map_batches(lambda b: b.filter(pc.greater(
            b["total_qty"], pa.scalar(Q18_QTY_THRESHOLD))),
            batch_format="pyarrow", batch_size=None) \
        .materialize()  # HAVING >threshold: tiny by construction

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate",
                                 "o_totalprice"])
    j = lookup_join(orders, big, "o_orderkey", "l_orderkey",
                    nparts=nparts, how="inner")
    j = lookup_join(j, read_table(sf_dir, "customer",
                                  columns=["c_custkey", "c_name"]),
                    "o_custkey", "c_custkey", nparts=nparts, how="inner")
    out = j.map_batches(
        lambda b: pa.table({
            "c_name": b["c_name"], "c_custkey": b["o_custkey"],
            "o_orderkey": b["o_orderkey"],
            "o_orderdate": b["o_orderdate"],
            "o_totalprice": b["o_totalprice"],
            "total_qty": b["total_qty"]}),
        batch_format="pyarrow", batch_size=None)
    return out.sort(["o_totalprice", "o_orderdate", "o_orderkey"],
                    descending=[True, False, False]).limit(k)


Q21_LATE_DAYS = 365


def waiting_suppliers(sf_dir: str, k: int = 20) -> rd.Dataset:
    """TPC-H Q21 shape, adapted to this schema's columns: blame the SOLE
    late supplier of finished multi-supplier orders ("late" =
    shipped > orderdate + 365d; the reference schema's
    commitdate/receiptdate pair doesn't exist here).  The EXISTS /
    NOT-EXISTS pair becomes two grouped folds: per (order, supplier)
    any-late, then per order (supplier count, late-supplier count);
    qualifying orders form a broadcast key set that pulls back the one
    late supplier each.  Output (s_name, numwait) sorted numwait desc,
    s_name, limit k."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderdate",
                                 "o_orderstatus"]) \
        .map_batches(lambda b: b.filter(pc.equal(
            b["o_orderstatus"], "F")).select(["o_orderkey", "o_orderdate"]),
            batch_format="pyarrow", batch_size=None)
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    nparts = _num_partitions(li)
    j = lookup_join(li, orders, "l_orderkey", "o_orderkey",
                    nparts=nparts, how="inner")

    def tag(b: pa.Table) -> pa.Table:
        cutoff = pc.add(b["o_orderdate"],
                        pa.scalar(pd.Timedelta(days=Q21_LATE_DAYS)))
        late = pc.cast(pc.greater(b["l_shipdate"], cutoff), pa.int64())
        t = pa.table({"l_orderkey": b["l_orderkey"],
                      "l_suppkey": b["l_suppkey"], "late": late})
        # in-block partial of the (order, supplier) any-late fold
        return t.group_by(["l_orderkey", "l_suppkey"]) \
            .aggregate([("late", "max")]) \
            .rename_columns(["l_orderkey", "l_suppkey", "late"])

    # materialized: BOTH the per-order fold and the late-rows pullback
    # consume this — unmaterialized, the parse-join-aggregate lineage
    # would execute twice (observed 12.7 s -> 7 s at sf0.1).  Fact-scale
    # but exchange-reduced; the object store spills it if needed.
    per_supp = grouped_fold(j, ["l_orderkey", "l_suppkey"], tag,
                            [("late", "max")]).materialize()

    def order_partial(b: pa.Table) -> pa.Table:
        return b.group_by(["l_orderkey"]) \
            .aggregate([([], "count_all"), ("late", "sum")]) \
            .rename_columns(["l_orderkey", "nsupp", "nlate"])

    per_order = grouped_fold(per_supp, ["l_orderkey"], order_partial,
                             [("nsupp", "sum"), ("nlate", "sum")])
    blamed_orders = per_order.map_batches(
        lambda b: b.filter(pc.and_(pc.greater(b["nsupp"], pa.scalar(1)),
                                   pc.equal(b["nlate"], pa.scalar(1))))
        .select(["l_orderkey"]),
        batch_format="pyarrow", batch_size=None).materialize()

    late_rows = per_supp.map_batches(
        lambda b: b.filter(pc.equal(b["late"], pa.scalar(1)))
        .select(["l_orderkey", "l_suppkey"]),
        batch_format="pyarrow", batch_size=None)
    blamed = lookup_join(late_rows, blamed_orders,
                         "l_orderkey", "l_orderkey",
                         nparts=nparts, how="inner")
    named = lookup_join(
        blamed,
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]),
        "l_suppkey", "s_suppkey", how="inner")
    return grouped_count(named, ["s_name"], "numwait") \
        .sort(["numwait", "s_name"], descending=[True, False]).limit(k)


Q8_REGION = "EUROPE"
Q8_TYPE = "STANDARD"
Q8_NATION = "NATION_8"
Q8_DATE_LO = "1996-01-01"
Q8_DATE_HI = "1998-01-01"


def nation_market_share(sf_dir: str) -> rd.Dataset:
    """TPC-H Q8 shape: one nation's market share, by order year, of a
    part type sold to customers of one region.  Both CASE sums of the
    share ratio fold per block against ONE joined stream: parts collapse
    to a broadcast key probe, the supplier side to a broadcast
    (s_suppkey -> nation) map, and only orders (date-pruned, region-
    member customers only) meet lineitem in a hash exchange.  Output
    (o_year, mkt_share) sorted by year."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    lo, hi = pd.Timestamp(Q8_DATE_LO), pd.Timestamp(Q8_DATE_HI)

    region = read_table(sf_dir, "region", columns=["r_regionkey", "r_name"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["r_name"], Q8_REGION)).select(["r_regionkey"]),
            batch_format="pyarrow", batch_size=None).materialize()
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name", "n_regionkey"])
    eur_nations = lookup_join(nation, region, "n_regionkey", "r_regionkey",
                              how="inner") \
        .map_batches(lambda b: b.select(["n_nationkey"]),
                     batch_format="pyarrow", batch_size=None).materialize()
    supp_map = lookup_join(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        nation.map_batches(
            lambda b: b.select(["n_nationkey", "n_name"]),
            batch_format="pyarrow", batch_size=None).materialize(),
        "s_nationkey", "n_nationkey", how="inner",
        rename={"n_name": "supp_nation"}) \
        .map_batches(lambda b: b.select(["s_suppkey", "supp_nation"]),
                     batch_format="pyarrow", batch_size=None).materialize()
    parts = read_table(sf_dir, "part", columns=["p_partkey", "p_type"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["p_type"], Q8_TYPE)).select(["p_partkey"]),
            batch_format="pyarrow", batch_size=None).materialize()

    cust = lookup_join(
        read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        eur_nations, "c_nationkey", "n_nationkey", how="inner") \
        .map_batches(lambda b: b.select(["c_custkey"]),
                     batch_format="pyarrow", batch_size=None)
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda b: b.filter(pc.and_(
            pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
            pc.less(b["o_orderdate"], pa.scalar(hi)))),
            batch_format="pyarrow", batch_size=None)
    nparts = _num_partitions(orders)
    orders = lookup_join(orders, cust, "o_custkey", "c_custkey",
                         nparts=nparts, how="inner") \
        .map_batches(lambda b: pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_year": pc.year(b["o_orderdate"])}),
            batch_format="pyarrow", batch_size=None)

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_partkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])
    li = lookup_join(li, parts, "l_partkey", "p_partkey", how="inner")
    li = lookup_join(li, supp_map, "l_suppkey", "s_suppkey", how="inner")
    j = lookup_join(li, orders, "l_orderkey", "o_orderkey",
                    nparts=nparts, how="inner")

    aggs = [("tot", "sum"), ("nat", "sum")]

    def partial(b: pa.Table) -> pa.Table:
        vol = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        flag = pc.cast(pc.equal(b["supp_nation"], Q8_NATION), pa.float64())
        t = pa.table({"o_year": b["o_year"], "tot": vol,
                      "nat": pc.multiply(vol, flag)})
        return t.group_by(["o_year"]).aggregate(aggs) \
            .rename_columns(["o_year", "tot", "nat"])

    out = grouped_fold(j, ["o_year"], partial, aggs)

    def finish(b: pa.Table) -> pa.Table:
        share = b["nat"].to_numpy() / b["tot"].to_numpy()
        return pa.table({"o_year": b["o_year"],
                         "mkt_share": pa.array(round_half_up(share, 6))})
    return out.map_batches(finish, batch_format="pyarrow").sort("o_year")


Q9_NAME_SUBSTR = "red"
Q9_COST_FACTOR = 0.6


def product_type_profit(sf_dir: str) -> rd.Dataset:
    """TPC-H Q9 shape, adapted to this schema (no partsupp: unit cost =
    0.6 x p_retailprice): profit on one product family by supplier
    nation and order year.  Parts (name-filtered, with retail price) and
    the supplier->nation map ride broadcast probes; orders meet the
    pruned lineitem stream in the one hash exchange; (nation, year)
    profit folds per block first.  Output (nation, o_year, sum_profit)
    sorted nation asc, o_year desc."""
    from ..stages.dedup import _num_partitions
    from ..stages.joins import lookup_join

    parts = read_table(sf_dir, "part",
                       columns=["p_partkey", "p_name", "p_retailprice"]) \
        .map_batches(lambda b: b.filter(pc.match_substring(
            b["p_name"], Q9_NAME_SUBSTR))
            .select(["p_partkey", "p_retailprice"]),
            batch_format="pyarrow", batch_size=None).materialize()
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"]).materialize()
    supp_map = lookup_join(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        nation, "s_nationkey", "n_nationkey", how="inner",
        rename={"n_name": "nation"}) \
        .map_batches(lambda b: b.select(["s_suppkey", "nation"]),
                     batch_format="pyarrow", batch_size=None).materialize()

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_partkey", "l_suppkey",
                             "l_quantity", "l_extendedprice", "l_discount"])
    nparts = _num_partitions(li)
    li = lookup_join(li, parts, "l_partkey", "p_partkey", how="inner")
    li = lookup_join(li, supp_map, "l_suppkey", "s_suppkey", how="inner")
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderdate"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_year": pc.year(b["o_orderdate"])}),
            batch_format="pyarrow", batch_size=None)
    j = lookup_join(li, orders, "l_orderkey", "o_orderkey",
                    nparts=nparts, how="inner")

    def derive(b: pa.Table) -> pa.Table:
        revenue = pc.multiply(b["l_extendedprice"],
                              pc.subtract(pa.scalar(1.0), b["l_discount"]))
        cost = pc.multiply(pc.multiply(b["p_retailprice"], b["l_quantity"]),
                           pa.scalar(Q9_COST_FACTOR))
        return pa.table({"nation": b["nation"], "o_year": b["o_year"],
                         "amount": pc.subtract(revenue, cost)})

    ds = j.map_batches(derive, batch_format="pyarrow", batch_size=None)
    out = grouped_sum(ds, ["nation", "o_year"], "amount", "profit_f")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "nation": b["nation"], "o_year": b["o_year"],
            "sum_profit": pa.array(
                round_half_up(b["profit_f"].to_numpy(), 2))})
    return out.map_batches(finish, batch_format="pyarrow") \
        .sort(["nation", "o_year"], descending=[False, True])


Q19_CASES = (("Brand#1", 1, 5, 1.0, 11.0),
             ("Brand#2", 1, 10, 10.0, 20.0),
             ("Brand#3", 1, 15, 20.0, 30.0))


def disjunctive_revenue(sf_dir: str) -> Any:
    """TPC-H Q19 shape: revenue under an OR of per-brand (size x
    quantity) windows.  The part side prunes to the union of the brand/
    size windows BEFORE broadcasting (brand + size travel as probe
    payload), the disjunction evaluates vectorized per block, and only
    one (sum) row per block reaches the driver.  Output one row
    (revenue)."""
    from ..stages.joins import lookup_join

    brands = pa.array([c[0] for c in Q19_CASES])
    max_size = max(c[2] for c in Q19_CASES)

    parts = read_table(sf_dir, "part",
                       columns=["p_partkey", "p_brand", "p_size"]) \
        .map_batches(lambda b: b.filter(pc.and_(
            pc.is_in(b["p_brand"], value_set=brands),
            pc.less_equal(b["p_size"], pa.scalar(max_size)))),
            batch_format="pyarrow", batch_size=None).materialize()
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_quantity",
                             "l_extendedprice", "l_discount"])
    j = lookup_join(li, parts, "l_partkey", "p_partkey", how="inner")

    def fold(b: pa.Table) -> pa.Table:
        keep = None
        for brand, s_lo, s_hi, q_lo, q_hi in Q19_CASES:
            cond = pc.and_(
                pc.and_(pc.equal(b["p_brand"], brand),
                        pc.and_(pc.greater_equal(b["p_size"],
                                                 pa.scalar(s_lo)),
                                pc.less_equal(b["p_size"],
                                              pa.scalar(s_hi)))),
                pc.and_(pc.greater_equal(b["l_quantity"], pa.scalar(q_lo)),
                        pc.less_equal(b["l_quantity"], pa.scalar(q_hi))))
            keep = cond if keep is None else pc.or_(keep, cond)
        f = b.filter(keep)
        rev = pc.multiply(f["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), f["l_discount"]))
        return pa.table({
            "rev": pa.array([float(pc.sum(rev).as_py() or 0.0)]),
            "n": pa.array([f.num_rows], pa.int64())})

    agg = j.map_batches(fold, batch_format="pyarrow").to_pandas()
    val = float(round_half_up(np.array([agg["rev"].sum()]), 2)[0]) \
        if int(agg["n"].sum()) else None
    return pd.DataFrame({"revenue": pd.array([val], dtype="float64")})


def dominant_part_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q20 shape, adapted (no partsupp availqty here): for every
    part, the supplier that shipped the largest total quantity, then the
    league table of parts dominated per supplier.  Two grouped folds —
    per (part, supplier) quantity, then the exact distributed grouped
    top-1 (partial per-block head -> one hash exchange -> final head) —
    and a broadcast name probe; output stays supplier-cardinality.
    Output (s_suppkey, s_name, n_dominated) sorted desc, key."""
    from ..stages.aggregate import grouped_top_k
    from ..stages.joins import lookup_join

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey", "l_quantity"])
    ps = grouped_sum(li, ["l_partkey", "l_suppkey"], "l_quantity", "q")
    top = grouped_top_k(ps, ["l_partkey"], "q", 1,
                        descending=True, tie_cols=["l_suppkey"])
    counted = grouped_count(top, ["l_suppkey"], "n_dominated")
    named = lookup_join(
        counted,
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]),
        "l_suppkey", "s_suppkey", how="inner")
    return named.map_batches(
        lambda b: pa.table({"s_suppkey": b["l_suppkey"],
                            "s_name": b["s_name"],
                            "n_dominated": b["n_dominated"]}),
        batch_format="pyarrow", batch_size=None) \
        .sort(["n_dominated", "s_suppkey"], descending=[True, False])


Q6_DATE_LO = "1996-01-01"
Q6_DATE_HI = "1997-01-01"
Q6_DISC_LO = 0.05
Q6_DISC_HI = 0.07
Q6_QTY_MAX = 24.0


def forecast_revenue_change(sf_dir: str) -> Any:
    """TPC-H Q6 shape: revenue delta from a what-if discount change — a
    pure filtered global sum, no join.  All four predicates evaluate
    vectorized per block on a 4-column pruned scan; one (sum, count) row
    per block reaches the driver.  Output one row (revenue)."""
    lo, hi = pd.Timestamp(Q6_DATE_LO), pd.Timestamp(Q6_DATE_HI)
    li = read_table(sf_dir, "lineitem",
                    columns=["l_shipdate", "l_discount",
                             "l_quantity", "l_extendedprice"])

    def fold(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(b["l_shipdate"], pa.scalar(lo)),
                    pc.less(b["l_shipdate"], pa.scalar(hi))),
            pc.and_(
                pc.and_(pc.greater_equal(b["l_discount"],
                                         pa.scalar(Q6_DISC_LO)),
                        pc.less_equal(b["l_discount"],
                                      pa.scalar(Q6_DISC_HI))),
                pc.less(b["l_quantity"], pa.scalar(Q6_QTY_MAX))))
        f = b.filter(keep)
        rev = pc.multiply(f["l_extendedprice"], f["l_discount"])
        return pa.table({
            "rev": pa.array([float(pc.sum(rev).as_py() or 0.0)]),
            "n": pa.array([f.num_rows], pa.int64())})

    agg = li.map_batches(fold, batch_format="pyarrow").to_pandas()
    val = float(round_half_up(np.array([agg["rev"].sum()]), 2)[0]) \
        if int(agg["n"].sum()) else None
    return pd.DataFrame({"revenue": pd.array([val], dtype="float64")})


TRIM_FRACTION = 0.1


def events_value_trimmed_mean_by_type(sf_dir: str) -> rd.Dataset:
    """EXACT per-group 10%-trimmed mean — a rank-WINDOW SUM per group,
    the robust-statistics sibling of ``events_value_median_by_type``'s
    single-rank selection.  Same O(blocks x |types|) driver plan: one
    global sort, per-block type-segment summaries (count AND sum), then
    the driver intersects each segment's global rank range with the
    group's keep-window (lo, hi]: fully-inside segments contribute their
    summary sum with NO second pass; only the <=2 boundary segments per
    group need a slice-sum extract.  Groups are never collected; no
    group ever has to fit a worker.  Output (event_type, trimmed_mean)
    ordered by type."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .sort(["event_type", "value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        out = {"t0": [], "v0": [], "id0": [], "seg": [], "typ": [],
               "cnt": [], "s": []}
        if b.num_rows:
            t = b["event_type"].to_numpy(zero_copy_only=False)
            v = b["value"].to_numpy()
            starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
            ends = np.r_[starts[1:], len(t)]
            for s_i, (s, e) in enumerate(zip(starts, ends)):
                out["t0"].append(t[0])
                out["v0"].append(b["value"][0].as_py())
                out["id0"].append(b["event_id"][0].as_py())
                out["seg"].append(s_i)
                out["typ"].append(t[s])
                out["cnt"].append(int(e - s))
                out["s"].append(float(v[s:e].sum()))
        return pa.table({"t0": pa.array(out["t0"], pa.string()),
                         "v0": pa.array(out["v0"], pa.float64()),
                         "id0": pa.array(out["id0"], pa.int64()),
                         "seg": pa.array(out["seg"], pa.int64()),
                         "typ": pa.array(out["typ"], pa.string()),
                         "cnt": pa.array(out["cnt"], pa.int64()),
                         "s": pa.array(out["s"], pa.float64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "trimmed_mean": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    summ = summ.sort_values(["t0", "v0", "id0", "seg"]) \
        .reset_index(drop=True)
    seg_base = summ.groupby(["t0", "v0", "id0"], sort=False)["cnt"] \
        .cumsum() - summ["cnt"]
    prev = summ.groupby("typ", sort=False)["cnt"].cumsum() - summ["cnt"]
    totals = summ.groupby("typ", sort=False)["cnt"].sum()
    lo_t = (totals * TRIM_FRACTION).astype(np.int64)   # floor
    hi_t = totals - lo_t
    j = summ.join(lo_t.rename("lo"), on="typ") \
            .join(hi_t.rename("hi"), on="typ")
    # window sums per type from fully-covered segments; slice requests
    # for the boundary segments
    inside: dict[str, float] = {}
    denom = {t: int(hi_t[t] - lo_t[t]) for t in totals.index}
    picks: dict[tuple, list[tuple[int, int, str]]] = {}
    pv, cv = prev.to_numpy(), j["cnt"].to_numpy()
    ilo = np.maximum(pv, j["lo"].to_numpy())
    ihi = np.minimum(pv + cv, j["hi"].to_numpy())
    for i in np.flatnonzero(ihi > ilo):
        typ = j["typ"].iat[i]
        if ilo[i] == pv[i] and ihi[i] == pv[i] + cv[i]:
            inside[typ] = inside.get(typ, 0.0) + float(j["s"].iat[i])
            continue
        key = (j["t0"].iat[i], float(j["v0"].iat[i]), int(j["id0"].iat[i]))
        a = int(seg_base.iat[i] + (ilo[i] - pv[i]))
        n = int(ihi[i] - ilo[i])
        picks.setdefault(key, []).append((a, n, typ))

    part_empty = pa.table({"typ": pa.array([], pa.string()),
                           "ps": pa.array([], pa.float64())})

    def extract(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_empty
        key = (b["event_type"][0].as_py(), float(b["value"][0].as_py()),
               int(b["event_id"][0].as_py()))
        req = picks.get(key)
        if not req:
            return part_empty
        v = b["value"].to_numpy()
        return pa.table({
            "typ": pa.array([t for _, _, t in req], pa.string()),
            "ps": pa.array([float(v[a:a + n].sum()) for a, n, _ in req],
                           pa.float64())})

    partials = ds.map_batches(extract, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    for _, row in partials.iterrows():
        inside[row["typ"]] = inside.get(row["typ"], 0.0) + float(row["ps"])
    types = sorted(denom)
    return rd.from_arrow(pa.table({
        "event_type": pa.array(types, pa.string()),
        "trimmed_mean": pa.array(
            round_half_up(np.array([inside.get(t, 0.0) / denom[t]
                                    for t in types]), 4))}))


def events_daily_metrics_long(sf_dir: str) -> rd.Dataset:
    """Wide->long UNPIVOT of a per-day metrics table (count / sum / max),
    the melt half of the reshape family next to ``unit_level_pivot``.
    The fold is partial-first (one in-block grouped (sum,sum,max) row
    per day per block, one day-key exchange); the melt itself is a
    per-block constant-fanout concat — three rows per day, no exchange.
    Output (day, metric, value) sorted by (day, metric)."""
    def pre(b: pa.Table) -> pa.Table:
        t = pa.table({"day": pc.floor_temporal(b["ts"], unit="day"),
                      "one": pa.array(np.ones(b.num_rows, np.int64)),
                      "value": b["value"]})
        return t.group_by(["day"]).aggregate(
            [("one", "sum"), ("value", "sum"), ("value", "max")]) \
            .rename_columns(["day", "n_events", "total_value", "max_value"])

    agg_ds = grouped_fold(
        read_table(sf_dir, "events", columns=["ts", "value"]), ["day"], pre,
        [("n_events", "sum"), ("total_value", "sum"), ("max_value", "max")])

    def melt(b: pa.Table) -> pa.Table:
        n = b.num_rows
        parts = [
            pa.table({"day": b["day"],
                      "metric": pa.array(["n_events"] * n),
                      "value": b["n_events"].cast(pa.float64())}),
            pa.table({"day": b["day"],
                      "metric": pa.array(["total_value"] * n),
                      "value": pa.array(round_half_up(
                          b["total_value"].to_numpy(), 2))}),
            pa.table({"day": b["day"],
                      "metric": pa.array(["max_value"] * n),
                      "value": b["max_value"].cast(pa.float64())}),
        ]
        return pa.concat_tables(parts)

    return agg_ds.map_batches(melt, batch_format="pyarrow",
                              batch_size=None).sort(["day", "metric"])


def events_value_trend_by_type(sf_dir: str) -> rd.Dataset:
    """Per-group least-squares fit (slope/intercept of value on
    hour-of-day) — distributed regression via sufficient statistics: each
    block folds (n, Σx, Σy, Σxx, Σxy) per group, one grouped fold sums
    them, and the normal equations solve per group on |groups| rows.
    hour-of-day x keeps the moments small so the closed form is
    numerically safe without centering (an epoch-scale x would need the
    two-pass centered variant).  Output (event_type, slope, intercept, n)
    ordered by type."""
    sums = ["n", "sx", "sy", "sxx", "sxy"]
    aggs = [(c, "sum") for c in sums]

    def moments(b: pa.Table) -> pa.Table:
        x = pc.cast(pc.hour(b["ts"]), pa.float64())
        y = b["value"]
        t = pa.table({"event_type": b["event_type"],
                      "n": pa.array(np.ones(b.num_rows, np.int64)),
                      "sx": x, "sy": y,
                      "sxx": pc.multiply(x, x),
                      "sxy": pc.multiply(x, y)})
        return t.group_by(["event_type"]).aggregate(aggs) \
            .rename_columns(["event_type"] + sums)

    folded = grouped_fold(
        read_table(sf_dir, "events", columns=["event_type", "ts", "value"]),
        ["event_type"], moments, aggs)

    def solve(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy().astype(np.float64)
        sx, sy = b["sx"].to_numpy(), b["sy"].to_numpy()
        sxx, sxy = b["sxx"].to_numpy(), b["sxy"].to_numpy()
        denom = n * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(denom != 0.0,
                             (n * sxy - sx * sy) / denom, np.nan)
            intercept = (sy - slope * sx) / n
        return pa.table({
            "event_type": b["event_type"],
            "slope": pa.array(round_half_up(slope, 6)),
            "intercept": pa.array(round_half_up(intercept, 6)),
            "n": b["n"]})

    return folded.map_batches(solve, batch_format="pyarrow",
                              batch_size=None).sort("event_type")


def events_value_gini_by_type(sf_dir: str) -> rd.Dataset:
    """Per-group Gini coefficient of the value distribution — a global
    RANK-WEIGHTED sum (2·Σ rank·y / (n·Σy) − (n+1)/n), which needs every
    row's global in-group rank yet never co-locates a group: after ONE
    global sort, each block's type-segments report (count, Σy, Σ(local
    rank·y)) — the local rank-weighted sum is computable in-block, and
    the driver lifts it to global ranks with the per-type prefix offsets
    alone (Σ(offset+local+1)·y = offset·Σy + Σlocal·y + Σy).  One pass,
    O(blocks × |types|) driver state, no extract pass at all.  Output
    (event_type, gini) ordered by type."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .sort(["event_type", "value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        out = {"t0": [], "v0": [], "id0": [], "seg": [], "typ": [],
               "cnt": [], "s": [], "w": []}
        if b.num_rows:
            t = b["event_type"].to_numpy(zero_copy_only=False)
            v = b["value"].to_numpy()
            starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
            ends = np.r_[starts[1:], len(t)]
            for s_i, (s, e) in enumerate(zip(starts, ends)):
                seg = v[s:e]
                out["t0"].append(t[0])
                out["v0"].append(b["value"][0].as_py())
                out["id0"].append(b["event_id"][0].as_py())
                out["seg"].append(s_i)
                out["typ"].append(t[s])
                out["cnt"].append(int(e - s))
                out["s"].append(float(seg.sum()))
                out["w"].append(float((np.arange(len(seg)) * seg).sum()))
        return pa.table({"t0": pa.array(out["t0"], pa.string()),
                         "v0": pa.array(out["v0"], pa.float64()),
                         "id0": pa.array(out["id0"], pa.int64()),
                         "seg": pa.array(out["seg"], pa.int64()),
                         "typ": pa.array(out["typ"], pa.string()),
                         "cnt": pa.array(out["cnt"], pa.int64()),
                         "s": pa.array(out["s"], pa.float64()),
                         "w": pa.array(out["w"], pa.float64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "gini": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    summ = summ.sort_values(["t0", "v0", "id0", "seg"]) \
        .reset_index(drop=True)
    prev = summ.groupby("typ", sort=False)["cnt"].cumsum() - summ["cnt"]
    # global 1-based rank-weighted sum per segment, lifted from local
    rw = prev.to_numpy() * summ["s"].to_numpy() \
        + summ["w"].to_numpy() + summ["s"].to_numpy()
    g = pd.DataFrame({"typ": summ["typ"], "rw": rw, "s": summ["s"],
                      "n": summ["cnt"]}).groupby("typ", sort=True).sum()
    n = g["n"].to_numpy().astype(np.float64)
    gini = 2.0 * g["rw"].to_numpy() / (n * g["s"].to_numpy()) \
        - (n + 1.0) / n
    return rd.from_arrow(pa.table({
        "event_type": pa.array(g.index.to_numpy(), pa.string()),
        "gini": pa.array(round_half_up(gini, 6))}))


def events_value_quantile_normalized(sf_dir: str) -> rd.Dataset:
    """QUANTILE NORMALIZATION: every value is replaced by the GLOBAL
    value at its own within-type quantile position — the batch-effect
    correction that forces each group onto the corpus distribution
    (microarray lineage; for LLM pipelines, reward/score calibration
    across annotator or source groups).

    pos = (r * (N-1)) // (n_t - 1)  (0-based within-type rank r —
    INTEGER arithmetic, so engine and oracle agree bit-for-bit; a
    singleton group maps to pos 0 by convention, stated identically in
    SQL).  Plan: TWO sorted streams, each ranked by the block-offset
    pattern (blocks report counts, the driver hands each block its
    entering offsets — fact rows never co-locate): the type-major
    stream emits (event_id, pos), the global stream emits (gpos,
    value); ONE size-aware join on pos finishes.  Output (event_id,
    qnorm_value), fact-scale, streaming.  (At 10^12 rows r*(N-1)
    overflows int64 — the pos kernel would move to a per-type float
    ratio + correction pass or int128 there; exact at any tested
    scale.)"""
    from ..stages.joins import lookup_join
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])
    n_total = ds.count()
    if n_total == 0:
        return rd.from_arrow(pa.table({
            "event_id": pa.array([], pa.int64()),
            "qnorm_value": pa.array([], pa.float64())}))

    # ---- global stream: (gpos, qnorm_value) via block entering offsets
    gs = ds.sort(["value", "event_id"]).materialize()

    def gcounts(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"v0": b["value"].slice(0, 1),
                         "id0": b["event_id"].slice(0, 1),
                         "cnt": pa.array([b.num_rows], pa.int64())})

    gsum = gs.map_batches(gcounts, batch_format="pyarrow",
                          batch_size=None).to_pandas() \
        .sort_values(["v0", "id0"]).reset_index(drop=True)
    gent = np.r_[0, np.cumsum(gsum["cnt"].to_numpy())[:-1]]
    goffs = {(float(v), int(i)): int(o)
             for v, i, o in zip(gsum["v0"], gsum["id0"], gent)}

    def gmap(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"gpos": pa.array([], pa.int64()),
                             "qnorm_value": pa.array([], pa.float64())})
        off = goffs[(float(b["value"][0].as_py()),
                     int(b["event_id"][0].as_py()))]
        return pa.table({"gpos": pa.array(
            off + np.arange(b.num_rows, dtype=np.int64)),
            "qnorm_value": b["value"]})

    gmap_ds = gs.map_batches(gmap, batch_format="pyarrow",
                             batch_size=None).materialize()

    # ---- type-major stream: (event_id, pos) via per-segment offsets
    ts_ = ds.sort(["event_type", "value", "event_id"]).materialize()

    def tsum(b: pa.Table) -> pa.Table:
        out = {"t0": [], "v0": [], "id0": [], "seg": [], "typ": [],
               "cnt": []}
        if b.num_rows:
            t = b["event_type"].to_numpy(zero_copy_only=False)
            starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
            ends = np.r_[starts[1:], len(t)]
            for s_i, (st, en) in enumerate(zip(starts, ends)):
                out["t0"].append(t[0])
                out["v0"].append(b["value"][0].as_py())
                out["id0"].append(b["event_id"][0].as_py())
                out["seg"].append(s_i)
                out["typ"].append(t[st])
                out["cnt"].append(int(en - st))
        return pa.table({"t0": pa.array(out["t0"], pa.string()),
                         "v0": pa.array(out["v0"], pa.float64()),
                         "id0": pa.array(out["id0"], pa.int64()),
                         "seg": pa.array(out["seg"], pa.int64()),
                         "typ": pa.array(out["typ"], pa.string()),
                         "cnt": pa.array(out["cnt"], pa.int64())})

    tsm = ts_.map_batches(tsum, batch_format="pyarrow",
                          batch_size=None).to_pandas() \
        .sort_values(["t0", "v0", "id0", "seg"]).reset_index(drop=True)
    tsm["prev"] = tsm.groupby("typ", sort=False)["cnt"].cumsum() \
        - tsm["cnt"]
    totals = tsm.groupby("typ", sort=False)["cnt"].sum().to_dict()
    # per block: segment entering offsets + type totals, in segment order
    seg_plan: dict = {}
    for _, row in tsm.iterrows():
        key = (float(row["v0"]), int(row["id0"]))
        seg_plan.setdefault(key, []).append(
            (int(row["prev"]), int(totals[row["typ"]])))

    big_n = n_total - 1

    def pos_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        plan = seg_plan[(float(b["value"][0].as_py()),
                         int(b["event_id"][0].as_py()))]
        t = b["event_type"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        lens = np.diff(np.r_[starts, len(t)])
        prev = np.array([p for p, _ in plan], dtype=np.int64)
        ntyp = np.array([n for _, n in plan], dtype=np.int64)
        r = np.repeat(prev, lens) \
            + (np.arange(len(t), dtype=np.int64)
               - np.repeat(starts, lens))
        nn = np.repeat(ntyp, lens)
        pos = np.where(nn <= 1, 0, (r * big_n) // np.maximum(nn - 1, 1))
        return pa.table({"event_id": b["event_id"],
                         "pos": pa.array(pos, pa.int64())})

    posed = ts_.map_batches(pos_block, batch_format="pyarrow",
                            batch_size=None)
    out = lookup_join(posed, gmap_ds, "pos", "gpos", how="inner")
    return out.map_batches(
        lambda b: b.select(["event_id", "qnorm_value"]),
        batch_format="pyarrow", batch_size=None)


def events_value_means_by_type(sf_dir: str) -> rd.Dataset:
    """Arithmetic / geometric / harmonic mean per group in ONE fold: all
    three are monoid sums (Σy, Σln y, Σ1/y) plus a count, so the whole
    op is a per-block grouped partial -> one grouped fold -> vectorized
    finish.  A zero value makes the geometric and harmonic mean exactly
    0 — the engine's inf arithmetic reaches that limit naturally
    (sum ln -> -inf -> exp 0; sum 1/v -> inf -> n/inf 0), and the oracle
    states it with a min(value)=0 gate (DuckDB's ln(0) raises).  Output
    (event_type, mean, gmean, hmean) round-6, ordered by type."""
    def fold(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy()
        with np.errstate(divide="ignore"):   # v=0 -> -inf/inf by design
            logs, invs = np.log(v), 1.0 / v
        t = pa.table({"event_type": b["event_type"],
                      "s": b["value"],
                      "sl": pa.array(logs),
                      "si": pa.array(invs)})
        return t.group_by(["event_type"]).aggregate(
            [([], "count_all"), ("s", "sum"), ("sl", "sum"), ("si", "sum")]) \
            .rename_columns(["event_type", "n", "s", "sl", "si"])

    folded = grouped_fold(
        read_table(sf_dir, "events", columns=["event_type", "value"]),
        ["event_type"], fold,
        [("n", "sum"), ("s", "sum"), ("sl", "sum"), ("si", "sum")])

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy().astype(np.float64)
        return pa.table({
            "event_type": b["event_type"],
            "mean": pa.array(round_half_up(b["s"].to_numpy() / n, 6)),
            "gmean": pa.array(round_half_up(
                np.exp(b["sl"].to_numpy() / n), 6)),
            "hmean": pa.array(round_half_up(
                n / b["si"].to_numpy(), 6))})
    return folded.map_batches(finish, batch_format="pyarrow",
                              batch_size=None).sort("event_type")


def events_type_hour_chi2(sf_dir: str) -> Any:
    """Chi-square independence statistic for event_type x hour-of-day —
    the screening test for "does traffic shape differ by type".  The
    contingency table is a grouped count fold (|types| x 24 cells — tiny
    by construction however large the fact stream), so margins,
    expectations and the statistic all finish on the folded result.
    Output one row (chi2, dof) round-4."""
    def cells(b: pa.Table) -> pa.Table:
        return pa.table({"event_type": b["event_type"],
                         "hour": pc.hour(b["ts"])})

    folded = grouped_count(
        read_table(sf_dir, "events", columns=["event_type", "ts"])
        .map_batches(cells, batch_format="pyarrow"),
        ["event_type", "hour"], "obs").to_pandas()
    if not len(folded):
        return pd.DataFrame({"chi2": pd.array([None], dtype="float64"),
                             "dof": pd.array([None], dtype="Int64")})
    piv = folded.pivot_table(index="event_type", columns="hour",
                             values="obs", fill_value=0, aggfunc="sum")
    obs = piv.to_numpy().astype(np.float64)
    n = obs.sum()
    exp = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = float(np.where(exp > 0, (obs - exp) ** 2 / exp, 0.0).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return pd.DataFrame({
        "chi2": pd.array([float(round_half_up(np.array([chi2]), 4)[0])],
                         dtype="float64"),
        "dof": pd.array([dof], dtype="int64")})


KS_TYPE_A = "click"
KS_TYPE_B = "view"


def _ks_two_sample(ds, stat: str = "ks") -> float | None:
    """Exact two-sample CDF-gap statistics over a (value, event_id, isa)
    Dataset — the label-agnostic core shared by ``events_ks_statistic``
    (type vs type), ``events_cvm_statistic`` (same scan, SQUARED-gap
    sum), and ``events_drift_report`` (before vs after).  One global
    sort; blocks report (nA, nB); driver prefix offsets; each block
    folds BOTH its local gap max and squared-gap sum in one pass;
    driver max (KS) or scaled sum (CvM).  Returns None when either
    sample is empty."""
    ds = ds.sort(["value", "event_id"]).materialize()

    def counts(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "na": pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64())})
        na = int(pc.sum(pc.cast(b["isa"], pa.int64())).as_py())
        return pa.table({
            "v0": b["value"].slice(0, 1),
            "id0": b["event_id"].slice(0, 1),
            "na": pa.array([na], pa.int64()),
            "nb": pa.array([b.num_rows - na], pa.int64())})

    summ = ds.map_batches(counts, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    if not len(summ):
        return None
    summ = summ.sort_values(["v0", "id0"]).reset_index(drop=True)
    n_a, n_b = int(summ["na"].sum()), int(summ["nb"].sum())
    if n_a == 0 or n_b == 0:
        return None
    offs = {}
    ca = cb = 0
    for _, r in summ.iterrows():
        offs[(float(r["v0"]), int(r["id0"]))] = (ca, cb)
        ca += int(r["na"])
        cb += int(r["nb"])

    def block_stat(b: pa.Table) -> pa.Table:
        empty = pa.table({"ks": pa.array([], pa.float64()),
                          "ss": pa.array([], pa.float64())})
        if b.num_rows == 0:
            return empty
        oa, ob = offs[(float(b["value"][0].as_py()),
                       int(b["event_id"][0].as_py()))]
        isa = b["isa"].to_numpy(zero_copy_only=False).astype(np.int64)
        cum_a = oa + np.cumsum(isa)
        cum_b = ob + np.cumsum(1 - isa)
        gap = cum_a / n_a - cum_b / n_b
        return pa.table({"ks": pa.array([float(np.abs(gap).max())]),
                         "ss": pa.array([float((gap * gap).sum())])})

    folded = ds.map_batches(block_stat, batch_format="pyarrow",
                            batch_size=None).to_pandas()
    if stat == "cvm":
        # Cramér–von Mises criterion over the pooled empirical measure:
        # T = (nA*nB/N^2) * Σ_pooled (F_A - F_B)^2
        big = float(n_a + n_b)
        return float(n_a) * float(n_b) / (big * big) \
            * float(folded["ss"].sum())
    return float(folded["ks"].max())


def events_ks_statistic(sf_dir: str) -> rd.Dataset:
    """EXACT two-sample Kolmogorov-Smirnov statistic between two event
    types' value distributions — the drift detector a 100-TB pipeline
    runs between corpus snapshots.  Distribution plan in
    ``_ks_two_sample``; ties resolve in (value, event_id) order —
    identical in engine and oracle, equal to classical KS for
    continuous data.  Output one row (ks)."""
    pair = pa.array([KS_TYPE_A, KS_TYPE_B])
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .map_batches(lambda b: (lambda f: pa.table({
            "value": f["value"], "event_id": f["event_id"],
            "isa": pc.equal(f["event_type"], KS_TYPE_A)}))(
            b.filter(pc.is_in(b["event_type"], value_set=pair))),
            batch_format="pyarrow", batch_size=None)
    d = _ks_two_sample(ds)
    empty = pa.table({"ks": pa.array([], pa.float64())})
    if d is None:
        return rd.from_arrow(empty)
    return rd.from_arrow(pa.table({"ks": pa.array(
        round_half_up(np.array([d]), 6))}))


def events_cvm_statistic(sf_dir: str) -> rd.Dataset:
    """EXACT two-sample Cramér–von Mises criterion between the two KS
    event types — KS's integral sibling (the WHOLE squared CDF gap, not
    just its max, so slow body-wide drift registers even when no single
    point gap is large): T = (nA·nB/N²)·Σ_pooled (F_A − F_B)².  Same
    one-sort block-offset scan as KS — both statistics fold in the same
    pass.  Output one row (cvm round 6)."""
    pair = pa.array([KS_TYPE_A, KS_TYPE_B])
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .map_batches(lambda b: (lambda f: pa.table({
            "value": f["value"], "event_id": f["event_id"],
            "isa": pc.equal(f["event_type"], KS_TYPE_A)}))(
            b.filter(pc.is_in(b["event_type"], value_set=pair))),
            batch_format="pyarrow", batch_size=None)
    t = _ks_two_sample(ds, stat="cvm")
    empty = pa.table({"cvm": pa.array([], pa.float64())})
    if t is None:
        return rd.from_arrow(empty)
    return rd.from_arrow(pa.table({"cvm": pa.array(
        round_half_up(np.array([t]), 6))}))


def events_rank_auc(sf_dir: str) -> rd.Dataset:
    """Mann-Whitney U / ROC-AUC between the two KS event types' value
    distributions — the separability score, computed in ONE summary pass
    over one global sort (cheaper than KS's two): Σ global ranks of
    sample A lifts from per-block (cntA, cntB, Σ local-idx-of-A) alone,
    since every A row's global rank = block entering count + local idx
    + 1.  U = ΣrankA − nA(nA+1)/2, AUC = U/(nA·nB).  Ties resolve in
    (value, event_id) order, as in the oracle.  Output one row
    (u, auc)."""
    pair = pa.array([KS_TYPE_A, KS_TYPE_B])
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"]) \
        .map_batches(lambda b: b.filter(pc.is_in(b["event_type"],
                                                 value_set=pair)),
                     batch_format="pyarrow", batch_size=None) \
        .sort(["value", "event_id"])

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "na": pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64()),
                             "w": pa.array([], pa.float64())})
        isa = pc.equal(b["event_type"], KS_TYPE_A).to_numpy(
            zero_copy_only=False)
        la = np.flatnonzero(isa)
        return pa.table({
            "v0": b["value"].slice(0, 1),
            "id0": b["event_id"].slice(0, 1),
            "na": pa.array([int(isa.sum())], pa.int64()),
            "nb": pa.array([int(b.num_rows - isa.sum())], pa.int64()),
            "w": pa.array([float(la.sum())], pa.float64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"u": pa.array([], pa.float64()),
                      "auc": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    summ = summ.sort_values(["v0", "id0"]).reset_index(drop=True)
    n_a, n_b = int(summ["na"].sum()), int(summ["nb"].sum())
    if n_a == 0 or n_b == 0:
        return rd.from_arrow(empty)
    tot = (summ["na"] + summ["nb"]).to_numpy()
    entering = np.r_[0, np.cumsum(tot)[:-1]].astype(np.float64)
    rank_sum_a = float((entering * summ["na"].to_numpy()
                        + summ["w"].to_numpy()
                        + summ["na"].to_numpy()).sum())
    u = rank_sum_a - n_a * (n_a + 1) / 2.0
    return rd.from_arrow(pa.table({
        "u": pa.array([float(round_half_up(np.array([u]), 2)[0])]),
        "auc": pa.array(round_half_up(
            np.array([u / (n_a * n_b)]), 6))}))


DRIFT_CUTOFF = "2024-01-16 00:00:00"


def events_drift_report(sf_dir: str) -> rd.Dataset:
    """Snapshot drift report between the event stream BEFORE and AFTER a
    cutoff — the one-shot health check a pipeline runs between corpus
    versions.  Four signals in tidy (metric, value) rows: sample sizes,
    mean-value shift, the L1 distance between the two event-type
    distributions (a grouped count fold — |types| rows), and the exact
    two-sample KS on value (the ``_ks_two_sample`` core).  Everything
    except the KS sort is a per-block fold; nothing corpus-sized reaches
    the driver."""
    cut = pd.Timestamp(DRIFT_CUTOFF)

    def label(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b["event_id"], "value": b["value"],
                         "event_type": b["event_type"],
                         "isa": pc.less(b["ts"], pa.scalar(cut))})

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "ts", "value"]) \
        .map_batches(label, batch_format="pyarrow", batch_size=None) \
        .materialize()

    def fold(b: pa.Table) -> pa.Table:
        return b.group_by(["event_type", "isa"]).aggregate(
            [([], "count_all"), ("value", "sum")]) \
            .rename_columns(["event_type", "isa", "n", "v"])

    cells = grouped_fold(ds, ["event_type", "isa"], fold,
                         [("n", "sum"), ("v", "sum")]) \
        .to_pandas()          # <= 2 x |types| rows by construction
    empty = pa.table({"metric": pa.array([], pa.string()),
                      "value": pa.array([], pa.float64())})
    if not len(cells):
        return rd.from_arrow(empty)
    before = cells[cells["isa"]]
    after = cells[~cells["isa"]]
    n_b, n_a = int(before["n"].sum()), int(after["n"].sum())
    if n_b == 0 or n_a == 0:
        return rd.from_arrow(empty)
    mean_shift = after["v"].sum() / n_a - before["v"].sum() / n_b
    pb = before.set_index("event_type")["n"] / n_b
    pa_ = after.set_index("event_type")["n"] / n_a
    l1 = float(pb.sub(pa_, fill_value=0.0).abs().sum())
    ks = _ks_two_sample(ds.select_columns(["value", "event_id", "isa"]))
    return rd.from_arrow(pa.table({
        "metric": pa.array(["ks_value", "l1_type_shift", "mean_shift",
                            "n_after", "n_before"]),
        "value": pa.array([
            float(round_half_up(np.array([ks]), 6)[0]),
            float(round_half_up(np.array([l1]), 6)[0]),
            float(round_half_up(np.array([mean_shift]), 6)[0]),
            float(n_a), float(n_b)])}))


KANON_K = 5


def events_k_anonymity(sf_dir: str, k: int = KANON_K) -> rd.Dataset:
    """k-anonymity audit over the quasi-identifier (event_type,
    hour-of-day, user band): the data-governance gate before a corpus
    export.  Grouped count fold -> the rare combinations (support < k)
    plus the rows-at-risk total.  Output (event_type, hour, user_band,
    n) for every violating combination, ordered."""
    def qi(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "hour": pc.hour(b["ts"]),
            "user_band": pc.cast(
                pc.divide(b["user_id"], pa.scalar(100)), pa.int64())})

    folded = grouped_count(
        read_table(sf_dir, "events", columns=["event_type", "ts", "user_id"])
        .map_batches(qi, batch_format="pyarrow"),
        ["event_type", "hour", "user_band"], "n")
    # the violating set is tiny by definition (< k rows per combo); a
    # fully-clean corpus yields an EMPTY result whose schema a sort of
    # zero blocks would drop — pin it explicitly
    schema = pa.schema([("event_type", pa.string()),
                        ("hour", pa.int64()),
                        ("user_band", pa.int64()),
                        ("n", pa.int64())])
    viol = folded.map_batches(
        lambda b: b.filter(pc.less(b["n"], pa.scalar(k))),
        batch_format="pyarrow", batch_size=None).to_pandas()
    if not len(viol):
        return rd.from_arrow(schema.empty_table())
    viol = viol.sort_values(["event_type", "hour", "user_band"])
    return rd.from_arrow(pa.Table.from_pandas(
        viol.reset_index(drop=True), schema=schema,
        preserve_index=False))


def events_value_zscore(sf_dir: str) -> rd.Dataset:
    """Per-group z-score normalization — the feature-engineering
    transform that needs global statistics per group on every row: one
    grouped (n, Σy, Σy²) fold gives population mean/std per type (a
    |types|-rows broadcast), then a stateless vectorized map rewrites
    the fact stream.  Output (event_id, event_type, z) — fact-scale,
    streaming, nothing big on the driver."""
    from ..stages.joins import lookup_join

    def fold(b: pa.Table) -> pa.Table:
        t = pa.table({"event_type": b["event_type"],
                      "one": pa.array(np.ones(b.num_rows, np.int64)),
                      "s": b["value"],
                      "ss": pc.multiply(b["value"], b["value"])})
        return t.group_by(["event_type"]).aggregate(
            [("one", "sum"), ("s", "sum"), ("ss", "sum")]) \
            .rename_columns(["event_type", "n", "s", "ss"])

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])
    stats = grouped_fold(ds, ["event_type"], fold,
                         [("n", "sum"), ("s", "sum"), ("ss", "sum")]) \
        .map_batches(lambda b: (lambda n, s, ss: pa.table({
            "event_type": b["event_type"],
            "mu": pa.array(s / n),
            "sigma": pa.array(np.sqrt(np.maximum(ss / n - (s / n) ** 2,
                                                 0.0)))}))(
            b["n"].to_numpy().astype(np.float64),
            b["s"].to_numpy(), b["ss"].to_numpy()),
            batch_format="pyarrow", batch_size=None).materialize()

    j = lookup_join(ds, stats, "event_type", "event_type")

    def z(b: pa.Table) -> pa.Table:
        sigma = b["sigma"].to_numpy()
        with np.errstate(divide="ignore", invalid="ignore"):
            zv = np.where(sigma > 0,
                          (b["value"].to_numpy() - b["mu"].to_numpy())
                          / sigma, 0.0)
        return pa.table({"event_id": b["event_id"],
                         "event_type": b["event_type"],
                         "z": pa.array(round_half_up(zv, 6))})

    return j.map_batches(z, batch_format="pyarrow", batch_size=None)


def user_value_percent_rank(sf_dir: str) -> rd.Dataset:
    """WINDOWED percent rank PER USER: every event's value mapped to its
    percent rank within that user's own history — the per-entity quantile
    transform (personalized anomaly scoring: "is this large FOR THIS
    user?").  SQL ``percent_rank() OVER (PARTITION BY user_id ORDER BY
    value)`` with true RANK tie semantics (equal values share the rank of
    their first position).

    ONE user_id hash exchange, then one vectorized kernel per block
    across all its users: sort (user, value, event_id), first-occurrence
    flags name each (user, value) run's entering position, per-user
    counts come from one bincount, and pct = rank0/(n_u-1) is INTEGER
    arithmetic until the single final division — so engine and oracle
    agree bit-for-bit (n_u = 1 -> 0, the SQL convention).  Output
    (event_id, user_id, pct_rank round 6), fact-scale, streaming."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "value"])

    def block_rank(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "pct_rank": pa.array([], pa.float64())})
        b = b.sort_by([("user_id", "ascending"), ("value", "ascending"),
                       ("event_id", "ascending")])
        u = b["user_id"].to_numpy()
        v = b["value"].to_numpy()
        n = len(u)
        ufirst = np.r_[True, u[1:] != u[:-1]]
        seg = np.cumsum(ufirst) - 1
        starts = np.flatnonzero(ufirst)
        pos = np.arange(n) - starts[seg]          # 0-based within user
        vfirst = ufirst | np.r_[True, v[1:] != v[:-1]]
        grp = np.cumsum(vfirst) - 1
        first_idx = np.flatnonzero(vfirst)
        rank0 = pos[first_idx[grp]]               # RANK-1 (ties share)
        n_u = np.bincount(seg)[seg]
        pct = rank0 / np.maximum(n_u - 1, 1)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "pct_rank": pa.array(round_half_up(pct, 6))})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_rank, batch_format="pyarrow", batch_size=None)


def events_value_percent_rank(sf_dir: str) -> rd.Dataset:
    """Global rank NORMALIZATION: every event's value mapped to its
    percent rank (rank-1)/(n-1) — the quantile-transform feature
    encoder.  Unlike the driver-collected selection ops, the OUTPUT here
    is the full fact stream: one global sort, blocks report row counts,
    the driver hands each block only its entering offset, and every
    block ranks its own rows vectorized.  Ties break on (value,
    event_id) in engine and oracle alike.  Output (event_id, pct_rank)
    round-6, fact-scale, streaming."""
    ds = read_table(sf_dir, "events", columns=["event_id", "value"]) \
        .sort(["value", "event_id"]).materialize()

    def counts(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v0": pa.array([], pa.float64()),
                             "id0": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        return pa.table({"v0": b["value"].slice(0, 1),
                         "id0": b["event_id"].slice(0, 1),
                         "cnt": pa.array([b.num_rows], pa.int64())})

    summ = ds.map_batches(counts, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "pct_rank": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    summ = summ.sort_values(["v0", "id0"]).reset_index(drop=True)
    n = int(summ["cnt"].sum())
    entering = np.r_[0, np.cumsum(summ["cnt"].to_numpy())[:-1]]
    offs = {(float(v), int(i)): int(o) for v, i, o in
            zip(summ["v0"], summ["id0"], entering)}
    denom = float(n - 1) if n > 1 else 1.0

    def rank(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        off = offs[(float(b["value"][0].as_py()),
                    int(b["event_id"][0].as_py()))]
        r = off + np.arange(b.num_rows, dtype=np.float64)
        return pa.table({"event_id": b["event_id"],
                         "pct_rank": pa.array(
                             round_half_up(r / denom, 6))})

    return ds.map_batches(rank, batch_format="pyarrow", batch_size=None)


Q11_NATION = "NATION_8"
Q11_FRACTION = 0.001


def important_stock(sf_dir: str) -> rd.Dataset:
    """TPC-H Q11 shape, adapted (no partsupp: stock value = shipped
    extendedprice x quantity from one nation's suppliers): parts whose
    value share beats a global-fraction gate.  The supplier-nation
    filter collapses to a broadcast key probe before the fact scan;
    per-part value folds partial-first; the scalar gate comes off the
    materialized (part-cardinality) fold — the HAVING > scalar-subquery
    plan.  Output (p_partkey, stock_value) desc."""
    from ..stages.joins import lookup_join

    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["n_name"], Q11_NATION)).select(["n_nationkey"]),
            batch_format="pyarrow", batch_size=None).materialize()
    supp = lookup_join(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        nation, "s_nationkey", "n_nationkey", how="inner") \
        .map_batches(lambda b: b.select(["s_suppkey"]),
                     batch_format="pyarrow", batch_size=None).materialize()
    empty = pa.table({"p_partkey": pa.array([], pa.int64()),
                      "stock_value": pa.array([], pa.float64())})
    if supp.count() == 0:      # nation with no suppliers at this sf
        return rd.from_arrow(empty)
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey",
                             "l_extendedprice", "l_quantity"])
    li = lookup_join(li, supp, "l_suppkey", "s_suppkey", how="inner") \
        .map_batches(lambda b: pa.table({
            "l_partkey": b["l_partkey"],
            "v": pc.multiply(b["l_extendedprice"], b["l_quantity"])}),
            batch_format="pyarrow", batch_size=None)
    pv = grouped_sum(li, ["l_partkey"], "v", "v") \
        .materialize()   # part-cardinality fold
    total = pv.sum("v")
    if total is None:  # suppliers exist but shipped nothing at this sf
        return rd.from_arrow(empty)
    gate = float(total) * Q11_FRACTION

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["v"], pa.scalar(gate)))
        return pa.table({
            "p_partkey": b["l_partkey"],
            "stock_value": pa.array(round_half_up(b["v"].to_numpy(), 2))})
    res = pv.map_batches(finish, batch_format="pyarrow",
                         batch_size=None).materialize()
    if res.count() == 0:
        # the fixed share gate can empty the result at larger SFs (each
        # part's share shrinks as 1/#parts); an all-filtered-then-sorted
        # Ray dataset drops its schema, so return the TYPED empty table
        return rd.from_arrow(empty)
    return res.sort(["stock_value", "p_partkey"],
                    descending=[True, False])


WMED_WEIGHT_MOD = 7


def events_value_weighted_median_by_type(sf_dir: str) -> rd.Dataset:
    """EXACT per-group WEIGHTED median (weight = user_id % 7 + 1 — the
    sample-weighting a curriculum/mixture pipeline attaches to rows):
    the smallest value whose cumulative weight reaches half the group
    total, under (value, event_id) order.  The selection target is a
    WEIGHT sum, not a row count, so the grouped-median plan folds
    per-segment weight sums instead: driver walks per-type segment
    prefixes to find each group's crossing segment, and one extract pass
    scans only those segments' in-block weight cumsums.  Output
    (event_type, wmedian) ordered by type."""
    def add_w(b: pa.Table) -> pa.Table:
        wt = b["user_id"].to_numpy() % WMED_WEIGHT_MOD + 1
        return pa.table({
            "event_id": b["event_id"], "event_type": b["event_type"],
            "value": b["value"],
            "wt": pa.array(wt.astype(np.int64))})

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "user_id",
                             "value"]) \
        .map_batches(add_w, batch_format="pyarrow", batch_size=None) \
        .sort(["event_type", "value", "event_id"]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        out = {"t0": [], "v0": [], "id0": [], "seg": [], "typ": [],
               "cnt": [], "w": []}
        if b.num_rows:
            t = b["event_type"].to_numpy(zero_copy_only=False)
            w = b["wt"].to_numpy()
            starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
            ends = np.r_[starts[1:], len(t)]
            for s_i, (s, e) in enumerate(zip(starts, ends)):
                out["t0"].append(t[0])
                out["v0"].append(b["value"][0].as_py())
                out["id0"].append(b["event_id"][0].as_py())
                out["seg"].append(s_i)
                out["typ"].append(t[s])
                out["cnt"].append(int(e - s))
                out["w"].append(int(w[s:e].sum()))
        return pa.table({"t0": pa.array(out["t0"], pa.string()),
                         "v0": pa.array(out["v0"], pa.float64()),
                         "id0": pa.array(out["id0"], pa.int64()),
                         "seg": pa.array(out["seg"], pa.int64()),
                         "typ": pa.array(out["typ"], pa.string()),
                         "cnt": pa.array(out["cnt"], pa.int64()),
                         "w": pa.array(out["w"], pa.int64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "wmedian": pa.array([], pa.float64())})
    if not len(summ):
        return rd.from_arrow(empty)
    summ = summ.sort_values(["t0", "v0", "id0", "seg"]) \
        .reset_index(drop=True)
    seg_base = summ.groupby(["t0", "v0", "id0"], sort=False)["cnt"] \
        .cumsum() - summ["cnt"]
    prev_w = summ.groupby("typ", sort=False)["w"].cumsum() - summ["w"]
    totals = summ.groupby("typ", sort=False)["w"].sum()
    j = summ.join(totals.rename("tw"), on="typ")
    # the crossing segment: first where 2*(prev_w + seg_w) >= total_w
    hit = (2 * (prev_w + j["w"]) >= j["tw"]) & (2 * prev_w < j["tw"])
    picks: dict[tuple, list[tuple[int, int, int]]] = {}
    for i in np.flatnonzero(hit.to_numpy()):
        key = (j["t0"].iat[i], float(j["v0"].iat[i]), int(j["id0"].iat[i]))
        # remaining doubled-weight target inside this segment
        rem = int(j["tw"].iat[i]) - 2 * int(prev_w.iat[i])
        picks.setdefault(key, []).append(
            (int(seg_base.iat[i]), int(j["cnt"].iat[i]), rem))

    def extract(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        key = (b["event_type"][0].as_py(), float(b["value"][0].as_py()),
               int(b["event_id"][0].as_py()))
        req = picks.get(key)
        if not req:
            return empty
        w = b["wt"].to_numpy()
        vals, typs = [], []
        for base, cnt, rem in req:
            cw = 2 * np.cumsum(w[base:base + cnt])
            k = int(np.searchsorted(cw, rem))
            vals.append(b["value"][base + k].as_py())
            typs.append(b["event_type"][base + k].as_py())
        return pa.table({"event_type": pa.array(typs, pa.string()),
                         "wmedian": pa.array(vals, pa.float64())})

    return ds.map_batches(extract, batch_format="pyarrow",
                          batch_size=None).sort("event_type")


EWMA_ALPHA = 0.3


def events_daily_ewma(sf_dir: str) -> rd.Dataset:
    """Daily event-count EWMA (alpha=0.3, s_1 = x_1) — the smoothing
    curve an ops dashboard draws over the raw series.  The fact stream
    folds to per-day counts (partial-first; the series is
    calendar-bounded — ~30 rows per month whatever the fact scale), and
    the recursion runs on that tiny fold.  Output (day, cnt, ewma)
    round-4, by day."""
    daily = _daily_counts(sf_dir)
    empty = pa.table({"day": pa.array([], pa.timestamp("us")),
                      "cnt": pa.array([], pa.int64()),
                      "ewma": pa.array([], pa.float64())})
    if not len(daily):
        return rd.from_arrow(empty)
    x = daily["cnt"].to_numpy().astype(np.float64)
    s = np.empty_like(x)
    s[0] = x[0]
    for i in range(1, len(x)):
        s[i] = EWMA_ALPHA * x[i] + (1 - EWMA_ALPHA) * s[i - 1]
    return rd.from_arrow(pa.table({
        "day": pa.array(daily["day"].astype("datetime64[us]")),
        "cnt": pa.array(daily["cnt"].to_numpy(), pa.int64()),
        "ewma": pa.array(round_half_up(s, 4))}))


PROPS_RE = r'"k": (?P<v>\d+)'


def events_json_field_stats(sf_dir: str) -> rd.Dataset:
    """Semi-structured extraction — the "pull a field out of the JSON
    props blob, then aggregate" shape every log pipeline runs (the
    reference's journald path parses JSON records per line,
    src/parse_logs.rs systemd handling; here the JSON rides a column).
    Extraction is ONE vectorized RE2 ``extract_regex`` over the Arrow
    string column — no per-row json.loads — and both sides apply the
    IDENTICAL pattern, so the check verifies the distributed fold, not
    regex dialect drift.  Per-type (n, sum_k, avg_k round 6) via the
    partial-sums combiner; extraction misses count as NULL (dropped from
    n/sum like SQL aggregates drop NULLs).  Output by event_type."""
    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b["props"], PROPS_RE)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        t = pa.table({"event_type": b["event_type"],
                      "n": pc.cast(pc.is_valid(v), pa.int64()),
                      "sum_k": pc.fill_null(v, 0)})
        return t.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("sum_k", "sum")]) \
            .rename_columns(["event_type", "n", "sum_k"])

    out = grouped_fold(ds, ["event_type"], extract,
                       [("n", "sum"), ("sum_k", "sum")]).to_pandas()
    empty = pa.table({"event_type": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "sum_k": pa.array([], pa.int64()),
                      "avg_k": pa.array([], pa.float64())})
    out = out[out["n"] > 0].sort_values("event_type").reset_index(drop=True)
    if not len(out):
        return rd.from_arrow(empty)
    n = out["n"].to_numpy(dtype=np.float64)
    sk = out["sum_k"].to_numpy(dtype=np.float64)
    return rd.from_arrow(pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"].to_numpy(), pa.int64()),
        "sum_k": pa.array(out["sum_k"].to_numpy(), pa.int64()),
        "avg_k": pa.array(round_half_up(sk / n, 6))}))


SKEW_PARTS = 16


def events_partition_skew(sf_dir: str,
                          nparts: int = SKEW_PARTS) -> rd.Dataset:
    """Shuffle-health diagnostic: the per-partition row/key histogram a
    hash exchange on user_id WOULD produce, plus each partition's load
    ratio vs the mean — the report you read BEFORE committing a 100-TB
    shuffle to decide whether the key needs salting.  The partition hash
    is the repo's int64-exact multiplicative mod (same family as the
    stratified sample), so the oracle computes the IDENTICAL assignment.
    All folds are nparts-keyspace (one partial row per partition per
    block).  Output (partition, n_rows, n_users, load_ratio round 6)."""
    from ..stages import aggregate as agg
    from ..stages.dedup import distinct_rows
    ds = read_table(sf_dir, "events", columns=["user_id"])

    def part(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy()
        p = (np.mod(u, SAMPLE_MOD) * SAMPLE_MULT) % SAMPLE_MOD % nparts
        return pa.table({"partition": pa.array(p.astype(np.int64)),
                         "user_id": b["user_id"]})

    pu = ds.map_batches(part, batch_format="pyarrow", batch_size=None) \
        .materialize()
    rows = agg.grouped_count(pu, ["partition"], alias="n_rows").to_pandas()
    users = agg.grouped_count(
        distinct_rows(pu, ["partition", "user_id"]),
        ["partition"], alias="n_users").to_pandas()
    empty = pa.table({"partition": pa.array([], pa.int64()),
                      "n_rows": pa.array([], pa.int64()),
                      "n_users": pa.array([], pa.int64()),
                      "load_ratio": pa.array([], pa.float64())})
    if not len(rows):
        return rd.from_arrow(empty)
    df = rows.merge(users, on="partition").sort_values("partition") \
        .reset_index(drop=True)
    mean = df["n_rows"].to_numpy(dtype=np.float64).sum() / len(df)
    return rd.from_arrow(pa.table({
        "partition": pa.array(df["partition"].to_numpy(), pa.int64()),
        "n_rows": pa.array(df["n_rows"].to_numpy(), pa.int64()),
        "n_users": pa.array(df["n_users"].to_numpy(), pa.int64()),
        "load_ratio": pa.array(round_half_up(
            df["n_rows"].to_numpy(dtype=np.float64) / mean, 6))}))


def events_customer_join_size_approx(sf_dir: str) -> rd.Dataset:
    """Approximate JOIN-SIZE probe: |events ⋈ customer ON user_id =
    c_custkey| estimated from two count-min sketches (one 64 KB fold per
    side, CMS inner product) WITHOUT running the join — the planner-side
    cardinality estimate that decides broadcast vs hash exchange before
    committing a 100-TB shuffle.  One-sided overestimate; pytest bounds
    it against the exact SQL-computed size.  Output one row
    (est_join_rows)."""
    from ..stages.sketch import cms_inner_product, cms_sketch
    ske = cms_sketch(read_table(sf_dir, "events", columns=["user_id"]),
                     "user_id")
    skc = cms_sketch(read_table(sf_dir, "customer", columns=["c_custkey"]),
                     "c_custkey")
    return rd.from_arrow(pa.table({
        "est_join_rows": pa.array([cms_inner_product(ske, skc)],
                                  pa.int64())}))


def events_benford_audit(sf_dir: str) -> rd.Dataset:
    """Benford first-significant-digit audit over integer cents — the
    fraud/corruption governance gate (does the value distribution's
    leading digit follow log10(1 + 1/d)?).  Digit extraction is
    INTEGER-ONLY (repeated //10 on cents, never float log10) so engine
    and oracle agree bit-for-bit on the bins; each block folds a 9-bin
    count (one partial row per digit per block), the
    chi-square pieces finish on the 9-row fold.  Output (digit, cnt,
    freq, expected, chi2_term) round-6 by digit."""
    from ..stages import aggregate as agg
    ds = read_table(sf_dir, "events", columns=["value"])

    def digits(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        iv = np.floor(v * 100.0).astype(np.int64)
        iv = iv[iv > 0]
        for _ in range(18):          # int64 has <= 19 digits
            big = iv >= 10
            if not big.any():
                break
            iv = np.where(big, iv // 10, iv)
        cnt = np.bincount(iv, minlength=10)[1:10]
        return pa.table({"digit": pa.array(np.arange(1, 10), pa.int64()),
                         "cnt": pa.array(cnt, pa.int64())})

    fold = grouped_fold(ds, ["digit"], digits, [("cnt", "sum")]).to_pandas()
    empty = pa.table({"digit": pa.array([], pa.int64()),
                      "cnt": pa.array([], pa.int64()),
                      "freq": pa.array([], pa.float64()),
                      "expected": pa.array([], pa.float64()),
                      "chi2_term": pa.array([], pa.float64())})
    fold = fold[fold["cnt"] > 0].sort_values("digit").reset_index(drop=True)
    if not len(fold):
        return rd.from_arrow(empty)
    d = fold["digit"].to_numpy(dtype=np.float64)
    c = fold["cnt"].to_numpy(dtype=np.float64)
    n = c.sum()               # exact: integer-valued doubles
    freq = c / n
    expected = np.log10(1.0 + 1.0 / d)
    chi2 = (freq - expected) ** 2 / expected
    return rd.from_arrow(pa.table({
        "digit": pa.array(fold["digit"].to_numpy(), pa.int64()),
        "cnt": pa.array(fold["cnt"].to_numpy(), pa.int64()),
        "freq": pa.array(round_half_up(freq, 6)),
        "expected": pa.array(round_half_up(expected, 6)),
        "chi2_term": pa.array(round_half_up(chi2, 6))}))


CUSUM_SLACK_K = 0.5    # slack in population-stddev units


def events_daily_cusum(sf_dir: str) -> rd.Dataset:
    """One-sided CUSUM change-point statistic over the daily count series
    (Page's test — "did event volume shift up?"):
    S_t = max(0, S_{t-1} + (x_t - mean - k*std)).  Like the EWMA, the
    fact stream folds partial-first to a calendar-bounded series and the
    recursion runs on the ~30-row fold; mean/std are exact (integer
    sums in double).  Output (day, cnt, cusum round-4) by day."""
    daily = _daily_counts(sf_dir)
    empty = pa.table({"day": pa.array([], pa.timestamp("us")),
                      "cnt": pa.array([], pa.int64()),
                      "cusum": pa.array([], pa.float64())})
    if not len(daily):
        return rd.from_arrow(empty)
    x = daily["cnt"].to_numpy().astype(np.float64)
    mean = x.sum() / len(x)
    std = float(np.sqrt((x * x).sum() / len(x) - mean * mean))
    drift = mean + CUSUM_SLACK_K * std
    sgn = np.empty_like(x)
    acc = 0.0
    for i in range(len(x)):
        acc = max(0.0, acc + (x[i] - drift))
        sgn[i] = acc
    return rd.from_arrow(pa.table({
        "day": pa.array(daily["day"].astype("datetime64[us]")),
        "cnt": pa.array(daily["cnt"].to_numpy(), pa.int64()),
        "cusum": pa.array(round_half_up(sgn, 4))}))


def events_distinct_users_by_type(sf_dir: str) -> rd.Dataset:
    """Grouped COUNT DISTINCT — at fact scale THE shuffle-heavy
    aggregate: distinct (type, user) pairs first (per-block pre-distinct
    combiner collapses repeat pairs BEFORE the exchange), then the
    per-type count is a plain grouped fold over the already-unique
    pairs.  Output (event_type, n_users) ordered by type."""
    from ..stages.dedup import distinct_rows

    pairs = distinct_rows(
        read_table(sf_dir, "events", columns=["event_type", "user_id"]),
        ["event_type", "user_id"])
    from ..stages import aggregate as agg
    return agg.grouped_count(pairs, ["event_type"],
                             alias="n_users").sort("event_type")
