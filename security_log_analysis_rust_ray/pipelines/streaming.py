"""Streaming-shaped semantics (reference §2.10) on the batch engine.

Ray Data has no event-time windows; each window IS a groupby on a derived
window key, with per-window logic in a vectorized map_groups/map_batches
(see the Ray guide's 'Streaming-shaped workloads').  Ordering assumption:
rows of one key are processed together, sorted by ts inside the group.

- sessionize: gap-based session windows per user over the events table
  (the generic stream-sessionization op a transcript pipeline needs).
- alert_batches: the reference's alert loop (src/parse_logs.rs:447-506)
  buffers messages and flushes when the oldest buffered message is older
  than `alert_log_delay` seconds OR the buffer exceeds `alert_buffer_size`
  bytes.  Batch re-statement: within each (log_level >= threshold) stream,
  assign flush-batch ids by scanning the sorted messages and cutting a new
  batch when either bound would be exceeded.
- watermark_resume: incremental-load filter against a persisted watermark
  (A4; strictly-newer rows pass, late rows drop, src/parse_logs.rs:180-197).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..sources.readers import read_table
from . import reports

from ..config import get_config as _get_config

SESSION_GAP_S = 1800          # 30 min
LEVEL_ORDER = {"debug": 0, "info": 1, "warn": 2, "error": 3}


def _alert_knobs(threshold: str | None, delay_s: int | None,
                 buffer_bytes: int | None) -> tuple[str, int, int]:
    """Resolve alert knobs from the unified Config AT CALL TIME (reference
    defaults src/parse_logs.rs:448-449 + alert level src/config.rs).
    Reading them at import froze the env-file values and made
    config.override() a no-op for this module (r03 review); it also left
    Config.alert_log_level entirely unread."""
    cfg = _get_config()
    return (cfg.alert_log_level if threshold is None else threshold,
            cfg.alert_log_delay if delay_s is None else delay_s,
            cfg.alert_buffer_size if buffer_bytes is None else buffer_bytes)


def _by_key_blocks(ds: rd.Dataset, keys: list[str]) -> rd.Dataset:
    """Hash-repartition so all rows of a key land in ONE block — the
    windowed ops then run one VECTORIZED pandas kernel per block across all
    of its keys, instead of a Python call per key group (VERDICT r01: many
    tiny groups pay Python per group under groupby().map_groups())."""
    from ..stages.dedup import _num_partitions, _use_hash_shuffle
    nparts = _num_partitions(ds)
    return _use_hash_shuffle(ds, nparts).repartition(
        num_blocks=nparts, keys=keys)


def sessionize(sf_dir: str, gap_s: int = SESSION_GAP_S) -> rd.Dataset:
    """Session windows per user_id: a new session starts when the gap to the
    previous event exceeds ``gap_s``.  Output: one row per session with
    event count and span.  Oracle-checkable via SQL window functions.

    Vectorized across ALL users in a block: one sort, one diff, one
    cumsum — the session-boundary mask ORs the user-change mask."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def block_sessions(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "session_start": pa.array([], pa.timestamp("us")),
                "session_end": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64())})
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        user = b["user_id"].to_numpy()
        # microsecond comparison on both engine and oracle sides (second
        # truncation at the boundary would diverge)
        ts = b["ts"].cast(pa.int64()).to_numpy()
        new_session = np.r_[True, (user[1:] != user[:-1])
                            | (np.diff(ts) > gap_s * 1_000_000)]
        starts = np.flatnonzero(new_session)
        ends = np.r_[starts[1:], len(user)] - 1
        return pa.table({
            "user_id": pa.array(user[starts], pa.int64()),
            "session_start": pa.array(ts[starts], pa.timestamp("us")),
            "session_end": pa.array(ts[ends], pa.timestamp("us")),
            "n_events": pa.array(ends - starts + 1, pa.int64())})

    return _by_key_blocks(ds, ["user_id"]).map_batches(
        block_sessions, batch_format="pyarrow", batch_size=None)


DAY_US = 24 * 3600 * 1_000_000


def events_max_concurrency(sf_dir: str,
                           gap_s: int = SESSION_GAP_S) -> rd.Dataset:
    """Peak CONCURRENT sessions per day — the capacity-planning sweep
    line: every session contributes a (+1 at start, -1 at end) endpoint,
    one global endpoint sort, and the running sum's per-day maximum is
    the day's peak concurrency.

    Distributed sweep (the percent_rank offset pattern): blocks of the
    sorted endpoint stream report (first key, sum-of-deltas); the driver
    prefix-folds ONE row per block into entering offsets; each block then
    cumsums its own deltas vectorized and folds per-day maxima — the
    endpoint stream never co-locates.  Tie rule: starts sort BEFORE ends
    at an equal timestamp (delta DESC), so touching sessions count as
    concurrent; remaining ties order on (user_id, session_start), which
    cannot change any day-max because delta is constant within a
    (ts, delta) tie group (the running sum walks a fixed staircase).
    Output (day, max_concurrent) by day."""
    sess = sessionize(sf_dir, gap_s)

    def endpoints(b: pa.Table) -> pa.Table:
        s0 = b["session_start"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        s1 = b["session_end"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        n = b.num_rows
        return pa.table({
            "tsu": pa.array(np.r_[s0, s1], pa.int64()),
            "delta": pa.array(np.r_[np.ones(n, np.int64),
                                    -np.ones(n, np.int64)]),
            "user_id": pa.array(np.r_[u, u], pa.int64()),
            "s0": pa.array(np.r_[s0, s0], pa.int64())})

    ep = sess.map_batches(endpoints, batch_format="pyarrow",
                          batch_size=None) \
        .sort(["tsu", "delta", "user_id", "s0"],
              descending=[False, True, False, False]).materialize()

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"t0": pa.array([], pa.int64()),
                             "d0": pa.array([], pa.int64()),
                             "u0": pa.array([], pa.int64()),
                             "w0": pa.array([], pa.int64()),
                             "dsum": pa.array([], pa.int64())})
        return pa.table({
            "t0": b["tsu"].slice(0, 1), "d0": b["delta"].slice(0, 1),
            "u0": b["user_id"].slice(0, 1), "w0": b["s0"].slice(0, 1),
            "dsum": pa.array([int(pc.sum(b["delta"]).as_py())], pa.int64())})

    summ = ep.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "max_concurrent": pa.array([], pa.int64())})
    if not len(summ):
        return rd.from_arrow(empty)
    # block order under the sort: (tsu asc, delta DESC, user, s0)
    summ = summ.sort_values(["t0", "d0", "u0", "w0"],
                            ascending=[True, False, True, True]) \
        .reset_index(drop=True)
    entering = np.r_[0, np.cumsum(summ["dsum"].to_numpy())[:-1]]
    offs = {(int(t), int(d), int(u), int(w)): int(o)
            for t, d, u, w, o in zip(summ["t0"], summ["d0"], summ["u0"],
                                     summ["w0"], entering)}

    def block_max(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        off = offs[(int(b["tsu"][0].as_py()), int(b["delta"][0].as_py()),
                    int(b["user_id"][0].as_py()), int(b["s0"][0].as_py()))]
        conc = off + np.cumsum(b["delta"].to_numpy())
        dayv = b["tsu"].to_numpy() // DAY_US
        t = pa.table({"day": pa.array(dayv), "conc": pa.array(conc)})
        g = t.group_by(["day"]).aggregate([("conc", "max")])
        return g.rename_columns(["day", "max_concurrent"])

    from ..stages import aggregate as agg
    per_block = ep.map_batches(block_max, batch_format="pyarrow",
                               batch_size=None)
    return agg.grouped_max(per_block, ["day"], "max_concurrent",
                           alias="max_concurrent").sort("day")


def session_bounce_rate(sf_dir: str,
                        gap_s: int = SESSION_GAP_S) -> rd.Dataset:
    """Daily BOUNCE RATE: share of sessions (by start day) with exactly
    one event — the engagement-quality metric next to the session count.
    Reuses ``sessionize`` verbatim; the per-day fold is calendar-sized
    (two small counts fused into one pass over the session
    stream).  Output (day, sessions, bounces, bounce_rate round 6)."""
    from ..functions.util import round_half_up
    sess = sessionize(sf_dir, gap_s)

    def day_fold(b: pa.Table) -> pa.Table:
        d = pc.divide(b["session_start"].cast(pa.int64()),
                      pa.scalar(DAY_US, pa.int64()))
        one = pc.cast(pc.equal(b["n_events"], pa.scalar(1)), pa.int64())
        t = pa.table({"day": d, "s": pa.array(
            np.ones(b.num_rows, np.int64)), "b": one})
        return t.group_by(["day"]).aggregate([("s", "sum"), ("b", "sum")]) \
            .rename_columns(["day", "s", "b"])

    from ray.data.aggregate import Sum
    agg_t = sess.map_batches(day_fold, batch_format="pyarrow",
                             batch_size=None) \
        .groupby("day").aggregate(Sum("s", alias_name="sessions"),
                                  Sum("b", alias_name="bounces")) \
        .to_pandas().sort_values("day").reset_index(drop=True)
    empty = pa.table({"day": pa.array([], pa.int64()),
                      "sessions": pa.array([], pa.int64()),
                      "bounces": pa.array([], pa.int64()),
                      "bounce_rate": pa.array([], pa.float64())})
    if not len(agg_t):
        return rd.from_arrow(empty)
    sc = agg_t["sessions"].to_numpy(dtype=np.float64)
    bc = agg_t["bounces"].to_numpy(dtype=np.float64)
    return rd.from_arrow(pa.table({
        "day": pa.array(agg_t["day"].to_numpy(), pa.int64()),
        "sessions": pa.array(agg_t["sessions"].to_numpy(), pa.int64()),
        "bounces": pa.array(agg_t["bounces"].to_numpy(), pa.int64()),
        "bounce_rate": pa.array(round_half_up(bc / sc, 6))}))


def _alert_eligible(sf_dir: str, threshold: str) -> rd.Dataset:
    """Messages at-or-above the alert level, keyed by their server STREAM
    (derived shard of conv_id — the reference's alert loop is per-server,
    src/parse_logs.rs:447-506): the sequential flush scan shards across
    streams instead of funnelling the whole corpus into one task
    (VERDICT r01 #5)."""
    from ..functions import grok
    lvl = LEVEL_ORDER[threshold]

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(
            b["log_level"],
            value_set=pa.array([k for k, v in LEVEL_ORDER.items() if v >= lvl])))
        return b.append_column("stream", grok.server_from_conv(b["conv_id"]))

    return reports.messages(sf_dir).map_batches(
        prep, batch_format="pyarrow", batch_size=None)


def _batch_scan(delay_s: int, buffer_bytes: int, with_levels: bool = False):
    """Per-stream sequential flush-batch assignment (reference buffer
    semantics: flush when the buffer would exceed ``buffer_bytes`` OR the
    batch's first message is more than ``delay_s`` older than this one).
    Ages compare in MICROSECONDS on both engine and oracle sides (second
    truncation at a boundary would diverge — same rule as sessionize).
    ``with_levels`` adds per-batch level counts (n_error/n_warn) — the SES
    stats fold's per-datapoint counters (A6)."""
    def batch_scan(g: pa.Table) -> pa.Table:
        g = g.sort_by([("log_timestamp", "ascending"),
                       ("conv_id", "ascending"),
                       ("turn_idx", "ascending")])
        # UTF-8 BYTE length, not characters: the reference's buffer bound
        # is bytes (Rust String::len, src/parse_logs.rs:449), and the
        # oracle counts strlen() — multi-byte text must agree (r03 review)
        sizes = pc.binary_length(
            g["log_message"].cast(pa.binary())).to_numpy().astype(np.int64)
        ts = g["log_timestamp"].cast(pa.int64()).to_numpy()
        n = g.num_rows
        if n == 0:
            cols = {"stream": pa.array([], pa.string()),
                    "batch_id": pa.array([], pa.int64()),
                    "first_ts": pa.array([], pa.timestamp("us")),
                    "last_ts": pa.array([], pa.timestamp("us")),
                    "n_messages": pa.array([], pa.int64()),
                    "total_bytes": pa.array([], pa.int64())}
            if with_levels:
                cols["n_error"] = pa.array([], pa.int64())
                cols["n_warn"] = pa.array([], pa.int64())
            return pa.table(cols)
        batch_ids = np.zeros(n, dtype=np.int64)
        delay_us = delay_s * 1_000_000
        # the flush rule is a true sequential recurrence (running bytes
        # with reset); the loop runs over plain int64 scalars — the
        # vectorizable work (byte lengths, per-batch folds) is outside it
        cur, cur_bytes = 0, 0
        cur_start = int(ts[0]) if n else 0
        sz, tv = sizes.tolist(), ts.tolist()
        for i in range(n):
            if cur_bytes + sz[i] > buffer_bytes \
                    or tv[i] - cur_start > delay_us:
                cur += 1
                cur_bytes, cur_start = 0, tv[i]
            batch_ids[i] = cur
            cur_bytes += sz[i]
        starts = np.flatnonzero(np.r_[True, batch_ids[1:]
                                      != batch_ids[:-1]])
        lens = np.diff(np.r_[starts, n])
        ends = starts + lens - 1
        stream0 = g["stream"][0].as_py() if n else ""
        cols = {
            "stream": pa.array([stream0] * len(starts), pa.string()),
            "batch_id": pa.array(batch_ids[starts]),
            "first_ts": pa.array(ts[starts], pa.timestamp("us")),
            "last_ts": pa.array(ts[ends], pa.timestamp("us")),
            "n_messages": pa.array(lens.astype(np.int64)),
            "total_bytes": pa.array(np.add.reduceat(sizes, starts)),
        }
        if with_levels:
            err = pc.equal(g["log_level"], "error").to_numpy(
                zero_copy_only=False).astype(np.int64)
            wrn = pc.equal(g["log_level"], "warn").to_numpy(
                zero_copy_only=False).astype(np.int64)
            cols["n_error"] = pa.array(np.add.reduceat(err, starts))
            cols["n_warn"] = pa.array(np.add.reduceat(wrn, starts))
        return pa.table(cols)
    return batch_scan


def alert_batches(sf_dir: str, threshold: str | None = None,
                  delay_s: int | None = None,
                  buffer_bytes: int | None = None) -> rd.Dataset:
    """K6 analog: group at-or-above-threshold messages into flush batches,
    one sequential scan PER SERVER STREAM (sharded groupby, not a single
    global group).  Output one row per alert batch (flush manifest):
    stream, batch_id, first/last ts, n messages, total bytes.  Oracle: a
    recursive CTE replaying the same scan per stream."""
    threshold, delay_s, buffer_bytes = _alert_knobs(threshold, delay_s,
                                                    buffer_bytes)
    return _alert_eligible(sf_dir, threshold).groupby("stream").map_groups(
        _batch_scan(delay_s, buffer_bytes), batch_format="pyarrow")


def ses_email_stats(sf_dir: str, threshold: str | None = None,
                    delay_s: int | None = None,
                    buffer_bytes: int | None = None) -> pd.DataFrame:
    """A6: the SES send-statistics fold (src/ses_client.rs:68-109): the
    reference folds its send datapoints into ONE EmailStats row — summed
    bounces/complaints/delivery_attempts/rejects plus min/max datapoint
    timestamp — and reads the quota's sent-last-24-hours alongside.

    Analog: one send datapoint per flushed alert batch (K6 sends one email
    per flush).  Per datapoint: delivery_attempts = messages in the batch,
    bounces = its 'error'-level messages, complaints = its 'warn'-level
    messages, rejects = the rest (below-threshold levels admitted by a lower
    ``threshold``), timestamp = the batch's first_ts.  ``sent_last_24h``
    (SesQuotas.sent_last_24_hours analog) counts messages in batches whose
    first_ts falls within 24 h of the alert watermark (max last_ts).

    Scale posture: the batch manifest is ~corpus_bytes/buffer_bytes rows —
    far smaller than the corpus but NOT driver-sized at 100 TB, so it is
    materialized once (block-distributed), the watermark is a distributed
    ``max``, and the fold is a per-block partial -> tiny driver final (one
    row per block reaches the driver)."""
    threshold, delay_s, buffer_bytes = _alert_knobs(threshold, delay_s,
                                                    buffer_bytes)
    batches = _alert_eligible(sf_dir, threshold).groupby("stream").map_groups(
        _batch_scan(delay_s, buffer_bytes, with_levels=True),
        batch_format="pyarrow").materialize()
    cols = ["bounces", "complaints", "delivery_attempts", "rejects",
            "min_timestamp", "max_timestamp", "sent_last_24h"]
    if batches.count() == 0:
        return pd.DataFrame({c: pd.Series(
            [pd.NaT] if c.endswith("timestamp") else [0],
            dtype="datetime64[us]" if c.endswith("timestamp") else "int64")
            for c in cols})
    hi = pd.Timestamp(batches.max("last_ts"))
    lo = hi - pd.Timedelta(hours=24)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series(
                [], dtype="datetime64[us]" if c.endswith("timestamp")
                else "int64") for c in cols})
        recent = df["first_ts"] >= lo
        return pd.DataFrame({
            "bounces": [int(df["n_error"].sum())],
            "complaints": [int(df["n_warn"].sum())],
            "delivery_attempts": [int(df["n_messages"].sum())],
            "rejects": [int((df["n_messages"] - df["n_error"]
                             - df["n_warn"]).sum())],
            "min_timestamp": [df["first_ts"].min()],
            "max_timestamp": [df["first_ts"].max()],
            "sent_last_24h": [int(df.loc[recent, "n_messages"].sum())]})

    parts = batches.map_batches(partial, batch_format="pandas",
                                batch_size=None).to_pandas()
    out = pd.DataFrame({
        "bounces": [int(parts["bounces"].sum())],
        "complaints": [int(parts["complaints"].sum())],
        "delivery_attempts": [int(parts["delivery_attempts"].sum())],
        "rejects": [int(parts["rejects"].sum())],
        "min_timestamp": [parts["min_timestamp"].min()],
        "max_timestamp": [parts["max_timestamp"].max()],
        "sent_last_24h": [int(parts["sent_last_24h"].sum())]})
    for c in ("min_timestamp", "max_timestamp"):
        out[c] = out[c].astype("datetime64[us]")
    return out


def run_alert_cycle(sf_dir: str, state_path: str,
                    threshold: str | None = None,
                    delay_s: int | None = None,
                    buffer_bytes: int | None = None) -> "pd.DataFrame":
    """The alert delivery state machine: buffer -> flush -> MARK PROCESSED
    (reference src/parse_logs.rs:447-506 + processed_time update
    src/models.rs:713-720).  Per-stream processed watermarks persist in a
    manifest (fsync'd JSONL, state/manifest.py); a rerun only flushes
    messages strictly newer than the stream's watermark — plus, for rows
    at EXACTLY the watermark instant, those whose (conv_id, turn_idx)
    identity is not in the stream's recorded ``at_wm`` set.  Identity by
    timestamp alone silently dropped a later-arriving message that shares
    the watermark microsecond (r03 review); the tie set is bounded by the
    same-instant burst size, so the state stays tiny — the batch-engine
    restatement of the reference's per-row processed_time marking.

    Returns the newly flushed batches (empty on a no-new-messages rerun).
    """
    from ..state.manifest import Manifest
    threshold, delay_s, buffer_bytes = _alert_knobs(threshold, delay_s,
                                                    buffer_bytes)
    manifest = Manifest(state_path)
    marks_arr: dict[str, np.datetime64] = {}
    done_at_wm: set[str] = set()
    for s, rec in manifest.records.items():
        w = rec.get("watermark")
        if w:
            marks_arr[s] = np.datetime64(w)
            for ident in rec.get("at_wm") or []:
                done_at_wm.add(f"{s}|{ident}")
    done_arr = np.array(sorted(done_at_wm)) if done_at_wm else None

    eligible = _alert_eligible(sf_dir, threshold)

    def _idents(b: pa.Table, streams: pd.Series) -> np.ndarray:
        conv = b["conv_id"].to_pandas().astype(str)
        turn = b["turn_idx"].to_pandas().astype(str)
        return streams.str.cat([conv, turn], sep="|").to_numpy()

    def unprocessed(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or not marks_arr:
            return b
        # vectorized per-stream watermark compare: map stream -> watermark
        # (NaT for never-flushed streams keeps everything), one comparison
        streams = pd.Series(b["stream"].to_pandas())
        wm = streams.map(marks_arr).to_numpy(dtype="datetime64[us]")
        ts = b["log_timestamp"].to_numpy()
        at = ts == wm                      # NaT compares False
        keep = ~(ts <= wm)                 # strictly newer (or NaT wm)
        if at.any():
            new_tie = at if done_arr is None else \
                (at & ~np.isin(_idents(b, streams), done_arr))
            keep = keep | new_tie
        return b.filter(pa.array(keep))

    fresh = eligible.map_batches(unprocessed, batch_format="pyarrow",
                                 batch_size=None)
    flushed = fresh.groupby("stream").map_groups(
        _batch_scan(delay_s, buffer_bytes),
        batch_format="pyarrow").to_pandas()
    cols = ["stream", "batch_id", "first_ts", "last_ts",
            "n_messages", "total_bytes"]
    if len(flushed) == 0:
        # Ray drops column metadata on an empty to_pandas; normalize so a
        # no-new-messages rerun returns a stable empty schema
        return pd.DataFrame(columns=cols)

    # identities of the flushed rows AT each stream's new watermark (one
    # more vectorized filtered pass over the fresh stream; the tie rows
    # per stream are a same-microsecond burst, so the result is tiny)
    new_wm = {str(s): np.datetime64(g["last_ts"].max(), "us")
              for s, g in flushed.groupby("stream")}

    def tie_rows(b: pa.Table) -> pa.Table:
        b = b.select(["stream", "conv_id", "turn_idx", "log_timestamp"])
        if b.num_rows == 0:
            return b
        streams = pd.Series(b["stream"].to_pandas())
        wm = streams.map(new_wm).to_numpy(dtype="datetime64[us]")
        return b.filter(pa.array(b["log_timestamp"].to_numpy() == wm))

    ties = fresh.map_batches(tie_rows, batch_format="pyarrow",
                             batch_size=None).to_pandas()
    for s, g in flushed.groupby("stream"):
        s = str(s)
        w = new_wm[s]
        idents = sorted(
            f"{c}|{t}" for c, t in
            ties.loc[ties["stream"] == s, ["conv_id", "turn_idx"]]
            .itertuples(index=False)) if len(ties) else []
        if s in marks_arr and marks_arr[s] == w:
            # watermark unchanged: the new ties extend the recorded set
            prior = {i.split("|", 1)[1] for i in done_at_wm
                     if i.startswith(f"{s}|")}
            idents = sorted(set(idents) | prior)
        manifest.record(s, status="done", watermark=str(w), at_wm=idents,
                        n_batches=int(g["batch_id"].nunique()),
                        n_messages=int(g["n_messages"].sum()))
    return flushed


def watermark_filter(ds: rd.Dataset, watermark: str) -> rd.Dataset:
    """A4 consumption as a reusable stage: strictly-newer rows pass."""
    cutoff = pa.scalar(watermark).cast(pa.timestamp("us"))
    return ds.map_batches(
        lambda b: b.filter(pc.greater(b["datetime"], cutoff)),
        batch_format="pyarrow", batch_size=None)


WINDOW_US = 3_600_000_000          # 1 h tumbling window
LATENESS_US = 1_800_000_000        # 30 min allowed lateness
LATE_EVERY = 13                    # event_id % 13 == 0 arrives 2 h late
LATE_DELAY_US = 7_200_000_000


def events_tumbling_window_late(sf_dir: str) -> rd.Dataset:
    """Event-time TUMBLING windows with a WATERMARK and allowed lateness —
    the missing streaming semantics next to sessionize/alert_batches: a
    row whose window closed before (watermark − lateness) at its ARRIVAL
    is dropped late, everything else counts on-time.  Every event_id % 13
    row carries a 2 h-delayed event time (deterministic; the synthetic
    stream itself arrives in order), so late data genuinely occurs.

    Watermark = running max event-time over ARRIVAL order (event_id) —
    a distributed EXCLUSIVE PREFIX MAX: one global sort by arrival, one
    (first_id, block_max) summary row per block, driver folds block maxes
    into exclusive prefixes (one row per BLOCK), broadcast, then a
    vectorized per-block shifted-cummax + window compare.  Same plan
    family as doc_budget_select's prefix sum.  Output
    (w_start, cnt_on_time, cnt_late_dropped); exact -> the oracle
    restates the watermark as a SQL running-max window."""
    import ray
    from ray.data.aggregate import Sum

    ev = read_table(sf_dir, "events", columns=["event_id", "ts"])
    ds = ev.sort("event_id").materialize()

    def summary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"id0": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64())})
        et = _event_time_us(b)
        return pa.table({"id0": b["event_id"].slice(0, 1).cast(pa.int64()),
                         "mx": pa.array([int(et.max())], pa.int64())})

    summ = ds.map_batches(summary, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    if not len(summ):
        return rd.from_arrow(pa.table({
            "w_start": pa.array([], pa.timestamp("us")),
            "cnt_on_time": pa.array([], pa.int64()),
            "cnt_late_dropped": pa.array([], pa.int64())}))
    summ = summ.sort_values("id0").reset_index(drop=True)
    prefix = summ["mx"].cummax().shift(1)  # EXCLUSIVE: before this block
    pref_map = {int(i): (None if pd.isna(p) else int(p))
                for i, p in zip(summ["id0"], prefix)}
    ref = ray.put(pref_map)

    def flag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"w_start": pa.array([], pa.int64()),
                             "on": pa.array([], pa.int64()),
                             "late": pa.array([], pa.int64())})
        et = _event_time_us(b)
        pre = ray.get(ref)[int(b["event_id"][0].as_py())]
        run = np.maximum.accumulate(et)
        wm = np.empty_like(run)              # exclusive shifted cummax
        wm[1:] = run[:-1]
        # -2^62, not iinfo.min: the later `wm - LATENESS_US` must not
        # underflow-wrap positive for the global first arrival
        wm[0] = -(1 << 62) if pre is None else pre
        if pre is not None:
            wm = np.maximum(wm, pre)
        w_start = et - (et % WINDOW_US)
        late = (w_start + WINDOW_US) <= (wm - LATENESS_US)
        t = pa.table({"w_start": pa.array(w_start, pa.int64()),
                      "on": pa.array((~late).astype(np.int64)),
                      "late": pa.array(late.astype(np.int64))})
        g = t.group_by(["w_start"]).aggregate([("on", "sum"),
                                               ("late", "sum")])
        return g.rename_columns(["w_start", "on", "late"])

    partial = ds.map_batches(flag, batch_format="pyarrow", batch_size=None)
    out = partial.groupby("w_start").aggregate(
        Sum("on", alias_name="cnt_on_time"),
        Sum("late", alias_name="cnt_late_dropped"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "w_start": b["w_start"].cast(pa.timestamp("us")),
            "cnt_on_time": pc.cast(b["cnt_on_time"], pa.int64()),
            "cnt_late_dropped": pc.cast(b["cnt_late_dropped"], pa.int64()),
        })
    return out.map_batches(finish, batch_format="pyarrow",
                           batch_size=None).sort("w_start")


def _event_time_us(b: pa.Table) -> np.ndarray:
    """Deterministic event time (µs): ts minus a 2 h delay on every
    LATE_EVERY-th event_id (the synthetic late-arrival population)."""
    ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    eid = b["event_id"].to_numpy(zero_copy_only=False)
    return ts - np.where(eid % LATE_EVERY == 0, LATE_DELAY_US, 0)


CDC_DELETE_EVERY = 13


def events_cdc_snapshot(sf_dir: str) -> rd.Dataset:
    """CDC merge-on-read: apply an upsert/delete changelog to produce the
    LATEST snapshot — the standard merge step of a replicated-table sink
    (Debezium/Hudi-style).  The changelog derives deterministically from
    events: every event is an upsert of (user_id -> value) sequenced by
    event_id, and every ``CDC_DELETE_EVERY``-th event is a DELETE tombstone.

    Plan: flag the op in the pruned read map, per-block keep-latest
    combiner (in-batch argmax over seq per key — correct because the
    global latest row is necessarily its own block's latest for that key),
    ONE hash exchange on user_id, the same kernel per partition, then drop
    keys whose surviving row is a tombstone.  Tombstones must survive the
    combiner (a delete can be the latest op), so the filter is the LAST
    step — the classic CDC subtlety.  Output (user_id, value, last_seq)."""
    base = read_table(sf_dir, "events",
                      columns=["event_id", "user_id", "value"])

    def ops(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy()
        is_del = (eid % CDC_DELETE_EVERY) == 0
        return pa.table({
            "user_id": b["user_id"],
            "value": b["value"],
            "seq": b["event_id"],
            "is_delete": pa.array(is_del)})

    def keep_latest(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        b = b.take(pc.sort_indices(b, sort_keys=[
            ("user_id", "ascending"), ("seq", "descending")]))
        u = b["user_id"].to_numpy()
        first = np.r_[True, u[1:] != u[:-1]]
        return b.filter(pa.array(first))

    from ..stages.dedup import _num_partitions, _use_hash_shuffle
    pre = base.map_batches(ops, batch_format="pyarrow", batch_size=None) \
        .map_batches(keep_latest, batch_format="pyarrow", batch_size=None)
    nparts = _num_partitions(base)
    latest = _use_hash_shuffle(pre, nparts).repartition(
        num_blocks=nparts, keys=["user_id"]) \
        .map_batches(keep_latest, batch_format="pyarrow", batch_size=None)
    return latest.map_batches(
        lambda b: b.filter(pc.invert(b["is_delete"])).select(
            ["user_id", "value", "seq"]).rename_columns(
            ["user_id", "value", "last_seq"]),
        batch_format="pyarrow", batch_size=None)


DEBOUNCE_GAP_S = 3600


def events_debounced(sf_dir: str, gap_s: int = DEBOUNCE_GAP_S) -> rd.Dataset:
    """Windowed dedup (debounce): drop an event when the SAME (user,
    event_type) fired within the preceding ``gap_s`` seconds — the
    duplicate-webhook / retry-storm suppressor, a time-bounded cousin of
    keep-first dedup (which Ray Data has, while this it does not).
    Rule matches SQL lag(): the gap is measured to the previous RAW event
    of the key, not the previous KEPT one, so the result is
    order-independent and oracle-checkable.

    ONE hash exchange on (user_id, event_type), per-block vectorized
    kernel: sort, one grouped shift, one mask — no per-key Python."""
    from ..stages.dedup import _num_partitions, _use_hash_shuffle
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "event_type", "ts",
                             "value"])
    nparts = _num_partitions(ds)
    rep = _use_hash_shuffle(ds, nparts).repartition(
        num_blocks=nparts, keys=["user_id", "event_type"])
    gap_us = gap_s * 1_000_000

    def kernel(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        b = b.take(pc.sort_indices(b, sort_keys=[
            ("user_id", "ascending"), ("event_type", "ascending"),
            ("ts", "ascending"), ("event_id", "ascending")]))
        u = b["user_id"].to_numpy()
        et = b["event_type"].to_numpy(zero_copy_only=False)
        t = b["ts"].cast(pa.int64()).to_numpy()
        same = np.r_[False, (u[1:] == u[:-1]) & (et[1:] == et[:-1])]
        dt = np.r_[0, t[1:] - t[:-1]]
        keep = ~same | (dt >= gap_us)
        return b.filter(pa.array(keep))

    return rep.map_batches(kernel, batch_format="pyarrow", batch_size=None)


# snapshot-diff derivation rule (deterministic, SQL-replayable)
DIFF_CHANGED_EVERY = 97    # value bumped +1.0 in snapshot B
DIFF_REMOVED_EVERY = 101   # row absent from snapshot B
DIFF_ADDED_EVERY = 103     # row added to B under the negated id


def events_snapshot_diff(sf_dir: str) -> rd.Dataset:
    """Row-level TABLE DIFF between two snapshots — the anti-entropy /
    reconciliation primitive behind replica repair and incremental sync
    (file-level etag diffing lives in ``sources/sync.py``; this is the
    row-granularity complement when files don't align).  Snapshot A is
    the events table; snapshot B derives deterministically per batch
    (every ``DIFF_CHANGED_EVERY``-th id bumped +1.0, every
    ``DIFF_REMOVED_EVERY``-th dropped, every ``DIFF_ADDED_EVERY``-th
    mirrored under a fresh negated id) so the diff is oracle-checkable.

    Plan: both snapshots stay distributed — ONE size-aware full-outer
    ``hash_join`` on the key (each side hash-partitions once; Acero
    full outer per key partition IS the global diff), then a stateless
    vectorized classify-and-drop pass: key only in A -> removed, only in
    B -> added, both but payload differs -> changed, identical rows
    never leave the join partition.  At 100 TB the exchange ships each
    snapshot once; unchanged rows (the overwhelming majority) are
    discarded partition-locally.  Output (event_id, change, value_a,
    value_b)."""
    from ..stages.joins import hash_join

    a = read_table(sf_dir, "events", columns=["event_id", "value"])

    def a_view(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b["event_id"],
                         "value_a": b["value"]})

    def derive_b(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy()
        val = b["value"].to_numpy()
        keep = eid % DIFF_REMOVED_EVERY != 0
        v2 = np.where(eid % DIFF_CHANGED_EVERY == 0, val + 1.0, val)
        addm = eid % DIFF_ADDED_EVERY == 0
        return pa.table({
            "event_id": pa.array(np.r_[eid[keep], -eid[addm]], pa.int64()),
            "value_b": pa.array(np.r_[v2[keep], val[addm]], pa.float64())})

    av = a.map_batches(a_view, batch_format="pyarrow")
    bv = a.map_batches(derive_b, batch_format="pyarrow")
    j = hash_join(av, bv, on=("event_id",), how="full")

    def classify(t: pa.Table) -> pa.Table:
        va = t["value_a"].to_numpy(zero_copy_only=False)
        vb = t["value_b"].to_numpy(zero_copy_only=False)
        a_null = pc.is_null(t["value_a"]).to_numpy(zero_copy_only=False)
        b_null = pc.is_null(t["value_b"]).to_numpy(zero_copy_only=False)
        keep = a_null | b_null | (va != vb)
        change = np.where(a_null, "added",
                          np.where(b_null, "removed", "changed"))
        out = pa.table({"event_id": t["event_id"],
                        "change": pa.array(change.astype(object),
                                           pa.string()),
                        "value_a": t["value_a"],
                        "value_b": t["value_b"]})
        return out.filter(pa.array(keep))

    return j.map_batches(classify, batch_format="pyarrow")


PATH_K = 20


def session_path_trigrams(sf_dir: str, k: int = PATH_K) -> rd.Dataset:
    """Clickstream path mining: the top-k event-type TRIGRAMS inside
    session windows — which 3-step journeys dominate.  Same whole-user
    blocks and gap rule as ``sessionize``; the trigram emit is three
    shifted array compares per block (no Python per row), then a grouped
    support count and top-k.  Output (path, support), support desc,
    path asc, limit k."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type"])

    def block_paths(b: pa.Table) -> pa.Table:
        empty = pa.table({"path": pa.array([], pa.string())})
        if b.num_rows < 3:
            return empty
        b = b.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        ts = b["ts"].cast(pa.int64()).to_numpy()
        user = b["user_id"].to_numpy()
        new_session = np.r_[True, (user[1:] != user[:-1])
                            | (np.diff(ts) > SESSION_GAP_S * 1_000_000)]
        sid = np.cumsum(new_session)
        ok = (sid[:-2] == sid[1:-1]) & (sid[1:-1] == sid[2:])
        if not ok.any():
            return empty
        et = b["event_type"].combine_chunks() \
            if isinstance(b["event_type"], pa.ChunkedArray) \
            else b["event_type"]
        # three shifted slices joined with the Arrow kernel — no numpy
        # str objects, no pandas
        idx = np.flatnonzero(ok)
        path = pc.binary_join_element_wise(
            et.take(idx), et.take(idx + 1), et.take(idx + 2), ">")
        return pa.table({"path": path})

    from ..stages import aggregate as agg
    paths = _by_key_blocks(ds, ["user_id"]).map_batches(
        block_paths, batch_format="pyarrow", batch_size=None)
    return agg.grouped_count(paths, ["path"], alias="support") \
        .sort(["support", "path"], descending=[True, False]).limit(k)
