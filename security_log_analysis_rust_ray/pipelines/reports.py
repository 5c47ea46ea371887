"""End-to-end transcript pipelines (the reference's query surface re-expressed
as lazy Ray Data pipelines).  Each function takes ``sf_dir`` and returns a
Dataset; the matching oracle SQL lives in ``__ray_entry__.oracle_sql()``.

Reference parity map (SURVEY §2): parse P1-P9, enrich T1/T2 + J1-J4,
aggregates A1-A5, sorts O1-O5, dedup D1-D6, filters P13/P14.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions import grok
from ..functions.util import round_half_up
from ..sources.readers import read_transcripts
from ..stages import aggregate as agg
from ..stages import dedup as dd
from ..stages.enrich import EnrichActor
from ..stages.parse import intrusion_view, message_view, route_parse

INCREMENTAL_CUTOFF = "2024-01-15 00:00:00"

# actor-pool sizing for the enrich stage: small pool, autoscaling; each actor
# holds the broadcast dicts once (T1) — tune via bench, not per-call.
ENRICH_CONCURRENCY = (2, 8)
ENRICH_BATCH = 32 * 1024


def routed_ds(sf_dir: str, repeat: int = 1, blocks: int | None = None) -> rd.Dataset:
    """read -> single-pass route+parse (stateless map_batches)."""
    return read_transcripts(sf_dir, repeat=repeat, blocks=blocks).map_batches(
        route_parse, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None)


def transcripts(sf_dir: str) -> rd.Dataset:
    """Identity over the input corpus (synth parity check)."""
    return read_transcripts(sf_dir)


def parsed(sf_dir: str) -> rd.Dataset:
    """parsed/ sink: routed intrusion rows (reference intrusion_log)."""
    return routed_ds(sf_dir).map_batches(intrusion_view, batch_format="pyarrow",
                                        batch_size=None)


def parse_rejects(sf_dir: str) -> rd.Dataset:
    """Dead-letter audit — every transcript turn the router DROPS, with
    its reject reason in router precedence order: 'negative_filter' (a
    systemd_log_filters hit, src/parse_logs.rs:339-345),
    'ssh_parse_fail' (an 'Invalid user' line the ssh grok refuses,
    src/parse_logs.rs:58-84 errors there too), or 'no_level' (a
    message-path line with no level substring, src/models.rs:561-580).
    The reference silently drops all three classes; a production log
    pipeline quarantines them — this is that quarantine stream, one
    stateless vectorized pass sharing the router's own masks/kernels so
    audit and router can never disagree.  Output (conv_id, turn_idx,
    reason), fact-scale, streaming."""
    tr = read_transcripts(sf_dir, columns=["conv_id", "turn_idx",
                                           "text", "ts"])

    def rejects(b: pa.Table) -> pa.Table:
        empty = pa.table({"conv_id": pa.array([], pa.string()),
                          "turn_idx": pa.array([], pa.int32()),
                          "reason": pa.array([], pa.string())})
        if b.num_rows == 0:
            return empty
        text = b["text"]
        neg = grok.negative_filter_mask(text)
        keep = pc.invert(neg)
        is_ssh = pc.and_(keep, pc.match_substring(text, "Invalid user"))
        parts = [pa.table({"conv_id": b["conv_id"].filter(neg),
                           "turn_idx": b["turn_idx"].filter(neg)})
                 .append_column("reason", pa.array(
                     ["negative_filter"] * int(pc.sum(
                         pc.cast(neg, pa.int64())).as_py()), pa.string()))]
        ssh_sub = b.filter(is_ssh)
        if ssh_sub.num_rows:
            _, _, _, ok = grok.extract_ssh(ssh_sub["text"],
                                           pc.year(ssh_sub["ts"]))
            bad = ssh_sub.filter(pc.invert(ok))
            parts.append(pa.table({
                "conv_id": bad["conv_id"], "turn_idx": bad["turn_idx"],
                "reason": pa.array(["ssh_parse_fail"] * bad.num_rows,
                                   pa.string())}))
        # nginx failures FALL THROUGH to apache then message (router
        # semantics), so the only terminal drop on that path is no_level
        rest = b.filter(pc.and_(keep, pc.invert(is_ssh)))
        if rest.num_rows:
            is_ng = pc.match_substring(rest["text"], "nginx")
            ng = rest.filter(is_ng)
            msg_cand = [rest.filter(pc.invert(is_ng))]
            if ng.num_rows:
                _, ng_ok = grok.extract_nginx(ng["text"])
                msg_cand.append(ng.filter(pc.invert(ng_ok)))
            mc = pa.concat_tables(msg_cand)
            if mc.num_rows:
                _, _, ap_ok = grok.extract_apache(mc["text"])
                mc = mc.filter(pc.invert(ap_ok))
            if mc.num_rows:
                lvl = grok.classify_level(mc["text"])
                bad = mc.filter(pc.is_null(lvl))
                parts.append(pa.table({
                    "conv_id": bad["conv_id"],
                    "turn_idx": bad["turn_idx"],
                    "reason": pa.array(["no_level"] * bad.num_rows,
                                       pa.string())}))
        out = pa.concat_tables(parts)
        return out if out.num_rows else empty

    return tr.map_batches(rejects, batch_format="pyarrow",
                          batch_size=None)


def messages(sf_dir: str) -> rd.Dataset:
    """messages/ sink (reference systemd_log_messages)."""
    return routed_ds(sf_dir).map_batches(message_view, batch_format="pyarrow",
                                        batch_size=None)


def route_counts(sf_dir: str) -> rd.Dataset:
    """Per-service routed row counts (router conformance aggregate)."""
    return agg.grouped_count(parsed(sf_dir), ["service"])


def parsed_dedup(sf_dir: str) -> rd.Dataset:
    """D1/D2/D5: natural-key dedup of the parsed sink, keep-first."""
    return dd.dedup_keep_first(parsed(sf_dir))


def enriched(sf_dir: str) -> rd.Dataset:
    """J1: parsed LEFT-join host_country->country_code via broadcast lookup.

    Uses the FUSED stateless enrich (dims are tiny, cached per worker
    process) so Ray fuses parse->enrich into one operator; the actor-pool
    variant (`enriched_resolved`) demonstrates the big-state pattern."""
    from ..stages.enrich import enrich_batch
    return parsed(sf_dir).map_batches(
        enrich_batch, batch_format="pyarrow", batch_size=None)


def enriched_resolved(sf_dir: str) -> rd.Dataset:
    """T2: enrich with deterministic miss resolution (whois analog)."""
    return parsed(sf_dir).map_batches(
        EnrichActor, fn_constructor_kwargs={"resolve_misses": True},
        batch_format="pyarrow",
        concurrency=ENRICH_CONCURRENCY, batch_size=ENRICH_BATCH)


def dim_updates(sf_dir: str) -> rd.Dataset:
    """T2 write-through side output: distinct (host, code) discovered by the
    miss resolver — the rows that would be inserted into host_country."""
    res = enriched_resolved(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b["enrich_source"], "resolved")),
        batch_format="pyarrow", batch_size=None)
    return dd.distinct_rows(res, ["host", "code"])


def dangling_hosts(sf_dir: str) -> rd.Dataset:
    """J3 anti-join: distinct parsed hosts with no host_country row
    (/root/reference/src/models.rs:166-189), via broadcast membership."""
    miss = enriched(sf_dir).map_batches(
        lambda b: b.filter(pc.is_null(b["code"])), batch_format="pyarrow",
        batch_size=None)
    return dd.distinct_rows(miss, ["host"])


def _host_counts_inner(sf_dir: str) -> rd.Dataset:
    """Projection-pushed plan for the country report: the aggregate needs
    only `host`, so the lean router (route_parse_hosts) runs instead of the
    full-width one — same routing semantics, ~40% less memory traffic."""
    from ..stages.enrich import enrich_batch
    from ..stages.parse import route_parse_hosts
    return read_transcripts(sf_dir, columns=["text", "ts"]) \
        .map_batches(route_parse_hosts, batch_format="pyarrow",
                     batch_size=None, zero_copy_batch=True) \
        .map_batches(enrich_batch, batch_format="pyarrow", batch_size=None) \
        .map_batches(lambda b: b.filter(pc.is_valid(b["code"])),
                     batch_format="pyarrow", batch_size=None)


def country_counts(sf_dir: str) -> rd.Dataset:
    """A1/A2 + J2: inner-join enrich then per-country count, sorted desc
    (deterministic country asc tie-break).  Uses the projection-pushed
    parse (only `host` leaves the router)."""
    return agg.grouped_count(_host_counts_inner(sf_dir), ["country"]).sort(
        ["cnt", "country"], descending=[True, False])


def top_hosts_per_country(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Per-group top-k report: the k busiest hosts of EVERY country in one
    pass (SQL: ROW_NUMBER() OVER (PARTITION BY country ORDER BY cnt DESC,
    host) <= k).  Generalizes the reference's global sort+take(10)
    (src/parse_opts.rs:228-229) to the grouped form a per-tenant /
    per-shard report needs at scale: counts combine per block, then ONE
    hash exchange on the group key and a vectorized per-partition head —
    no global sort, no driver-side groups."""
    counts = agg.grouped_count(_host_counts_inner(sf_dir),
                               ["country", "host"])
    return agg.grouped_top_k(counts, ["country"], "cnt", k,
                             tie_cols=["host"]) \
        .sort(["country", "cnt", "host"], descending=[False, True, False])


def top10_countries(sf_dir: str) -> rd.Dataset:
    """O2/O3: top-10 attack countries (reference take(10),
    src/parse_opts.rs:228-229)."""
    return agg.top_k(agg.grouped_count(_host_counts_inner(sf_dir),
                                       ["country"]),
                     "cnt", ["country"], 10)


def agg_conv_role_tool(sf_dir: str) -> rd.Dataset:
    """North-rule aggregate key: per-(conv_id, role, tool) turn counts over
    the raw transcripts (null tool is a group, as in SQL GROUP BY)."""
    return agg.grouped_count(read_transcripts(sf_dir),
                             ["conv_id", "role", "tool"])


def stream_dedup_natural_keys(sf_dir: str) -> rd.Dataset:
    """Online first-seen dedup via the shared-mutable-index actor op (the
    raw-Ray-actor seam; see stages/stream_dedup.py).  Output = distinct
    natural keys of the parsed stream — deterministic even though arrival
    order is not."""
    from ..stages.stream_dedup import stream_dedup_keys
    return stream_dedup_keys(parsed(sf_dir), dd.NATURAL_KEY)


def watermarks(sf_dir: str) -> rd.Dataset:
    """A4: max(datetime) per (service, server) — the incremental-load
    high-water mark (/root/reference/src/models.rs:259-293)."""
    return agg.grouped_max(parsed(sf_dir), ["service", "server"],
                           "datetime", "watermark")


def incremental_parsed(sf_dir: str) -> rd.Dataset:
    """A4 consumption: watermark filter — only strictly-newer rows pass;
    late rows drop (/root/reference/src/parse_logs.rs:180-197)."""
    cutoff = pa.scalar(INCREMENTAL_CUTOFF).cast(pa.timestamp("us"))
    return parsed(sf_dir).map_batches(
        lambda b: b.filter(pc.greater(b["datetime"], cutoff)),
        batch_format="pyarrow", batch_size=None)


def year_month_hist(sf_dir: str) -> rd.Dataset:
    """A3: (year, month) histogram driving export partitioning
    (/root/reference/src/polars_analysis.rs:83-93)."""
    with_ym = parsed(sf_dir).map_batches(agg.add_year_month,
                                         batch_format="pyarrow", batch_size=None)
    return agg.grouped_count(with_ym, ["year", "month"])


def oldest_unprocessed(sf_dir: str) -> rd.Dataset:
    """O5: oldest message (reference alert poll,
    /root/reference/src/models.rs:695-709); deterministic tie-break."""
    return messages(sf_dir).sort(
        ["log_timestamp", "conv_id", "turn_idx"]).limit(1)


def recent_parsed_page(sf_dir: str, k: int = 20) -> rd.Dataset:
    """O4: ORDER BY datetime DESC LIMIT k pagination page
    (/root/reference/src/models.rs:350-366)."""
    return parsed(sf_dir).sort(
        ["datetime", "conv_id", "turn_idx"],
        descending=[True, False, False]).limit(k)


def parsed_page_offset(sf_dir: str, offset: int = 20, k: int = 20):
    """O4 with OFFSET: fetch offset+k rows distributed, drop the first
    ``offset`` driver-side (pages are tiny by definition —
    /root/reference/src/models.rs:350-366 pagination)."""
    top = parsed(sf_dir).sort(
        ["datetime", "conv_id", "turn_idx"],
        descending=[True, False, False]).limit(offset + k)
    return top.to_pandas().iloc[offset:offset + k].reset_index(drop=True)


def _conv_sorted(b: pa.Table,
                 keys: tuple[str, str] = ("conv_id", "turn_idx")
                 ) -> tuple[pa.Table, np.ndarray]:
    """Shared prelude of every per-block adjacency kernel: sort by
    (group, order) and return the table plus the group-boundary mask
    (True at each group's first row).  Keeps all the shifted-compare
    kernels below on zero-copy Arrow + numpy — no pandas conversion."""
    b = b.sort_by([(keys[0], "ascending"), (keys[1], "ascending")])
    g = b[keys[0]]
    if isinstance(g, pa.ChunkedArray):
        g = g.combine_chunks()
    gv = g.to_numpy(zero_copy_only=False)
    return b, np.r_[True, gv[1:] != gv[:-1]]


_SFT_SCHEMA = pa.schema([("conv_id", pa.string()),
                         ("sft_text", pa.string()),
                         ("n_turns", pa.int64())])


def _assemble_convs(b: pa.Table,
                    max_boiler_quarters: int | None = None) -> pa.Table:
    """Shared per-block conversation-assembly kernel (one Arrow pass
    across ALL conversations in the block — no pandas conversion): sort
    by (conv_id, turn_idx), join ``role: text`` lines via a ListArray +
    ``pc.binary_join`` group-concat — the exact mirror of the oracle's
    string_agg expression, kept in ONE place so engine/oracle parity
    cannot drift between the plain and curated queries.  With
    ``max_boiler_quarters`` set, rows carry an ``is_boiler`` mark and
    conversations with >= 1/4 boilerplate turns are dropped."""
    if b.num_rows == 0:
        return _SFT_SCHEMA.empty_table()
    b, first = _conv_sorted(b)
    conv = b["conv_id"]
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    line = pc.binary_join_element_wise(b["role"], b["text"], ": ")
    if isinstance(line, pa.ChunkedArray):
        line = line.combine_chunks()
    # conversation segment offsets -> list<string> -> vectorized join
    starts = np.flatnonzero(first)
    offsets = np.r_[starts, b.num_rows].astype(np.int32)
    lines_per_conv = pa.ListArray.from_arrays(pa.array(offsets), line)
    sft = pc.binary_join(lines_per_conv, "\n")
    n_turns = np.diff(offsets).astype(np.int64)
    out = pa.table({"conv_id": conv.take(pa.array(starts, pa.int64())),
                    "sft_text": sft,
                    "n_turns": pa.array(n_turns)})
    if max_boiler_quarters is not None:
        ib = pc.fill_null(pc.cast(b["is_boiler"], pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
        n_boiler = np.add.reduceat(ib, starts)
        out = out.filter(pa.array(n_boiler * 4 < n_turns))
    return out.cast(_SFT_SCHEMA)


def conversation_sft_text(sf_dir: str) -> rd.Dataset:
    """Training-example assembly: one row per conversation with its turns
    concatenated in turn order as ``role: text`` lines — the transcripts ->
    SFT-document step of an LLM data pipeline (the documents the doc_* ops
    then dedup/score/pack).  ONE hash exchange co-locates each conv_id,
    then a single vectorized pandas kernel per block assembles every
    conversation in it (no per-group Python dispatch).  Output
    (conv_id, sft_text, n_turns)."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_transcripts(sf_dir,
                          columns=["conv_id", "turn_idx", "role", "text"])
    return _by_key_blocks(ds, ["conv_id"]).map_batches(
        _assemble_convs, batch_format="pyarrow", batch_size=None)


_CTX_SCHEMA = pa.schema([("conv_id", pa.string()),
                         ("turn_idx", pa.int32()),
                         ("context", pa.string()),
                         ("response", pa.string())])
CTX_TURNS = 4


def conversation_context_windows(sf_dir: str,
                                 n_ctx: int = CTX_TURNS) -> rd.Dataset:
    """Sliding-context SFT pair assembly: one training example per
    ASSISTANT turn — (context = the up-to-``n_ctx`` preceding turns as
    ``role: text`` lines, response = the turn's text).  This is the
    multi-turn chat-tuning layout (each assistant reply supervised given
    its recent dialogue window), the windowed sibling of
    ``conversation_sft_text``'s whole-conversation documents.

    Plan: ONE conv_id hash exchange, then one vectorized pandas kernel per
    block across ALL its conversations — the window is ``n_ctx`` grouped
    ``shift`` columns concatenated oldest-first (turns are dense per conv,
    so missing shifts occur only at the head; a single ``lstrip`` removes
    the empty slots).  No per-group Python, no corpus-sized driver state;
    output rows ≈ assistant turns.  Oracle: the identical frame as a SQL
    window — ``string_agg OVER (ROWS BETWEEN n PRECEDING AND 1
    PRECEDING)``."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_transcripts(sf_dir,
                          columns=["conv_id", "turn_idx", "role", "text"])

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _CTX_SCHEMA.empty_table()
        b, first = _conv_sorted(b)
        n = b.num_rows
        line = pc.binary_join_element_wise(b["role"], b["text"], ": ")
        if isinstance(line, pa.ChunkedArray):
            line = line.combine_chunks()
        starts = np.flatnonzero(first)
        pos = np.arange(n) - np.repeat(starts,
                                       np.diff(np.r_[starts, n]))
        ar = np.arange(n)
        parts = []
        for k in range(n_ctx, 0, -1):  # oldest turn first
            ok = pos >= k
            idxk = pa.array(np.where(ok, ar - k, 0), pa.int64(),
                            mask=~ok)
            parts.append(pc.fill_null(line.take(idxk), ""))
        ctx = parts[0] if len(parts) == 1 else \
            pc.binary_join_element_wise(*parts, "\n")
        ctx = pc.utf8_ltrim(ctx, "\n")   # strip the missing-slot prefix
        keep = pc.equal(b["role"], "assistant").to_numpy(
            zero_copy_only=False) & (b["turn_idx"].to_numpy() >= 1)
        ki = pa.array(np.flatnonzero(keep), pa.int64())
        return pa.table({"conv_id": b["conv_id"].take(ki),
                         "turn_idx": b["turn_idx"].take(ki),
                         "context": ctx.take(ki),
                         "response": b["text"].take(ki)}) \
            .cast(_CTX_SCHEMA)

    return _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)


_QA_SCHEMA = pa.schema([("conv_id", pa.string()),
                        ("turn_idx", pa.int32()),
                        ("prompt", pa.string()),
                        ("response", pa.string())])


def qa_pairs(sf_dir: str) -> rd.Dataset:
    """Instruction-tuning pair extraction: every ADJACENT user->assistant
    turn pair becomes one (prompt, response) example — the single-turn
    sibling of ``conversation_context_windows`` (chat corpora are commonly
    flattened this way for instruction tuning).  One conv_id exchange,
    then per block: sort, ONE grouped shift for (prev_role, prev_text),
    boolean mask — no per-group Python.  Oracle: the identical lag()
    window rule."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_transcripts(sf_dir,
                          columns=["conv_id", "turn_idx", "role", "text"])

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _QA_SCHEMA.empty_table()
        b, first = _conv_sorted(b)
        ia = pc.equal(b["role"], "assistant").to_numpy(zero_copy_only=False)
        iu = pc.equal(b["role"], "user").to_numpy(zero_copy_only=False)
        keep = ia & np.r_[False, iu[:-1]] & ~first
        idx = np.flatnonzero(keep)
        li = pa.array(idx, pa.int64())
        pi = pa.array(idx - 1, pa.int64())
        return pa.table({"conv_id": b["conv_id"].take(li),
                         "turn_idx": b["turn_idx"].take(li),
                         "prompt": b["text"].take(pi),
                         "response": b["text"].take(li)}).cast(_QA_SCHEMA)

    return _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)


def tool_call_runs(sf_dir: str) -> rd.Dataset:
    """Maximal runs of consecutive TOOL turns per conversation (agentic
    tool-call chains — their length distribution is a first-order
    property of agent transcripts).  The gaps-and-islands pattern,
    vectorized across every conversation in a block after ONE conv_id
    exchange: a run boundary is a conv change or a non-tool->tool edge;
    cumsum of boundaries labels the islands, one groupby sizes them.
    Output (conv_id, run_start_turn, run_len), tool turns only."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "role"])

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "run_start_turn": pa.array([], pa.int32()),
                             "run_len": pa.array([], pa.int64())})
        b, first = _conv_sorted(b)
        is_tool = pc.equal(b["role"], "tool").to_numpy(
            zero_copy_only=False)
        start = is_tool & (first | np.r_[True, ~is_tool[:-1]])
        lab = np.cumsum(start)
        counts = np.bincount(lab[is_tool],
                             minlength=int(lab[-1]) + 1)
        si = np.flatnonzero(start)
        return pa.table({
            "conv_id": b["conv_id"].take(pa.array(si, pa.int64())),
            "run_start_turn": b["turn_idx"].take(pa.array(si, pa.int64())),
            "run_len": pa.array(counts[lab[si]].astype(np.int64))})

    return _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)


def conversation_dedup(sf_dir: str) -> rd.Dataset:
    """Whole-conversation exact dedup: one surviving conv_id (the
    minimum) per distinct assembled transcript — conversations whose full
    role-tagged turn sequence repeats are the conversation-granularity
    duplicates an SFT corpus drops first.  Composition: the
    ``conversation_sft_text`` assembly (one conv exchange) feeding the
    exact-dedup grouped-min plan keyed on the assembled text."""
    from ..stages import aggregate as agg
    sft = conversation_sft_text(sf_dir)
    return agg.grouped_min(sft, ["sft_text"], "conv_id", alias="conv_id")


def assistant_latency_stats(sf_dir: str) -> rd.Dataset:
    """Assistant response latency: for every user->assistant adjacent
    turn pair, the µs gap between the two timestamps, folded to per-server
    (n, mean, std, min, max) via the one-pass mergeable-moments combiner —
    the serving-latency dashboard slice of the transcript corpus.  One
    conv exchange + one grouped shift (the ``qa_pairs`` adjacency rule
    over ts), then ``grouped_stats``."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages import aggregate as agg
    ds = read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "role", "ts"])

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"server": pa.array([], pa.string()),
                             "latency_us": pa.array([], pa.float64())})
        b, first = _conv_sorted(b)
        ia = pc.equal(b["role"], "assistant").to_numpy(zero_copy_only=False)
        iu = pc.equal(b["role"], "user").to_numpy(zero_copy_only=False)
        keep = ia & np.r_[False, iu[:-1]] & ~first
        idx = np.flatnonzero(keep)
        ts = b["ts"].cast(pa.int64()).to_numpy()
        lat = (ts[idx] - ts[idx - 1]).astype(np.float64)
        # server shard of the conversation — the shared stream key
        # (grok.server_from_conv, same rule as the alert scans)
        conv = b["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        srv = grok.server_from_conv(conv.take(pa.array(idx, pa.int64())))
        return pa.table({"server": srv, "latency_us": pa.array(lat)})

    pairs = _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)
    return agg.grouped_stats(pairs, ["server"], "latency_us") \
        .sort("server")


LAT_PCTS = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def assistant_latency_percentiles(sf_dir: str) -> rd.Dataset:
    """Per-server response-latency SLA percentiles (p50/p90/p99) — the
    tail-latency dashboard next to ``assistant_latency_stats``' moments.
    The latency stream (same conv-exchange adjacency rule) feeds the
    generalized grouped rank-selection core with THREE targets per
    server: all percentiles resolve against ONE sort + summary fold +
    extract pass, and only the |servers|x3 result reaches the driver.
    Rank rule = floor(p*(n-1)) + 1 with a (conv, turn) id tiebreak.
    Output (server, p50, p90, p99) by server."""
    import pandas as pd

    from ..pipelines.relational import _grouped_ranks_select
    from ..pipelines.streaming import _by_key_blocks
    from ..stages.joins import _collect_table
    ds = read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "role", "ts"])

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "value": pa.array([], pa.float64()),
                             "event_id": pa.array([], pa.int64())})
        b, first = _conv_sorted(b)
        ia = pc.equal(b["role"], "assistant").to_numpy(zero_copy_only=False)
        iu = pc.equal(b["role"], "user").to_numpy(zero_copy_only=False)
        keep = ia & np.r_[False, iu[:-1]] & ~first
        idx = np.flatnonzero(keep)
        ts = b["ts"].cast(pa.int64()).to_numpy()
        lat = (ts[idx] - ts[idx - 1]).astype(np.float64)
        conv = b["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        taken = conv.take(pa.array(idx, pa.int64()))
        srv = grok.server_from_conv(taken)
        cnum = pc.cast(pc.utf8_slice_codeunits(taken, 5, 2**30),
                       pa.int64()).to_numpy(zero_copy_only=False)
        tix = b["turn_idx"].to_numpy()[idx].astype(np.int64)
        vid = cnum * np.int64(2**32) + tix
        return pa.table({"event_type": srv,
                         "value": pa.array(lat),
                         "event_id": pa.array(vid, pa.int64())})

    lat_ds = _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)

    def targets_fn(totals: pd.Series) -> pd.DataFrame:
        n = totals.to_numpy(dtype=np.int64)
        typ, tgt, lab = [], [], []
        for name, pp in LAT_PCTS:
            typ.append(totals.index.to_numpy())
            tgt.append(np.floor(pp * (n - 1)).astype(np.int64) + 1)
            lab.extend([name] * len(n))
        return pd.DataFrame({"typ": np.concatenate(typ),
                             "target": np.concatenate(tgt),
                             "label": lab})

    sel = _collect_table(
        _grouped_ranks_select(lat_ds, targets_fn)).to_pandas()
    empty = pa.table({"server": pa.array([], pa.string()),
                      "p50": pa.array([], pa.float64()),
                      "p90": pa.array([], pa.float64()),
                      "p99": pa.array([], pa.float64())})
    if not len(sel):
        return rd.from_arrow(empty)
    piv = sel.pivot(index="event_type", columns="label",
                    values="value").reset_index().sort_values("event_type")
    return rd.from_arrow(pa.table({
        "server": pa.array(piv["event_type"], pa.string()),
        "p50": pa.array(piv["p50"], pa.float64()),
        "p90": pa.array(piv["p90"], pa.float64()),
        "p99": pa.array(piv["p99"], pa.float64())}))


def role_transition_matrix(sf_dir: str) -> rd.Dataset:
    """Markov transition counts over roles: for every adjacent turn pair
    within a conversation, count (prev_role, role) — the structural
    signature of a transcript corpus (user->assistant vs tool loops).
    One conv exchange, one grouped shift per block, then the grouped
    count fold (keyspace = |roles|² ≤ ~16 rows)."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages import aggregate as agg
    ds = read_transcripts(sf_dir, columns=["conv_id", "turn_idx", "role"])

    def block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"prev_role": pa.array([], pa.string()),
                             "role": pa.array([], pa.string())})
        b, first = _conv_sorted(b)
        idx = np.flatnonzero(~first)
        return pa.table({
            "prev_role": b["role"].take(pa.array(idx - 1, pa.int64())),
            "role": b["role"].take(pa.array(idx, pa.int64()))})

    pairs = _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)
    return agg.grouped_count(pairs, ["prev_role", "role"])


QUALITY_MIN_TURNS = 2
QUALITY_MAX_TURNS = 200


def conversation_quality(sf_dir: str) -> rd.Dataset:
    """Conversation-level SFT quality gate: per-conv structural counters
    (turns, per-role counts, empty texts, adjacent same-role runs) plus
    an integer keep flag — the transcript analog of the document
    ``doc_quality``/gopher gates, applied at conversation granularity
    before assembly.  All rules are integer comparisons (memory: float
    flags are hash time bombs).  One conv_id exchange, then one
    vectorized pandas pass per block."""
    from ..pipelines.streaming import _by_key_blocks
    ds = read_transcripts(
        sf_dir, columns=["conv_id", "turn_idx", "role", "text"])

    def block(b: pa.Table) -> pa.Table:
        cols = {"conv_id": pa.string(), "n_turns": pa.int64(),
                "n_user": pa.int64(), "n_assistant": pa.int64(),
                "n_tool": pa.int64(), "n_empty": pa.int64(),
                "same_role_adj": pa.int64(), "keep": pa.int64()}
        if b.num_rows == 0:
            return pa.table({k: pa.array([], t) for k, t in cols.items()})
        b, first = _conv_sorted(b)
        starts = np.flatnonzero(first)

        def seg_sum(mask: np.ndarray) -> np.ndarray:
            return np.add.reduceat(mask.astype(np.int64), starts)

        role = b["role"]
        rv = (role.combine_chunks() if isinstance(role, pa.ChunkedArray)
              else role).to_numpy(zero_copy_only=False)
        n_turns = seg_sum(np.ones(b.num_rows, bool))
        n_user = seg_sum(pc.equal(role, "user").to_numpy(
            zero_copy_only=False))
        n_assistant = seg_sum(pc.equal(role, "assistant").to_numpy(
            zero_copy_only=False))
        n_tool = seg_sum(pc.equal(role, "tool").to_numpy(
            zero_copy_only=False))
        n_empty = seg_sum(pc.equal(b["text"], "").to_numpy(
            zero_copy_only=False))
        adj = seg_sum(np.r_[False, (rv[1:] == rv[:-1])] & ~first)
        keep = ((n_turns >= QUALITY_MIN_TURNS)
                & (n_turns <= QUALITY_MAX_TURNS)
                & (n_user >= 1) & (n_assistant >= 1)
                & (n_empty == 0)).astype(np.int64)
        return pa.table({
            "conv_id": b["conv_id"].take(pa.array(starts, pa.int64())),
            "n_turns": pa.array(n_turns),
            "n_user": pa.array(n_user),
            "n_assistant": pa.array(n_assistant),
            "n_tool": pa.array(n_tool),
            "n_empty": pa.array(n_empty),
            "same_role_adj": pa.array(adj),
            "keep": pa.array(keep)})

    return _by_key_blocks(ds, ["conv_id"]).map_batches(
        block, batch_format="pyarrow", batch_size=None)


def boilerplate_turns(sf_dir: str, min_convs: int = 3) -> rd.Dataset:
    """Boilerplate detection: turn texts that recur across >= ``min_convs``
    DISTINCT conversations — templated/canned responses a training pipeline
    typically downweights or strips before SFT assembly.  Plan: per-block
    distinct (text, conv_id) combiner -> one hash exchange -> distinct ->
    grouped count (itself combiner-first) -> vectorized threshold filter.
    The distinct step makes the count a COUNT(DISTINCT conv_id) while only
    unique pairs per block ever enter the shuffle.  Output (text, n_convs)."""
    ds = read_transcripts(sf_dir, columns=["conv_id", "text"])
    pairs = dd.distinct_rows(ds, ["text", "conv_id"])
    counts = agg.grouped_count(pairs, ["text"], alias="n_convs")
    return counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b["n_convs"], min_convs)),
        batch_format="pyarrow", batch_size=None)


def conversation_curated_corpus(sf_dir: str, min_convs: int = 3) -> rd.Dataset:
    """The transcripts -> TRAINING-CORPUS composite, end to end: assemble
    each conversation into an SFT document, drop boilerplate-heavy
    conversations (>= a quarter of their turns are texts recurring in
    >= ``min_convs`` conversations), then exact-dedup the survivors
    keeping the min conv_id per distinct text.

    Scale shape: the boilerplate text set is the classic BROADCAST side
    (benchmark-boilerplate is MBs while the corpus is TBs) — ``lookup_join``
    ships it once via ray.put (falling back to the partitioned hash probe
    only past the byte budget); it is materialized once for the emptiness
    check and the join.  Everything per-conversation (assembly, turn
    count, boilerplate count, the keep rule) happens in ONE vectorized
    kernel after the single conv_id hash exchange, and the exact dedup is
    the combiner-first grouped min.  Two wide exchanges total; nothing
    corpus-sized on the driver.  Output (conv_id, sft_text, n_turns)."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages.joins import lookup_join

    turns = read_transcripts(sf_dir,
                             columns=["conv_id", "turn_idx", "role", "text"])
    boiler = boilerplate_turns(sf_dir, min_convs=min_convs).map_batches(
        lambda b: b.select(["text"]).append_column(
            "is_boiler", pa.array([1] * b.num_rows, pa.int8())),
        batch_format="pyarrow").materialize()
    if boiler.count() == 0:
        # no boilerplate anywhere: skip the join (an all-empty derived
        # dataset also loses its schema, which the join cannot probe)
        marked = turns.map_batches(
            lambda b: b.append_column(
                "is_boiler", pa.nulls(b.num_rows, pa.int8())),
            batch_format="pyarrow", batch_size=None)
    else:
        marked = lookup_join(turns, boiler, "text", "text", how="left")

    kept = _by_key_blocks(marked, ["conv_id"]).map_batches(
        lambda b: _assemble_convs(b, max_boiler_quarters=1),
        batch_format="pyarrow", batch_size=None)

    def partial_min(b: pa.Table) -> pa.Table:
        return b.group_by(["sft_text"]).aggregate(
            [("conv_id", "min"), ("n_turns", "min")]) \
            .rename_columns(["sft_text", "conv_id", "n_turns"])

    return agg.grouped_fold(kept, ["sft_text"], partial_min,
                            [("conv_id", "min"), ("n_turns", "min")]) \
        .select_columns(["conv_id", "sft_text", "n_turns"])


ANOMALY_Z = 3


def host_daily_anomalies(sf_dir: str, z: int = ANOMALY_Z) -> rd.Dataset:
    """Anomalous (host, day) message rates — the intrusion-detection
    rollup the reference's per-host counts point toward: a day is flagged
    when its count exceeds the host's own mean + ``z``·stddev_pop across
    the host's active days.  The flag is evaluated in EXACT integer
    arithmetic — ``cnt·n − s > 0  AND  (cnt·n − s)² > z²·(ss·n − s²)`` for
    per-host (n, s=Σcnt, ss=Σcnt²) — so the engine and the SQL oracle
    agree bit-for-bit with no float threshold ambiguity (int64 bound: the
    squared term needs cnt·n ≲ 3·10⁹; past that, widen to object/HUGEINT —
    documented cap).

    Plan: day-truncate in the parse map (only host leaves), grouped_count
    on (host, day) (in-batch combiner), ONE host hash exchange, then a
    single vectorized pandas kernel per block flags every host in it.
    Output: anomalous (host, day, cnt)."""
    import numpy as np

    from ..pipelines.streaming import _by_key_blocks

    def to_day(b: pa.Table) -> pa.Table:
        return pa.table({
            "host": b["host"],
            "day": pc.floor_temporal(b["datetime"], unit="day"),
        })

    d = parsed(sf_dir).map_batches(to_day, batch_format="pyarrow",
                                   batch_size=None)
    counts = agg.grouped_count(d, ["host", "day"], alias="cnt")

    out_schema = pa.schema([pa.field("host", pa.string()),
                            pa.field("day", pa.timestamp("us")),
                            pa.field("cnt", pa.int64())])

    def flag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        b, first = _conv_sorted(b, keys=("host", "day"))
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, b.num_rows])
        cnt = b["cnt"].to_numpy().astype(np.int64)
        n = np.repeat(lens.astype(np.int64), lens)
        s = np.repeat(np.add.reduceat(cnt, starts), lens)
        ss = np.repeat(np.add.reduceat(cnt * cnt, starts), lens)
        lhs = cnt * n - s
        keep = (lhs > 0) & (lhs * lhs > z * z * (ss * n - s * s))
        ki = pa.array(np.flatnonzero(keep), pa.int64())
        return pa.table({"host": b["host"].take(ki),
                         "day": b["day"].take(ki),
                         "cnt": b["cnt"].take(ki)}).cast(out_schema)

    return _by_key_blocks(counts, ["host"]).map_batches(
        flag, batch_format="pyarrow", batch_size=None)


PAGERANK_ITERS = 20


def host_transition_edges(sf_dir: str) -> rd.Dataset:
    """Weighted host-transition graph: an edge (src, dst, w) counts how
    often host ``dst`` follows host ``src`` on consecutive turns of the
    same conversation (self-transitions dropped).  One conv_id exchange,
    one vectorized shift per block, then the (src, dst) grouped_count
    combiner."""
    import numpy as np

    from ..pipelines.streaming import _by_key_blocks

    def keep(b: pa.Table) -> pa.Table:
        return pa.table({"conv_id": b["conv_id"],
                         "turn_idx": b["turn_idx"], "host": b["host"]})

    rows = parsed(sf_dir).map_batches(keep, batch_format="pyarrow",
                                      batch_size=None)

    edge_schema = pa.schema([pa.field("src", pa.string()),
                             pa.field("dst", pa.string())])

    def shift(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return edge_schema.empty_table()
        b, first = _conv_sorted(b)
        host = b["host"]
        if isinstance(host, pa.ChunkedArray):
            host = host.combine_chunks()
        hv = host.to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(~first)
        idx = idx[hv[idx] != hv[idx - 1]]   # self-transitions dropped
        return pa.table({"src": host.take(pa.array(idx - 1, pa.int64())),
                         "dst": host.take(pa.array(idx, pa.int64()))})

    pairs = _by_key_blocks(rows, ["conv_id"]).map_batches(
        shift, batch_format="pyarrow", batch_size=None)
    return agg.grouped_count(pairs, ["src", "dst"], alias="w")


def host_pagerank(sf_dir: str, iters: int = PAGERANK_ITERS) -> rd.Dataset:
    """PageRank centrality of hosts in the conversation transition graph
    — "which hosts sit in the middle of attack flows", the graph-analytic
    sibling of hot_hosts' frequency view.  Rows-only (iterative float);
    pytest matches a dense numpy reference and the mass invariant.
    Output: (host, rank rounded to 6)."""
    from ..functions.util import round_half_up
    from ..stages.graph import pagerank

    edges = host_transition_edges(sf_dir)
    ranks = pagerank(edges, src="src", dst="dst", weight="w", iters=iters)
    return ranks.map_batches(
        lambda t: pa.table({
            "host": t["node"],
            "rank": pa.array(round_half_up(
                t["rank"].to_numpy(zero_copy_only=False))),
        }),
        batch_format="pyarrow", batch_size=None).sort("host")


PPR_SEED_MOD = 10   # seed set: hosts whose numeric id is divisible by 10


def _seed_host_rows(b: pa.Table) -> pa.Table:
    """Deterministic seed-host filter shared by personalized PageRank and
    the BFS layers: keep nodes whose numeric host id ('h<k>.' prefix) is
    divisible by PPR_SEED_MOD; hosts without the prefix never seed."""
    import numpy as np
    ids = pc.extract_regex(b["node"], r"^h(?P<k>\d+)\.")
    k = pc.struct_field(ids, "k")
    num = pc.cast(k, pa.int64()).to_numpy(zero_copy_only=False)
    num = np.where(np.isnan(num.astype(np.float64)), -1,
                   num).astype(np.int64) \
        if num.dtype == object else np.nan_to_num(
            num.astype(np.float64), nan=-1.0).astype(np.int64)
    return b.filter(pa.array(np.mod(num, PPR_SEED_MOD) == 0))


def host_personalized_pagerank(sf_dir: str,
                               iters: int = PAGERANK_ITERS) -> rd.Dataset:
    """PERSONALIZED PageRank: teleport (and dangling mass) return to a
    uniform distribution over a SEED host set instead of all nodes — the
    "which hosts sit downstream of THESE hosts" centrality a triage
    pipeline runs from a set of known-bad origins.  Seeds are the hosts
    whose numeric id is divisible by PPR_SEED_MOD (deterministic slice of
    the node set); the restart table is seed-sized, so it broadcasts —
    the graph loop is the shared size-aware ``pagerank`` with a restart
    vector.  Rows-only (iterative float); pytest matches a dense numpy
    reference and checks mass + unreachable-node invariants.
    Output: (host, rank rounded 6)."""
    import re

    import numpy as np

    from ..functions.util import round_half_up
    from ..stages.dedup import distinct_rows
    from ..stages.graph import pagerank
    from ..stages.joins import _collect_table

    edges = host_transition_edges(sf_dir).materialize()
    nodes = distinct_rows(
        edges.map_batches(lambda t: pa.table({"node": t["src"]}),
                          batch_format="pyarrow", batch_size=None).union(
            edges.map_batches(lambda t: pa.table({"node": t["dst"]}),
                              batch_format="pyarrow", batch_size=None)),
        ["node"])

    seeds = _collect_table(nodes.map_batches(
        _seed_host_rows, batch_format="pyarrow", batch_size=None))
    if seeds.num_rows == 0:
        return rd.from_arrow(pa.table({"host": pa.array([], pa.string()),
                                       "rank": pa.array([], pa.float64())}))
    p = 1.0 / seeds.num_rows
    restart = {v.as_py(): p for v in seeds["node"]}
    ranks = pagerank(edges, src="src", dst="dst", weight="w", iters=iters,
                     restart=restart)
    return ranks.map_batches(
        lambda t: pa.table({
            "host": t["node"],
            "rank": pa.array(round_half_up(
                t["rank"].to_numpy(zero_copy_only=False)))}),
        batch_format="pyarrow", batch_size=None).sort("host")


def host_bfs_layers(sf_dir: str) -> rd.Dataset:
    """Minimum DIRECTED hop distance of every host from the seed set
    (numeric id divisible by PPR_SEED_MOD — the same known-bad origins as
    personalized PageRank) over the conversation transition graph: the
    blast-radius question ("how many hops downstream of the seeds is
    each host?").  Runs the size-aware multi-source BFS
    (``stages/graph.bfs_layers``: frontier semi-join -> distinct dst ->
    anti-join visited per round, one row count per round on the driver;
    one-task numpy path under 5M edges).  Exact and deterministic, so
    the oracle is a recursive CTE (min hop with UNION dedup).  Output
    (host, dist) sorted by host; unreachable hosts are omitted."""
    from ..stages.dedup import distinct_rows
    from ..stages.graph import bfs_layers

    edges = host_transition_edges(sf_dir).materialize()
    nodes = distinct_rows(
        edges.map_batches(lambda t: pa.table({"node": t["src"]}),
                          batch_format="pyarrow", batch_size=None).union(
            edges.map_batches(lambda t: pa.table({"node": t["dst"]}),
                              batch_format="pyarrow", batch_size=None)),
        ["node"])
    seeds = nodes.map_batches(_seed_host_rows, batch_format="pyarrow",
                              batch_size=None)
    out = bfs_layers(edges, seeds, src="src", dst="dst")
    return out.map_batches(
        lambda t: pa.table({"host": t["node"], "dist": t["dist"]}),
        batch_format="pyarrow", batch_size=None).sort("host")


TREND_MIN_CNT = 5
TREND_LIFT = 2


def trending_terms(sf_dir: str) -> rd.Dataset:
    """Day-over-day trending terms: (day, term) pairs whose daily count
    is at least TREND_MIN_CNT and more than TREND_LIFT× the term's
    all-days average — i.e. ``cnt·D > LIFT·total`` with D = number of
    active days, an EXACT integer rule shared with the oracle (no float
    lift ratio).  Plan: one term explode with the day attached, the
    (day, term) grouped_count combiner, term totals folded FROM the daily
    counts (never a second corpus pass), a size-aware lookup_join to
    attach totals, and a vectorized integer flag.  Output:
    (day, term, cnt)."""
    import numpy as np

    from ..stages.dedup import _num_partitions, distinct_rows
    from ..stages.joins import lookup_join

    tr = read_transcripts(sf_dir, columns=["ts", "text"])

    def explode(b: pa.Table) -> pa.Table:
        tk = pc.split_pattern(b["text"], " ")
        if isinstance(tk, pa.ChunkedArray):
            tk = tk.combine_chunks()
        n = np.diff(tk.offsets.to_numpy())
        day = pc.floor_temporal(b["ts"], unit="day")
        idx = pa.array(np.repeat(np.arange(b.num_rows), n))
        return pa.table({"day": day.take(idx), "term": tk.values})

    pairs = tr.map_batches(explode, batch_format="pyarrow",
                           batch_size=None)
    dc = agg.grouped_count(pairs, ["day", "term"], alias="cnt").materialize()
    tot = agg.grouped_sum(dc, ["term"], "cnt", alias="tot").materialize()
    d_days = distinct_rows(dc, ["day"]).count()
    j = lookup_join(dc, tot, "term", "term",
                    nparts=_num_partitions(dc))

    def flag(b: pa.Table) -> pa.Table:
        cnt = b["cnt"].to_numpy()
        tot_ = b["tot"].to_numpy()
        keep = (cnt >= TREND_MIN_CNT) & (cnt * d_days > TREND_LIFT * tot_)
        return b.filter(pa.array(keep)).select(["day", "term", "cnt"])

    return j.map_batches(flag, batch_format="pyarrow", batch_size=None)


def route_rollup(sf_dir: str) -> rd.Dataset:
    """(service, server) counts at EVERY rollup level — per pair, per
    service, grand total — in one scan/one exchange via
    ``agg.grouped_count_rollup`` (the reference runs these as separate
    count queries per dashboard panel, src/security_log_http.rs handlers;
    one ROLLUP pass replaces three scans)."""
    return agg.grouped_count_rollup(parsed(sf_dir), ["service", "server"])


def route_cube(sf_dir: str) -> rd.Dataset:
    """(service, server) counts at EVERY CUBE grouping set — per pair, per
    service, per server, grand total — one scan / one exchange via
    ``agg.grouped_count_cube`` (ROLLUP can't produce the per-server slice
    without a second scan; CUBE folds all 2^k sets from the same in-batch
    partial)."""
    return agg.grouped_count_cube(parsed(sf_dir), ["service", "server"])


MESSAGE_LEVELS = ["debug", "info", "warn", "error"]


def unit_level_pivot(sf_dir: str) -> rd.Dataset:
    """Crosstab of the messages sink: one row per log_unit with a count
    column per log level (the dashboard's wide table; SQL = one
    count FILTER per level).  Exercises ``agg.pivot_counts``."""
    return agg.pivot_counts(messages(sf_dir), "log_unit", "log_level",
                            MESSAGE_LEVELS)


def service_host_overlap(sf_dir: str) -> rd.Dataset:
    """Persistent hosts: seen on BOTH even and odd calendar days (SQL
    INTERSECT; the recurring-attacker slice of the intrusion log) — two
    distinct-host combiners over day-parity slices of ONE parsed stream,
    then the size-aware semi_join; EXCEPT is the same composition with
    anti_join (`dangling_hosts` is that shape).  Output (host) sorted."""
    from ..stages.dedup import distinct_rows
    from ..stages.joins import semi_join

    base = parsed(sf_dir)

    def parity(rem):
        def f(b: pa.Table) -> pa.Table:
            d = pc.day(b["datetime"])
            return b.filter(pc.equal(pc.bit_wise_and(d, 1), rem))                 .select(["host"])
        return f

    even = distinct_rows(base.map_batches(parity(0),
                                          batch_format="pyarrow",
                                          batch_size=None), ["host"])
    odd = distinct_rows(base.map_batches(parity(1),
                                         batch_format="pyarrow",
                                         batch_size=None), ["host"])
    return semi_join(even, odd, "host", "host").sort("host")


def host_counts_maintained(sf_dir: str) -> rd.Dataset:
    """Per-host counts via the INCREMENTALLY MAINTAINED view
    (state/agg_view.py): the parsed stream splits into two "nights" (day
    parity), each applied as a tagged delta — re-running is a no-op per
    tag (exactly-once), and the final view must equal the one-shot
    GROUP BY, which is exactly what the oracle asserts.  Nightly cost is
    O(delta + keys), never a growing-corpus recompute."""
    import os

    from ..state.agg_view import update_counts_view
    from ..synth import CACHE_ROOT

    tag = os.path.basename(os.path.normpath(sf_dir)) or "default"
    view_dir = os.path.join(CACHE_ROOT, tag, "host_counts_view_v1")
    base = parsed(sf_dir)

    def parity(rem):
        def f(b: pa.Table) -> pa.Table:
            d = pc.day(b["datetime"])
            return b.filter(pc.equal(pc.bit_wise_and(d, 1), rem)) \
                .select(["host"])
        return f

    for rem, night in ((0, "night-even"), (1, "night-odd")):
        delta = base.map_batches(parity(rem), batch_format="pyarrow",
                                 batch_size=None)
        view = update_counts_view(view_dir, delta, ["host"], tag=night)
    return view.sort("host")


SCD_CUTOFF = INCREMENTAL_CUTOFF          # era boundary of the versioned dim


def enriched_scd_counts(sf_dir: str) -> rd.Dataset:
    """Point-in-time (SCD type-2) enrichment: the host->code dim is
    VERSIONED — era 1 (before SCD_CUTOFF) keeps each host's original code,
    era 2 re-codes it (code || '2') — and every parsed row joins the
    version VALID AT ITS OWN datetime via the non-overlapping
    ``interval_join`` (relational.py), then counts per code.  The
    late-arriving-dimension semantics the plain broadcast enrich (J1)
    cannot express.  Output (code, cnt) sorted."""
    import pandas as pd

    from ..pipelines.relational import interval_join
    from ..stages import aggregate as agg
    from ..stages.enrich import build_dims

    host_to_code, _ = build_dims()
    cutoff = pd.Timestamp(SCD_CUTOFF)
    lo1, hi2 = pd.Timestamp("2000-01-01"), pd.Timestamp("2100-01-01")
    hosts = sorted(host_to_code)
    dim = pa.table({
        "host": hosts * 2,
        "lo": pa.array([lo1] * len(hosts) + [cutoff] * len(hosts),
                       pa.timestamp("us")),
        "hi": pa.array([cutoff - pd.Timedelta(microseconds=1)] * len(hosts)
                       + [hi2] * len(hosts), pa.timestamp("us")),
        "code": [host_to_code[h] for h in hosts]
                + [host_to_code[h] + "2" for h in hosts],
    })
    left = parsed(sf_dir).map_batches(
        lambda b: b.select(["host", "datetime"]),
        batch_format="pyarrow", batch_size=None)
    joined = interval_join(left, rd.from_arrow(dim), "host", "datetime",
                           "lo", "hi", right_payload=["code"])
    return agg.grouped_count(joined, ["code"]).sort("code")


_PREF_SCHEMA = pa.schema([("prompt", pa.string()),
                          ("chosen", pa.string()),
                          ("rejected", pa.string()),
                          ("n_candidates", pa.int64())])
_PAIR_SCHEMA = pa.schema([("prompt", pa.string()),
                          ("reply", pa.string())])


def preference_pairs(sf_dir: str) -> rd.Dataset:
    """DPO/RLHF preference-pair assembly: for every user prompt that drew
    >= 2 DISTINCT assistant replies across the corpus, one training pair
    (prompt, chosen, rejected) — chosen = the (length, text)-max reply,
    rejected = the (length, text)-min — plus the candidate count.  The
    pairing step generalizes the reference's line->parsed-row projection
    (src/parse_logs.rs) to adjacent-turn joins.

    Plan (two exchanges, no per-group Python):
      1. co-locate conv_id, one vectorized shift(-1) kernel per block
         pairs each user turn with its immediate assistant reply, with an
         in-block (prompt, reply) pre-distinct combiner;
      2. co-locate prompt, one pandas kernel per block finishes the
         distinct and folds each prompt group to first/last of the
         (len, reply) sort order — argmin and argmax in the same pass.
    Deterministic: ties in reply length break on the reply string."""
    import pandas as pd

    from ..pipelines.streaming import _by_key_blocks
    ds = read_transcripts(sf_dir,
                          columns=["conv_id", "turn_idx", "role", "text"])

    def pair_turns(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _PAIR_SCHEMA.empty_table()
        b, first = _conv_sorted(b)
        iu = pc.equal(b["role"], "user").to_numpy(zero_copy_only=False)
        ia = pc.equal(b["role"], "assistant").to_numpy(
            zero_copy_only=False)
        turn = b["turn_idx"].to_numpy()
        adj = np.r_[turn[1:] == turn[:-1] + 1, False]
        keep = iu & np.r_[ia[1:], False] & np.r_[~first[1:], False] & adj
        idx = np.flatnonzero(keep)
        t = pa.table({"prompt": b["text"].take(pa.array(idx, pa.int64())),
                      "reply": b["text"].take(
                          pa.array(idx + 1, pa.int64()))})
        # in-block pre-distinct combiner before the prompt exchange
        return t.group_by(["prompt", "reply"]).aggregate([]) \
            .cast(_PAIR_SCHEMA)

    pairs = _by_key_blocks(ds, ["conv_id"]).map_batches(
        pair_turns, batch_format="pyarrow", batch_size=None)

    def fold(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _PREF_SCHEMA.empty_table()
        t = b.group_by(["prompt", "reply"]).aggregate([])  # finish distinct
        t = t.append_column("_len", pc.cast(
            pc.utf8_length(t["reply"]), pa.int64()))
        # ties in reply length break on the reply string (third sort key)
        t = t.sort_by([("prompt", "ascending"), ("_len", "ascending"),
                       ("reply", "ascending")])
        pv = (t["prompt"].combine_chunks()
              if isinstance(t["prompt"], pa.ChunkedArray)
              else t["prompt"]).to_numpy(zero_copy_only=False)
        first = np.r_[True, pv[1:] != pv[:-1]]
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, t.num_rows])
        ends = starts + lens - 1
        out = pa.table({
            "prompt": t["prompt"].take(pa.array(starts, pa.int64())),
            "chosen": t["reply"].take(pa.array(ends, pa.int64())),
            "rejected": t["reply"].take(pa.array(starts, pa.int64())),
            "n_candidates": pa.array(lens.astype(np.int64))})
        return out.filter(pa.array(lens >= 2)).cast(_PREF_SCHEMA)

    # no trailing sort: Ray's sort on an ALL-EMPTY dataset erases the
    # schema (ds.schema() -> None), which breaks the empty-result schema
    # compare; comparators canonicalize row order themselves.
    return _by_key_blocks(pairs, ["prompt"]).map_batches(
        fold, batch_format="pyarrow", batch_size=None)


def service_host_overlap_approx(sf_dir: str) -> rd.Dataset:
    """Approximate version of ``service_host_overlap``: the even/odd-day
    distinct-host sets as two 4 KB HLL sketches, their union as the
    register max, and |A ∩ B| by inclusion-exclusion — the sketch-join
    you run FIRST at 100 TB to decide whether the exact INTERSECT (two
    distincts + a semi-join exchange) is worth scheduling.  One streaming
    pass per slice, driver state = two registers.  Output one row
    (n_even_est, n_odd_est, n_overlap_est), each rounded to ints."""
    from ..stages.sketch import (approx_distinct_registers,
                                 hll_estimate, hll_intersection_estimate)

    base = parsed(sf_dir)

    def parity(rem):
        def f(b: pa.Table) -> pa.Table:
            d = pc.day(b["datetime"])
            return b.filter(pc.equal(pc.bit_wise_and(d, 1), rem)) \
                .select(["host"])
        return f

    even = base.map_batches(parity(0), batch_format="pyarrow",
                            batch_size=None)
    odd = base.map_batches(parity(1), batch_format="pyarrow",
                           batch_size=None)
    ra = approx_distinct_registers(even, "host")
    rb = approx_distinct_registers(odd, "host")
    return rd.from_arrow(pa.table({
        "n_even_est": pa.array([int(round(hll_estimate(ra)))], pa.int64()),
        "n_odd_est": pa.array([int(round(hll_estimate(rb)))], pa.int64()),
        "n_overlap_est": pa.array(
            [int(round(hll_intersection_estimate(ra, rb)))], pa.int64()),
    }))


CONV_SPLIT_MULT = 2654435761
CONV_SPLIT_MOD = 1000003


def conversation_split_assign(sf_dir: str) -> rd.Dataset:
    """Leakage-safe train/val/test assignment at CONVERSATION granularity:
    every turn of a conversation lands in the same split (hashing turn
    rows independently would leak sibling turns across the train/test
    boundary — the classic eval-contamination bug).  Same deterministic
    multiplicative-hash rule as ``doc_split_assign``, keyed on the
    numeric conversation id parsed out of conv_id (string ids hash via
    their stable numeric suffix so the rule stays SQL-replayable);
    pure fused map over the pruned 2-column read, zero shuffle.  Output
    (conv_id, turn_idx, split)."""
    ds = read_transcripts(sf_dir, columns=["conv_id", "turn_idx"])

    def assign(b: pa.Table) -> pa.Table:
        ext = pc.extract_regex(b["conv_id"], r"conv_(?P<n>\d+)")
        v = pc.cast(pc.struct_field(ext, "n"), pa.int64()).to_numpy()
        bucket = ((v * CONV_SPLIT_MULT) % CONV_SPLIT_MOD) % 10
        split = np.where(bucket < 8, "train",
                         np.where(bucket == 8, "val", "test"))
        return pa.table({"conv_id": b["conv_id"],
                         "turn_idx": b["turn_idx"],
                         "split": pa.array(split.astype(object),
                                           pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow", batch_size=None)


def top_hosts_per_country_ties(sf_dir: str, k: int = 3) -> rd.Dataset:
    """RANK()-semantics sibling of ``top_hosts_per_country``: keep EVERY
    host tied with the k-th busiest (SQL ``RANK() OVER (...) <= k``),
    where ROW_NUMBER would cut ties arbitrarily.  Identity
    ``cnt >= (k-th largest cnt)  <=>  rank <= k`` turns the window into
    two bounded steps: the exact distributed top-k gives each group's
    k-th count (min over its <=k survivors), the thresholds broadcast,
    and one vectorized probe filters the (materialized once) count
    table — the group's full extent never co-locates."""
    from ..stages.joins import lookup_join

    counts = agg.grouped_count(_host_counts_inner(sf_dir),
                               ["country", "host"]).materialize()
    top = agg.grouped_top_k(counts, ["country"], "cnt", k,
                            tie_cols=["host"])
    thresh = agg.grouped_min(top, ["country"], "cnt", "kth").materialize()
    j = lookup_join(counts, thresh, "country", "country", how="inner")
    out = j.map_batches(
        lambda b: b.filter(pc.greater_equal(b["cnt"], b["kth"]))
        .drop_columns(["kth"]),
        batch_format="pyarrow", batch_size=None)
    return out.sort(["country", "cnt", "host"],
                    descending=[False, True, False])


EVAL_CONV_SUFFIX = "0"   # conv_ids ending in this digit form the eval split


def conversation_decontaminate(sf_dir: str) -> rd.Dataset:
    """Conversation-level decontamination: per TRAIN conversation, the
    number of distinct word-5-grams it shares with the held-out eval
    split (conv_ids ending in '0' — the leakage-safe split family of
    ``conversation_split_assign``).  Transcript turns shingle with the
    docs tier's Arrow window kernel keyed by conv_id; the (conv, gram)
    stream needs a GLOBAL distinct (one conversation's turns span
    blocks, unlike docs); eval grams prune the train stream through the
    size-aware semi_join; the overlap count is then a plain grouped
    count.  Output (conv_id, n_shared) sorted by conv_id."""
    from ..pipelines.docs import NGRAM, _concat_aranges, _join_parts
    from ..stages.dedup import distinct_rows
    from ..stages.joins import semi_join

    def conv_grams(b: pa.Table) -> pa.Table:
        tk = pc.split_pattern(b["text"], " ")
        if isinstance(tk, pa.ChunkedArray):
            tk = tk.combine_chunks()
        flat = tk.values
        offs = np.asarray(tk.offsets)
        wins = np.maximum(np.diff(offs) - (NGRAM - 1), 0)
        starts = np.repeat(offs[:-1], wins) + _concat_aranges(wins)
        cols = [flat.take(pa.array(starts + s)) for s in range(NGRAM)]
        g = pc.binary_join_element_wise(*cols, " ")
        conv = b["conv_id"].combine_chunks() \
            if isinstance(b["conv_id"], pa.ChunkedArray) else b["conv_id"]
        rep = conv.take(pa.array(
            np.repeat(np.arange(b.num_rows, dtype=np.int64), wins)))
        t = pa.table({"conv_id": rep, "g": g})
        return t.group_by(["conv_id", "g"]).aggregate([])

    # materialized: both the eval-key extraction and the train probe
    # consume this — unmaterialized the shingle+distinct lineage runs
    # twice (object store holds it, spilling at scale)
    grams = distinct_rows(
        read_transcripts(sf_dir, columns=["conv_id", "text"])
        .map_batches(conv_grams, batch_format="pyarrow"),
        ["conv_id", "g"]).materialize()
    is_eval = f"{EVAL_CONV_SUFFIX}$"
    eval_g = grams.map_batches(
        lambda b: b.filter(pc.match_substring_regex(b["conv_id"], is_eval))
        .select(["g"]),
        batch_format="pyarrow", batch_size=None)
    train_g = grams.map_batches(
        lambda b: b.filter(pc.invert(
            pc.match_substring_regex(b["conv_id"], is_eval))),
        batch_format="pyarrow", batch_size=None)
    hits = semi_join(train_g, eval_g, "g", "g",
                     nparts=_join_parts(sf_dir))
    return agg.grouped_count(hits, ["conv_id"],
                             alias="n_shared").sort("conv_id")


def tool_cooccurrence_pairs(sf_dir: str, k: int = 20) -> rd.Dataset:
    """Market-basket 2-itemsets: the tool PAIRS that co-occur in the
    same conversation, by support — the frequent-itemset primitive over
    agent traces.  Plan: global (conv, tool) distinct (turns span
    blocks), hash-repartition on conv_id so each block holds whole
    conversations, per-block vectorized pair expansion (one sort +
    boundary detection + one triu gather per DISTINCT basket size — the
    docs-tier kernel shape; baskets are |tools|-bounded so no hot-group
    cap is needed), then a grouped support count and top-k.  Output
    (tool_a, tool_b, support), support desc, limit k."""
    from ..stages.dedup import _num_partitions, distinct_rows

    base = read_transcripts(sf_dir, columns=["conv_id", "tool"]) \
        .map_batches(lambda b: b.filter(pc.is_valid(b["tool"])),
                     batch_format="pyarrow", batch_size=None)
    tt = distinct_rows(base, ["conv_id", "tool"])
    counted = _tool_pair_counts(tt, _num_partitions(base))
    return counted.sort(["support", "tool_a", "tool_b"],
                        descending=[True, False, False]).limit(k)


RULE_MIN_SUPPORT = 3


def tool_association_rules(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Association rules over the tool baskets: for every co-occurring
    pair, the two directed rules a=>b and b=>a with confidence
    support(ab)/support(a).  Pair and singleton supports are both
    grouped count folds; the singleton table is |tools|-bounded, so it
    broadcasts into the pair stream and the rules emit per block — the
    classic Apriori step with no extra exchange.  Output (antecedent,
    consequent, support, confidence) conf desc, support>=floor,
    limit k."""
    from ..stages.dedup import _num_partitions, distinct_rows
    from ..stages.joins import lookup_join

    base = read_transcripts(sf_dir, columns=["conv_id", "tool"]) \
        .map_batches(lambda b: b.filter(pc.is_valid(b["tool"])),
                     batch_format="pyarrow", batch_size=None)
    tt = distinct_rows(base, ["conv_id", "tool"]).materialize()
    singles = agg.grouped_count(tt, ["tool"], alias="s1").materialize()
    pair_counts = _tool_pair_counts(tt, _num_partitions(base))

    def emit(b: pa.Table) -> pa.Table:
        fwd = pa.table({"antecedent": b["tool_a"],
                        "consequent": b["tool_b"],
                        "support": b["support"]})
        rev = pa.table({"antecedent": b["tool_b"],
                        "consequent": b["tool_a"],
                        "support": b["support"]})
        return pa.concat_tables([fwd, rev])

    rules = pair_counts.map_batches(emit, batch_format="pyarrow",
                                    batch_size=None)
    rules = lookup_join(rules, singles, "antecedent", "tool")

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["support"],
                                      pa.scalar(RULE_MIN_SUPPORT)))
        conf = b["support"].to_numpy().astype(np.float64) \
            / b["s1"].to_numpy().astype(np.float64)
        return pa.table({"antecedent": b["antecedent"],
                         "consequent": b["consequent"],
                         "support": b["support"],
                         "confidence": pa.array(round_half_up(conf, 6))})

    return rules.map_batches(finish, batch_format="pyarrow",
                             batch_size=None) \
        .sort(["confidence", "antecedent", "consequent"],
              descending=[True, False, False]).limit(k)


def _tool_pair_counts(tt: rd.Dataset, nparts: int) -> rd.Dataset:
    """(tool_a, tool_b, support) over whole-conversation blocks — the
    pair-expansion core shared by ``tool_cooccurrence_pairs`` and the
    rule miner."""
    from ..stages.dedup import _use_hash_shuffle
    tt = _use_hash_shuffle(tt, nparts).repartition(num_blocks=nparts,
                                                   keys=["conv_id"])

    def pairs(b: pa.Table) -> pa.Table:
        empty = pa.table({"tool_a": pa.array([], pa.string()),
                          "tool_b": pa.array([], pa.string())})
        if b.num_rows < 2:
            return empty
        srt = b.sort_by([("conv_id", "ascending"), ("tool", "ascending")])
        conv = srt["conv_id"].combine_chunks() \
            if isinstance(srt["conv_id"], pa.ChunkedArray) else srt["conv_id"]
        tool = srt["tool"].combine_chunks() \
            if isinstance(srt["tool"], pa.ChunkedArray) else srt["tool"]
        n = len(conv)
        change = ~pc.equal(conv.slice(1), conv.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        counts = np.diff(np.append(starts, n))
        out_a, out_b = [], []
        for s in np.unique(counts):
            if s < 2:
                continue
            gs = starts[counts == s]
            iu, ju = np.triu_indices(int(s), 1)
            ia = (gs[:, None] + iu[None, :]).ravel()
            ib = (gs[:, None] + ju[None, :]).ravel()
            out_a.append(tool.take(pa.array(ia)))
            out_b.append(tool.take(pa.array(ib)))
        if not out_a:
            return empty
        cat = [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
               for a in out_a]
        catb = [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                for a in out_b]
        return pa.table({"tool_a": pa.concat_arrays(cat),
                         "tool_b": pa.concat_arrays(catb)})

    pair_ds = tt.map_batches(pairs, batch_format="pyarrow",
                             batch_size=None)
    return agg.grouped_count(pair_ds, ["tool_a", "tool_b"],
                             alias="support")
