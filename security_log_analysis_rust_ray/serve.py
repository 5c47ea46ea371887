"""HTTP serving layer: the reference's 11 ``/security_log`` routes
(/root/reference/src/security_log_http.rs:589-605 route table) re-expressed
over this engine's Ray Data query functions.

Stdlib-only (``http.server``), loopback-bound: the sandbox is network-free
and the reference's axum/TLS/OAuth stack is out of scope — what IS in scope
is the route surface, the response shapes, and the serving-layer behavior
around the query engine:

- each server parses its corpus once, like the reference's parse-at-ingest
  tables (models.rs): the enriched intrusion view and the message view
  (``id`` hash included) are materialized on first use, as Ray blocks in
  the object store; the corpus under ``sf_dir`` is never written here,
- the two geochart endpoints serve through the TTL query cache exactly like
  the reference's ``#[cached(TimedSizedCache 100/3600s)]`` handlers
  (security_log_http.rs:102-122,161-185 -> state/query_cache.py),
- ``POST intrusion_log`` is an idempotent insert (K1): new rows land in a
  spool parquet only after a natural-key anti-join against everything the
  server already serves (models.rs ON CONFLICT DO NOTHING analog); the
  server is the spool's only writer, so it holds the spool as one
  materialized block and refreshes it when it writes a shard,
- ``POST cleanup`` resolves dangling hosts with the deterministic whois
  analog and upserts them (security_log_http.rs:438-462),
- a page is one execution over a view: each block filters, counts and
  keeps its first ``offset + limit`` rows in page order, and the driver
  sums the counts and sorts those partials (no global sort; a deep
  offset brings up to ``offset + limit`` rows per block to the driver),
- a negative or non-integer ``offset``, ``limit`` or ``ndays`` gets a 400
  (the reference's typed ``Query`` extractor).

Every handler's response is a tiny aggregate, a page, or an ack — the
distributed work stays in the pipelines this module calls.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .state.query_cache import TTLCache

# derived host_country rows carry a fixed created_at so server responses
# are deterministic (reference rows carry their DB insert time)
_DERIVED_CREATED_AT = "2024-01-01T00:00:00Z"

# pinned spool schema (= intrusion_log_ds column types): an inferred
# schema would type an all-None username column as Arrow `null`
_SPOOL_SCHEMA = pa.schema([
    pa.field("service", pa.string()), pa.field("server", pa.string()),
    pa.field("datetime", pa.timestamp("us")), pa.field("host", pa.string()),
    pa.field("username", pa.string())])

# page orders, each ending on a row's full key: a row lands on exactly one
# page whichever block it comes from (rows that tie on the natural key up
# to username break the tie on it; fully equal rows are interchangeable)
_ILOG_ORDER = [("datetime", "descending"), ("host", "ascending"),
               ("service", "ascending"), ("server", "ascending"),
               ("username", "ascending")]
_MSG_ORDER = [("log_timestamp", "ascending"), ("conv_id", "ascending"),
              ("turn_idx", "ascending")]


class _BadRequest(ValueError):
    """A malformed request parameter: the handlers answer 400."""


def _count_param(q: dict, name: str, default: int) -> int:
    """A non-negative integer query parameter (``offset``, ``limit``,
    ``ndays``), else ``_BadRequest``."""
    raw = q.get(name)
    if raw is None:
        return default
    try:
        v = int(raw)
    except ValueError:
        v = -1
    if v < 0:
        raise _BadRequest(f"{name} must be a non-negative integer, "
                         f"got {raw!r}")
    return v


def _host_ipaddr(host: str) -> str | None:
    """Deterministic host -> ipaddr analog (P12, models.rs:51-60 dns
    lookup): hN.example.com -> 10.(N>>8).(N&255).1; IPs pass through."""
    m = re.match(r"^h(\d+)\.example\.com$", host or "")
    if m:
        n = int(m.group(1))
        return f"10.{(n >> 8) & 255}.{n & 255}.1"
    if re.match(r"^(\d{1,3}\.){3}\d{1,3}$", host or ""):
        return host
    return None


def _per_block(ds, fn) -> pa.Table | None:
    """Run ``fn`` on every block of ``ds`` in one execution and collect
    its (small) outputs to one table on the driver; None when no block
    produced a row (Ray skips ``fn`` on empty blocks).  Materialized
    first: collecting a lazy dataset runs a second, ``limit(1)``
    execution for its schema."""
    from .stages.dedup import _collect_table
    out = ds.map_batches(fn, batch_format="pyarrow",
                         batch_size=None).materialize()
    return _collect_table(out) if out.count() else None


def _page(ds, keep, order, offset: int, limit: int):
    """``(total, page)`` of the rows ``keep`` selects, in ``order`` (nulls
    last), in one execution: each block filters, counts and cuts its rows
    to the first ``offset + limit`` in page order; the driver sums the
    counts and sorts the partials (a per-block top-k, no global sort)."""
    k = max(offset + limit, 1)  # >= 1: a block with rows reports its count

    def top(b: pa.Table) -> pa.Table:
        if b.num_rows:
            b = keep(b)
        if b.num_rows == 0:
            return b
        head = b.take(pc.sort_indices(b, sort_keys=order,
                                      null_placement="at_end")[:k])
        n = np.zeros(head.num_rows, np.int64)
        n[0] = b.num_rows
        return head.append_column("__n", pa.array(n))

    t = _per_block(ds, top)
    if t is None:
        return 0, pd.DataFrame()
    t = t.take(pc.sort_indices(t, sort_keys=order, null_placement="at_end"))
    return (pc.sum(t["__n"]).as_py(),
            t.slice(offset, limit).drop_columns(["__n"]).to_pandas())


class AppState:
    """Per-server state: corpus dir, the corpus views and the spool block
    (materialized once per server), spool/override stores, TTL caches,
    optional auth-user cache (T5)."""

    def __init__(self, sf_dir: str, state_dir: str,
                 users_path: str | None = None,
                 auth_refresh_s: float | None = None):
        self.sf_dir = sf_dir
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.spool_dir = os.path.join(state_dir, "intrusion_spool")
        os.makedirs(self.spool_dir, exist_ok=True)
        self.host_country_path = os.path.join(state_dir, "host_country.parquet")
        self.tombstone_path = os.path.join(state_dir, "deleted_messages.json")
        # one cache per cached endpoint, reference parity 100 entries/3600 s
        self.attempts_cache = TTLCache()
        self.attempts_all_cache = TTLCache()
        self.lock = threading.Lock()
        # name -> materialized view (or the watermark table), built on
        # first use under _views_lock (reentrant: one view's build may
        # read another view)
        self._views: dict = {}
        self._views_lock = threading.RLock()
        self._spool_rows: pa.Table | None = None
        # T5: auth-user cache, refreshed on the reference's 60 s loop
        # (security_log_http.rs:636-642); None = auth disabled (the
        # sandbox default — the reference's JWT/OAuth stack is out of
        # scope, membership checking is not)
        self.auth_cache = None
        if users_path is not None:
            from .state.auth_cache import (REFRESH_INTERVAL_S,
                                           AuthUserCache)
            self.auth_cache = AuthUserCache(users_path)
            self.auth_cache.start_refresh(
                auth_refresh_s if auth_refresh_s is not None
                else REFRESH_INTERVAL_S)
        # signed-bearer-token secret (logged_user.rs LoggedUser analog;
        # persisted per deployment like the reference's get_random_key)
        from .state.token_auth import load_or_create_secret
        self.auth_secret = load_or_create_secret(state_dir)

    # ---- materialized views --------------------------------------------

    def _view(self, name: str, build):
        """View ``name``, built once per server by ``build`` (double-checked
        under a lock, so concurrent first requests build it once)."""
        if name not in self._views:
            with self._views_lock:
                if name not in self._views:
                    self._views[name] = build()
        return self._views[name]

    def _enriched(self):
        """The enriched intrusion view: geocharts, ``intrusion_log`` pages,
        the insert's key probe and cleanup read it."""
        from .pipelines.reports import enriched
        return self._view("enriched",
                          lambda: enriched(self.sf_dir).materialize())

    def _messages(self):
        """The message view with its ``id`` column: ``log_messages``
        pages, the tombstone filter and ``DELETE`` read it."""
        from .functions.hashing import hash64_stable
        from .pipelines.reports import messages

        def add_id(b: pa.Table) -> pa.Table:
            key = pc.binary_join_element_wise(
                pc.cast(b["conv_id"], pa.string()),
                pc.cast(b["turn_idx"], pa.string()), "|")
            ids = hash64_stable(key).view(np.int64)
            return b.append_column("id", pa.array(ids))

        return self._view("messages", lambda: messages(self.sf_dir).map_batches(
            add_id, batch_format="pyarrow", batch_size=None).materialize())

    def _spool(self):
        """The spool as one materialized block (None while empty), read
        from disk on first use; ``insert_intrusion_log`` refreshes it."""
        def load():
            files = sorted(
                os.path.join(self.spool_dir, f)
                for f in os.listdir(self.spool_dir) if f.endswith(".parquet"))
            if files:
                self._spool_rows = pa.concat_tables(
                    pq.read_table(f, schema=_SPOOL_SCHEMA) for f in files)
            return self._spool_block()
        return self._view("spool", load)

    def _spool_block(self):
        import ray.data as rd
        return None if self._spool_rows is None \
            else rd.from_arrow(self._spool_rows)

    def _watermark(self, service, server):
        """Latest ``datetime`` of the rows a geochart counts (country
        known, optional service/server filter): the upper end of its
        ``ndays`` window.  Read from one max per (service, server),
        computed once per server — the corpus never changes under it."""
        from .stages import aggregate as agg
        marks = self._view("watermarks", lambda: agg.grouped_max(
            self._enriched().map_batches(
                lambda b: b.filter(pc.is_valid(b["country"])),
                batch_format="pyarrow", batch_size=None),
            ["service", "server"], "datetime", "hi").to_pandas())
        if not len(marks):  # an empty result may come back without columns
            return None
        m = pd.Series(True, index=marks.index)
        if service is not None:
            m &= marks["service"] == service
        if server is not None:
            m &= marks["server"] == server
        hi = marks["hi"][m].max()
        return None if pd.isna(hi) else hi

    # ---- intrusion log (corpus + spool) --------------------------------

    def intrusion_log_ds(self):
        """Everything the server serves: the enriched corpus view UNION the
        spool.  Corpus blocks carry more columns than the spool's
        ``_SPOOL_SCHEMA``: consumers project in their own per-block
        function (a separate projection map would add an operator to
        every request's plan)."""
        ds, spool = self._enriched(), self._spool()
        return ds if spool is None else ds.union(spool)

    def intrusion_log_page(self, service=None, server=None, offset=0,
                           limit=10):
        """One page of ``intrusion_log_ds`` (security_log_http.rs
        intrusion_log GET): newest first."""
        def keep(b: pa.Table) -> pa.Table:
            b = b.select(_SPOOL_SCHEMA.names)
            m = pa.array([True] * b.num_rows)
            if service is not None:
                m = pc.and_(m, pc.equal(b["service"], service))
            if server is not None:
                m = pc.and_(m, pc.equal(b["server"], server))
            return b.filter(pc.fill_null(m, False))

        return _page(self.intrusion_log_ds(), keep, _ILOG_ORDER, offset,
                     limit)

    def insert_intrusion_log(self, updates: list[dict]) -> int:
        """Idempotent insert (K1 analog of models.rs ON CONFLICT DO
        NOTHING): dedup within the payload, then anti-join the tiny
        update batch against the corpus's natural keys INSIDE the plan
        (the corpus streams through the size-aware membership probe; it is
        never collected to the driver), then append one spool shard."""
        import ray.data as rd
        from .stages.dedup import NATURAL_KEY
        from .stages.joins import anti_join
        if not updates:
            return 0
        df = pd.DataFrame(updates)
        for c in NATURAL_KEY:
            if c not in df.columns:
                df[c] = None
        df = df[NATURAL_KEY]
        df["datetime"] = pd.to_datetime(df["datetime"], utc=True,
                                        format="ISO8601") \
            .dt.tz_localize(None).astype("datetime64[us]")
        df = df.drop_duplicates(NATURAL_KEY)

        # one concatenated key column on both sides (vectorized) so the
        # composite natural key probes through the single-key anti_join
        def with_key(b: pa.Table) -> pa.Table:
            parts = [pc.fill_null(pc.cast(b[c], pa.string()), "<N>")
                     for c in NATURAL_KEY]
            return b.append_column(
                "__nk", pc.binary_join_element_wise(*parts, "|"))

        # the whole check-then-write runs under the lock: two concurrent
        # POSTs of the same row must not BOTH anti-join before either
        # writes its spool shard (r03 review: duplicate inserts defeated
        # the ON-CONFLICT-DO-NOTHING idempotency this implements)
        with self.lock:
            upd = rd.from_pandas(df).map_batches(
                with_key, batch_format="pyarrow", batch_size=None)
            corpus_keys = self.intrusion_log_ds().map_batches(
                lambda b: with_key(b).select(["__nk"]),
                batch_format="pyarrow", batch_size=None)
            # empty Ray results lose column metadata in to_pandas ->
            # tolerant drop
            fresh = anti_join(upd, corpus_keys, "__nk", "__nk") \
                .to_pandas().drop(columns="__nk", errors="ignore")
            if len(fresh):
                shard = os.path.join(self.spool_dir,
                                     f"spool-{int(time.time()*1e6)}.parquet")
                # explicit schema: an all-None column (username is null for
                # nginx/apache-style rows) would otherwise infer Arrow
                # `null` type and poison the corpus-union schema forever
                rows = pa.Table.from_pandas(
                    fresh, schema=_SPOOL_SCHEMA, preserve_index=False)
                pq.write_table(rows, shard)
                self._spool_rows = rows if self._spool_rows is None \
                    else pa.concat_tables([self._spool_rows, rows])
                self._views["spool"] = self._spool_block()
        return len(fresh)

    # ---- host_country (derived dim + posted overrides) -----------------

    def host_country_df(self) -> pd.DataFrame:
        from . import synth
        hosts, codes = synth.host_country_rows()
        df = pd.DataFrame({"host": hosts, "code": codes})
        df["ipaddr"] = df["host"].map(_host_ipaddr)
        df["created_at"] = _DERIVED_CREATED_AT
        if os.path.exists(self.host_country_path):
            over = pq.read_table(self.host_country_path).to_pandas()
            df = pd.concat([over, df], ignore_index=True) \
                .drop_duplicates("host", keep="first")  # overrides win
        return df.sort_values("host").reset_index(drop=True)

    def upsert_host_country(self, rows: list[dict]) -> int:
        if not rows:
            return 0
        df = pd.DataFrame(rows)
        for c in ("host", "code", "ipaddr", "created_at"):
            if c not in df.columns:
                df[c] = None
        df = df[["host", "code", "ipaddr", "created_at"]] \
            .drop_duplicates("host")
        with self.lock:
            if os.path.exists(self.host_country_path):
                old = pq.read_table(self.host_country_path).to_pandas()
                df = pd.concat([df, old], ignore_index=True) \
                    .drop_duplicates("host", keep="first")
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                           self.host_country_path)
        return len(df)

    def cleanup(self) -> list[dict]:
        """Dangling hosts -> whois-analog country -> upsert; returns the
        inserted rows (security_log_http.rs:443-461 host_country_cleanup).
        Dangling = distinct enriched-view hosts with no host_country row
        (``reports.dangling_hosts`` over the view)."""
        from .stages.dedup import distinct_rows
        from .stages.enrich import resolve_host
        miss = self._enriched().map_batches(
            lambda b: b.filter(pc.is_null(b["code"])),
            batch_format="pyarrow", batch_size=None)
        hosts = sorted(distinct_rows(miss, ["host"]).to_pandas()["host"])
        rows = []
        for h in hosts:
            code = resolve_host(h)
            if code is not None:
                rows.append({"host": h, "code": code,
                             "ipaddr": _host_ipaddr(h),
                             "created_at": _DERIVED_CREATED_AT})
        self.upsert_host_country(rows)
        return rows

    # ---- log messages (+ delete tombstones) ----------------------------

    def _tombstones(self) -> set[int]:
        if os.path.exists(self.tombstone_path):
            with open(self.tombstone_path) as f:
                return set(json.load(f))
        return set()

    def messages_page(self, log_level=None, log_unit=None, min_date=None,
                      max_date=None, offset=0, limit=10):
        """One page of the message view, oldest first, deleted ids hidden
        (security_log_http.rs:523-571)."""
        tomb = self._tombstones()
        tomb_arr = pa.array(sorted(tomb), pa.int64()) if tomb else None

        def keep(b: pa.Table) -> pa.Table:
            m = pa.array([True] * b.num_rows)
            if log_level is not None:
                m = pc.and_(m, pc.equal(b["log_level"], log_level))
            if log_unit is not None:
                m = pc.and_(m, pc.equal(b["log_unit"], log_unit))
            if min_date is not None:
                m = pc.and_(m, pc.greater_equal(
                    b["log_timestamp"],
                    pa.scalar(min_date).cast(pa.timestamp("us"))))
            if max_date is not None:
                m = pc.and_(m, pc.less(
                    b["log_timestamp"],
                    pa.scalar(max_date).cast(pa.timestamp("us"))))
            if tomb_arr is not None:
                m = pc.and_(m, pc.invert(pc.is_in(b["id"],
                                                  value_set=tomb_arr)))
            return b.filter(pc.fill_null(m, False))

        return _page(self._messages(), keep, _MSG_ORDER, offset, limit)

    def delete_message(self, msg_id: int) -> int:
        """One scan of the message view counts the rows the tombstone will
        hide; the tombstone set itself is tiny and persisted as JSON."""
        tomb = self._tombstones()
        n_modified = 0
        if msg_id not in tomb:
            hits = _per_block(self._messages(), lambda b: b.filter(
                pc.equal(b["id"], msg_id)).select(["id"]))
            n_modified = 0 if hits is None else hits.num_rows
        if n_modified:
            with self.lock:
                # re-read under the lock: the set read before the long
                # distributed count is a stale snapshot, and persisting it
                # would silently resurrect concurrently deleted ids
                tomb = self._tombstones()
                tomb.add(msg_id)
                with open(self.tombstone_path, "w") as f:
                    json.dump(sorted(tomb), f)
        return n_modified

    # ---- geochart endpoints --------------------------------------------

    def country_rows(self, service=None, server=None, ndays=None) -> str:
        """``[['Country', 'Number'],["CC", n],...]`` — the reference's data
        string (security_log_http.rs:108-122).  Recency is relative to the
        corpus watermark (the sandbox corpus is fixed in time)."""
        from .stages import aggregate as agg

        def flt(b: pa.Table) -> pa.Table:
            m = pc.is_valid(b["country"])
            if service is not None:
                m = pc.and_(m, pc.equal(b["service"], service))
            if server is not None:
                m = pc.and_(m, pc.equal(b["server"], server))
            return b.filter(pc.fill_null(m, False))

        ds = self._enriched().map_batches(
            flt, batch_format="pyarrow", batch_size=None)
        if ndays is not None:
            hi = self._watermark(service, server)
            if hi is None:
                # empty filtered set: no watermark — serve the empty chart
                # instead of 500ing
                ndays = None
        if ndays is not None:
            try:
                lo = pd.Timestamp(hi) - pd.Timedelta(days=ndays)
            except (OverflowError, pd.errors.OutOfBoundsTimedelta,
                    pd.errors.OutOfBoundsDatetime):
                lo = None  # window covers everything: skip the cut
            if lo is not None:
                ds = ds.map_batches(
                    lambda b: b.filter(pc.greater_equal(
                        b["datetime"],
                        pa.scalar(lo).cast(pa.timestamp("us")))),
                    batch_format="pyarrow", batch_size=None)
        # <= one row per country: sorted on the driver (an empty result
        # may come back without columns)
        counts = agg.grouped_count(ds, ["country"]).to_pandas()
        if len(counts):
            counts = counts.sort_values(["cnt", "country"],
                                        ascending=[False, True])
        rows = ",".join(f'["{r.country}", {r.cnt}]'
                        for r in counts.itertuples())
        return f"[['Country', 'Number'],{rows}]"


def openapi_spec() -> dict:
    """OpenAPI 3.1 description of the serving surface — parity with the
    reference's generated spec (/root/reference/scripts/openapi.yaml, 9
    paths / 11 operations, written by the security_log_http.rs:718-745
    test from its /security_log/openapi/yaml route).  operationIds match
    the reference's (including its 'intursion_log_get' typo) so the specs
    diff cleanly."""
    def resp(desc, ctype="application/json", schema=None):
        return {"description": desc,
                "content": {ctype: {"schema": schema or {"type": "object"}}}}

    page = [{"name": "offset", "in": "query", "required": False,
             "schema": {"type": "integer"}},
            {"name": "limit", "in": "query", "required": False,
             "schema": {"type": "integer"}}]
    attempts_params = [
        {"name": "service", "in": "query", "required": False,
         "schema": {"type": "string"}},
        {"name": "location", "in": "query", "required": False,
         "schema": {"type": "string"}}]
    return {
        "openapi": "3.1.0",
        "info": {"title": "Visualizations of Security Log Data",
                 "description": "Ray-Data-native rebuild of the security"
                                " log analysis serving surface",
                 "version": "0.1.0"},
        "paths": {
            "/security_log/cleanup": {"post": {
                "operationId": "host_country_cleanup",
                "responses": {"200": resp("Host Country Cleanup")}}},
            "/security_log/host_country": {
                "get": {"operationId": "host_country_get",
                        "parameters": page,
                        "responses": {"200": resp("Host Countries")}},
                "post": {"operationId": "host_country_post",
                         "responses": {"201": resp("Inserted Host"
                                                   " Countries",
                                                   "text/html",
                                                   {"type": "string"})}}},
            "/security_log/intrusion_attempts": {"get": {
                "operationId": "intrusion_attempts",
                "parameters": attempts_params + [
                    {"name": "ndays", "in": "query", "required": False,
                     "schema": {"type": "integer"}}],
                "responses": {"200": resp("Intrusion Attempts",
                                          "text/html",
                                          {"type": "string"})}}},
            "/security_log/intrusion_attempts/all": {"get": {
                "operationId": "intrusion_attempts_all",
                "parameters": attempts_params,
                "responses": {"200": resp("All Intrusion Attempts",
                                          "text/html",
                                          {"type": "string"})}}},
            "/security_log/intrusion_log": {
                "get": {"operationId": "intursion_log_get",
                        "parameters": page + [
                            {"name": "service", "in": "query",
                             "required": False,
                             "schema": {"type": "string"}},
                            {"name": "server", "in": "query",
                             "required": False,
                             "schema": {"type": "string"}}],
                        "responses": {"200": resp("Intrusion Log"
                                                  " Entries")}},
                "post": {"operationId": "intrusion_log_post",
                         "responses": {"201": resp("Inserted Intrusion"
                                                   " Log Entries",
                                                   "text/html",
                                                   {"type": "string"})}}},
            "/security_log/log_messages": {"get": {
                "operationId": "get_log_messages",
                "parameters": page + [
                    {"name": n, "in": "query", "required": False,
                     "schema": {"type": "string"}}
                    for n in ("log_level", "log_unit", "min_date",
                              "max_date")],
                "responses": {"200": resp("Log Messages")}}},
            "/security_log/log_messages/{id}": {"delete": {
                "operationId": "delete_log_message",
                "parameters": [{"name": "id", "in": "path",
                                "required": True,
                                "schema": {"type": "integer"}}],
                "responses": {"200": resp("Deleted Log Message",
                                          "text/html",
                                          {"type": "string"}),
                              "204": resp("No Such Message",
                                          "text/html",
                                          {"type": "string"})}}},
            "/security_log/map_script.js": {"get": {
                "operationId": "map_script",
                "responses": {"200": resp("Map Drawing Script",
                                          "text/javascript",
                                          {"type": "string"})}}},
            "/security_log/user": {"get": {
                "operationId": "user",
                "responses": {"200": resp("Logged User"),
                              "401": resp("Not Authorized"),
                              "403": resp("Forbidden")}}},
        },
    }


_MAP_SCRIPT = """function draw_map(input) {
    function drawRegionsMap() {
      var data = google.visualization.arrayToDataTable(input);
      var chart = new google.visualization.GeoChart(
        document.getElementById('regions_div'));
      chart.draw(data, {});
    }
    google.load("visualization", "1", {packages:["geochart"]});
    google.setOnLoadCallback(drawRegionsMap);
}
"""

_INDEX_BODY = """<html><head>
<script type="text/javascript" src="https://www.google.com/jsapi"></script>
<script type="text/javascript" src="/security_log/map_script.js"></script>
<script type="text/javascript">
!function(){{
    let data = {data};
    draw_map(data);
}}()
</script>
</head><body>
<div id="regions_div" style="width: 900px; height: 500px;"></div>
</body></html>"""


def _json_default(o):
    if isinstance(o, (pd.Timestamp,)):
        return o.isoformat()
    if hasattr(o, "item"):
        return o.item()
    return str(o)


class _Handler(BaseHTTPRequestHandler):
    state: AppState  # injected by make_server

    def log_message(self, *a):  # quiet test output
        pass

    def _send(self, code: int, body: str, ctype="application/json"):
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _q(self):
        u = urlparse(self.path)
        return u.path.rstrip("/"), {k: v[0] for k, v in
                                    parse_qs(u.query).items()}

    def _body_json(self):
        n = int(self.headers.get("Content-Length", "0"))
        return json.loads(self.rfile.read(n) or b"{}")

    def do_GET(self):  # noqa: N802 (http.server API)
        path, q = self._q()
        st = self.state
        try:
            if path in ("/security_log/openapi/json",
                        "/security_log/openapi/yaml"):
                ctype = ("text/yaml" if path.endswith("yaml")
                         else "application/json")
                self._send(200, json.dumps(openapi_spec(), indent=1),
                           ctype)
            elif path == "/security_log/map_script.js":
                self._send(200, _MAP_SCRIPT, "text/javascript")
            elif path in ("/security_log/intrusion_attempts",
                          "/security_log/intrusion_attempts/all"):
                all_ = path.endswith("/all")
                ndays = None if all_ else _count_param(q, "ndays", 30)
                service = q.get("service", "ssh")
                server = q.get("location", q.get("server"))
                cache = st.attempts_all_cache if all_ else st.attempts_cache
                key = f"{service}|{server}|{ndays}"
                data = cache.get_or_compute(
                    key, lambda: st.country_rows(service, server, ndays))
                self._send(200, _INDEX_BODY.format(data=data), "text/html")
            elif path == "/security_log/intrusion_log":
                offset = _count_param(q, "offset", 0)
                limit = _count_param(q, "limit", 10)
                total, page = st.intrusion_log_page(
                    q.get("service"), q.get("server"), offset, limit)
                self._send(200, json.dumps({
                    "pagination": {"total": total, "offset": offset,
                                   "limit": limit},
                    "data": page.to_dict("records")},
                    default=_json_default))
            elif path == "/security_log/host_country":
                offset = _count_param(q, "offset", 0)
                limit = _count_param(q, "limit", 10)
                df = st.host_country_df()
                self._send(200, json.dumps({
                    "pagination": {"total": len(df), "offset": offset,
                                   "limit": limit},
                    "data": df.iloc[offset:offset + limit]
                    .to_dict("records")}, default=_json_default))
            elif path == "/security_log/user":
                # LoggedUser extraction (logged_user.rs:26-115 analog):
                # a signed bearer token (Authorization header or ``jwt``
                # cookie) + matching session-id -> 401 on any signature/
                # expiry/session failure, 403 when the token verifies but
                # the email is not in the refreshed auth cache (T5).
                # Back-compat: X-User-Email (no token) keeps the r03
                # cache-membership path; with neither and no users store,
                # the route serves the fixed local principal.
                cookies = self.headers.get("Cookie", "")
                jar = dict(p.strip().split("=", 1)
                           for p in cookies.split(";") if "=" in p)
                authz = self.headers.get("Authorization", "")
                tok = (authz[7:] if authz.startswith("Bearer ")
                       else jar.get("jwt"))
                if tok is not None:
                    from .state.token_auth import verify_token
                    claims = verify_token(tok, st.auth_secret)
                    sid = (self.headers.get("X-Session-Id")
                           or jar.get("session-id"))
                    if claims is None or sid != claims["session"]:
                        self._send(401, json.dumps(
                            {"error": "unauthorized"}))
                    else:
                        # ONE cache read (no is_authorized/get TOCTOU
                        # against the background refresh swap)
                        row = (st.auth_cache.get(claims["email"])
                               if st.auth_cache is not None else
                               {"email": claims["email"],
                                "created_at": _DERIVED_CREATED_AT})
                        if row is None:
                            self._send(403, json.dumps(
                                {"error": "forbidden"}))
                        else:
                            row["session"] = claims["session"]
                            self._send(200, json.dumps(
                                row, default=_json_default))
                elif st.auth_cache is not None:
                    email = self.headers.get("X-User-Email")
                    row = (st.auth_cache.get(email)
                           if st.auth_cache.is_authorized(email) else None)
                    if row is None:
                        self._send(401, json.dumps({"error": "unauthorized"}))
                    else:
                        row.setdefault("session", "local")
                        self._send(200, json.dumps(row,
                                                   default=_json_default))
                else:
                    self._send(200, json.dumps(
                        {"email": "user@localhost", "session": "local",
                         "created_at": _DERIVED_CREATED_AT}))
            elif path == "/security_log/log_messages":
                offset = _count_param(q, "offset", 0)
                limit = _count_param(q, "limit", 10)
                total, page = st.messages_page(
                    log_level=q.get("log_level"),
                    log_unit=q.get("log_unit"),
                    min_date=q.get("min_date"),
                    max_date=q.get("max_date"),
                    offset=offset, limit=limit)
                self._send(200, json.dumps({
                    "pagination": {"total": total, "offset": offset,
                                   "limit": limit},
                    "data": page.to_dict("records")},
                    default=_json_default))
            else:
                self._send(404, json.dumps({"error": "not found"}))
        except _BadRequest as exc:
            self._send(400, json.dumps({"error": str(exc)}))
        except Exception as exc:  # noqa: BLE001 — serving layer boundary
            self._send(500, json.dumps({"error": str(exc)}))

    def do_POST(self):  # noqa: N802
        path, _ = self._q()
        st = self.state
        try:
            if path == "/security_log/intrusion_log":
                payload = self._body_json()
                n = st.insert_intrusion_log(payload.get("updates", []))
                self._send(201, f"Inserts {n}", "text/html")
            elif path == "/security_log/host_country":
                payload = self._body_json()
                n = st.upsert_host_country(payload.get("updates", []))
                self._send(201, f"Inserts {n}", "text/html")
            elif path == "/security_log/cleanup":
                self._send(200, json.dumps(st.cleanup()))
            else:
                self._send(404, json.dumps({"error": "not found"}))
        except Exception as exc:  # noqa: BLE001
            self._send(500, json.dumps({"error": str(exc)}))

    def do_DELETE(self):  # noqa: N802
        path, _ = self._q()
        m = re.match(r"^/security_log/log_messages/(-?\d+)$", path)
        try:
            if m:
                msg_id = int(m.group(1))
                n = self.state.delete_message(msg_id)
                self._send(204 if n == 0 else 200,
                           f"deleted {msg_id}, {n} modified", "text/html")
            else:
                self._send(404, json.dumps({"error": "not found"}))
        except Exception as exc:  # noqa: BLE001
            self._send(500, json.dumps({"error": str(exc)}))


def make_server(sf_dir: str, state_dir: str, port: int = 0,
                users_path: str | None = None,
                auth_refresh_s: float | None = None) -> ThreadingHTTPServer:
    """Loopback server over ``sf_dir``; ``port=0`` picks a free port.
    ``users_path`` enables the T5 auth-user cache + refresh loop."""
    state = AppState(sf_dir, state_dir, users_path=users_path,
                     auth_refresh_s=auth_refresh_s)
    handler = type("Handler", (_Handler,), {"state": state})
    srv = ThreadingHTTPServer(("127.0.0.1", port), handler)
    srv.app_state = state  # tests reach the caches; close() stops the loop
    _orig_close = srv.server_close

    def _close():
        if state.auth_cache is not None:
            state.auth_cache.stop()
        _orig_close()

    srv.server_close = _close
    return srv


def run_server(sf_dir: str, state_dir: str, port: int) -> None:
    srv = make_server(sf_dir, state_dir, port)
    print(json.dumps({"serving": f"http://127.0.0.1:{srv.server_port}"}),
          flush=True)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
