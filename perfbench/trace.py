"""Span tracing for the benchmark's traced run.

Everything here is installed from the benchmark at run time; no package
file is edited.  A span is ``{id, parent, op, name, layer, start, end, pid,
attrs}``; ``op`` is the id of the benchmark operation (batch pass or HTTP
request) that caused it.

* In the benchmark's main process, public functions of the package are
  wrapped (``install_main``): the ingest pipeline and manifest, the
  aggregate / dedup / join stage entry points, the serving-layer
  ``AppState`` methods, the TTL query cache, ``Dataset.write_parquet`` and
  Ray Data's executor (one ``ray.exec`` span per plan execution).
* ``Dataset.map_batches`` is wrapped too, so every function UDF handed to
  Ray is shipped inside a ``TracedUDF``.  In the Ray worker, the wrapper
  records the UDF call as a span (rows and bytes in and out), and on its
  first call in that process also wraps the ``grok`` kernels.  Worker spans
  stay in memory for the duration of one UDF call and are appended to a
  per-process file when it returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

from . import stats

PKG = "security_log_analysis_rust_ray"


class Recorder:
    """Per-process span store; spans nest through a per-thread stack."""

    def __init__(self, path: str):
        self.path = path
        self.pid = os.getpid()
        self.buf: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> dict | None:
        st = self._stack()
        return st[-1] if st else None

    def open(self, name: str, layer: str, parent: str | None = None,
             op: str | None = None, **attrs) -> dict:
        cur = self.current()
        return {"id": f"{self.pid}-{next(self._ids)}",
                "parent": parent if parent is not None
                else (cur["id"] if cur else None),
                "op": op if op is not None else (cur["op"] if cur else None),
                "name": name, "layer": layer, "pid": self.pid,
                "start": time.time(), "end": None, "attrs": attrs}

    def close(self, span: dict) -> None:
        span["end"] = time.time()
        with self._lock:
            self.buf.append(span)

    def span(self, name: str, layer: str, **kw):
        return _Span(self, name, layer, kw)

    def flush(self) -> None:
        with self._lock:
            buf, self.buf = self.buf, []
        if buf:
            with open(self.path, "a") as fh:
                fh.write("".join(json.dumps(s) + "\n" for s in buf))


class _Span:
    def __init__(self, rec: Recorder, name: str, layer: str, kw: dict):
        self.rec, self.name, self.layer, self.kw = rec, name, layer, kw

    def __enter__(self) -> dict:
        self.span = self.rec.open(self.name, self.layer, **self.kw)
        if self.span["op"] is None and self.layer == "op":
            self.span["op"] = self.span["id"]
        self.rec._stack().append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.rec._stack().pop()
        self.rec.close(self.span)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

_WORKER: Recorder | None = None
_GROK = {"extract_ssh": "grok.ssh", "extract_apache": "grok.apache",
         "extract_nginx": "grok.nginx", "classify_level": "grok.level"}


def _worker_recorder(trace_dir: str) -> Recorder:
    global _WORKER
    if _WORKER is None or _WORKER.pid != os.getpid():
        _WORKER = Recorder(os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl"))
        _patch_grok(_WORKER)
    return _WORKER


def _patch_grok(rec: Recorder) -> None:
    from security_log_analysis_rust_ray.functions import grok
    for attr, name in _GROK.items():
        orig = getattr(grok, attr)

        def wrapper(text, *a, _orig=orig, _name=name, **kw):
            with rec.span(_name, "grok", rows=len(text)):
                return _orig(text, *a, **kw)

        setattr(grok, attr, wrapper)


def _rows(t) -> int:
    n = getattr(t, "num_rows", None)
    return int(n) if n is not None else len(t)


class TracedUDF:
    """Picklable stand-in for a ``map_batches`` function UDF."""

    def __init__(self, fn, name: str, layer: str, parent: str | None,
                 op: str | None, trace_dir: str):
        self.fn, self.name, self.layer = fn, name, layer
        self.parent, self.op, self.trace_dir = parent, op, trace_dir
        self.__name__ = getattr(fn, "__name__", name)

    def __call__(self, batch, *args, **kwargs):
        rec = _worker_recorder(self.trace_dir)
        with rec.span(self.name, self.layer, parent=self.parent,
                      op=self.op) as s:
            out = self.fn(batch, *args, **kwargs)
            s["attrs"].update(rows_in=_rows(batch), rows_out=_rows(out),
                              bytes_in=int(getattr(batch, "nbytes", 0)))
            if self.layer == "enrich" and "host" in batch.column_names:
                import pyarrow.compute as pc
                s["attrs"].update(
                    unique_hosts=pc.count_distinct(batch["host"]).as_py(),
                    hosts=len(batch) - batch["host"].null_count,
                    matched=len(out) - out["code"].null_count)
        rec.flush()
        return out


_MODULE_LAYER = {"parse": "parse", "enrich": "enrich", "aggregate": "aggregate",
                 "dedup": "dedup", "joins": "joins", "serve": "serve",
                 "ingest": "ingest"}


def udf_layer(fn) -> tuple[str, str]:
    """(layer, short name) of a UDF from its defining module and name."""
    short = getattr(fn, "__qualname__", getattr(fn, "__name__", "udf"))
    short = short.rsplit(".", 1)[-1]
    mod = getattr(fn, "__module__", "") or ""
    layer = _MODULE_LAYER.get(mod.rsplit(".", 1)[-1], "other") \
        if mod.startswith(PKG) else "other"
    if short == "parse_keep_shard":      # ingest's route_parse stage
        layer = "parse"
    return layer, short


# ---------------------------------------------------------------------------
# main-process side
# ---------------------------------------------------------------------------

def install_main(rec: Recorder, trace_dir: str) -> dict:
    """Wrap the package's public entry points and Ray Data hooks in this
    process.  Returns the counters filled in along the way."""
    import ray.data
    from ray.data._internal.execution import streaming_executor as se

    from security_log_analysis_rust_ray import serve
    from security_log_analysis_rust_ray.pipelines import ingest
    from security_log_analysis_rust_ray.stages import aggregate, dedup, joins
    from security_log_analysis_rust_ray.state import manifest, query_cache

    counts = {"partitions": [], "probe_keys": 0, "scanned": 0, "pending": 0}

    def wrap(owner, attr, name, layer, after=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            with rec.span(name, layer) as s:
                out = orig(*a, **kw)
                if after is not None:
                    after(s, a, kw, out)
                return out

        setattr(owner, attr, wrapper)

    def scanned(_s, a, _kw, out):
        counts["scanned"] += sum(1 for f in os.listdir(a[0])
                                 if f.endswith(".parquet"))
        counts["pending"] += len(out)

    def probed(_s, _a, _kw, out):
        if out[1] is not None:
            counts["probe_keys"] += len(out[1])

    wrap(ingest, "run_ingest", "ingest.run_ingest", "ingest")
    wrap(ingest, "scan_pending", "ingest.pending_scan", "ingest", scanned)
    wrap(ingest, "_written_stats", "ingest.commit_stats", "ingest")
    wrap(manifest.Manifest, "record", "manifest.record", "manifest")
    wrap(aggregate, "grouped_count", "aggregate.grouped_count", "aggregate")
    wrap(dedup, "dedup_keep_first", "dedup.dedup_keep_first", "dedup")
    wrap(dedup, "distinct_rows", "dedup.distinct_rows", "dedup")
    wrap(dedup, "_num_partitions", "dedup.num_partitions", "dedup",
         lambda _s, _a, _kw, out: counts["partitions"].append(out))
    wrap(joins, "anti_join", "joins.anti_join", "joins")
    wrap(joins, "_distinct_probe_keys", "joins.probe_keys", "joins", probed)
    wrap(query_cache.TTLCache, "get_or_compute", "query_cache.get",
         "query_cache")
    for m in ("intrusion_log_ds", "insert_intrusion_log", "messages_page",
              "delete_message", "country_rows"):
        wrap(serve.AppState, m, f"serve.{m}", "serve")

    orig_write = ray.data.Dataset.write_parquet

    @functools.wraps(orig_write)
    def write_parquet(self, path, *a, **kw):
        part = bool(kw.get("partition_cols"))
        with rec.span("ingest.write_parquet", "ingest", partitioned=part):
            return orig_write(self, path, *a, **kw)

    ray.data.Dataset.write_parquet = write_parquet

    orig_map = ray.data.Dataset.map_batches
    seen: dict[int, int] = {}

    @functools.wraps(orig_map)
    def map_batches(self, fn, *a, **kw):
        if callable(fn) and not isinstance(fn, type):
            layer, short = udf_layer(fn)
            k = seen.get(id(fn), 0)
            seen[id(fn)] = k + 1
            cur = rec.current()
            fn = TracedUDF(fn, f"{layer}.{short}" + (f"#{k}" if k else ""),
                           layer, cur["id"] if cur else None,
                           cur["op"] if cur else None, trace_dir)
        return orig_map(self, fn, *a, **kw)

    ray.data.Dataset.map_batches = map_batches

    orig_exec, orig_shut = se.StreamingExecutor.execute, \
        se.StreamingExecutor.shutdown

    def execute(self, *a, **kw):
        self._perfbench_span = rec.open("ray.exec", "ray")
        return orig_exec(self, *a, **kw)

    def shutdown(self, *a, **kw):
        try:
            return orig_shut(self, *a, **kw)
        finally:
            span = getattr(self, "_perfbench_span", None)
            if span is not None and span["end"] is None:
                rec.close(span)

    se.StreamingExecutor.execute = execute
    se.StreamingExecutor.shutdown = shutdown
    return counts


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for fn in sorted(os.listdir(trace_dir)):
        if fn.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fn)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return [s for s in spans if s["end"] is not None]


# ---------------------------------------------------------------------------
# span tree -> per-layer numbers
# ---------------------------------------------------------------------------

def link(spans: list[dict]) -> dict[str, list[dict]]:
    """Children per span id.  Worker UDF spans hang under the ``ray.exec``
    span that was running when they ran (their plan-time parent otherwise);
    main-process spans opened outside the operation's thread (HTTP handler,
    executor threads) hang under the operation that contains them."""
    execs = sorted((s for s in spans if s["name"] == "ray.exec"),
                   key=lambda s: s["start"])
    ops = [s for s in spans if s["layer"] == "op"]
    ids = {s["id"] for s in spans}
    main_pid = _main_pid(spans)
    children: dict[str, list[dict]] = {}
    for s in spans:
        parent = s["parent"] if s["parent"] in ids else None
        mid = (s["start"] + s["end"]) / 2
        if s["layer"] not in ("op", "grok") and s["pid"] != main_pid:
            inside = [e for e in execs if e["start"] <= mid <= e["end"]]
            if inside:
                parent = inside[-1]["id"]
        if parent is None and s["layer"] != "op":
            inside = [o for o in ops if o["start"] <= s["start"] <= o["end"]]
            if inside:
                parent = inside[-1]["id"]
        if parent is not None:
            children.setdefault(parent, []).append(s)
    return children


def _main_pid(spans: list[dict]) -> int | None:
    for s in spans:
        if s["layer"] == "op":
            return s["pid"]
    return None


def span_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each span id (see ``stats.self_time``)."""
    children = link(spans)
    return {s["id"]: stats.self_time(
        s["start"], s["end"],
        [(c["start"], c["end"]) for c in children.get(s["id"], [])])
        for s in spans}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer."""
    own = span_self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + own[s["id"]]
    return out


SELF_LAYERS = ("op", "serve", "query_cache", "ingest", "manifest", "joins",
               "dedup", "aggregate", "enrich", "parse", "grok", "ray",
               "other")
ROUTES = ("attempts_hit", "attempts_miss", "intrusion_log", "log_messages",
          "insert", "delete")
ROUTERS = ("parse.route_parse", "parse.route_parse_hosts",
           "parse.parse_keep_shard")


def layer_metrics(spans: list[dict], counts: dict, extras: dict) -> dict:
    """Per-layer numbers of one traced run (totals over its operations)."""
    main_pid = _main_pid(spans)
    udf = [s for s in spans if s["pid"] != main_pid and s["layer"] != "grok"]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def attr(ss, key):
        return sum(s["attrs"].get(key, 0) for s in ss)

    def named(ss, *names):
        return [s for s in ss if s["name"].split("#")[0] in names]

    def layer(ss, name):
        return [s for s in ss if s["layer"] == name]

    own = span_self_times(spans)
    selfs: dict[str, float] = {}
    for s in spans:
        selfs[s["layer"]] = selfs.get(s["layer"], 0.0) + own[s["id"]]
    grok = layer(spans, "grok")
    routers = named(udf, *ROUTERS)
    enrich = layer(udf, "enrich")
    partial = [s for s in layer(udf, "aggregate")
               if s["name"].split("#")[0] == "aggregate.partial"]
    dd = layer(udf, "dedup")
    dd_pre = [s for s in dd if s["name"] in ("dedup.pre_dedup",
                                             "dedup.batch_distinct")]
    main_spans = [s for s in spans if s["pid"] == main_pid]
    runs = named(main_spans, "ingest.run_ingest")
    writes = [s for s in named(main_spans, "ingest.write_parquet")
              if s["attrs"].get("partitioned")]
    commits = named(main_spans, "ingest.commit_stats", "manifest.record")
    scans = named(main_spans, "ingest.pending_scan")
    execs = named(main_spans, "ray.exec")
    ops = layer(spans, "op")
    m = {
        "read.rows": attr(routers, "rows_in"),
        "read.bytes": attr(routers, "bytes_in"),
        "grok.ssh_s": dur(named(grok, "grok.ssh")),
        "grok.apache_s": dur(named(grok, "grok.apache")),
        "grok.nginx_s": dur(named(grok, "grok.nginx")),
        "grok.level_s": dur(named(grok, "grok.level")),
        "grok.regex_rows": attr(grok, "rows"),
        "parse.busy_s": dur(layer(udf, "parse")),
        "parse.rows_in": attr(routers, "rows_in"),
        "parse.rows_out": attr(routers, "rows_out"),
        "parse.route_ratio": stats.ratio(attr(routers, "rows_out"),
                                         attr(routers, "rows_in")),
        "enrich.busy_s": dur(enrich),
        "enrich.unique_hosts": attr(enrich, "unique_hosts"),
        "enrich.match_ratio": stats.ratio(attr(enrich, "matched"),
                                          attr(enrich, "hosts")),
        "aggregate.partial_rows": attr(partial, "rows_out"),
        "aggregate.blocks": len(partial),
        "aggregate.final_s": sum(own[s["id"]] for s in named(
            main_spans, "aggregate.grouped_count")),
        "dedup.busy_s": dur(dd),
        "dedup.rows_in": attr(dd_pre, "rows_in"),
        "dedup.exchange_rows": attr(dd_pre, "rows_out"),
        "dedup.rows_out": attr(named(dd, "dedup.<lambda>"), "rows_out"),
        "dedup.partitions": max(counts["partitions"], default=0),
        "joins.anti_join_s": dur(named(main_spans, "joins.anti_join")),
        "joins.probe_keys": counts["probe_keys"],
        "ingest.pipeline_s": dur(writes),
        "ingest.commit_s": dur(commits),
        "ingest.pending_scan_s": dur(scans),
        "ingest.final_agg_s": max(0.0, dur(runs) - dur(writes)
                                  - dur(commits) - dur(scans)),
        "ingest.files_written": extras.get("files_written", 0),
        "ingest.bytes_written": extras.get("bytes_written", 0),
        "ingest.skipped_ratio": stats.ratio(
            counts["scanned"] - counts["pending"], counts["scanned"]),
        "manifest.fsyncs": len(named(main_spans, "manifest.record")),
        "query_cache.hits": extras.get("cache_hits", 0),
        "query_cache.misses": extras.get("cache_misses", 0),
        "query_cache.hit_ratio": stats.ratio(
            extras.get("cache_hits", 0),
            extras.get("cache_hits", 0) + extras.get("cache_misses", 0)),
        "serve.executions_per_request": stats.ratio(
            len(execs), len(ops)) if "cache_hits" in extras else 0.0,
        "serve.spool_files": extras.get("spool_files", 0),
        "ray.executions": len(execs),
        "ray.exec_overhead_s": selfs.get("ray", 0.0),
        "ray.workers_started": len({s["pid"] for s in udf}),
    }
    for name in SELF_LAYERS:
        m[f"self_s.{name}"] = selfs.get(name, 0.0)
    return m
