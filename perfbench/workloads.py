"""The benchmark's workloads: input specs, generation, operations, checks.

Generation (``prepare``) runs in the light launching process and never imports
the package.  Everything else runs in a ``worker.py`` process that owns a
Ray session and drives the package through its public functions.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import gen

# ingest: 16 shards, sshd/CLF/nginx/level/negative/filler mix, 50 hosts
INGEST = gen.Knobs(turns=16 * 8_000, shards=16,
                   mix=(0.30, 0.20, 0.10, 0.20, 0.10, 0.10),
                   hosts=50, zipf=0.0, absent_share=8 / 50, dup_rate=0.05)
# report: ssh-heavy, ~20k distinct hosts under Zipf skew (all but 42 absent
# from the host_country dim), 20% natural-key duplicates
REPORT = gen.Knobs(turns=100_000, shards=1,
                   mix=(0.50, 0.15, 0.10, 0.10, 0.05, 0.10),
                   hosts=20_000, zipf=1.1, absent_share=1 - 42 / 20_000,
                   dup_rate=0.20)
# serve: a corpus the size of the sf0.01 testdata (10k turns)
SERVE = gen.Knobs(turns=10_000, shards=1,
                  mix=(0.30, 0.20, 0.10, 0.20, 0.10, 0.10),
                  hosts=50, zipf=0.8, absent_share=8 / 50, dup_rate=0.05)
REWRITTEN, LANDED = "part-00003", "part-00016"

OP_TIMEOUT_S = {"ingest": 90.0, "report": 90.0, "serve": 45.0}


def prepare(workload: str, seed: int, root: str) -> str:
    """Generate (once per workload and seed) and return the data dir."""
    build = {"ingest": _build_ingest, "report": _build_report,
             "serve": _build_serve}[workload]
    return gen.materialize(root, f"{workload}-{seed}",
                           lambda d: build(seed, d))


def _build_ingest(seed: int, d: str) -> None:
    k = INGEST
    base = gen.draw(k, [seed, 0])
    per = k.turns // k.shards
    delta_k = gen.Knobs(**{**gen.knobs_json(k), "turns": per, "shards": 1})
    new3 = gen.draw(gen.Knobs(**{**gen.knobs_json(delta_k),
                                 "conv_offset": 10_000_000}), [seed, 1])
    new16 = gen.draw(gen.Knobs(**{**gen.knobs_json(delta_k),
                                  "conv_offset": 20_000_000}), [seed, 2])
    gen.write_shards(base, k.shards, os.path.join(d, "base"))
    gen.write_shards(new3, 1, os.path.join(d, "delta"), [REWRITTEN])
    gen.write_shards(new16, 1, os.path.join(d, "delta"), [LANDED])
    exp = gen.expectations(base, k.shards)
    kept = base.filter(pa.array(gen.shard_of(base, k.shards) != 3))
    after = pa.concat_tables([kept, new3, new16])
    sinks_after = dict(exp["sink_rows"])
    sinks_after[REWRITTEN] = gen.sink_rows(new3)
    sinks_after[LANDED] = gen.sink_rows(new16)
    gen.write_json(os.path.join(d, "expected.json"), {
        "knobs": gen.knobs_json(k),
        "turns": k.turns,
        "delta_turns": new3.num_rows + new16.num_rows,
        "base": {"sink_rows": exp["sink_rows"], "countries": exp["countries"]},
        "after": {"sink_rows": sinks_after,
                  "countries": gen.country_counts(after)},
    })


def _build_report(seed: int, d: str) -> None:
    f = gen.draw(REPORT, [seed, 0])
    pq.write_table(gen.render(f), os.path.join(d, "transcripts.parquet"))
    gen.write_json(os.path.join(d, "expected.json"), {
        "knobs": gen.knobs_json(REPORT), "turns": f.num_rows,
        "countries": gen.country_counts(f),
        "distinct_keys": gen.distinct_keys(f)})


def _build_serve(seed: int, d: str) -> None:
    f = gen.draw(SERVE, [seed, 0])
    pq.write_table(f, os.path.join(d, "fields.parquet"))
    pq.write_table(gen.render(f), os.path.join(d, "transcripts.parquet"))
    gen.write_json(os.path.join(d, "expected.json"), {
        "knobs": gen.knobs_json(SERVE), "turns": f.num_rows,
        "countries": gen.country_counts(f)})


class Failed(Exception):
    """An output check failed."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise Failed(what)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

class IngestBench:
    """Full ``run_ingest`` pass into a fresh output dir, then an
    incremental pass after one shard is rewritten and one new shard lands.
    Operation classes: ``pass`` (main) and ``incremental`` (second)."""

    main, second = "pass", "incremental"

    def __init__(self, data: str, work: str, seed: int):
        self.data, self.work = data, work
        with open(os.path.join(data, "expected.json")) as fh:
            self.exp = json.load(fh)
        self.base = sorted(os.listdir(os.path.join(data, "base")))
        self.cycle = 0
        self.files_written = 0
        self.bytes_written = 0
        self.pending: list[tuple] = []

    def schedule(self):
        while True:
            yield self.main
            yield self.second

    def _link_inputs(self, in_dir: str, names: list[str]) -> None:
        os.makedirs(in_dir)
        for n in names:
            os.link(os.path.join(self.data, "base", n), os.path.join(in_dir, n))

    def cold(self) -> None:
        """One-shard pass: the cold execution timed as part of set-up."""
        d = os.path.join(self.work, "setup")
        shutil.rmtree(d, ignore_errors=True)
        self._link_inputs(os.path.join(d, "in"), self.base[:1])
        self._ingest(os.path.join(d, "in"), os.path.join(d, "out"))
        shard = self.base[0][:-len(".parquet")]
        rec = self._records(os.path.join(d, "out"))
        _check(rec.get(shard) == self.exp["base"]["sink_rows"][shard],
               f"setup shard {shard} sink_rows {rec.get(shard)}")

    def _ingest(self, in_dir: str, out_dir: str):
        from security_log_analysis_rust_ray.pipelines import ingest
        return ingest.run_ingest("generated", out_dir, in_dir=in_dir)

    def before(self, cls: str) -> None:
        """Stage the operation's input dir (untimed)."""
        if cls == self.main:
            self.cycle += 1
            d = os.path.join(self.work, f"cycle-{self.cycle}")
            shutil.rmtree(d, ignore_errors=True)
            self._link_inputs(os.path.join(d, "in"), self.base)
        else:
            in_dir = os.path.join(self.work, f"cycle-{self.cycle}", "in")
            os.remove(os.path.join(in_dir, REWRITTEN + ".parquet"))
            for n in (REWRITTEN, LANDED):
                os.link(os.path.join(self.data, "delta", n + ".parquet"),
                        os.path.join(in_dir, n + ".parquet"))

    def run(self, cls: str) -> None:
        d = os.path.join(self.work, f"cycle-{self.cycle}")
        self._ingest(os.path.join(d, "in"), os.path.join(d, "out"))

    def after(self, cls: str, tracing: bool) -> None:
        """Capture the state the operation left (untimed); the comparison
        runs after the loop.  Written files are counted for the traced run
        only."""
        out = os.path.join(self.work, f"cycle-{self.cycle}", "out")
        self.pending.append((cls, self._records(out), self._aggregates(out)))
        if tracing:
            self._count_written(out, None if cls == self.main
                                else (REWRITTEN, LANDED))

    def _records(self, out: str) -> dict:
        from security_log_analysis_rust_ray.state.manifest import Manifest
        m = Manifest(os.path.join(out, "manifest.jsonl"))
        return {k: r.get("sink_rows") for k, r in m.records.items()
                if r.get("status") == "done"}

    def _aggregates(self, out: str) -> dict:
        t = pq.read_table(os.path.join(out, "aggregates"))
        return dict(zip(t["country"].to_pylist(), t["cnt"].to_pylist()))

    def _count_written(self, out: str, shards) -> None:
        for root, _dirs, files in os.walk(out):
            rel = os.path.relpath(root, out)
            if shards is not None and not (
                    rel.startswith("aggregates") or any(
                        f"shard={s}" in rel for s in shards)):
                continue
            for fn in files:
                if fn.endswith(".parquet"):
                    self.files_written += 1
                    self.bytes_written += os.path.getsize(
                        os.path.join(root, fn))

    def check(self) -> list[str]:
        errs = []
        for cls, rec, aggs in self.pending:
            want = self.exp["base" if cls == self.main else "after"]
            bad = sorted(k for k in set(rec) | set(want["sink_rows"])
                         if rec.get(k) != want["sink_rows"].get(k))
            if bad:
                errs.append(f"{cls}: manifest sink_rows differ on {bad[:4]}")
            elif aggs != want["countries"]:
                errs.append(f"{cls}: aggregates/ differ from expected "
                            f"({len(aggs)} vs {len(want['countries'])} rows)")
        self.pending.clear()
        return errs

    def turns(self, cls: str) -> int:
        return self.exp["turns"] if cls == self.main else \
            self.exp["delta_turns"]

    def extras(self) -> dict:
        return {"files_written": self.files_written,
                "bytes_written": self.bytes_written}


def link_corpus(data: str, work: str, name: str) -> str:
    """An ``sf_dir`` whose transcripts corpus is the generated one: the
    engine reads transcripts for ``sf_dir`` from its cache dir, keyed by
    the directory's base name."""
    from security_log_analysis_rust_ray import synth
    sf_dir = os.path.join(work, name)
    os.makedirs(sf_dir, exist_ok=True)
    path = synth.transcripts_path(sf_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if not os.path.exists(path):
        os.link(os.path.join(data, "transcripts.parquet"), path)
    return sf_dir


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

class ReportBench:
    """The read-only CLI analyses: the country report
    (``reports.country_counts``: route_parse_hosts -> enrich_batch ->
    grouped_count(small_keyspace) -> sort) and ``cleanup``
    (``reports.parsed_dedup``: route_parse -> intrusion_view ->
    dedup_keep_first, counted).  Classes: ``country`` (main) and
    ``cleanup`` (second)."""

    main, second = "country", "cleanup"

    def __init__(self, data: str, work: str, seed: int):
        with open(os.path.join(data, "expected.json")) as fh:
            self.exp = json.load(fh)
        self.sf_dir = link_corpus(data, work, f"generated-report-{seed}")
        self.pending: list[tuple] = []

    def schedule(self):
        # the first country report after a cleanup runs about twice as
        # slow as the others; three per cycle keep the median among the
        # fast ones
        while True:
            yield self.main
            yield self.main
            yield self.main
            yield self.second

    def cold(self) -> None:
        self.run(self.main)
        errs = self.check()
        _check(not errs, "; ".join(errs))

    def run(self, cls: str) -> None:
        from security_log_analysis_rust_ray.pipelines import reports
        if cls == self.main:
            df = reports.country_counts(self.sf_dir).to_pandas()
            self.pending.append((cls, list(zip(df["country"], df["cnt"]))))
        else:
            self.pending.append(
                (cls, reports.parsed_dedup(self.sf_dir).count()))

    def check(self) -> list[str]:
        errs = []
        want = sorted(self.exp["countries"].items(),
                      key=lambda kv: (-kv[1], kv[0]))
        for cls, got in self.pending:
            if cls == self.main and [(c, int(n)) for c, n in got] != want:
                errs.append(f"country: {len(got)} rows differ from expected")
            elif cls == self.second and got != self.exp["distinct_keys"]:
                errs.append(f"cleanup: {got} rows after dedup, expected "
                            f"{self.exp['distinct_keys']}")
        self.pending.clear()
        return errs

    def turns(self, cls: str) -> int:
        return self.exp["turns"]

    def extras(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

# one cycle of the closed-loop request mix (24 requests): 22 reads and
# the delete in seeded order, with one POST after every 11 of them.
# Sorted by latency the classes fall into three bands: cache hits (8,
# ~ms), single plan executions (misses, pages, the delete: 14) and
# inserts (2, seconds).  Over whole cycles the median sits inside the
# middle band and p90 near its top, neither on a band boundary.
SERVE_READS = (["hit"] * 8 + ["miss"] * 7 + ["intrusion_log"] * 3
               + ["log_messages"] * 3 + ["delete"])
SERVE_POSTS = ["insert", "replay"]
SERVE_CYCLE = SERVE_READS + SERVE_POSTS
WRITES = ("insert", "replay", "delete")
LEVEL_NAMES = tuple(x.lower() for x in gen.LEVELS)
_DATA_RE = re.compile(r"let data = (.*);\n")


def chart(counts: dict[str, int]) -> str:
    """The geochart data string the route must serve for ``counts``."""
    rows = ",".join(f'["{c}", {n}]' for c, n in
                    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return f"[['Country', 'Number'],{rows}]"


class ServeBench:
    """``serve.make_server`` over the generated corpus, one client on one
    keep-alive connection in a closed loop.  Main class: every request;
    second class: POST and DELETE requests."""

    def __init__(self, data: str, work: str, seed: int):
        self.rng = np.random.default_rng([seed, 7])
        self.seed = seed
        self.f = pq.read_table(os.path.join(data, "fields.parquet"))
        self.sf_dir = link_corpus(data, work, f"generated-serve-{seed}")
        self.state_dir = os.path.join(work, "state")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.srv = None
        self.conn = None
        self.fetched: list[str] = []
        self.keys = self._chart_keys()
        self.inserted: list[dict] = []
        self.payloads: list[list[dict]] = []
        self.deleted: dict[int, str] = {}
        self.last_deleted: int | None = None
        self.responses: list[tuple] = []
        self.n_insert = 0
        self._prep_fields()

    # -- expectations from generator fields -------------------------------
    def _prep_fields(self) -> None:
        from security_log_analysis_rust_ray.functions.hashing import \
            hash64_stable
        f = self.f
        fam = f["fam"].to_numpy()
        self.fam = fam
        self.server = f["conv"].to_numpy() % gen.SERVER_MOD
        self.ts = f["ts"].to_numpy()
        lvl = f["level"].to_numpy()
        msg = np.nonzero(fam == gen.FAMILIES.index("level"))[0]
        key = pc.binary_join_element_wise(
            pc.binary_join_element_wise("conv_", pc.cast(
                f["conv"].take(pa.array(msg)), pa.string()), ""),
            pc.cast(f["turn_idx"].take(pa.array(msg)), pa.string()), "|")
        self.msg_ids = hash64_stable(key).view(np.int64)
        self.msg_level = np.asarray(LEVEL_NAMES)[lvl[msg]]
        self.keys_nat = gen.natural_keys(f)

    def _chart_keys(self) -> list[tuple]:
        """Fresh ``(location, ndays)`` geochart parameters for ssh, in
        seeded order; one plan shape, so misses cost alike."""
        locs = [None] + [f"srv{i}" for i in range(gen.SERVER_MOD)]
        keys = [(loc, nd) for loc in locs for nd in range(1, 29)]
        order = self.rng.permutation(len(keys))
        return [keys[i] for i in order]

    def _chart_path(self, key: tuple) -> str:
        """``ndays=None`` is the ``/all`` route."""
        loc, nd = key
        q = "service=ssh" + (f"&location={loc}" if loc else "")
        if nd is None:
            return f"/security_log/intrusion_attempts/all?{q}"
        return f"/security_log/intrusion_attempts?{q}&ndays={nd}"

    def _chart_expected(self, key: tuple) -> str:
        loc, nd = key
        since = None
        if nd is not None:
            m = (self.fam == 0) & gen.in_dim(self.f["host_k"].to_numpy())
            if loc:
                m &= self.server == int(loc[3:])
            if m.any():
                since = self.ts[m].max() - np.timedelta64(nd, "D")
        return chart(gen.country_counts(self.f, loc, since))

    # -- server lifecycle ---------------------------------------------------
    def cold(self) -> None:
        """Start the server and serve the first geochart (a cold miss)."""
        import http.client
        import threading

        from security_log_analysis_rust_ray import serve
        self.srv = serve.make_server(self.sf_dir, self.state_dir)
        self.thread = threading.Thread(target=self.srv.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.srv.server_port, timeout=OP_TIMEOUT_S["serve"])
        key = (None, None)
        st, body = self._request("GET", self._chart_path(key))
        _check(st == 200, f"setup geochart status {st}")
        self._verify_chart(key, body)
        self.fetched.append(key)

    def warm(self) -> None:
        """First use of each read-only plan shape, before timing: its
        one-off cost is paid once per server, not per request."""
        for cls in ("miss", "intrusion_log", "log_messages"):
            self.run(cls)

    def _request(self, method: str, path: str, body=None) -> tuple[int, str]:
        data = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        r = self.conn.getresponse()
        return r.status, r.read().decode()

    # -- schedule -----------------------------------------------------------
    def schedule(self):
        per = len(SERVE_READS) // len(SERVE_POSTS)
        while True:
            reads = [SERVE_READS[i]
                     for i in self.rng.permutation(len(SERVE_READS))]
            posts = [SERVE_POSTS[i]
                     for i in self.rng.permutation(len(SERVE_POSTS))]
            for j, post in enumerate(posts):
                yield from reads[j * per:(j + 1) * per]
                yield post

    def run(self, cls: str) -> None:
        """Issue one request; the reply is verified after the timed loop."""
        if cls in ("hit", "miss"):
            if cls == "hit":
                key = self.fetched[self.rng.integers(len(self.fetched))]
            else:
                key = self.keys.pop()
                self.fetched.append(key)
            st, body = self._request("GET", self._chart_path(key))
            self.responses.append((cls, st, body, ("chart", key)))
        elif cls == "intrusion_log":
            svc = [None, "ssh", "apache", "nginx"][self.rng.integers(4)]
            srv = [None, "srv0", "srv1", "srv2", "srv3"][self.rng.integers(5)]
            off = int(self.rng.integers(0, 40))
            q = f"offset={off}&limit=10" + (f"&service={svc}" if svc else "") \
                + (f"&server={srv}" if srv else "")
            st, body = self._request("GET", f"/security_log/intrusion_log?{q}")
            total = self._ilog_total(svc, srv)
            self.responses.append((cls, st, body, ("page", total, off, 10)))
        elif cls == "log_messages":
            lvl = [None, *LEVEL_NAMES][self.rng.integers(5)]
            off = int(self.rng.integers(0, 40))
            q = f"offset={off}&limit=10" + (f"&log_level={lvl}" if lvl else "")
            st, body = self._request("GET", f"/security_log/log_messages?{q}")
            total = int((self.msg_level == lvl).sum()) if lvl else \
                len(self.msg_level)
            total -= sum(1 for v in self.deleted.values()
                         if lvl is None or v == lvl)
            self.responses.append((cls, st, body, ("page", total, off, 10)))
        elif cls == "insert":
            rows = self._fresh_rows()
            st, body = self._request("POST", "/security_log/intrusion_log",
                                     {"updates": rows})
            self.payloads.append(rows)
            self.inserted.extend(rows)
            self.responses.append((cls, st, body, ("ack", len(rows))))
        elif cls == "replay":
            rows = (self.payloads[-1] if self.payloads and
                    self.rng.integers(2) else self._corpus_rows())
            st, body = self._request("POST", "/security_log/intrusion_log",
                                     {"updates": rows})
            self.responses.append((cls, st, body, ("ack", 0)))
        elif cls == "delete":
            if self.last_deleted is not None:
                mid, want = self.last_deleted, 204     # already deleted
                self.last_deleted = None
            else:
                live = [i for i in range(len(self.msg_ids))
                        if int(self.msg_ids[i]) not in self.deleted]
                i = live[self.rng.integers(len(live))]
                mid, want = int(self.msg_ids[i]), 200
                self.deleted[mid] = str(self.msg_level[i])
                self.last_deleted = mid
            st, body = self._request(
                "DELETE", f"/security_log/log_messages/{mid}")
            self.responses.append((cls, st, body, ("delete", want)))
        else:
            raise ValueError(cls)

    def _ilog_total(self, svc, srv) -> int:
        k = self.keys_nat
        m = np.ones(k.num_rows, dtype=bool)
        if svc:
            m &= k["service"].to_numpy(zero_copy_only=False) == svc
        if srv:
            m &= k["server"].to_numpy(zero_copy_only=False) == srv
        extra = sum(1 for r in self.inserted
                    if (not svc or r["service"] == svc)
                    and (not srv or r["server"] == srv))
        return int(m.sum()) + extra

    def _fresh_rows(self) -> list[dict]:
        """Two rows whose natural keys are in neither corpus nor spool
        (February timestamps; the corpus covers January)."""
        self.n_insert += 1
        n = self.n_insert
        return [{"service": "ssh", "server": f"srv{(n + j) % 4}",
                 "datetime": f"2024-02-{1 + n % 28:02d}T{j:02d}:00:00Z",
                 "host": f"h{(n * 3 + j) % 50}.example.com",
                 "username": f"bench{self.seed % 1000}x{n}"}
                for j in range(2)]

    def _corpus_rows(self) -> list[dict]:
        k = self.keys_nat
        rows = []
        for i in self.rng.integers(0, k.num_rows, size=2):
            r = {c: k[c][int(i)].as_py() for c in k.column_names}
            r["datetime"] = r["datetime"].isoformat() + "Z"
            if r["username"] == "<null>":
                r["username"] = None
            rows.append(r)
        return rows

    # -- checks ---------------------------------------------------------------
    def _verify_chart(self, key: tuple, body: str) -> None:
        m = _DATA_RE.search(body)
        _check(m is not None, f"{key}: no chart data in reply")
        _check(m.group(1) == self._chart_expected(key),
               f"{key}: chart rows differ from expected")

    def check(self) -> list[str]:
        errs = []
        for cls, st, body, what in self.responses:
            try:
                kind = what[0]
                if kind == "chart":
                    _check(st == 200, f"{cls}: status {st}")
                    self._verify_chart(what[1], body)
                elif kind == "page":
                    _check(st == 200, f"{cls}: status {st}")
                    doc = json.loads(body)
                    total, off, lim = what[1:]
                    _check(doc["pagination"]["total"] == total,
                           f"{cls}: total {doc['pagination']['total']} "
                           f"!= {total}")
                    _check(len(doc["data"]) == max(0, min(lim, total - off)),
                           f"{cls}: page of {len(doc['data'])} rows")
                elif kind == "ack":
                    _check(st == 201 and body == f"Inserts {what[1]}",
                           f"{cls}: {st} {body!r} (want Inserts {what[1]})")
                elif kind == "delete":
                    _check(st == what[1], f"delete: status {st} != {what[1]}")
            except (Failed, KeyError, ValueError) as exc:
                errs.append(str(exc))
        self.responses.clear()
        return errs

    def turns(self, cls: str) -> int:
        return self.f.num_rows

    def extras(self) -> dict:
        st = self.srv.app_state
        spool = st.spool_dir
        return {"cache_hits": st.attempts_cache.hits + st.attempts_all_cache.hits,
                "cache_misses": (st.attempts_cache.misses
                                 + st.attempts_all_cache.misses),
                "spool_files": sum(1 for x in os.listdir(spool)
                                   if x.endswith(".parquet"))}


BENCHES = {"ingest": IngestBench, "report": ReportBench, "serve": ServeBench}


def second_classes(workload: str) -> tuple[str, ...]:
    """Operation classes behind the ``second_p50_ms`` metric."""
    return {"ingest": ("incremental",), "report": ("cleanup",),
            "serve": WRITES}[workload]


def main_classes(workload: str) -> tuple[str, ...] | None:
    """Operation classes behind ``p50_ms`` (None: every class)."""
    return {"ingest": ("pass",), "report": ("country",),
            "serve": None}[workload]
