"""Resumable batch ingest: the reference `parse` + `db` export paths fused
into one Ray-Data-first job (SURVEY §3.1/§3.3).

ONE streaming pass over every PENDING input shard (manifest rows key on the
input file name + fingerprint, T4 lineage pattern):

  read pending files (shard column derived from source path)
  -> route_parse (one vectorized pass; lineage columns pass through)
  -> enrich (fused broadcast lookup)
  -> write ONE routed sink hive-partitioned by (shard, sink) — fan-out as
     partitioning: a single pass feeds all logical sinks, where the
     reference runs one Postgres insert path per table
     (src/parse_logs.rs:337-371); each write task also returns what it
     wrote, counted per (shard, sink, country) with max(ts)
  -> each finished shard dir moved into place, then its manifest row is
     appended (fingerprint, rows, watermark, sink_rows, country_rows — all
     folded from the write's returns, nothing read back).

After the pass: aggregates/ is the sum of the done records' country_rows
(sink_rows without enrich), computed on the driver — so its lineage is
exactly the manifest's shard set, the way the reference combines stored
partials instead of rescanning rows (src/polars_analysis.rs:222-241).

Scale notes (10^12 turns, 100 TB):
- resume granularity = input shard; pending selection happens BEFORE the
  pipeline, so a rerun reads only new/changed files; within a shard the
  output is wholesale-replaced, so at-least-once reruns stay idempotent
  (the Ray-native restatement of `ON CONFLICT DO NOTHING`, K1);
- a crash mid-pass leaves no manifest rows for in-flight shards (they are
  fully reprocessed on resume) and never exposes partial output (tmp root
  outside the readers' path, per-shard atomic rename);
- there is no wide op: parse/enrich/write stream with backpressure and
  never materialize the corpus, and the aggregate costs
  O(shards x countries) on the driver, not a scan of the corpus;
- row order inside output files follows block arrival order (parallel read),
  so resume guarantees are *content* equality per partition, not byte
  equality of files.

Measured (BASELINE.md): 8M turns parsed+enriched+written in 10.4 s at 32
CPUs (~772k turns/s end-to-end including the Parquet sink).
"""

from __future__ import annotations

import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import ray.data as rd
from ray.data import Datasink
from ray.data.block import BlockAccessor

from .. import synth
from ..stages.parse import route_parse
from ..state.manifest import Manifest, input_fingerprint

ROUTED_DIR = "routed"
AGG_DIR = "aggregates"


class _RoutedSink(Datasink):
    """The pass's one write: the routed rows in the hive (shard, sink)
    layout under ``root``.  Each write task returns what it wrote as one
    small table, a row per ``keys`` group with its ``count_all`` and
    ``ts_max``; ``on_write_complete`` gathers them on the driver, so the
    commit never reads the written files back."""

    def __init__(self, root: str, keys: list[str]):
        self.root, self.keys = root, keys
        # one name per pass and task (as Ray's own writer names its files):
        # a retried task overwrites its own files instead of adding rows
        self.uuid = uuid.uuid4().hex
        self.returns: list[pa.Table] = []

    def write(self, blocks, ctx) -> pa.Table | None:
        tables = [t for t in (BlockAccessor.for_block(b).to_arrow()
                              for b in blocks) if t.num_rows]
        if not tables:
            return None
        # a block whose column is all-null may carry it as the null type
        t = pa.concat_tables(tables, promote_options="default")
        pds.write_dataset(
            t, self.root, format="parquet", partitioning=["shard", "sink"],
            partitioning_flavor="hive",
            basename_template=f"{self.uuid}_{ctx.task_idx:06}-{{i}}.parquet",
            existing_data_behavior="overwrite_or_ignore")
        return t.group_by(self.keys).aggregate([([], "count_all"),
                                                ("ts", "max")])

    def on_write_complete(self, write_result) -> None:
        self.returns = [r for r in write_result.write_returns
                        if r is not None]


def _written_stats(written: list[dict]) -> tuple[int, str | None,
                                                 dict[str, int],
                                                 dict[str, int]]:
    """(rows, watermark, per-sink rows, per-country rows) of one shard,
    folded from its rows of the write's returns; null countries count in
    ``rows`` and per sink, not per country."""
    per_sink: dict[str, int] = {}
    per_country: dict[str, int] = {}
    for r in written:
        n = r["count_all"]
        per_sink[r["sink"]] = per_sink.get(r["sink"], 0) + n
        if r.get("country") is not None:
            per_country[r["country"]] = per_country.get(r["country"], 0) + n
    ts = [r["ts_max"] for r in written if r["ts_max"] is not None]
    return (sum(per_sink.values()), str(max(ts)) if ts else None, per_sink,
            per_country)


def scan_pending(in_dir: str, manifest: Manifest) -> list[tuple[str, str, dict]]:
    """Shards whose manifest record is missing or whose input fingerprint
    changed (new/landed/replaced files) — the pending-selection shared by
    the one-shot and follow-mode drivers.  A done record without
    ``country_rows`` predates per-shard counts: its shard is re-ingested
    once, so the aggregate can be summed from the manifest."""
    parts = sorted(f for f in os.listdir(in_dir) if f.endswith(".parquet"))
    pending: list[tuple[str, str, dict]] = []
    for fn in parts:
        src = os.path.join(in_dir, fn)
        shard_id = os.path.splitext(fn)[0]  # identity = input file name
        fp = input_fingerprint(src)
        if not manifest.is_done(shard_id, fp) \
                or "country_rows" not in manifest.get(shard_id):
            pending.append((shard_id, src, fp))
    return pending


def follow_ingest(sf_dir: str, out_dir: str, in_dir: str,
                  max_passes: int = 100, idle_stop: int = 2,
                  enrich: bool = True, on_pass=None) -> list[list[str]]:
    """Continuous ingest: the reference daemon's tail loop
    (/root/reference/src/parse_logs.rs:306-379) re-stated for a landing
    zone.  Each pass scans ``in_dir`` for pending shards (new files, or
    files whose fingerprint changed) and runs one incremental ``run_ingest``
    pass over exactly those; the manifest guarantees each shard VERSION is
    processed exactly once across passes, restarts included.

    Stops after ``idle_stop`` consecutive empty scans or ``max_passes``.
    ``on_pass(pass_idx, processed_shard_ids)`` is the test/ops hook fired
    after every pass (e.g. to observe progress, or in tests to land new
    shards mid-run); returning False stops the loop.  Returns the list of
    shard ids processed per pass.

    Every pass that processed shards leaves ``aggregates/`` current: the
    aggregate is a sum over the manifest, so it costs no data scan."""
    history: list[list[str]] = []
    idle = 0
    for p in range(max_passes):
        manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
        pending = scan_pending(in_dir, manifest)
        ids = [sid for sid, _src, _fp in pending]
        if pending:
            idle = 0
            run_ingest(sf_dir, out_dir, in_dir=in_dir, enrich=enrich)
        else:
            idle += 1
        history.append(ids)
        if on_pass is not None and on_pass(p, ids) is False:
            break
        if idle >= idle_stop:
            break
    return history


def run_ingest(sf_dir: str, out_dir: str, shards: int = 8, repeat: int = 1,
               enrich: bool = True, stop_after_shard: int | None = None,
               in_dir: str | None = None) -> Manifest:
    """Run (or resume) the ingest job.  ``stop_after_shard`` simulates a kill
    after k shards for resume tests; ``in_dir`` overrides the input shard
    directory (e.g. a landing zone that grows new shards between runs —
    only new/changed shards are processed, per manifest fingerprints)."""
    if in_dir is None:
        in_dir = synth.ensure_transcripts_sharded(sf_dir, shards=shards,
                                                  repeat=repeat)
    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    routed_root = os.path.join(out_dir, ROUTED_DIR)
    os.makedirs(routed_root, exist_ok=True)

    pending = scan_pending(in_dir, manifest)
    if stop_after_shard is not None:
        pending = pending[: stop_after_shard + 1]

    import time as _time
    t_pass = _time.monotonic()
    if pending:
        # ONE streaming pass over every pending shard (not a per-shard job):
        # the shard column is derived from the source file path, the write is
        # partitioned by (shard, sink), and each finished shard dir is moved
        # into place before its manifest row is appended — so resume
        # granularity stays per-shard while the cluster sees a single
        # well-parallelized pipeline.
        tmp_root = os.path.join(out_dir, "_tmp-ingest")
        if os.path.exists(tmp_root):
            shutil.rmtree(tmp_root)

        ds = rd.read_parquet([src for _sid, src, _fp in pending],
                             include_paths=True)

        # derive shard BEFORE parse; route_parse passes through extra
        # columns (lineage) unchanged
        def parse_keep_shard(b):
            shard = pc.replace_substring_regex(
                pc.replace_substring_regex(b["path"], r"^.*/", ""),
                r"\.parquet$", "")
            b = b.drop_columns(["path"]).append_column("shard", shard)
            routed = route_parse(b)
            return routed

        ds = ds.map_batches(parse_keep_shard, batch_format="pyarrow",
                            batch_size=None, zero_copy_batch=True)
        if enrich:
            from ..stages.enrich import enrich_batch
            ds = ds.map_batches(enrich_batch, batch_format="pyarrow",
                                batch_size=None)
        sink = _RoutedSink(tmp_root, ["shard", "sink"]
                           + (["country"] if enrich else []))
        ds.write_datasink(sink)
        written: dict[str, list[dict]] = {}
        for t in sink.returns:
            for r in t.to_pylist():
                written.setdefault(r["shard"], []).append(r)

        pass_rows = 0
        for shard_id, _src, fp in pending:
            src_dir = os.path.join(tmp_root, f"shard={shard_id}")
            final_dir = os.path.join(routed_root, f"shard={shard_id}")
            if os.path.exists(final_dir):
                shutil.rmtree(final_dir)
            if os.path.isdir(src_dir):
                os.replace(src_dir, final_dir)
            rows, watermark, per_sink, per_country = _written_stats(
                written.get(shard_id, []))
            manifest.record(shard_id, status="done", input=fp, rows=rows,
                            watermark=watermark, sink_rows=per_sink,
                            country_rows=per_country)
            pass_rows += rows
        shutil.rmtree(tmp_root, ignore_errors=True)

        # pass-level METRICS (north rule: lineage records + metrics): shards
        # / rows / input bytes / wall-clock per pass, appended to a sibling
        # metrics journal so successive passes build an auditable
        # throughput history without polluting the shard lineage records
        metrics = Manifest(os.path.join(out_dir, "metrics.jsonl"))
        pass_bytes = sum(fp.get("size", 0) for _sid, _s, fp in pending)
        dt = _time.monotonic() - t_pass
        metrics.record(f"pass-{len(metrics.records)}", status="metrics",
                       n_shards=len(pending), rows=pass_rows,
                       input_bytes=pass_bytes, seconds=round(dt, 3),
                       rows_per_sec=round(pass_rows / dt, 1) if dt > 0
                       else None)

    if stop_after_shard is not None:
        return manifest

    _write_aggregate(out_dir, manifest, enrich)
    return manifest


def _write_aggregate(out_dir: str, manifest: Manifest, enrich: bool) -> None:
    """aggregates/: the per-country (per-sink without enrich) row counts of
    the manifest's done shards, ``cnt`` descending then key ascending.  A
    sum over the records on the driver — O(shards x countries), no Ray
    execution and no read of routed/."""
    key, field = ("country", "country_rows") if enrich \
        else ("sink", "sink_rows")
    totals: dict[str, int] = {}
    for rec in manifest.records.values():
        if rec.get("status") == "done":
            for k, n in rec.get(field, {}).items():
                totals[k] = totals.get(k, 0) + n
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    table = pa.table({key: pa.array([k for k, _n in ranked], pa.string()),
                      "cnt": pa.array([n for _k, n in ranked], pa.int64())})
    agg_tmp = os.path.join(out_dir, AGG_DIR + ".tmp")
    agg_final = os.path.join(out_dir, AGG_DIR)
    shutil.rmtree(agg_tmp, ignore_errors=True)
    os.makedirs(agg_tmp)
    pq.write_table(table, os.path.join(agg_tmp, "part-00000.parquet"))
    shutil.rmtree(agg_final, ignore_errors=True)
    os.replace(agg_tmp, agg_final)


def read_sink(out_dir: str, sink: str) -> rd.Dataset:
    """Read one logical sink back (sink in {'ssh','nginx','apache','message'})
    with partition pruning on the hive `sink=` directory."""
    import glob
    from ray.data.datasource.partitioning import Partitioning
    root = os.path.join(out_dir, ROUTED_DIR)
    # path-level pruning: only the requested sink's directories are listed,
    # other sinks never touch storage (partition-column filters can't be
    # pushed into Ray's fragment sampler in this release)
    paths = sorted(glob.glob(
        os.path.join(root, "shard=*", f"sink={sink}", "*.parquet")))
    if not paths:
        raise FileNotFoundError(f"no partitions for sink={sink} under {root}")
    return rd.read_parquet(paths, partitioning=Partitioning("hive", base_dir=root))
