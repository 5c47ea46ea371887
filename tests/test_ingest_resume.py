"""Checkpoint/resume semantics of the ingest job (FIXTURES §5.5-5.6):
kill after shard k -> rerun -> complete, already-done shards untouched,
final content equal to an uninterrupted run."""

from __future__ import annotations

import os
import shutil
from types import SimpleNamespace

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from security_log_analysis_rust_ray import synth
from security_log_analysis_rust_ray.pipelines import ingest
from .conftest import SF_SMOKE, canonicalize


def _aggregate(out_dir, key="country"):
    """aggregates/ as (key, cnt) pairs in file order."""
    t = pq.read_table(os.path.join(out_dir, ingest.AGG_DIR))
    assert t.schema == pa.schema([(key, pa.string()), ("cnt", pa.int64())])
    return list(zip(t[key].to_pylist(), t["cnt"].to_pylist()))


def _routed_counts(out_dir, key="country"):
    """An independent count of routed/**/<key> (nulls dropped), ranked as
    the aggregate is: cnt descending, then key ascending."""
    t = pds.dataset(os.path.join(out_dir, ingest.ROUTED_DIR),
                    format="parquet", partitioning="hive").to_table(
                        columns=[key])
    vc = pc.value_counts(pc.drop_null(t[key]))
    counts = zip(vc.field("values").to_pylist(),
                 vc.field("counts").to_pylist())
    return sorted(counts, key=lambda kv: (-kv[1], kv[0]))


def _landing(tmp_path, n):
    """A landing zone holding copies of the first ``n`` of 4 smoke shards;
    returns (landing dir, source dir, sorted shard file names)."""
    src = synth.ensure_transcripts_sharded(SF_SMOKE, shards=4)
    files = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
    landing = str(tmp_path / "landing")
    os.makedirs(landing)
    for f in files[:n]:
        shutil.copy2(os.path.join(src, f), os.path.join(landing, f))
    return landing, src, files


def _routed_df(out_dir):
    import ray.data as rd
    df = rd.read_parquet(os.path.join(out_dir, ingest.ROUTED_DIR)).to_pandas()
    return canonicalize(df)


def _shard_mtimes(out_dir):
    root = os.path.join(out_dir, ingest.ROUTED_DIR)
    out = {}
    for shard in os.listdir(root):
        d = os.path.join(root, shard)
        latest = 0
        for r, _dd, files in os.walk(d):
            for f in files:
                latest = max(latest, os.stat(os.path.join(r, f)).st_mtime_ns)
        out[shard] = latest
    return out


@pytest.mark.usefixtures("ray_session")
def test_kill_and_resume(tmp_path):
    full = str(tmp_path / "full")
    part = str(tmp_path / "partial")

    m_full = ingest.run_ingest(SF_SMOKE, full, shards=4, enrich=False)
    assert len(m_full.records) == 4
    assert all(r["status"] == "done" for r in m_full.records.values())
    assert all(r["rows"] > 0 for r in m_full.records.values())
    assert all(r["watermark"] is not None for r in m_full.records.values())

    # "kill" after 2 shards
    m1 = ingest.run_ingest(SF_SMOKE, part, shards=4, enrich=False,
                           stop_after_shard=1)
    assert len(m1.records) == 2
    mtimes_before = _shard_mtimes(part)

    # resume: remaining shards processed, finished ones not rewritten
    m2 = ingest.run_ingest(SF_SMOKE, part, shards=4, enrich=False)
    assert len(m2.records) == 4
    mtimes_after = _shard_mtimes(part)
    for shard in mtimes_before:
        assert mtimes_after[shard] == mtimes_before[shard], (
            f"{shard} was rewritten on resume")

    pd.testing.assert_frame_equal(_routed_df(full), _routed_df(part))
    # aggregates sink exists after a completed run
    assert os.path.isdir(os.path.join(part, ingest.AGG_DIR))


@pytest.mark.usefixtures("ray_session")
def test_incremental_new_shard(tmp_path):
    """A landing zone that grows a new shard between runs: only the new
    shard is processed; existing outputs untouched (manifest fingerprints)."""
    landing, src, files = _landing(tmp_path, 3)

    out = str(tmp_path / "o")
    m1 = ingest.run_ingest(SF_SMOKE, out, enrich=False, in_dir=landing)
    assert len(m1.records) == 3
    mtimes = _shard_mtimes(out)

    shutil.copy2(os.path.join(src, files[3]), os.path.join(landing, files[3]))
    m2 = ingest.run_ingest(SF_SMOKE, out, enrich=False, in_dir=landing)
    assert len(m2.records) == 4
    after = _shard_mtimes(out)
    for shard, t in mtimes.items():
        assert after[shard] == t, f"{shard} reprocessed"
    # full content present
    import ray.data as rd
    n = rd.read_parquet(os.path.join(out, ingest.ROUTED_DIR)).count()
    full_out = str(tmp_path / "full")
    ingest.run_ingest(SF_SMOKE, full_out, shards=4, enrich=False)
    n_full = rd.read_parquet(os.path.join(full_out, ingest.ROUTED_DIR)).count()
    assert n == n_full


@pytest.mark.usefixtures("ray_session")
def test_rerun_is_noop(tmp_path):
    out = str(tmp_path / "o")
    ingest.run_ingest(SF_SMOKE, out, shards=2, enrich=False)
    before = _shard_mtimes(out)
    ingest.run_ingest(SF_SMOKE, out, shards=2, enrich=False)
    assert _shard_mtimes(out) == before


@pytest.mark.usefixtures("ray_session")
def test_sink_readback_partition_pruning(tmp_path):
    out = str(tmp_path / "o")
    ingest.run_ingest(SF_SMOKE, out, shards=2, enrich=False)
    msgs = ingest.read_sink(out, "message")
    df = msgs.to_pandas()
    assert len(df) > 0
    assert (df["log_level"].notna()).all()
    ssh = ingest.read_sink(out, "ssh").to_pandas()
    assert (ssh["service"] == "ssh").all()


@pytest.mark.usefixtures("ray_session")
def test_follow_ingest_exactly_once(tmp_path):
    """Follow mode (reference daemon loop): shards landing MID-RUN are
    picked up by later passes, every shard processed exactly once, loop
    stops after idle_stop empty scans."""
    landing, src, files = _landing(tmp_path, 2)

    out = str(tmp_path / "o")
    dropped = {"n": 2}

    def land_more(pass_idx, processed):
        # the test hook: drop one new shard after each of the first two
        # passes — simulates journald lines arriving while the daemon runs
        if dropped["n"] < len(files):
            shutil.copy2(os.path.join(src, files[dropped["n"]]),
                         os.path.join(landing, files[dropped["n"]]))
            dropped["n"] += 1

    history = ingest.follow_ingest(SF_SMOKE, out, landing, enrich=False,
                                   idle_stop=2, on_pass=land_more)
    processed = [sid for ids in history for sid in ids]
    # exactly-once: no shard id appears twice across passes
    assert len(processed) == len(set(processed)) == 4
    # trailing passes were idle scans
    assert history[-1] == [] and history[-2] == []
    # content equals a one-shot run over the full input
    import ray.data as rd
    full_out = str(tmp_path / "full")
    ingest.run_ingest(SF_SMOKE, full_out, shards=4, enrich=False)
    got = _routed_df(out)
    exp = _routed_df(full_out)
    pd.testing.assert_frame_equal(got, exp)
    # every pass that processed shards left aggregates/ current
    assert _aggregate(out, "sink") == _aggregate(full_out, "sink")
    # a follow rerun over the quiet landing zone is a no-op
    h2 = ingest.follow_ingest(SF_SMOKE, out, landing, enrich=False,
                              idle_stop=1)
    assert all(ids == [] for ids in h2)


# ---------------------------------------------------------------------------
# aggregates/ is a sum over the manifest's per-shard counts
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("ray_session")
def test_country_aggregate_full_run(tmp_path):
    out = str(tmp_path / "o")
    m = ingest.run_ingest(SF_SMOKE, out, shards=4)
    assert _aggregate(out) == _routed_counts(out) != []
    for rec in m.records.values():
        assert sum(rec["sink_rows"].values()) == rec["rows"]
        assert sum(rec["country_rows"].values()) <= rec["rows"]


@pytest.mark.usefixtures("ray_session")
def test_country_aggregate_kill_and_resume(tmp_path):
    out = str(tmp_path / "o")
    ingest.run_ingest(SF_SMOKE, out, shards=4, stop_after_shard=1)
    ingest.run_ingest(SF_SMOKE, out, shards=4)
    assert _aggregate(out) == _routed_counts(out) != []


@pytest.mark.usefixtures("ray_session")
def test_country_aggregate_rewritten_and_landed_shard(tmp_path):
    landing, src, files = _landing(tmp_path, 3)
    out = str(tmp_path / "o")
    ingest.run_ingest(SF_SMOKE, out, in_dir=landing)
    before = _aggregate(out)
    # shard 1 is replaced by the first half of its rows; shard 3 lands
    t = pq.read_table(os.path.join(src, files[1]))
    pq.write_table(t.slice(0, t.num_rows // 2),
                   os.path.join(landing, files[1]))
    shutil.copy2(os.path.join(src, files[3]), os.path.join(landing, files[3]))
    m = ingest.Manifest(os.path.join(out, "manifest.jsonl"))
    assert [sid for sid, _s, _f in ingest.scan_pending(landing, m)] == [
        files[1][:-8], files[3][:-8]]
    ingest.run_ingest(SF_SMOKE, out, in_dir=landing)
    assert _aggregate(out) == _routed_counts(out) != before


@pytest.mark.usefixtures("ray_session")
def test_country_aggregate_after_compaction(tmp_path):
    from security_log_analysis_rust_ray.sources.compact import compact_sink
    out = str(tmp_path / "o")
    ingest.run_ingest(SF_SMOKE, out, shards=4)
    before = _aggregate(out)
    compact_sink(os.path.join(out, ingest.ROUTED_DIR), target_bytes=1 << 30)
    ingest.run_ingest(SF_SMOKE, out, shards=4)   # nothing pending
    assert _aggregate(out) == _routed_counts(out) == before


@pytest.mark.usefixtures("ray_session")
def test_sink_aggregate_is_summed_sink_rows(tmp_path):
    out = str(tmp_path / "o")
    m = ingest.run_ingest(SF_SMOKE, out, shards=4, enrich=False)
    summed: dict[str, int] = {}
    for rec in m.records.values():
        assert rec["country_rows"] == {}
        for k, n in rec["sink_rows"].items():
            summed[k] = summed.get(k, 0) + n
    assert dict(_aggregate(out, "sink")) == summed
    assert _aggregate(out, "sink") == _routed_counts(out, "sink")


@pytest.mark.usefixtures("ray_session")
def test_shard_routed_away_is_done_with_no_rows(tmp_path):
    """Every row of part-99999 matches a systemd log filter, so the router
    drops it: the shard still gets a done record, with nothing counted."""
    landing, src, files = _landing(tmp_path, 1)
    t = pq.read_table(os.path.join(src, files[0]))
    line = f"sshd[1]: {synth.SYSTEMD_LOG_FILTERS[0]} x"
    text = pa.array([line] * t.num_rows)
    t = t.set_column(t.schema.get_field_index("text"), "text", text)
    pq.write_table(t, os.path.join(landing, "part-99999.parquet"))
    out = str(tmp_path / "o")
    m = ingest.run_ingest(SF_SMOKE, out, in_dir=landing)
    rec = m.records["part-99999"]
    assert rec["status"] == "done" and rec["rows"] == 0
    assert rec["watermark"] is None
    assert rec["sink_rows"] == rec["country_rows"] == {}
    assert not os.path.exists(
        os.path.join(out, ingest.ROUTED_DIR, "shard=part-99999"))
    assert _aggregate(out) == _routed_counts(out) != []
    assert dict(_aggregate(out)) == m.records[files[0][:-8]]["country_rows"]


@pytest.mark.usefixtures("ray_session")
def test_record_without_country_rows_is_reingested_once(tmp_path):
    """A done record as written before per-shard counts (no
    ``country_rows``) makes its shard pending once; the next pass skips
    it."""
    import json
    out = str(tmp_path / "o")
    ingest.run_ingest(SF_SMOKE, out, shards=2)
    path = os.path.join(out, "manifest.jsonl")
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    old = recs[0]["shard"]
    del recs[0]["country_rows"]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in recs)
    before = _shard_mtimes(out)

    ingest.run_ingest(SF_SMOKE, out, shards=2)
    after = _shard_mtimes(out)
    assert [s for s in before if after[s] != before[s]] == [f"shard={old}"]
    m = ingest.Manifest(path)
    assert "country_rows" in m.get(old)
    assert _aggregate(out) == _routed_counts(out) != []

    ingest.run_ingest(SF_SMOKE, out, shards=2)
    assert _shard_mtimes(out) == after


# ---------------------------------------------------------------------------
# the routed sink itself (its write runs here without a Ray task)
# ---------------------------------------------------------------------------

def _block(n, sink="ssh", country=None):
    return pa.table({
        "shard": pa.array(["part-00000"] * n),
        "sink": pa.array([sink] * n),
        "ts": pa.array(range(n), pa.timestamp("us")),
        "country": pa.array([country] * n, pa.string())
        if country is not None else pa.nulls(n)})


def _files(root):
    return sorted(os.path.relpath(os.path.join(r, f), root)
                  for r, _d, fs in os.walk(root) for f in fs)


def test_routed_sink_rerun_task_overwrites_its_files(tmp_path):
    root = str(tmp_path / "w")
    sink = ingest._RoutedSink(root, ["shard", "sink"])
    blocks = [_block(3), _block(2, sink="nginx")]
    first = sink.write(blocks, SimpleNamespace(task_idx=7))
    files = _files(root)
    assert len(files) == 2
    assert all(f"{sink.uuid}_000007-" in f for f in files)
    again = sink.write(blocks, SimpleNamespace(task_idx=7))
    assert _files(root) == files and again.equals(first)
    back = pds.dataset(root, format="parquet", partitioning="hive").to_table()
    assert back.num_rows == 5


def test_routed_sink_all_empty_task_returns_nothing(tmp_path):
    root = str(tmp_path / "w")
    sink = ingest._RoutedSink(root, ["shard", "sink", "country"])
    assert sink.write([_block(0), _block(0, country="x")],
                      SimpleNamespace(task_idx=0)) is None
    assert not os.path.exists(root)


def test_routed_sink_concats_null_typed_columns(tmp_path):
    root = str(tmp_path / "w")
    sink = ingest._RoutedSink(root, ["shard", "sink", "country"])
    null_typed = _block(3)
    assert null_typed.schema.field("country").type == pa.null()
    out = sink.write([null_typed, _block(2, country="Country A")],
                     SimpleNamespace(task_idx=1))
    got = sorted(out.to_pylist(), key=lambda r: str(r["country"]))
    assert [(r["country"], r["count_all"]) for r in got] == [
        ("Country A", 2), (None, 3)]
    rows, watermark, per_sink, per_country = ingest._written_stats(got)
    assert (rows, per_sink, per_country) == (5, {"ssh": 5}, {"Country A": 2})
    assert watermark == "1970-01-01 00:00:00.000002"
