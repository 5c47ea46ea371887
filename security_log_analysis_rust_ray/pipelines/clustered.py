"""Clustered (sort-keyed) Parquet layout with zone-map row-group pruning.

The reference serves host point-lookups from a Postgres btree
(src/security_log_http.rs intrusion-log handlers); the lake-native
equivalent is a table SORTED by the lookup key written with small row
groups, so every row group's footer min/max forms a zone map and a point
lookup touches only the row groups whose [min, max] straddle the key —
O(matching rows) I/O out of a 100-TB table, with only footers (KBs per
file) read for planning.  Same build-once/prune-at-read discipline as the
IVF/LSH/inverted indexes; hive path pruning (P14) prunes FILES by
partition value, this prunes WITHIN files by sort order.

Plan side: footer metadata is tiny and reads driver-side; the selected
(file, row-group) work list ships to ``read_parquet(files=..., filter=)``
fragments?  No — Ray's reader plans per file.  Selected row groups are
read in PARALLEL Ray tasks via ``from_items`` over the work list +
``map_batches`` (one pyarrow row-group read per item), so the scan stays
distributed and each task does one contiguous columnar read.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from . import reports

ROW_GROUP_ROWS = 2048
LOOKUP_HOST = "h7.example.com"   # stable at every sf (hosts = h0..h49+)


def clustered_build(sf_dir: str, index_dir: str) -> dict:
    """Write the parsed sink sorted by (host, ts, conv_id, turn_idx) with
    small row groups (atomic tmp+rename; manifest makes rebuilds no-ops)."""
    man_path = os.path.join(index_dir, "manifest.json")
    if os.path.exists(man_path):
        with open(man_path) as fh:
            return json.load(fh)
    tmp = index_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    ds = reports.parsed(sf_dir).sort(["host", "ts", "conv_id", "turn_idx"])
    ds.write_parquet(os.path.join(tmp, "data"),
                     row_group_size=ROW_GROUP_ROWS)
    n = sum(pq.ParquetFile(f).metadata.num_rows for f in
            glob.glob(os.path.join(tmp, "data", "*.parquet")))
    man = {"rows": int(n), "sort_key": ["host", "ts", "conv_id",
                                        "turn_idx"],
           "row_group_rows": ROW_GROUP_ROWS}
    with open(os.path.join(tmp, "manifest.json"), "w") as fh:
        json.dump(man, fh)
    os.rename(tmp, index_dir)
    return man


def _plan_row_groups(index_dir: str, host: str) -> tuple[list, int, int]:
    """Zone-map planning: footers only.  Returns (work list of
    (file, row_group_idx), selected count, total count)."""
    work, total = [], 0
    for f in sorted(glob.glob(os.path.join(index_dir, "data",
                                           "*.parquet"))):
        md = pq.ParquetFile(f).metadata
        hcol = None
        for i in range(len(md.schema)):
            if md.schema.column(i).name == "host":
                hcol = i
                break
        for rg in range(md.num_row_groups):
            total += 1
            st = md.row_group(rg).column(hcol).statistics
            if st is None or not st.has_min_max \
                    or (st.min <= host <= st.max):
                work.append((f, rg))
    return work, len(work), total


def clustered_host_lookup(sf_dir: str, host: str = LOOKUP_HOST,
                          index_dir: str | None = None) -> rd.Dataset:
    """All parsed rows for ``host`` reading ONLY the zone-map-selected row
    groups (pytest asserts the selected fraction is small), each in its
    own Ray task.  Output sorted (ts, conv_id, turn_idx)."""
    if index_dir is None:
        from ..synth import CACHE_ROOT
        tag = os.path.basename(os.path.normpath(sf_dir)) or "default"
        index_dir = os.path.join(CACHE_ROOT, tag, "clustered_host")
    clustered_build(sf_dir, index_dir)
    work, _, _ = _plan_row_groups(index_dir, host)
    schema = pq.read_schema(
        sorted(glob.glob(os.path.join(index_dir, "data", "*.parquet")))[0])
    if not work:
        return rd.from_arrow(schema.empty_table())

    def read_rgs(b: dict) -> pa.Table:
        import pyarrow.compute as pc
        parts = []
        for f, rg in zip(b["file"], b["rg"]):
            t = pq.ParquetFile(f).read_row_group(int(rg))
            parts.append(t.filter(pc.equal(t["host"], host)))
        return pa.concat_tables(parts)

    items = [{"file": f, "rg": rg} for f, rg in work]
    return rd.from_items(items,
                         override_num_blocks=min(len(items), 64)) \
        .map_batches(read_rgs, batch_format="numpy", batch_size=None) \
        .sort(["ts", "conv_id", "turn_idx"])


def _plan_sorted_runs(files: list[str]) -> list[list[str]]:
    """Footer-only merge-on-read plan: order files by their host range and
    group OVERLAPPING ranges into one run (files written from a sorted
    dataset are range-disjoint except for a sort-key value straddling a
    block boundary).  Non-overlapping runs concatenate in range order
    with zero work; an overlapping run is re-sorted inside its own read
    task.  Returns runs in global key order."""
    spans = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        hcol = next(i for i in range(len(md.schema))
                    if md.schema.column(i).name == "host")
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(hcol).statistics
            if st is None or not st.has_min_max:
                # no stats: treat the file as overlapping everything
                return [sorted(files)]
            mins.append(st.min)
            maxs.append(st.max)
        spans.append((min(mins), max(maxs), f))
    spans.sort()
    runs: list[list] = []
    run_max = None
    for lo, hi, f in spans:
        if runs and run_max is not None and lo <= run_max:
            runs[-1].append(f)
            run_max = max(run_max, hi)
        else:
            runs.append([f])
            run_max = hi
    return runs


def sorted_scan(sf_dir: str, index_dir: str | None = None) -> rd.Dataset:
    """MERGE-ON-READ: stream the clustered layout in global
    (host, ts, conv_id, turn_idx) order WITHOUT a re-sort — the primitive
    that makes a sorted 100-TB table cheap to consume (a fresh
    ``Dataset.sort`` is an all-to-all exchange of every block; this plan
    reads footers, orders files by key range, and only an overlapping
    boundary run pays a local sort inside its own task).  Block order ==
    global order, and the plan's own context keeps block order through
    execution (``preserve_order``, scoped to this plan and what derives from
    it), so ``limit``/``iter_batches`` consume the prefix lazily."""
    if index_dir is None:
        from ..synth import CACHE_ROOT
        tag = os.path.basename(os.path.normpath(sf_dir)) or "default"
        index_dir = os.path.join(CACHE_ROOT, tag, "clustered_host")
    clustered_build(sf_dir, index_dir)
    files = sorted(glob.glob(os.path.join(index_dir, "data", "*.parquet")))
    schema = pq.read_schema(files[0])
    runs = _plan_sorted_runs(files)

    def read_run(b: dict) -> pa.Table:
        parts = [pq.read_table(f) for fs in b["files"] for f in fs]
        t = pa.concat_tables(parts)
        if sum(len(fs) for fs in b["files"]) > 1:
            t = t.sort_by([("host", "ascending"), ("ts", "ascending"),
                           ("conv_id", "ascending"),
                           ("turn_idx", "ascending")])
        return t

    if not runs:
        return rd.from_arrow(schema.empty_table())
    items = [{"files": run} for run in runs]
    ds = rd.from_items(items, override_num_blocks=len(items))
    ds.context.execution_options.preserve_order = True
    return ds.map_batches(read_run, batch_format="numpy", batch_size=None)


def clustered_first_rows(sf_dir: str, k: int = 200) -> rd.Dataset:
    """First k rows of the parsed sink under the full clustered sort key
    — an ORDER-SENSITIVE consumer of ``sorted_scan`` (the oracle states
    ORDER BY ... LIMIT k, so WHICH rows come back proves the merge plan
    streams in true global order while touching only the head files)."""
    return sorted_scan(sf_dir).limit(k)
