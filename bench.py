#!/usr/bin/env python
"""Benchmark harness (driver contract).

Headline: the flagship parse->route->enrich->aggregate pipeline over the
sharded transcripts corpus derived from $GRAFT_SF_DIR (default
/root/testdata/sf0.1, ~100k turns) tiled x$SLAR_BENCH_REPEAT (default 80 ->
8M turns; the tiled text dictionary-compresses, so per-turn read cost is
lower than a fully-diverse corpus — noted in BASELINE.md).  Prints ONE JSON
line.

  python bench.py             # single run at RAY_GRAFT_CPUS (default 32)
  python bench.py --scaling   # fresh processes at SLAR_SCALE_LO (default 4)
                              # and SLAR_SCALE_HI (default 16) CPUs on the
                              # SAME input -> throughput at both + efficiency
                              # (defaults sit below the single-box DRAM
                              # bandwidth ceiling documented in BASELINE.md)

The corpus is built (once, cached) BEFORE timers start; one untimed pass
warms the page cache so we measure compute+shuffle, not first-touch disk.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPEAT = int(os.environ.get("SLAR_BENCH_REPEAT", "80"))
SHARDS = 128            # file count = read-task count; read+parse FUSE into
                        # one operator (no object-store hop for the input)
SCALE_LO = int(os.environ.get("SLAR_SCALE_LO", "4"))
SCALE_HI = int(os.environ.get("SLAR_SCALE_HI", "16"))


def run_bench() -> dict:
    import warnings
    warnings.filterwarnings("ignore")
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import pyarrow.compute as pc
    import ray.data as rd
    from security_log_analysis_rust_ray import synth
    from security_log_analysis_rust_ray.stages import aggregate as agg
    from security_log_analysis_rust_ray.stages import dedup as dd
    from security_log_analysis_rust_ray.stages.enrich import enrich_batch
    from security_log_analysis_rust_ray.stages.parse import (intrusion_view,
                                                             route_parse)

    import pyarrow as pa

    # the timed functions are registered first and the corpora built
    # after the SLAR_BENCH_ONLY filter: `paths` and `docs_dir` are bound
    # below, before any of them runs
    def read():
        # no override_num_blocks: an explicit block override inserts a
        # SplitBlocks op that BREAKS read->map fusion and forces the whole
        # decompressed input through the object store; 128 input files give
        # the same parallelism with fusion intact
        return rd.read_parquet(paths)

    def parsed_ds():
        return read() \
            .map_batches(route_parse, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True) \
            .map_batches(intrusion_view, batch_format="pyarrow",
                         batch_size=None)

    plan: dict[str, object] = {}

    def timed(name, fn):
        plan[name] = fn

    # pure vectorized parse+route throughput
    timed("parse_route", lambda: read().map_batches(
        route_parse, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True).count())

    # parse+enrich throughput — the north rule's scaling quantity
    timed("parse_enrich", lambda: parsed_ds().map_batches(
        enrich_batch, batch_format="pyarrow", batch_size=None).count())

    # flagship: parse -> enrich (fused broadcast lookup) -> country counts,
    # with projection pushdown (only `host` leaves the router)
    from security_log_analysis_rust_ray.stages.parse import route_parse_hosts

    def flagship():
        inner = rd.read_parquet(paths, columns=["text", "ts"]) \
            .map_batches(route_parse_hosts, batch_format="pyarrow",
                         batch_size=None, zero_copy_batch=True) \
            .map_batches(enrich_batch, batch_format="pyarrow",
                         batch_size=None) \
            .map_batches(lambda b: b.filter(pc.is_valid(b["code"])),
                         batch_format="pyarrow", batch_size=None)
        agg.grouped_count(inner, ["country"]).sort(
            ["cnt", "country"], descending=[True, False]).to_pandas()
    timed("flagship_country_counts", flagship)

    # north-rule aggregate key groupby over raw turns
    timed("agg_conv_role_tool", lambda: agg.grouped_count(
        read(), ["conv_id", "role", "tool"]).count())

    # natural-key dedup shuffle over parsed rows
    timed("parsed_dedup", lambda: dd.dedup_keep_first(parsed_ds()).count())

    # crawl-cleaning throughput: the PII scrub's two vectorized RE2
    # passes over every turn (pure map, fuses with the read — the hot
    # stage shape of a 100-TB cleaning pipeline).  Folds to one row per
    # batch so the timer sees kernel + read cost, not output transport.
    from security_log_analysis_rust_ray.pipelines import docs as docs_pipe

    def _scrub_fold(b: pa.Table) -> pa.Table:
        red = pc.replace_substring_regex(
            b["text"], pattern=docs_pipe.IP_REGEX, replacement="<ip>")
        red = pc.replace_substring_regex(
            red, pattern=docs_pipe.LONGNUM_REGEX, replacement="<num>")
        return pa.table({"n": pa.array([len(red)], pa.int64())})

    timed("redact_pii", lambda: rd.read_parquet(paths, columns=["text"])
          .map_batches(_scrub_fold, batch_format="pyarrow",
                       batch_size=None, zero_copy_batch=True).sum("n"))

    # similarity tier (vectorized hash64 kernels + dataset-native LSH
    # verify — r02).  The sf tables' documents (~5k rows) are pure fixed
    # overhead for these pipelines, so they bench against a deterministic
    # 100k-doc corpus (SLAR_BENCH_DOCS to resize)
    timed("simhash64", lambda: docs_pipe.simhash64(docs_dir).count())
    timed("doc_fingerprints",
          lambda: docs_pipe.doc_fingerprints(docs_dir).count())
    timed("minhash_pairs", lambda: docs_pipe.minhash_pairs(docs_dir).count())
    # r03 quality/dedup additions: the repetition stats are a pure fused
    # gram-groupby map (no shuffle); chunk-dup coverage adds one grouped
    # count + size-aware semi-join over the chunk stream
    timed("repetition_stats",
          lambda: docs_pipe.doc_repetition_stats(docs_dir).count())
    timed("chunk_dup_stats",
          lambda: docs_pipe.doc_chunk_dup_stats(docs_dir).count())
    # passage REMOVAL (cleaned text out): grouped_min keep-first winner
    # set + one doc_id exchange + per-block vectorized reassembly
    timed("chunk_dedup_text",
          lambda: docs_pipe.doc_chunk_dedup_text(docs_dir).count())
    # unigram-LM quality score: tf explode (materialized once), one term
    # grouped fold, size-aware tf|x|cnt join, per-doc fold
    timed("lm_score", lambda: docs_pipe.doc_lm_score(docs_dir).count())
    # r03 corpus-construction tier: the global-sort ops (epoch shuffle =
    # one all-to-all key sort; budget select = sort + block-summary prefix
    # sum) and the transcripts->SFT composite (conv exchange + broadcast
    # boilerplate gate + dedup exchange, on the base 100k-turn corpus)
    timed("epoch_shuffle",
          lambda: docs_pipe.doc_epoch_shuffle(docs_dir).count())
    timed("budget_select",
          lambda: docs_pipe.doc_budget_select(docs_dir).count())
    from security_log_analysis_rust_ray.pipelines import reports as rep
    timed("conversation_curated",
          lambda: rep.conversation_curated_corpus(SF_DIR).count())
    # join-tier evidence: the heaviest relational shapes over the sf
    # tables — Q5's 6-table snowflake (broadcast dims + one fact hash
    # exchange) and Q21's double grouped fold + blame pullback
    from security_log_analysis_rust_ray.pipelines import relational as rel
    timed("tpch_q5_join",
          lambda: rel.local_supplier_volume(SF_DIR).to_pandas())
    timed("tpch_q21_blame",
          lambda: rel.waiting_suppliers(SF_DIR).to_pandas())
    # windowed-kernel tier (r04: ported from per-block pandas to numpy
    # over zero-copy Arrow): session windows and running totals over the
    # events stream — one key exchange + one vectorized block kernel each
    from security_log_analysis_rust_ray.pipelines import streaming as stm
    timed("sessionize", lambda: stm.sessionize(SF_DIR).count())
    timed("user_running_totals",
          lambda: rel.user_running_totals(SF_DIR).count())
    # pure all-to-all exchange evidence: one global key sort of the full
    # corpus (the primitive under the exact-selection tier: median /
    # percentiles / Gini / KS all ride this sort + block summaries).
    # count() alone would let Ray skip the sort (row count is derivable
    # from input metadata) — fold a row per sorted block instead.
    timed("global_sort",
          lambda: read().sort(["conv_id", "turn_idx"]).map_batches(
              lambda b: pa.table({"n": pa.array([b.num_rows],
                                                pa.int64())}),
              batch_format="pyarrow", batch_size=None).sum("n"))

    only = os.environ.get("SLAR_BENCH_ONLY")  # comma list -> subset run
    if only:
        plan = {n: fn for n, fn in plan.items() if n in only.split(",")}
        if not plan:
            ray.shutdown()
            sys.exit(f"SLAR_BENCH_ONLY={only!r} matches no timed query")

    d = synth.ensure_transcripts_sharded(SF_DIR, shards=SHARDS, repeat=REPEAT)
    paths = sorted(glob.glob(os.path.join(d, "part-*.parquet")))
    docs_dir = synth.ensure_documents_bench(
        int(os.environ.get("SLAR_BENCH_DOCS", "100000")))

    # warm the page cache with a pass that actually reads every column
    # (count() alone can be served from Parquet footers — ADVICE r01)
    def _touch(b: pa.Table) -> pa.Table:
        nbytes = sum(c.nbytes for c in b.columns)  # forces buffer access
        return pa.table({"n": pa.array([b.num_rows], pa.int64()),
                         "nbytes": pa.array([nbytes], pa.int64())})

    n_turns = int(rd.read_parquet(paths).map_batches(
        _touch, batch_format="pyarrow", batch_size=None).sum("n"))

    queries: dict[str, float] = {}
    runs = int(os.environ.get("SLAR_BENCH_RUNS", "2"))
    for name, fn in plan.items():
        # best-of-N: the first execution of a plan shape pays one-time task
        # submission / worker-cache warmup (~0.5-1 s observed at 32 CPUs);
        # steady-state throughput is the quantity BASELINE.md tracks
        best = None
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        queries[name] = round(best, 3)

    head = queries.get("flagship_country_counts") \
        or next(iter(queries.values()))
    result = {
        "metric": "flagship parse->route->enrich->aggregate wall time",
        "value": head,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_turns": n_turns,
        "turns_per_sec": round(n_turns / head, 1),
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   SLAR_BENCH_REPEAT=str(max(REPEAT, 320)))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = SCALE_LO, SCALE_HI
    r_lo, r_hi = one(lo), one(hi)
    n = r_hi["n_turns"]

    def eff(key):
        return round((r_lo["queries"][key] / r_hi["queries"][key]) / (hi / lo), 3)

    # the north rule's scaling quantity is parse+enrich throughput
    t_lo, t_hi = r_lo["queries"]["parse_enrich"], r_hi["queries"]["parse_enrich"]
    return {
        "metric": f"scaling efficiency {lo}->{hi} CPUs, same input",
        "cpus_lo": lo, "cpus_hi": hi,
        "parse_enrich_sec_lo": t_lo, "parse_enrich_sec_hi": t_hi,
        "parse_enrich_turns_per_sec_lo": round(n / t_lo, 1),
        "parse_enrich_turns_per_sec_hi": round(n / t_hi, 1),
        "scaling_efficiency": eff("parse_enrich"),
        "per_query_efficiency": {k: eff(k) for k in r_hi["queries"]},
        "flagship_sec": {"lo": r_lo["queries"]["flagship_country_counts"],
                          "hi": r_hi["queries"]["flagship_country_counts"]},
        "n_turns": n,
        "sf": SF_DIR,
    }


def run_spill() -> dict:
    """Memory-pressure evidence: run the all-to-all global sort with the
    object store capped WELL below the dataset's in-flight Arrow size, so
    the streaming executor must spill to disk — proving graceful
    degradation under pressure instead of an OOM (the single-box stand-in
    for a 100-TB shuffle exceeding aggregate cluster store).  Prints one
    JSON line with the sort wall time, throughput, and the bytes Ray
    actually spilled (from the raylet's on-disk spill directory)."""
    import warnings
    warnings.filterwarnings("ignore")
    import ray
    store = int(os.environ.get("SLAR_SPILL_STORE", str(2 << 30)))
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=store)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray import synth

    repeat = int(os.environ.get("SLAR_SPILL_REPEAT", str(max(REPEAT, 160))))
    d = synth.ensure_transcripts_sharded(SF_DIR, shards=SHARDS,
                                         repeat=repeat)
    paths = sorted(glob.glob(os.path.join(d, "part-*.parquet")))
    ds = rd.read_parquet(paths)
    n_turns = ds.count()
    in_mem = ds.size_bytes()          # Arrow in-flight estimate
    t0 = time.monotonic()
    total = rd.read_parquet(paths).sort(["conv_id", "turn_idx"]) \
        .map_batches(lambda b: pa.table({"n": pa.array([b.num_rows],
                                                       pa.int64())}),
                     batch_format="pyarrow", batch_size=None).sum("n")
    sec = round(time.monotonic() - t0, 3)
    assert total == n_turns
    # spill evidence from the raylet's on-disk spill directory (the
    # grpc-backed memory_summary API is unavailable in this container):
    # every object the store evicted under pressure lands here as a file
    import ray._private.worker as _w
    sess = _w._global_node.get_session_dir_path()
    spilled_bytes, spilled_objs = 0, 0
    for root, _dirs, files in os.walk(sess):
        if "spilled" not in os.path.basename(root):
            continue
        for f in files:
            try:
                spilled_bytes += os.path.getsize(os.path.join(root, f))
                spilled_objs += 1
            except OSError:
                pass
    spilled_mb = spilled_bytes >> 20
    ray.shutdown()
    return {
        "metric": "global sort under object-store pressure (spill path)",
        "n_turns": n_turns,
        "input_arrow_bytes": in_mem,
        "object_store_bytes": store,
        "sort_sec": sec,
        "turns_per_sec": round(n_turns / sec, 1),
        "spilled_mb": spilled_mb,
        "spilled_objects": spilled_objs,
        "spill_forced": bool(spilled_mb > 0),
        "num_cpus": NUM_CPUS,
        "sf": SF_DIR,
    }


def run_stats() -> None:
    """Print the flagship pipeline's per-operator ds.stats() breakdown —
    the profiling loop used to verify wall-time is dominated by useful
    compute (results fed back into stage/batch sizing)."""
    import warnings
    warnings.filterwarnings("ignore")
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import pyarrow.compute as pc
    import ray.data as rd
    from security_log_analysis_rust_ray import synth
    from security_log_analysis_rust_ray.stages import aggregate as agg
    from security_log_analysis_rust_ray.stages.enrich import enrich_batch
    from security_log_analysis_rust_ray.stages.parse import (intrusion_view,
                                                             route_parse)
    d = synth.ensure_transcripts_sharded(SF_DIR, shards=SHARDS, repeat=REPEAT)
    paths = sorted(glob.glob(os.path.join(d, "part-*.parquet")))
    inner = rd.read_parquet(paths) \
        .map_batches(route_parse, batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True) \
        .map_batches(intrusion_view, batch_format="pyarrow", batch_size=None) \
        .map_batches(enrich_batch, batch_format="pyarrow", batch_size=None) \
        .map_batches(lambda b: b.filter(pc.is_valid(b["code"])),
                     batch_format="pyarrow", batch_size=None)
    # materialize the INNER pipeline for stats: the driver-side final
    # combine builds a fresh dataset, which would hide the
    # read->parse->enrich operator chain (fusion check) from .stats()
    m = inner.materialize()
    print(m.stats())
    out = agg.grouped_count(m, ["country"])
    print(out.to_pandas().head(30).to_string())
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--spill" in sys.argv:
        print(json.dumps(run_spill()))
    elif "--stats" in sys.argv:
        run_stats()
    else:
        print(json.dumps(run_bench()))
