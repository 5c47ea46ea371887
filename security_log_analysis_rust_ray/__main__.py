"""CLI entry points mirroring the reference's subcommands
(/root/reference/src/parse_opts.rs:34-87: Parse/Cleanup/Db/Read/Import/
Export/Plot — the DB-administration commands RunMigrations/AddHost/Sync
collapse into the Parquet layout + lineage manifest).

    python -m security_log_analysis_rust_ray parse  --sf-dir D --out O
    python -m security_log_analysis_rust_ray read   --sf-dir D [--limit 10]
    python -m security_log_analysis_rust_ray db     --sf-dir D --out O
    python -m security_log_analysis_rust_ray export --sf-dir D --out O [--limit 1000]
    python -m security_log_analysis_rust_ray import --path P
    python -m security_log_analysis_rust_ray cleanup --sf-dir D
    python -m security_log_analysis_rust_ray plot   --sf-dir D --out report.html

Owns its Ray session (guarded init; the driver/pytest surfaces never import
this module).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="security_log_analysis_rust_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="resumable ingest (reference `parse`)")
    sp.add_argument("--sf-dir", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--shards", type=int, default=8)

    sr = sub.add_parser("read", help="per-country top-k report (reference `read`)")
    sr.add_argument("--sf-dir", required=True)
    sr.add_argument("--limit", type=int, default=10)

    sd = sub.add_parser("db", help="month-partitioned parquet export (reference `db`)")
    sd.add_argument("--sf-dir", required=True)
    sd.add_argument("--out", required=True)

    se = sub.add_parser("export", help="JSON export (reference `export`)")
    se.add_argument("--sf-dir", required=True)
    se.add_argument("--out", required=True)
    se.add_argument("--limit", type=int, default=1000)

    si = sub.add_parser("import", help="JSON import -> row count (reference `import`)")
    si.add_argument("--path", required=True)

    sc = sub.add_parser("cleanup", help="dedup stats (reference `cleanup`)")
    sc.add_argument("--sf-dir", required=True)

    sl = sub.add_parser("plot", help="HTML country report (reference `plot`)")
    sl.add_argument("--sf-dir", required=True)
    sl.add_argument("--out", required=True)

    sf = sub.add_parser("follow", help="landing-zone tail loop "
                                       "(reference `parse --daemon` ingest)")
    sf.add_argument("--sf-dir", required=True)
    sf.add_argument("--in-dir", required=True)
    sf.add_argument("--out", required=True)
    sf.add_argument("--max-passes", type=int, default=100)
    sf.add_argument("--idle-stop", type=int, default=2)

    ss = sub.add_parser("sync", help="two-store reconciliation "
                                     "(reference `sync`)")
    ss.add_argument("--local", required=True)
    ss.add_argument("--remote", required=True)

    sa = sub.add_parser("alert", help="alert flush cycle w/ processed "
                                      "watermarks (reference alert loop)")
    sa.add_argument("--sf-dir", required=True)
    sa.add_argument("--state", required=True)

    st = sub.add_parser("ses-stats", help="SES send-statistics fold over "
                                          "alert batches (reference "
                                          "ses_client get_statistics)")
    st.add_argument("--sf-dir", required=True)
    st.add_argument("--threshold", default="warn")

    so = sub.add_parser("process-keys", help="paged object-list fold into "
                                             "the key cache (reference "
                                             "s3_sync get_and_process_keys)")
    so.add_argument("--store", required=True)
    so.add_argument("--local", help="also scan this local dir first")
    so.add_argument("--cache", required=True)
    so.add_argument("--page-size", type=int, default=1000)

    sv = sub.add_parser("serve", help="HTTP serving layer: the reference's "
                                      "11 /security_log routes (loopback)")
    sv.add_argument("--sf-dir", required=True)
    sv.add_argument("--state-dir", required=True)
    sv.add_argument("--port", type=int, default=0)

    sk = sub.add_parser("compact", help="small-file compaction of a "
                                        "hive-partitioned Parquet sink")
    sk.add_argument("--root", required=True)
    sk.add_argument("--target-bytes", type=int, default=128 << 20)
    sk.add_argument("--dry-run", action="store_true")

    su = sub.add_parser("curate", help="corpus curation: quality gate -> "
                                       "exact dedup -> decontaminate -> "
                                       "split-partitioned parquet")
    su.add_argument("--sf-dir", required=True)
    su.add_argument("--out", required=True)

    dc = sub.add_parser("datacard", help="one-JSON corpus data card: "
                                         "sources, length quantiles, dup "
                                         "rates, splits, mix weights")
    dc.add_argument("--sf-dir", required=True)
    dc.add_argument("--out", default=None)

    sh = sub.add_parser("shuffle", help="seeded epoch shuffle -> shard-"
                                        "partitioned parquet (training "
                                        "reader input; per-shard resume)")
    sh.add_argument("--sf-dir", required=True)
    sh.add_argument("--out", required=True)
    sh.add_argument("--epoch", type=int, default=0)
    sh.add_argument("--shards", type=int, default=8)

    sq = sub.add_parser("search", help="bucket-pruned boolean retrieval "
                                       "over the persisted inverted index "
                                       "(builds it on first use)")
    sq.add_argument("--sf-dir", required=True)
    sq.add_argument("--terms", required=True,
                    help="space-separated query terms")
    sq.add_argument("--mode", choices=["and", "or"], default="and")
    sq.add_argument("--exclude", default=None,
                    help="space-separated terms none of which may appear")
    sq.add_argument("--index-dir", default=None)
    sq.add_argument("--limit", type=int, default=20)

    sg = sub.add_parser("purge", help="targeted key purge (right-to-"
                                      "erasure): zone-map-planned file "
                                      "surgery over the clustered layout")
    sg.add_argument("--index-dir", required=True,
                    help="clustered layout root (clustered_build output)")
    sg.add_argument("--keys", required=True,
                    help="space-separated key values to erase")
    sg.add_argument("--key-col", default="host")
    sg.add_argument("--audit", default=None,
                    help="JSON-lines audit trail path")

    a = p.parse_args(argv)
    ray = _ray()
    try:
        if a.cmd == "parse":
            from .pipelines.ingest import run_ingest
            m = run_ingest(a.sf_dir, a.out, shards=a.shards)
            done = [r for r in m.records.values() if r["status"] == "done"]
            print(json.dumps({"shards_done": len(done),
                              "rows": sum(r["rows"] for r in done)}))
        elif a.cmd == "read":
            from .pipelines.reports import country_counts
            df = country_counts(a.sf_dir).to_pandas().head(a.limit)
            for r in df.itertuples(index=False):
                print(f"{r.country}\t{r.cnt}")
        elif a.cmd == "db":
            from .pipelines.reports import parsed
            from .sources.exports import export_month_partitioned
            res = export_month_partitioned(parsed(a.sf_dir), a.out)
            print(json.dumps(res))
        elif a.cmd == "export":
            from .pipelines.reports import messages
            from .sources.exports import export_json
            export_json(messages(a.sf_dir), a.out, limit=a.limit)
            print(json.dumps({"written": a.out, "limit": a.limit}))
        elif a.cmd == "import":
            from .sources.exports import import_json
            print(json.dumps({"rows": import_json(a.path).count()}))
        elif a.cmd == "cleanup":
            from .pipelines.reports import parsed, parsed_dedup
            before = parsed(a.sf_dir).count()
            after = parsed_dedup(a.sf_dir).count()
            print(json.dumps({"rows": before, "after_dedup": after,
                              "duplicates_removed": before - after}))
        elif a.cmd == "plot":
            from .pipelines.reports import country_counts
            from .sources.exports import write_country_report
            path = write_country_report(country_counts(a.sf_dir), a.out)
            print(json.dumps({"report": path}))
        elif a.cmd == "follow":
            from .pipelines.ingest import follow_ingest
            history = follow_ingest(a.sf_dir, a.out, a.in_dir,
                                    max_passes=a.max_passes,
                                    idle_stop=a.idle_stop)
            print(json.dumps({"passes": len(history),
                              "shards_processed":
                                  sum(len(ids) for ids in history)}))
        elif a.cmd == "sync":
            from .sources.sync import run_sync
            plan = run_sync(a.local, a.remote)
            print(json.dumps({i.key: i.action for i in plan}))
        elif a.cmd == "serve":
            from .serve import run_server
            run_server(a.sf_dir, a.state_dir, a.port)
        elif a.cmd == "compact":
            from .sources.compact import compact_sink
            j = compact_sink(a.root, a.target_bytes, dry_run=a.dry_run)
            print(json.dumps({
                "dirs": int(len(j)),
                "compacted": int((j["action"] != "skip").sum())
                if len(j) else 0,
                "files_before": int(j["files_before"].sum()) if len(j) else 0,
                "files_after": int(j["files_after"].sum()) if len(j) else 0,
            }))
        elif a.cmd == "curate":
            from .pipelines.docs import doc_curated_corpus, doc_split_assign
            from .stages.aggregate import grouped_count
            from .stages.joins import lookup_join
            cur = doc_curated_corpus(a.sf_dir)
            splits = doc_split_assign(a.sf_dir).materialize()
            out_ds = lookup_join(cur, splits, "doc_id", "doc_id",
                                 how="left").materialize()
            # split-partitioned sink: a failed rerun can resume per split
            # dir, and training readers prune to their split at the read
            out_ds.write_parquet(a.out, partition_cols=["split"])
            per = grouped_count(out_ds, ["split"]).to_pandas() \
                .sort_values("split")
            print(json.dumps({
                "docs_out": int(per["cnt"].sum()),
                "per_split": dict(zip(per["split"].astype(str),
                                      per["cnt"].astype(int))),
                "out": a.out,
            }))
        elif a.cmd == "datacard":
            from .pipelines import docs as Dp
            src = Dp.corpus_source_report(a.sf_dir).to_pandas() \
                .sort_values("source")
            qs = Dp.doc_length_quantiles(a.sf_dir).to_pandas()
            mix = Dp.doc_temperature_mix(a.sf_dir).to_pandas() \
                .sort_values("source")
            splits = Dp.doc_split_assign(a.sf_dir).to_pandas()["split"] \
                .value_counts()
            n_docs = int(Dp.docs_aug_ds(a.sf_dir).count())
            n_unique = int(Dp.doc_exact_dedup(a.sf_dir).count())
            card = {
                "sf_dir": a.sf_dir,
                # the aug corpus (dedup universe) vs the base table the
                # split/source ops cover
                "n_docs": n_docs,
                "n_base_docs": int(src["n_docs"].sum()),
                "n_unique_texts": n_unique,
                "exact_dup_rate": round(1.0 - n_unique / n_docs, 6),
                "token_quantiles": {str(q): int(v) for q, v in
                                    zip(qs["q"], qs["n_tokens"])},
                "splits": {str(k): int(v) for k, v in splits.items()},
                "sources": src.to_dict("records"),
                "mix_weights": {str(s): float(w) for s, w in
                                zip(mix["source"], mix["weight"])},
            }
            if a.out:
                with open(a.out, "w") as f:
                    json.dump(card, f, indent=1)
            print(json.dumps(card))
        elif a.cmd == "shuffle":
            from .pipelines.docs import doc_epoch_shuffle
            from .stages.aggregate import grouped_count
            ds = doc_epoch_shuffle(a.sf_dir, epoch=a.epoch,
                                   shards=a.shards).materialize()
            # shard-partitioned sink: loaders read shard i in key order; a
            # failed export resumes per shard dir
            ds.write_parquet(a.out, partition_cols=["shard"])
            per = grouped_count(ds, ["shard"]).to_pandas() \
                .sort_values("shard")
            print(json.dumps({
                "epoch": a.epoch,
                "docs": int(per["cnt"].sum()),
                "per_shard": {str(k): int(v) for k, v in
                              zip(per["shard"], per["cnt"])},
                "out": a.out,
            }))
        elif a.cmd == "search":
            from .pipelines.search import (search_docs_and,
                                           search_docs_and_not,
                                           search_docs_or)
            terms = a.terms.split()
            if a.exclude:
                ds = search_docs_and_not(a.sf_dir, terms,
                                         exclude=a.exclude.split(),
                                         index_dir=a.index_dir)
            elif a.mode == "or":
                ds = search_docs_or(a.sf_dir, terms, index_dir=a.index_dir)
            else:
                ds = search_docs_and(a.sf_dir, terms, index_dir=a.index_dir)
            ids = ds.limit(a.limit).to_pandas()["doc_id"].tolist()
            print(json.dumps({"terms": terms, "mode": a.mode,
                              "exclude": (a.exclude or "").split(),
                              "n_shown": len(ids), "doc_ids": ids}))
        elif a.cmd == "purge":
            from .pipelines.purge import purge_keys
            print(json.dumps(purge_keys(a.index_dir, a.keys.split(),
                                        key_col=a.key_col,
                                        audit_path=a.audit)))
        elif a.cmd == "ses-stats":
            from .pipelines.streaming import ses_email_stats
            row = ses_email_stats(a.sf_dir, threshold=a.threshold).iloc[0]
            print(json.dumps({k: (str(v) if k.endswith("timestamp")
                                  else int(v)) for k, v in row.items()}))
        elif a.cmd == "process-keys":
            from .sources.objstore import (get_and_process_keys,
                                           process_local_files)
            n_local = (process_local_files(a.local, a.cache)
                       if a.local else 0)
            n = get_and_process_keys(a.store, a.cache,
                                     page_size=a.page_size)
            print(json.dumps({"keys": n, "local_keys": n_local}))
        elif a.cmd == "alert":
            from .pipelines.streaming import run_alert_cycle
            flushed = run_alert_cycle(a.sf_dir, a.state)
            print(json.dumps({"batches": int(len(flushed)),
                              "messages":
                                  int(flushed["n_messages"].sum())
                                  if len(flushed) else 0}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
