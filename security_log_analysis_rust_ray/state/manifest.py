"""Per-partition lineage manifest (checkpoint/resume state).

Modeled on the reference's ``KeyItemCache`` sync-state table
(/root/reference/src/models.rs:849-859, driven by src/s3_sync.rs:130-231):
one record per input shard with input fingerprint, output row counts per
sink, watermark, and status.  A rerun reads the manifest, skips shards whose
record is ``done`` AND whose input fingerprint is unchanged, and reprocesses
the rest — the batch-pipeline meaning of "resumable from checkpoint".

An ingest record (``pipelines/ingest.py``) holds ``status``, ``input`` (the
fingerprint), ``rows``, ``watermark`` (max ``ts`` written, or None),
``sink_rows`` (rows per sink) and ``country_rows`` (rows per non-null
country; ``{}`` when the pass did not enrich).  All counts come from what
the shard's write reported; ``aggregates/`` is their sum over the done
records.  A done record without ``country_rows`` predates these counts and
makes its shard pending once.

Records are JSONL, appended atomically (single write + flush + fsync) AFTER
the shard's output directory has been atomically renamed into place, so a
kill at any point leaves either no record (shard rewritten on resume —
idempotent: the output dir is replaced wholesale) or a complete one.
"""

from __future__ import annotations

import json
import os


def input_fingerprint(path: str) -> dict:
    st = os.stat(path)
    return {"path": path, "size": st.st_size, "mtime_ns": st.st_mtime_ns}


class Manifest:
    def __init__(self, path: str):
        self.path = path
        self._records: dict[str, dict] = {}
        if os.path.exists(path):
            with open(path) as f:
                for line in f:
                    line = line.strip()
                    if line:
                        rec = json.loads(line)
                        self._records[rec["shard"]] = rec

    def is_done(self, shard: str, fingerprint: dict | None = None) -> bool:
        rec = self._records.get(shard)
        if rec is None or rec.get("status") != "done":
            return False
        if fingerprint is not None and rec.get("input") != fingerprint:
            return False
        return True

    def record(self, shard: str, **info) -> None:
        rec = {"shard": shard, **info}
        self._records[shard] = rec
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(rec, default=str) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def get(self, shard: str) -> dict | None:
        """One record without copying the whole map (the paged object-store
        fold calls this once per listed key)."""
        return self._records.get(shard)

    @property
    def records(self) -> dict[str, dict]:
        return dict(self._records)
