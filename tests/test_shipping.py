"""Worker shippability from a neutral cwd — the regression that emptied
the round-3 driver artifact: Ray workers inherit the driver's cwd as
``sys.path[0]``, so a harness importing ``__ray_entry__`` from anywhere
but the repo root ships map functions no worker can deserialize unless
``shipping.ensure_worker_importable()`` falls back to by-value pickling.

The test runs a REAL subprocess with cwd=/ (package not importable from
there) and drives two queries end-to-end through the driver contract,
including an actor-pool stage, plus a media query whose codec module
must survive by-value pickling (no unpicklable module globals)."""

from __future__ import annotations

import json
import subprocess
import sys

SCRIPT = r"""
import json, sys, warnings
warnings.filterwarnings("ignore")
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, "/root/repo")
import __ray_entry__ as mod
qs = mod.queries()
out = {}
for name in ("country_counts", "enriched_resolved", "media_bmp_features"):
    res = qs[name]("/root/testdata/sf0.001")
    import pandas as pd
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    out[name] = len(df)
print("RESULT:" + json.dumps(out))
ray.shutdown()
"""


def test_queries_run_from_neutral_cwd():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd="/",
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("RESULT:")]
    assert line, proc.stdout[-2000:]
    counts = json.loads(line[0][len("RESULT:"):])
    assert counts["country_counts"] > 0
    assert counts["enriched_resolved"] > 0
    assert counts["media_bmp_features"] > 0


def test_probe_detects_and_registers(monkeypatch):
    """Unit level: the fallback registers every package module by value
    (idempotent; flag short-circuits the second call).  Registration is
    process-sticky, so it is undone afterwards to keep the rest of the
    suite on the cheap by-reference path."""
    import pkgutil

    from ray import cloudpickle

    import security_log_analysis_rust_ray as pkg
    from security_log_analysis_rust_ray import shipping
    n = shipping._register_all_by_value()
    assert n > 40  # every package module made self-contained
    monkeypatch.setattr(shipping, "_CHECKED", True)
    assert shipping.ensure_worker_importable()
    for mi in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + "."):
        try:
            cloudpickle.unregister_pickle_by_value(
                __import__(mi.name, fromlist=["_"]))
        except ValueError:
            pass
    cloudpickle.unregister_pickle_by_value(pkg)


IMPLICIT_SCRIPT = r"""
import json, sys, warnings
warnings.filterwarnings("ignore")
sys.path.insert(0, "/root/repo")
import __ray_entry__ as mod   # NO explicit ray.init: Ray Data auto-inits
import pandas as pd
res = mod.queries()["country_counts"]("/root/testdata/sf0.001")
df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
print("RESULT:" + json.dumps({"rows": len(df)}))
"""


def test_queries_run_without_explicit_ray_init():
    """The implicit-init ordering (review finding): a driver that never
    calls ray.init relies on Ray Data auto-init INSIDE the first query —
    too late for the worker probe, so shipping registers by value
    preemptively and the first query must still succeed from cwd=/."""
    proc = subprocess.run([sys.executable, "-c", IMPLICIT_SCRIPT], cwd="/",
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("RESULT:")]
    assert line, proc.stdout[-2000:]
    assert json.loads(line[0][len("RESULT:"):])["rows"] > 0


STALE_SCRIPT = r"""
import json, sys, warnings
warnings.filterwarnings("ignore")
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, sys.argv[1])
import pyarrow as pa
import ray.data as rd
from security_log_analysis_rust_ray.shipping import ensure_worker_importable
from security_log_analysis_rust_ray.stages.dedup import distinct_rows
try:
    ensure_worker_importable()
except RuntimeError as exc:
    print("ERROR:" + json.dumps(str(exc)))
    sys.exit(0)
ds = rd.from_arrow(pa.table({"k": [f"k{i % 5}" for i in range(40)]}))
print("RESULT:" + json.dumps(distinct_rows(ds.repartition(4), ["k"]).count()))
"""


def test_stale_package_copy_in_cwd_never_runs(tmp_path):
    """A package of the same name in the driver's cwd is what workers
    import, and by-reference pickling would run its code.  The copy here
    has an altered per-block UDF (every block loses its rows); the driver
    must give the true distinct count or a clear error naming both copies,
    never the altered result."""
    import os
    import shutil

    import security_log_analysis_rust_ray as pkg

    driver_dir = os.path.dirname(os.path.abspath(pkg.__file__))
    repo = os.path.dirname(driver_dir)
    stale = tmp_path / "security_log_analysis_rust_ray"
    shutil.copytree(driver_dir, stale,
                    ignore=shutil.ignore_patterns("__pycache__"))
    dedup = stale / "stages" / "dedup.py"
    src = dedup.read_text()
    head = "def _fill_sentinel(batch: pa.Table, cols: list[str]) -> pa.Table:\n"
    assert head in src
    dedup.write_text(src.replace(head, head + "    return batch.slice(0, 0)\n"))

    proc = subprocess.run([sys.executable, "-c", STALE_SCRIPT, repo],
                          cwd=str(tmp_path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = [ln for ln in proc.stdout.splitlines()
           if ln.startswith(("RESULT:", "ERROR:"))]
    assert out, proc.stdout[-2000:]
    if out[0].startswith("RESULT:"):
        assert json.loads(out[0][len("RESULT:"):]) == 5
    else:
        msg = json.loads(out[0][len("ERROR:"):])
        assert os.path.realpath(str(stale)) in msg
        assert os.path.realpath(driver_dir) in msg
