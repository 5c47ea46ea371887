"""One logical CPU: the idempotent serve insert and the parsed-sink dedup
finish in a Ray session started with ``num_cpus=1`` (a hash exchange
there never completes, so these keyed plans must not need one on a small
corpus).  Runs in a subprocess that owns its Ray session, under a hard
timeout that kills the whole process group."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from .conftest import SF_SMOKE

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TIMEOUT_S = 300

_SCRIPT = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from security_log_analysis_rust_ray.pipelines.reports import parsed
from security_log_analysis_rust_ray.serve import AppState
from security_log_analysis_rust_ray.stages.dedup import (NATURAL_KEY,
                                                        dedup_keep_first)
sf_dir, state_dir = sys.argv[1], sys.argv[2]
app = AppState(sf_dir, state_dir)
row = [{"service": "ssh", "server": "server-x",
        "datetime": "2031-01-01T00:00:00Z", "host": "h1.example.com",
        "username": "root"}]
out = {"first": app.insert_intrusion_log(row),
       "again": app.insert_intrusion_log(row),
       "dedup": dedup_keep_first(parsed(sf_dir)).count(),
       "expected": len(parsed(sf_dir).to_pandas().drop_duplicates(
           NATURAL_KEY))}
ray.shutdown()
print(json.dumps(out))
"""


def test_one_cpu_insert_and_dedup_finish(tmp_path):
    env = dict(os.environ, PYTHONPATH=_REPO)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, SF_SMOKE, str(tmp_path / "state")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"num_cpus=1 run did not finish within {_TIMEOUT_S} s")
    assert proc.returncode == 0, err[-1000:]
    got = json.loads(out.strip().splitlines()[-1])
    assert (got["first"], got["again"]) == (1, 0), got
    assert got["dedup"] == got["expected"], got
