"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest|report|serve --seed N --seconds S
                             --trace 0|1

Generates the workload's input from ``--seed`` (cached per workload and
seed under ``.perfbench/``), then starts ``worker.py`` processes, each
owning one Ray session with ``num_cpus = max(2, nproc)`` logical CPUs:

* ``--trace 0``: one measuring process, which reports its set-up time and
  then runs the closed loop for ``--seconds``.  Prints every end-to-end
  metric.
* ``--trace 1``: the same fixed operation schedule twice for the same
  seed, untraced then traced.  Prints every per-layer metric, including
  self time per layer and the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats, workloads  # noqa: E402

PKG = "security_log_analysis_rust_ray"
WORK = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0                  # a run must end within 180 s
# a measuring run makes whole schedule cycles, and at least MIN_OPS
# operations whatever the machine speed, so its medians always rest on
# that many samples
CYCLE = {"ingest": 2, "report": 4, "serve": len(workloads.SERVE_CYCLE)}
MIN_OPS = {"ingest": 8 * CYCLE["ingest"], "report": 3 * CYCLE["report"],
           "serve": 2 * CYCLE["serve"]}
# the traced run's fixed schedule
FIXED_OPS = {"ingest": 2 * CYCLE["ingest"], "report": CYCLE["report"],
             "serve": CYCLE["serve"]}
PAGE = os.sysconf("SC_PAGE_SIZE")


def num_cpus() -> int:
    """Logical CPUs for Ray: ``max(2, nproc)``.  At 1 CPU every hash
    exchange deadlocks (see README).  ``nproc`` honours OMP_NUM_THREADS,
    so it is asked rather than re-derived."""
    try:
        n = int(subprocess.run(["nproc"], capture_output=True, text=True,
                               check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        n = len(os.sched_getaffinity(0))
    return max(2, n)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _session(pid: int) -> tuple[int, str] | None:
    """(session id, state) of ``pid`` from /proc, None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            rest = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(rest[3]), rest[0]


def session_pids(sid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            s = _session(int(d))
            if s is not None and s[0] == sid and s[1] != "Z":
                out.append(int(d))
    return out


def session_rss_mb(sid: int) -> float:
    total = 0
    for pid in session_pids(sid):
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1])
        except OSError:
            pass
    return total * PAGE / 2**20


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU time of the machine so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        f = [int(x) for x in fh.readline().split()[1:]]
    return f[7], sum(f)


def reap(sid: int) -> None:
    """Kill whatever is left of a worker's session and wait until it is
    gone (Ray daemons outlive the worker by a few seconds)."""
    for _ in range(200):
        pids = session_pids(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
    raise RuntimeError(f"processes of session {sid} survived SIGKILL")


class Runner:
    def __init__(self, workload: str, seed: int, data: str):
        self.workload, self.seed, self.data = workload, seed, data
        self.deadline = time.time() + DEADLINE_S
        self.ray_temp = os.path.join(WORK, "r")
        # AF_UNIX paths are capped at 107 bytes; Ray appends ~62 to its
        # temp dir, so a deep checkout falls back to Ray's default
        if len(self.ray_temp) > 45:
            self.ray_temp = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["SLAR_CACHE_DIR"] = os.path.join(WORK, "slar_cache")
        self.env["RAY_USAGE_STATS_ENABLED"] = "0"
        self.n = 0

    def spawn(self, mode: str, sample_rss: bool = False, **opts) -> dict:
        self.n += 1
        tag = f"{self.workload}-{self.seed}-{mode}-{os.getpid()}-{self.n}"
        work = os.path.join(WORK, "run", tag)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        out = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--data", self.data, "--work", work, "--mode", mode,
               "--num-cpus", str(num_cpus()), "--out", out]
        if self.ray_temp:
            cmd += ["--ray-temp", self.ray_temp]
        for k, v in opts.items():
            cmd += [f"--{k.replace('_', '-')}", str(v)]
        peak = [0.0]
        steal0 = cpu_jiffies()
        log_path = os.path.join(WORK, "logs", tag + ".log")
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        t0 = time.time()
        with open(log_path, "w") as log:
            p = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                 stderr=subprocess.STDOUT,
                                 start_new_session=True)

            def sample():
                while p.poll() is None:
                    peak[0] = max(peak[0], session_rss_mb(p.pid))
                    time.sleep(0.25)

            sampler = threading.Thread(target=sample, daemon=True)
            if sample_rss:
                sampler.start()
            try:
                p.wait(timeout=max(1.0, self.deadline - time.time()))
            except subprocess.TimeoutExpired:
                pass
            reap(p.pid)
            p.wait()
            if sample_rss:
                sampler.join()
        self._clean_ray_temp(work)
        try:
            with open(out) as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            res = {"ops": [], "errors": [], "unrun": 0,
                   "fatal": f"{mode} worker exited {p.returncode} without"
                            f" a result:\n{tail}"}
        res["setup_s"] = res["setup_done"] - t0 if "setup_done" in res \
            else None
        res["peak_rss_mb"] = peak[0]
        steal1 = cpu_jiffies()
        # time the hypervisor gave to other guests: a run taken while it
        # is high measures the neighbours as much as this program
        res["steal_share"] = stats.ratio(steal1[0] - steal0[0],
                                         steal1[1] - steal0[1])
        shutil.rmtree(work, ignore_errors=True)
        return res

    def _clean_ray_temp(self, work: str) -> None:
        if self.ray_temp:
            dirs = glob.glob(os.path.join(self.ray_temp, "session_*"))
        else:
            try:
                with open(os.path.join(work, "ray_session")) as fh:
                    dirs = [fh.read()]
            except OSError:
                dirs = []
        for d in dirs:
            if os.path.islink(d):
                os.unlink(d)
            else:
                shutil.rmtree(d, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over worker results.  Every worker's
    cold first execution is an op too.  A failed op is an exception, a
    timeout, an op left unrun by a wedged session, or a wrong output (one
    check error per operation)."""
    attempted = failed = 0
    errors: list[str] = []
    for r in results:
        bad = [f"{o[0]}: {o[3]}" for o in r["ops"] if not o[2]]
        fatal = [r["fatal"]] if r.get("fatal") else []
        attempted += 1 + len(r["ops"]) + r["unrun"]
        failed += len(bad) + r["unrun"] + len(r["errors"]) + len(fatal)
        errors += fatal + r["errors"] + bad
    return attempted, min(failed, attempted), errors


def latencies(res: dict, workload: str) -> tuple[list[float], list[float]]:
    """(main, second) operation latencies of the successful ops."""
    ok = [o for o in res["ops"] if o[2]]
    main, second = workloads.main_classes(workload), \
        workloads.second_classes(workload)
    return ([o[1] for o in ok if main is None or o[0] in main],
            [o[1] for o in ok if o[0] in second])


def end_to_end(workload: str, res: dict) -> tuple:
    main, second = latencies(res, workload)
    ok = [o for o in res["ops"] if o[2]]
    metrics = {
        "setup_s": (res["setup_s"], "s"),
        "p50_ms": (stats.percentile(main, 50), "ms"),
        "second_p50_ms": (stats.percentile(second, 50), "ms"),
        "ops_per_s": (len(ok) / res["busy_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = [f"  setup_s        {metrics['setup_s'][0]:10.3f} s"]
    p50, p50_2 = metrics["p50_ms"][0], metrics["second_p50_ms"][0]
    if workload in ("ingest", "report"):
        turns = res["turns"][workloads.main_classes(workload)[0]]
        what, second_name = (("full ingest passes", "incremental_s")
                             if workload == "ingest" else
                             ("country reports", "cleanup_s"))
        lines += [
            f"  turns_per_s    {turns / (p50 / 1e3):10.0f} turns/s "
            f"{turns} turns / median of {len(main)} {what}",
            f"  {second_name:14s} {p50_2 / 1e3:10.3f} s      "
            f"median of {len(second)}"]
    else:
        lines += [
            f"  rps            {metrics['ops_per_s'][0]:10.3f} req/s  "
            f"{len(ok)} requests in {res['busy_s']:.1f} s, one client",
            f"  p50_ms         {metrics['p50_ms'][0]:10.1f} ms     "
            f"n={len(main)}",
            f"  p90_ms         {stats.percentile(main, 90):10.1f} ms     "
            f"n={len(main)}, {stats.beyond(main, 90)} samples beyond",
            f"  write_p50_ms   {p50_2:10.1f} ms     "
            f"POST/DELETE, n={len(second)}"]
    return metrics, lines


def per_layer(plain: dict, traced: dict) -> dict:
    """The traced run's layer numbers, plus per-route medians and the
    tracing overhead from its untraced twin."""
    m = dict(traced["layers"])
    # route medians come from the untraced twin (same seed, same schedule)
    from perfbench.trace import ROUTES
    cls_of = {"attempts_hit": ("hit",), "attempts_miss": ("miss",),
              "intrusion_log": ("intrusion_log",),
              "log_messages": ("log_messages",),
              "insert": ("insert", "replay"), "delete": ("delete",)}
    for route in ROUTES:
        xs = [o[1] for o in plain["ops"] if o[2] and o[0] in cls_of[route]]
        m[f"serve.{route}.p50_ms"] = stats.percentile(xs, 50) if xs else 0.0
    m["trace.untraced_wall_s"] = plain["busy_s"]
    m["trace.traced_wall_s"] = traced["busy_s"]
    m["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"] - 1.0
    return m


def layer_unit(name: str) -> str:
    if name.startswith("self_s."):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if "ratio" in name or name.endswith("per_request"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.BENCHES),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, PKG, "__init__.py")):
        print(f"perfbench: package {PKG} not found under {ROOT}",
              file=sys.stderr)
        return 2

    t_gen = time.time()
    data = workloads.prepare(a.workload, a.seed, os.path.join(WORK, "data"))
    runner = Runner(a.workload, a.seed, data)
    print(f"perfbench {a.workload} seed={a.seed} num_cpus={num_cpus()} "
          f"input ready in {time.time() - t_gen:.1f} s")
    if a.trace == 0:
        res = runner.spawn("measure", sample_rss=True, seconds=a.seconds,
                           min_ops=MIN_OPS[a.workload],
                           cycle=CYCLE[a.workload])
        with open(os.path.join(WORK, f"last-{a.workload}.json"), "w") as fh:
            json.dump(res, fh)
        attempted, failed, errors = tally([res])
        main_lat, second_lat = latencies(res, a.workload)
        if res.get("fatal") or not (res["setup_s"] and main_lat
                                    and second_lat):
            for e in errors:
                print("  FAILED", e, file=sys.stderr)
            print(f"  {failed} of {attempted} ops failed", file=sys.stderr)
            return 1
        metrics, lines = end_to_end(a.workload, res)
        for cls in sorted({o[0] for o in res["ops"]}):
            xs = [o[1] for o in res["ops"] if o[0] == cls and o[2]]
            if xs:
                lines.append(f"    {cls:18s} p50 {stats.percentile(xs, 50):9.1f}"
                             f" ms  n={len(xs)}")
        lines.append(f"  peak_rss_mb    {metrics['peak_rss_mb'][0]:10.1f} MB")
        lines.append(f"  cpu steal      {res['steal_share']:10.3f}"
                     f"        share of machine CPU time, measuring worker")
        lines.append(f"  failed_ratio   {stats.ratio(failed, attempted):10.4f}"
                     f"        {failed} of {attempted} ops")
    else:
        n = FIXED_OPS[a.workload]
        plain = runner.spawn("fixed", min_ops=n)
        tdir = os.path.join(WORK, "trace",
                            f"{a.workload}-{a.seed}-{os.getpid()}")
        shutil.rmtree(tdir, ignore_errors=True)
        os.makedirs(tdir)
        traced = runner.spawn("fixed", min_ops=n, trace_dir=tdir)
        shutil.rmtree(tdir, ignore_errors=True)
        attempted, failed, errors = tally([plain, traced])
        if plain.get("fatal") or traced.get("fatal") or "layers" not in traced:
            for e in errors:
                print("  FAILED", e, file=sys.stderr)
            print(f"  {failed} of {attempted} ops failed", file=sys.stderr)
            return 1
        m = per_layer(plain, traced)
        metrics = {k: (v, layer_unit(k)) for k, v in m.items()}
        lines = [f"  {k:32s} {v:14.4f} {u}" for k, (v, u) in metrics.items()]
        lines.append(f"  ({n} ops each run, {traced.get('n_spans', 0)} spans)")
    for line in lines:
        print(line)
    for e in errors:
        print("  FAILED", e)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
