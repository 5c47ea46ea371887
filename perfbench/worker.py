"""One benchmark process: set up a Ray session and a workload, then run it.

    python3 perfbench/worker.py --workload W --seed N --data D --work DIR
        --mode measure|fixed [--seconds S] --min-ops N [--cycle C]
        [--trace-dir T] --num-cpus C --out RESULT.json

After the cold first execution, ``measure`` runs the workload's closed
loop for ``--seconds``, in whole cycles of ``--cycle`` operations and at
least ``--min-ops`` of them; ``fixed`` runs exactly ``--min-ops``
operations (the traced run and its untraced twin).  Only the workload's
``run`` is timed: its optional ``before``/``after`` hooks (input staging,
capturing the state an operation left) run outside the clock.  The
result, including the wall-clock instant set-up finished, is written to
``--out``; the launching process turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


class Wedged(Exception):
    """An operation outlived its timeout: the Ray session is presumed stuck."""


def bounded(fn, timeout: float):
    """Run ``fn`` on a helper thread; raise ``Wedged`` after ``timeout``.
    A wedged thread is left behind (the process exits without joining)."""
    box: dict = {}

    def body():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc

    t = threading.Thread(target=body, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        raise Wedged(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


def write(path: str, obj: dict) -> None:
    with open(path + ".tmp", "w") as fh:
        json.dump(obj, fh)
    os.replace(path + ".tmp", path)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--mode", choices=("measure", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--cycle", type=int, default=1)
    ap.add_argument("--trace-dir")
    ap.add_argument("--num-cpus", type=int, required=True)
    ap.add_argument("--ray-temp")
    ap.add_argument("--out", required=True)
    a = ap.parse_args()

    import ray
    from ray.data import DataContext

    # the package import is part of the set-up time users pay
    import security_log_analysis_rust_ray  # noqa: F401
    from perfbench import trace, workloads

    timeout = workloads.OP_TIMEOUT_S[a.workload]
    result: dict = {"ops": [], "errors": [], "fatal": None, "unrun": 0}
    kw = {"_temp_dir": a.ray_temp} if a.ray_temp else {}
    ray.init(address="local", num_cpus=a.num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=384 << 20, **kw)
    if not a.ray_temp:
        # Ray's default temp dir is outside the checkout: tell the
        # launcher which session dir to remove once this process is gone
        with open(os.path.join(a.work, "ray_session"), "w") as fh:
            fh.write(ray._private.worker._global_node.get_session_dir_path())
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    bench = workloads.BENCHES[a.workload](a.data, a.work, a.seed)
    try:
        bounded(bench.cold, timeout)
    except Wedged as exc:
        result["fatal"] = f"setup: {exc}"
        write(a.out, result)
        os._exit(3)
    except workloads.Failed as exc:
        result["errors"].append(f"setup: {exc}")
    result["setup_done"] = time.time()

    warm = getattr(bench, "warm", None)
    if warm is not None:
        try:
            bounded(warm, timeout)
        except Wedged as exc:
            result["fatal"] = f"warm-up: {exc}"
            write(a.out, result)
            os._exit(3)

    rec = None
    if a.trace_dir:
        rec = trace.Recorder(os.path.join(a.trace_dir, "main.jsonl"))
        counts = trace.install_main(rec, a.trace_dir)

    def one(cls: str):
        if rec is None:
            return bench.run(cls)
        with rec.span(f"op.{cls}", "op"):
            return bench.run(cls)

    before = getattr(bench, "before", None)
    after = getattr(bench, "after", None)
    sched = bench.schedule()
    ops = result["ops"]
    t0 = time.time()
    # fixed: exactly --min-ops; measure: --seconds and at least --min-ops,
    # rounded up to whole schedule cycles (so the mix is the same in
    # every run)
    while len(ops) < a.min_ops or (a.mode == "measure" and (
            time.time() - t0 < a.seconds or len(ops) % a.cycle)):
        cls = next(sched)
        ms = 0.0
        try:
            if before is not None:
                bounded(lambda: before(cls), timeout)
            t = time.perf_counter()
            try:
                bounded(lambda: one(cls), timeout)
            finally:
                ms = (time.perf_counter() - t) * 1e3
            if after is not None:
                bounded(lambda: after(cls, rec is not None), timeout)
            ops.append([cls, ms, True, ""])
        except Wedged as exc:
            ops.append([cls, ms or timeout * 1e3, False, str(exc)])
            # every op the run still owed: the minimum, the rest of the
            # current cycle, or the ops that would have fit in the
            # remaining time
            lat = sorted(o[1] for o in ops)
            by_time = 0.0 if a.mode == "fixed" else \
                max(0.0, a.seconds - (time.time() - t0)) * 1e3 \
                / max(lat[len(lat) // 2], 1.0)
            left = max(a.min_ops - len(ops), (-len(ops)) % a.cycle,
                       int(by_time + 0.999))
            result.update(fatal=f"{cls}: {exc}", unrun=left)
            break
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            ops.append([cls, ms, False, f"{type(exc).__name__}: {exc}"])
    # time inside the timed operations only: the closed loop's busy time
    result["busy_s"] = sum(o[1] for o in ops) / 1e3
    if result["fatal"]:
        write(a.out, result)
        os._exit(3)
    result["errors"] += bench.check()
    result["extras"] = bench.extras()
    result["turns"] = {cls: bench.turns(cls) for cls in {o[0] for o in ops}}
    if rec is not None:
        rec.flush()
        spans = trace.load_spans(a.trace_dir)
        result["layers"] = trace.layer_metrics(spans, counts, result["extras"])
        result["n_spans"] = len(spans)
    write(a.out, result)
    # the launcher kills the rest of this process's session (Ray daemons
    # and workers) once it has read the result; a clean ray.shutdown()
    # would only add seconds to every run
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
