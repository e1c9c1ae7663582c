"""Benchmark entry point.

    python3 perfbench/run.py --workload categorize_pages --seed 1 \
        --seconds 12 --trace 0

Run from the repository root.  One driver process generates the seeded
inputs, starts Ray with 4 cpus, sets up (``ray.init``, worker warm-up
and, for categorize, the filter bank) N_SETUPS times, then times passes
of the workload's public pipeline for ``--seconds`` seconds, checking
every pass's output.  Every reported time, end-to-end and per-layer, is
net of the cpu time the hypervisor stole from this machine during the
interval it measures (``session.StealClock``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass plus the single-thread layer replay and
reports the per-layer metrics.  Each metric prints as one
``name value unit`` line; the last stdout line is the JSON record.
Raw per-pass values, spans and Ray Data operator stats go to
``.perfbench/out/<workload>-s<seed>-t<trace>.json``.  The first output
digest of each input set is kept in ``.perfbench/out/digests.json``, and
every later pass, in this run or another, must reproduce it.

The run ends only after every process it started, Ray's included, has
ended (``session.end_descendants``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)
# a Ray call after ``ray.shutdown`` (say, from a Ray Data thread still
# winding down) must raise, not start a new cluster nothing would stop;
# read when ray is first imported
os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"

from perfbench import session, workloads  # noqa: E402
from perfbench.trace import ExecutionRecorder, Tracer  # noqa: E402

N_SETUPS = 2
MAX_FAILED_PASSES = 3

END_TO_END = {
    "docs_per_s": "docs/s",
    "partition_s": "s",
    "setup_s": "s",
    "driver_peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Every per-layer metric; a traced run reports 0 for the layers its
# workload never enters.
PER_LAYER = {
    "textnorm.normalize_s": "s",
    "hashing.shingle_s": "s",
    "hashing.frames": "count",
    "sketches.bloom.contains_s": "s",
    "sketches.bloom.probes": "count",
    "sketches.bloom.frame_hit_frac": "frac",
    "scoring.eval_s": "s",
    "stages.categorize.label_s": "s",
    "stages.categorize.actor_call_s": "s",
    "stages.categorize.unattributed_s": "s",
    "pipelines.categorize.parallel_eff": "frac",
    "stages.build.expected_entries_s": "s",
    "sketches.bloom.insert_s": "s",
    "sketches.hll.update_s": "s",
    "sketches.bloom.serialize_s": "s",
    "stages.build.merge_s": "s",
    "stages.build.builder_call_s": "s",
    "stages.build.unattributed_s": "s",
    "stages.build.partials": "count",
    "stages.build.partial_mb": "MB",
    "sketches.bloom.distinct_frac": "frac",
    "pipelines.build.parallel_eff": "frac",
    "pipelines.resumable.partition_s_first": "s",
    "pipelines.resumable.partition_s_last": "s",
    "pipelines.resumable.gate_kept_frac": "frac",
    "pipelines.resumable.exact_kept_frac": "frac",
    "pipelines.resumable.neardup_drop_frac": "frac",
    "stages.dedup.content_hash_s": "s",
    "stages.dedup.minhash_sig_s": "s",
    "stages.dedup.pairs_s": "s",
    "pipelines.resumable.state_files_read": "count",
    "pipelines.resumable.parallel_eff": "frac",
    "ray.init_s": "s",
    "object_store.spilled_mb": "MB",
    "ray_data.executions_per_partition": "count",
    "ray_data.task_wall_s": "s",
    "trace.overhead_frac": "frac",
}


def _timed_pass(wl, spill_dir: str) -> dict:
    """One timed pass; never raises — a failure is recorded instead."""
    rec = {"headroom_mb": session.disk_headroom_mb(spill_dir)}
    watch = session.SpillWatch(spill_dir)
    clock = session.StealClock()
    try:
        if rec["headroom_mb"] < session.OBJECT_STORE_BYTES / 1e6:
            raise session.SpillLimitError(
                f"only {rec['headroom_mb']:.0f} MB left before the spill "
                f"filesystem reaches {session.SPILL_FS_THRESHOLD:.0%}")
        with clock, watch:
            rec.update(wl.execute())
        rec["ok"] = True
    except Exception as e:  # a failed pass counts against ok_frac
        traceback.print_exc(file=sys.stderr)
        rec.update(ok=False, error=f"{type(e).__name__}: {e}"[:2000])
    rec["spilled_mb"] = watch.peak_mb
    rec["steal_frac"] = clock.steal_frac
    rec["peak_rss_mb"] = session.peak_rss_mb()
    return rec


def measure(wl, spill_dir: str, seconds: float) -> list[dict]:
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(_timed_pass(wl, spill_dir))
        failed = sum(not p["ok"] for p in passes)
        if time.perf_counter() - t0 >= seconds or \
                failed >= MAX_FAILED_PASSES:
            return passes


def _net_s(p: dict) -> float:
    """A pass's wall seconds net of stolen cpu time."""
    return p["wall_s"] * (1 - p["steal_frac"])


def _net_times(values: dict, steal: float) -> dict:
    """``values`` with every time in seconds scaled to net of ``steal``."""
    return {k: v * (1 - steal) if k.endswith("_s") or PER_LAYER.get(k) == "s"
            else v for k, v in values.items()}


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    """Medians over the passes, every time net of stolen cpu time."""
    ok = [p for p in passes if p["ok"]]
    rates = [p["docs"] / _net_s(p) for p in ok]
    parts = [s * (1 - p["steal_frac"]) for p in ok for s in p["partition_s"]]
    return {
        "docs_per_s": statistics.median(rates) if rates else 0.0,
        "partition_s": statistics.median(parts) if parts else 0.0,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        # through set-up and the first pass, so it does not depend on how
        # many passes fit in the run
        "driver_peak_rss_mb": passes[0]["peak_rss_mb"],
        "ok_frac": len(ok) / len(passes),
    }


def traced(wl, spill_dir: str, setups: list[dict],
           side: dict) -> tuple[dict, list[dict]]:
    """One untraced pass, one traced pass, then the layer replay.  Each
    time is net of the cpu time stolen while it was measured."""
    untraced = _timed_pass(wl, spill_dir)
    pass_tr = Tracer()
    with ExecutionRecorder() as recorder, \
            workloads.spans_around(pass_tr, wl.pass_targets()):
        traced_pass = _timed_pass(wl, spill_dir)
    passes = [untraced, traced_pass]
    if not (untraced["ok"] and traced_pass["ok"]):
        return {}, passes
    tr = Tracer()
    with session.StealClock() as clock:
        replay = wl.replay(tr)
    replay = _net_times(replay, clock.steal_frac)
    wall = _net_s(traced_pass)
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({k: v for k, v in replay.items() if k in PER_LAYER})
    m.update(_net_times(wl.traced_extras(recorder),
                        traced_pass["steal_frac"]))
    m.update({k: v for k, v in pass_tr.counts.items() if k in PER_LAYER})
    m[wl.pipeline + ".parallel_eff"] = (
        replay["replay_s"] / (session.NUM_CPUS * wall))
    m["ray.init_s"] = setups[-1]["init_s"]
    m["object_store.spilled_mb"] = traced_pass["spilled_mb"]
    m["ray_data.executions_per_partition"] = (
        len(recorder.executions) / len(traced_pass["partition_s"]))
    m["ray_data.task_wall_s"] = (recorder.task_wall_s()
                                 * (1 - traced_pass["steal_frac"]))
    m["trace.overhead_frac"] = wall / _net_s(untraced) - 1
    side["replay"] = replay
    side["replay_steal_frac"] = clock.steal_frac
    side["replay_trace"] = tr.dump()
    side["pass_trace"] = pass_tr.dump()
    side["ray_data_executions"] = recorder.executions
    return m, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import biobloom_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import biobloom_ray from {REPO_ROOT}: {e}",
              file=sys.stderr)
        return 2
    # a SIGTERM unwinds through the ``finally`` blocks that stop Ray
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    session.adopt_orphans()
    try:
        return _run(args)
    finally:
        session.end_descendants()


def _generate_inputs(cache_root: str, workload: str, seed: int) -> dict:
    """``inputs.materialize`` in a child process, so the driver's peak RSS
    is the same whether or not the inputs were cached."""
    code = ("import json, sys; from perfbench import inputs; "
            "print(json.dumps(inputs.materialize("
            "sys.argv[1], sys.argv[2], int(sys.argv[3]))))")
    out = subprocess.run(
        [sys.executable, "-c", code, cache_root, workload, str(seed)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _run(args) -> int:
    state = os.path.join(REPO_ROOT, ".perfbench")
    t0 = time.perf_counter()
    inp = _generate_inputs(os.path.join(state, "cache"), args.workload,
                           args.seed)
    side = {"args": vars(args), "inputs": inp["stats"],
            "input_s": time.perf_counter() - t0}
    out_dir = os.path.join(state, "out")
    os.makedirs(out_dir, exist_ok=True)
    digests_path = os.path.join(out_dir, "digests.json")
    digests = {}
    if os.path.exists(digests_path):
        with open(digests_path) as f:
            digests = json.load(f)
    wl = workloads.WORKLOADS[args.workload](
        inp, os.path.join(state, "work", args.workload), args.seed,
        digests.setdefault(inp["key"], {}))
    session.reset_peak_rss()

    setups = []
    try:
        for i in range(1 if args.trace else N_SETUPS):
            if i:
                session.stop()
            with session.StealClock() as clock:
                sess = session.start(REPO_ROOT, state)
                session.smoke_check(REPO_ROOT)
                wl.prepare()
            setups.append({"setup_s": clock.seconds, "wall_s": clock.wall_s,
                           "steal_frac": clock.steal_frac,
                           "init_s": sess["init_s"]})
        side["session"] = sess
        side["setups"] = setups
        if args.trace:
            metrics, passes = traced(wl, sess["spill_dir"], setups, side)
            units = PER_LAYER
        else:
            passes = measure(wl, sess["spill_dir"], args.seconds)
            metrics = end_to_end(passes, setups)
            units = END_TO_END
    finally:
        session.stop()
    wrong = wl.finish()
    if wrong:
        for p in passes:
            if p["ok"]:
                p.update(ok=False, error=f"CheckFailed: {wrong}")
        metrics["ok_frac"] = 0.0
    side["passes"] = passes
    failed = sum(not p["ok"] for p in passes)
    side["failed_frac"] = failed / len(passes)
    side["metrics"] = metrics

    tmp = digests_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(digests, f, indent=1)
    os.replace(tmp, digests_path)
    side_path = os.path.join(
        out_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(side_path, "w") as f:
        json.dump(side, f, indent=1, default=float)

    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"detail {os.path.relpath(side_path, REPO_ROOT)}")
    record = {
        "correct": failed == 0 and all(n in metrics for n in units),
        "attempted": len(passes),
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in units.items() if n in metrics},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
