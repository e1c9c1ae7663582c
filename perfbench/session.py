"""Ray session lifecycle for the benchmark: start, smoke check, spill
watch, stop.

The driver makes itself the reaper of its orphaned descendants, so every
process Ray starts (the raylet's workers too, once the raylet is gone)
stays in its tree; ``stop`` waits until all of them have ended.

Everything the session writes stays under the checkout's ``.perfbench``
directory: object spilling always, Ray's session directory whenever its
path is short enough for Ray's unix sockets.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
import shutil
import signal
import threading
import time

NUM_CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
# Ray stops spilling (OutOfDiskError) once the spill filesystem is this full
# (``local_fs_capacity_threshold``)
SPILL_FS_THRESHOLD = 0.95
# how often SpillWatch samples the spill directory
SPILL_SAMPLE_S = 0.25
# how long stopped processes get to exit before SIGKILL, and after it
EXIT_GRACE_S = 15.0
KILL_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36
# AF_UNIX paths are limited to 107 bytes; Ray appends ~62 bytes of
# session and socket names to its temp dir
_MAX_RAY_TEMP_DIR = 107 - 64


class SpillLimitError(RuntimeError):
    """Spilling has filled the spill filesystem past Ray's threshold."""


def disk_headroom_mb(path: str) -> float:
    """MB that may still be written under ``path`` before the filesystem
    crosses Ray's spill threshold (negative once past it)."""
    u = shutil.disk_usage(path)
    # Ray counts a filesystem as used up to its capacity minus what is
    # available to this user, reserved blocks included
    return (u.free - (1 - SPILL_FS_THRESHOLD) * u.total) / 1e6


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:  # spilled object deleted while walking
                pass
    return total


class SpillWatch:
    """Samples the spill directory in a background thread: records the
    peak MB on disk and flags a run whose spilling pushed the filesystem
    past Ray's threshold, so the run fails loudly instead of hanging in
    Ray's spill retries."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.peak_mb = 0.0
        self.over_limit = False
        self._stop = threading.Event()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(SPILL_SAMPLE_S)

    def sample(self) -> None:
        mb = _dir_bytes(self.spill_dir) / 1e6
        self.peak_mb = max(self.peak_mb, mb)
        if mb > 0 and disk_headroom_mb(self.spill_dir) < 0:
            self.over_limit = True

    def __enter__(self) -> "SpillWatch":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        if self.over_limit and exc[0] is None:
            raise SpillLimitError(
                f"spilling to {self.spill_dir} pushed the filesystem past "
                f"{SPILL_FS_THRESHOLD:.0%} full")


def quiet_ray_data() -> None:
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def start(repo_root: str, state_root: str) -> dict:
    """``ray.init`` with NUM_CPUS cpus and worker imports of the package
    from ``repo_root``.  Returns the session's paths and init seconds
    (net of stolen cpu time, and raw)."""
    import ray

    # the raylet inherits the driver's environment, so every worker can
    # import the package from the checkout and keeps single-threaded
    # numpy / Arrow kernels
    paths = [repo_root] + [p for p in
                           os.environ.get("PYTHONPATH", "").split(os.pathsep)
                           if p and p != repo_root]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["OMP_NUM_THREADS"] = "1"
    spill_dir = os.path.join(state_root, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    temp_dir = os.path.join(state_root, "ray")
    kw = {}
    if len(temp_dir) <= _MAX_RAY_TEMP_DIR:
        kw["_temp_dir"] = temp_dir
    with StealClock() as clock:
        ray.init(address="local", num_cpus=NUM_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 _system_config={
                     "object_spilling_config": json.dumps({
                         "type": "filesystem",
                         "params": {"directory_path": spill_dir}})},
                 **kw)
    quiet_ray_data()
    return {"init_s": clock.seconds, "init_wall_s": clock.wall_s,
            "spill_dir": spill_dir,
            "ray_temp_dir": kw.get("_temp_dir", "ray default")}


def _worker_package_file() -> str:
    import biobloom_ray

    return biobloom_ray.__file__


def smoke_check(repo_root: str) -> None:
    """Fail fast unless every worker imports ``biobloom_ray`` from this
    checkout: one task per cpu, scheduled together."""
    import ray

    want = os.path.realpath(os.path.join(repo_root, "biobloom_ray",
                                         "__init__.py"))
    fn = ray.remote(num_cpus=1)(_worker_package_file)
    got = ray.get([fn.remote() for _ in range(NUM_CPUS)], timeout=120)
    bad = {os.path.realpath(g) for g in got} - {want}
    if bad:
        raise RuntimeError(f"workers import biobloom_ray from {bad}, "
                           f"not {want}")


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits (Linux ``PR_SET_CHILD_SUBREAPER``), so none escapes the wait in
    ``end_descendants``."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): "
                           f"{os.strerror(err)}")


def _live_descendants() -> set[int]:
    """Pids of this process's descendants that have not exited."""
    children: dict[int, list[int]] = {}
    zombies = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                # the command name may hold spaces and parentheses
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except OSError:  # exited while listing
            continue
        children.setdefault(int(ppid), []).append(int(name))
        if state in ("Z", "X"):
            zombies.add(int(name))
    found, todo = set(), [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), ()):
            if c not in found:
                found.add(c)
                todo.append(c)
    return found - zombies


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_descendants() -> None:
    """Wait until every descendant of this process has ended: SIGKILL
    those still alive after EXIT_GRACE_S, and raise if any outlives
    KILL_GRACE_S more."""
    deadline = time.monotonic() + EXIT_GRACE_S
    killed = False
    while True:
        _reap()
        alive = _live_descendants()
        if not alive:
            return
        if time.monotonic() >= deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(alive)} outlived "
                                   f"SIGKILL")
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + KILL_GRACE_S
        time.sleep(0.02)


def stop() -> None:
    """``ray.shutdown`` and wait until every process it stops has ended
    (``ray.shutdown`` only signals them)."""
    import ray

    try:
        ray.shutdown()
    finally:
        end_descendants()


def cpu_times() -> list[int]:
    """The machine's aggregate cpu jiffies (``/proc/stat``)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of this machine's runnable cpu time that the hypervisor gave
    to other guests between two ``cpu_times`` readings."""
    user, nice, system, _idle, _iowait, irq, softirq, steal = [
        a - b for a, b in zip(after[:8], before[:8])]
    runnable = user + nice + system + irq + softirq + steal
    return steal / runnable if runnable else 0.0


class StealClock:
    """Wall time minus the share the hypervisor stole from this machine.

    On a shared host the stolen share swings between runs by tens of
    percent and stretches every wall time with it; scaling the wall by
    ``1 - steal_frac`` keeps the figures comparable across runs.  The raw
    wall and the stolen share are kept too."""

    def __enter__(self) -> "StealClock":
        self._cpu = cpu_times()
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t
        self.steal_frac = steal_frac(self._cpu, cpu_times())
        self.seconds = self.wall_s * (1 - self.steal_frac)


def reset_peak_rss() -> None:
    """Restart the driver's peak-RSS counter (Linux ``clear_refs``) from
    a trimmed heap."""
    import ctypes
    import gc

    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")
