"""Run environment: directories, Ray lifetime, process cleanup and host
context (CPU canary, steal, peak memory), all read from /proc."""

from __future__ import annotations

import ctypes
import glob
import os
import shutil
import signal
import statistics
import threading
import time

import numpy as np

PR_SET_CHILD_SUBREAPER = 36


def nproc() -> int:
    """The count `nproc` prints: OMP_NUM_THREADS when set, else the CPUs
    this process may run on, capped by OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    want = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if want.isdigit() and int(want) > 0:
        n = int(want)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


# ------------------------------------------------------------------ /proc


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int, skip: set[int] = frozenset()) -> list[int]:
    """Every descendant of pid, leaving out the processes in skip and
    their own descendants."""
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in skip:
                out.append(c)
                todo.append(c)
    return out


def pss_kb(pid: int) -> int:
    """Proportional set size: each page shared by n processes counts 1/n
    in each, so a sum over processes counts the object store, shared
    libraries and forked worker images once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Steal jiffies as a share of all jiffies between two samples."""
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return 100.0 * delta[7] / total if total > 0 else 0.0


def canary_ms() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed, not ours."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i
    return (time.perf_counter() - t0) * 1000.0


class PssSampler:
    """Peak over time of the summed PSS of this process and every
    descendant (Ray daemons and workers) except the benchmark's own
    helper processes, sampled on a thread. The thread runs off the run's
    CPUs when the host has others (see pin_process_tree)."""

    def __init__(self, exclude: set[int], interval: float = 0.5) -> None:
        self.exclude = exclude
        self.interval = interval
        self.peak_kb = 0
        self.native_id = 0
        self.off_cpu = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        total = pss_kb(me) + sum(pss_kb(p) for p in descendants(me, skip=self.exclude))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        spare = set(os.sched_getaffinity(0)) - set(run_cpus())
        if spare:
            os.sched_setaffinity(0, spare)
            self.off_cpu = True
        self.native_id = threading.get_native_id()
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> None:
        self.sample()
        self._thread.start()
        while not self.native_id:
            time.sleep(0.001)

    def stop(self) -> float:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        self.sample()
        return self.peak_kb / 1024.0


# ------------------------------------------------------------------ host speed


class BusyMeter:
    """CPU time (ns) used by every thread other than the calling one: the
    other threads of this process and all threads of its descendants
    (Ray's daemons and workers) except the benchmark's helpers, read from
    /proc/<pid>/task/<tid>/schedstat. The thread list is re-read at most
    every REFRESH_S seconds. Threads in exclude_tids run off the run's
    CPUs and are left out too."""

    REFRESH_S = 1.0

    def __init__(self, exclude: set[int], exclude_tids: set[int]) -> None:
        self.exclude = exclude
        self.exclude_tids = exclude_tids
        self._fds: dict[str, int] = {}
        self._at = float("-inf")

    def _refresh(self) -> None:
        me = os.getpid()
        want = set()
        for pid in [me] + descendants(me, skip=self.exclude):
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            want.update(f"/proc/{pid}/task/{t}/schedstat" for t in tids
                        if int(t) not in self.exclude_tids)
        want.discard(f"/proc/{me}/task/{threading.get_native_id()}/schedstat")
        for path in set(self._fds) - want:
            os.close(self._fds.pop(path))
        for path in want - set(self._fds):
            try:
                self._fds[path] = os.open(path, os.O_RDONLY)
            except OSError:
                pass
        self._at = time.perf_counter()

    def read(self) -> dict[str, int]:
        if time.perf_counter() - self._at > self.REFRESH_S:
            self._refresh()
        out = {}
        for path, fd in list(self._fds.items()):
            try:
                out[path] = int(os.pread(fd, 64, 0).split(None, 1)[0])
            except (OSError, ValueError, IndexError):  # the thread ended
                os.close(self._fds.pop(path))
        return out

    @staticmethod
    def used(before: dict[str, int], after: dict[str, int]) -> int:
        return sum(v - before[p] for p, v in after.items() if p in before)

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()


class HostSpeed:
    """Samples of how fast the host runs, to scale timings to one
    reference speed.

    A shared host runs the same code at different speeds from one minute
    to the next, on all its CPUs at once: on a shared 4-vCPU Xeon VM a
    fixed loop took from 7 to 12 ms within two minutes, and unscaled
    timings of one workload over ten runs spread by 0.36 to 0.52 of
    their median. Repeating work inside a run does not average that away. A
    sample is the wall time of a fixed pure-Python loop of about a
    millisecond, taken on the run's own CPU between operations and never
    during one. scaled() gives the time a span would have taken on a
    host that runs the loop in REF_S seconds.

    The yardstick must not depend on the program: a sample during which
    any other thread of the run (the program's Ray daemons, workers and
    actors, or the driver's own threads) used more than BUSY_NS of CPU
    is dropped and taken again, up to TRIES times per sample wanted.
    Work the program leaves running after an operation thus neither
    slows the yardstick nor makes scaled timings read better.
    """

    LOOP = 20_000
    REF_S = 0.0008
    BUSY_NS = 20_000
    TRIES = 10

    def __init__(self, meter: BusyMeter) -> None:
        self.meter = meter
        self.t: list[float] = []
        self.s: list[float] = []
        self.dropped = 0

    def sample(self, n: int = 1) -> None:
        kept = 0
        for _ in range(n * self.TRIES):
            before = self.meter.read()
            t0 = time.perf_counter()
            s = 0
            for i in range(self.LOOP):
                s += i
            t1 = time.perf_counter()
            if self.meter.used(before, self.meter.read()) > self.BUSY_NS:
                self.dropped += 1
                continue
            self.t.append(t1)
            self.s.append(t1 - t0)
            kept += 1
            if kept == n:
                return

    def scaled(self, dt: float, t0: float, t1: float, pad: float) -> float:
        """dt, a duration measured over [t0, t1], scaled by REF_S over the
        median sample taken within pad seconds of that span (the nearest
        sample when none was)."""
        if not self.t:
            return dt
        t = np.asarray(self.t)
        s = np.asarray(self.s)
        near = s[(t >= t0 - pad) & (t <= t1 + pad)]
        ref = np.median(near) if near.size else s[np.argmin(np.abs(t - (t0 + t1) / 2.0))]
        return dt * self.REF_S / float(ref)


# ------------------------------------------------------------------ session


class Session:
    """Per-run directories under the checkout plus the Ray cluster.

    Ray's session directory holds Unix sockets whose paths may not exceed
    107 bytes, so it lives under the checkout only when that path is
    short enough; otherwise Ray's default location is used.
    """

    def __init__(self, root: str, tag: str) -> None:
        self.root = root
        self.cache_dir = os.path.join(root, ".perfbench_cache")
        self.out_dir = os.path.join(root, ".perfbench_out")
        self.run_dir = os.path.join(root, ".perfbench_tmp", f"{tag}-{os.getpid()}")
        os.makedirs(self.run_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        # the benchmark's own processes and off-CPU threads (see
        # pin_process_tree); the oracle process is started by start_helper
        self.helpers: set[int] = set()
        self.off_cpu_tids: set[int] = set()
        self.helper = None
        self._ray = False
        self._ray_tmp = None
        self._ray_sessions: set[str] = set()
        self._seq = 0
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            libc.prctl.restype = ctypes.c_int
            libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass

    def fresh_dir(self, name: str) -> str:
        self._seq += 1
        d = os.path.join(self.run_dir, f"{name}-{self._seq}")
        os.makedirs(d)
        return d

    def start_helper(self) -> None:
        from perfbench.oracle_proc import Helper

        self.helper = Helper(self.root, set(os.sched_getaffinity(0)) - set(run_cpus()))
        self.helpers.add(self.helper.pid)

    def start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        # Ray workers do not inherit the driver's sys.path: export the
        # checkout so tokenize_batch and friends import in every worker
        paths = [self.root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        kw = {}
        ray_tmp = os.path.join(self.root, ".perfbench_ray")
        if len(ray_tmp) <= 40:
            kw["_temp_dir"] = ray_tmp
            self._ray_sessions = set(glob.glob(os.path.join(ray_tmp, "session_*")))
            self._ray_tmp = ray_tmp
        ray.init(
            address="local",
            num_cpus=nproc(),
            object_store_memory=256 << 20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            **kw,
        )
        self._ray = True
        pin_process_tree(self.helpers, self.off_cpu_tids)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def close(self) -> None:
        """Stop Ray, stop and reap every process this run started, and
        remove the per-run directory."""
        try:
            if self._ray:
                import ray

                try:
                    ray.shutdown()
                finally:
                    self._ray = False
        finally:
            if self.helper is not None:
                self.helper.close()
                self.helper = None
        reap_descendants()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if self._ray_tmp:
            for d in set(glob.glob(os.path.join(self._ray_tmp, "session_*"))) - self._ray_sessions:
                if os.path.islink(d):
                    os.unlink(d)
                else:
                    shutil.rmtree(d, ignore_errors=True)


def run_cpus() -> list[int]:
    """The CPUs the run is pinned to: the last nproc() of this process's."""
    return sorted(os.sched_getaffinity(0))[-nproc():]


def pin_process_tree(skip_pids: set[int], skip_tids: set[int]) -> None:
    """Run every thread of this process and its descendants (Ray's daemons
    and workers; workers started later inherit it) on run_cpus(), except
    the benchmark's own helper processes and threads given.
    On a shared VM, spreading over more vCPUs than Ray may use invites
    hypervisor steal that swings every timing between runs; the last
    CPUs take fewer interrupts than CPU 0."""
    cpus = run_cpus()
    for pid in [os.getpid()] + descendants(os.getpid(), skip=skip_pids):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            if int(tid) in skip_tids:
                continue
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                pass


def reap_descendants(timeout: float = 10.0) -> None:
    me = os.getpid()
    deadline = time.time() + timeout
    sig = signal.SIGTERM
    while True:
        _reap_zombies()
        alive = descendants(me)
        if not alive:
            return
        if time.time() > deadline:
            sig = signal.SIGKILL
        for p in alive:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
