"""Shared pieces: process environment, run envelope, statistics, probes."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: The checkout root: this file lives in ``<root>/tunebench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "tunebench")

#: Pinned in every process the benchmark starts.  Bytecode writing is off
#: so each cold start compiles ``repro`` from source the same way, whatever
#: the caller's environment says, and nothing is written into the tree.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    return env


class BenchError(RuntimeError):
    """A correctness check failed; the run must exit non-zero."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(message)


# -- statistics --------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, Dict]:
    ms = [value * 1e3 for value in latencies_s]
    return {
        "op_p50_ms": metric(percentile(ms, 50), "ms"),
        "op_p90_ms": metric(percentile(ms, 90), "ms"),
        "op_mean_ms": metric(sum(ms) / len(ms), "ms"),
    }


def rounds_outcome(rounds: Dict[bool, List[Dict]], trace: bool) -> Dict:
    """Ops, wall and windows of the measured side of an in-process run.

    A traced run alternates untraced and traced rounds; its tracing
    overhead is traced time per op over untraced time per op, minus one.
    """
    measured = rounds[trace]
    latencies = [value for r in measured for value in r["latencies"]]
    wall = sum(r["wall"] for r in measured)
    ops = len(latencies)
    outcome = {"attempted": ops, "failed": 0, "ops": ops, "wall": wall,
               "latencies": latencies,
               "windows": [w for r in measured for w in r["windows"]]}
    if trace:
        plain = rounds[False]
        plain_per_op = (sum(r["wall"] for r in plain)
                        / sum(len(r["latencies"]) for r in plain))
        outcome["overhead_share"] = (wall / ops) / plain_per_op - 1.0
    return outcome


def in_process_metrics(colds: "ColdStarts", host: "HostSpeed", ops: int,
                       wall: float, latencies_s: Sequence[float],
                       tps_gain: float, slo_share: float) -> Tuple[Dict,
                                                                   Dict]:
    """End-to-end metrics of ``train``/``search``, host-normalized.

    Returns the metrics and envelope notes with the raw values.
    """
    factor = host.factor()
    raw = {"setup_s": colds.raw(), "ops_per_s": ops / wall,
           **{name: entry["value"] for name, entry
              in latency_metrics(latencies_s).items()}}
    metrics = {
        "setup_s": metric(colds.value(), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ops_per_s": metric(ops / wall * factor, "1/s"),
        **latency_metrics([value / factor for value in latencies_s]),
        "tps_gain": metric(tps_gain, "ratio"),
        "slo_share": metric(slo_share, "ratio"),
    }
    notes = {"host_factor": factor,
             "setup_host_factor": colds.host.factor(),
             "host_probes": len(host.samples), "raw": raw}
    return metrics, notes


# -- run envelope -----------------------------------------------------------

def blas_readback() -> Dict[str, object]:
    """BLAS library and its thread count, read from the loaded library."""
    import numpy  # noqa: F401 - loads the BLAS library being inspected
    info: Dict[str, object] = {"library": None, "threads": None,
                               "config": None}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "blas" in line.lower() and "/" in line})
    except OSError:
        return info
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                 None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["library"] = os.path.basename(path)
                info["threads"] = int(getter())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    info["config"] = config().decode("ascii", "replace")
                return info
    return info


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), "r",
                  encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_rev() -> str:
    """sha256 over every ``.py`` file under ``src/``."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def envelope(workload: str, seed: int, seconds: int, trace: bool,
             shard_blas: List[object] | None = None) -> Dict[str, object]:
    import numpy
    env = {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "git_rev": git_rev(),
        "src_rev": source_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_readback(),
    }
    if shard_blas is not None:
        env["service_blas_threads"] = shard_blas
    return env


def peak_rss_mb() -> float:
    """Peak resident set of this process (the in-process workloads)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pss_mb(pids: Sequence[int]) -> float:
    """Proportional set size summed over ``pids``: shared pages count once."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup", "r") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    children: List[int] = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children", "r") as handle:
            return [int(value) for value in handle.read().split()]
    except OSError:
        pass
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


# -- host speed --------------------------------------------------------------

#: The reference kernel's time in the fast phase of the 2-core Xeon sandbox
#: the benchmark was tuned on (``OPENBLAS_NUM_THREADS=1``).  Normalized
#: times are times at that host speed.
REFERENCE_KERNEL_S = 0.001


class HostSpeed:
    """A fixed numpy + Python kernel, timed between an in-process run's ops.

    The host's speed switches between two modes (about 1.45x apart) for
    seconds to minutes at a time.  The kernel's mean time over a run, over
    :data:`REFERENCE_KERNEL_S`, is the run's host factor; ``train`` and
    ``search`` divide their times by it, so a run in the slow mode and one
    in the fast mode report the same work alike.  The kernel is the
    benchmark's own: no change to the program can move it.
    """

    def __init__(self) -> None:
        import numpy
        self._matrix = numpy.random.default_rng(0).standard_normal((64, 64))
        self.samples: List[float] = []
        self.busy = 0.0

    def _kernel(self) -> float:
        matrix = self._matrix
        started = time.perf_counter()
        total = 0.0
        for _ in range(100):
            total += float((matrix @ matrix)[0, 0]) + sum(range(100))
        return time.perf_counter() - started

    def probe(self) -> float:
        """Time the kernel on a warm cache: the first call pays for what
        the workload left in the caches, the second is recorded."""
        started = time.perf_counter()
        self._kernel()
        elapsed = self._kernel()
        self.samples.append(elapsed)
        self.busy += time.perf_counter() - started
        return elapsed

    def spent(self) -> float:
        """Seconds spent probing, to take out of the workload's wall."""
        return self.busy

    def factor(self) -> float:
        return sum(self.samples) / len(self.samples) / REFERENCE_KERNEL_S


# -- cold starts -------------------------------------------------------------

def cold_start(workload: str, timeout: float = 60.0) -> float:
    """Seconds from launching a fresh interpreter until it is ready.

    The child (``coldstart.py``) imports the package, builds what the
    workload needs for its first op, runs that op's first evaluation and
    prints ``ready``.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "coldstart.py"), workload],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.stdout.read()
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    stderr = process.stderr.read()
    process.stdout.close()
    process.stderr.close()
    check(line.strip() == "ready" and process.returncode == 0,
          f"cold start of {workload} failed: {stderr.strip()[-400:]}")
    return elapsed


class ColdStarts:
    """Cold starts spread evenly across a run, aggregated by their mean.

    One cold start is a single sample of a host whose speed switches
    between two modes for seconds at a time; a mean over starts spread
    through the run moves smoothly with the share of time spent in the
    slow mode, where a median of a few flips between the modes.  A host
    probe right before each start gives the factor :meth:`value` divides
    by.
    """

    def __init__(self, workload: str, count: int, seconds: float,
                 started: float) -> None:
        self.workload = workload
        self.due = [started + seconds * index / (count - 1)
                    for index in range(count)] if count > 1 else [started]
        self.samples: List[float] = []
        self.host = HostSpeed()

    def maybe(self, now: float | None = None, force: bool = False) -> None:
        """Take the next cold start if it is due (or all left, ``force``)."""
        now = time.perf_counter() if now is None else now
        while self.due and (force or self.due[0] <= now):
            self.due.pop(0)
            self.host.probe()
            self.samples.append(cold_start(self.workload))
            if not force:
                break

    def raw(self) -> float:
        return sum(self.samples) / len(self.samples)

    def value(self) -> float:
        return self.raw() / self.host.factor()
