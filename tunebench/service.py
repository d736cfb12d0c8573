"""Driving ``repro-service serve`` from outside: launch, HTTP, memory, stop.

The benchmark talks to the service only over HTTP and signals, like a
tenant or an operator would; its inputs (tuning history, audit trails)
are generated from the seed through the package's public API.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (BENCH_DIR, ROOT, BenchError, check, child_env,
                    child_pids, pss_mb)

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0
RECOMMENDED_OR_LATER = frozenset({"RECOMMENDED", "DEPLOYED", "FAILED",
                                  "EXPIRED"})
TERMINAL = frozenset({"DEPLOYED", "FAILED", "EXPIRED"})
#: Audit events that state a session's outcome; each acknowledged session
#: must have exactly one.  ``deployment-blocked`` is an outcome unless it
#: carries ``retained`` (a one-shot session keeping its prediction, which
#: then logs ``deployed``).
OUTCOME_EVENTS = frozenset({"deployed", "failed", "cancelled",
                            "deployment-blocked"})


class Client:
    """One keep-alive HTTP/1.1 connection to the front door."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self.conn: Optional[http.client.HTTPConnection] = None
        self.server_errors = 0

    def request(self, method: str, path: str,
                body: object = None) -> Tuple[int, object]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(HOST, self.port,
                                                       timeout=self.timeout)
            try:
                self.conn.request(method, path, body=data, headers=headers)
                response = self.conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt:
                    raise
                continue
            if response.getheader("Connection", "").lower() == "close":
                self.close()
            if response.status >= 500:
                self.server_errors += 1
            try:
                return response.status, json.loads(raw or b"null")
            except ValueError:
                return response.status, raw.decode("utf-8", "replace")
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Service:
    """One ``repro-service serve`` process tree started by the launcher."""

    def __init__(self, run_dir: str, serve_args: List[str],
                 expected_workers: int, trace: bool = False) -> None:
        self.run_dir = run_dir
        self.serve_args = serve_args
        self.expected_workers = expected_workers
        self.trace = trace
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.log_path = os.path.join(run_dir, "service.log")

    def start(self) -> float:
        """Launch; returns seconds until ``/v1/healthz`` shows every worker."""
        os.makedirs(self.run_dir, exist_ok=True)
        port_file = os.path.join(self.run_dir, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        command = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"),
                   "--run-dir", self.run_dir]
        if self.trace:
            command.append("--trace")
        env = child_env()
        env["TMPDIR"] = self.run_dir
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command + ["--"] + self.serve_args, cwd=ROOT, env=env,
                stdout=log, stderr=subprocess.STDOUT)
        deadline = started + READY_TIMEOUT_S
        client = None
        try:
            while time.perf_counter() < deadline:
                check(self.process.poll() is None,
                      f"service exited during start-up: {self.tail_log()}")
                if client is None:
                    try:
                        with open(port_file, "r", encoding="utf-8") as f:
                            self.port = int(json.load(f))
                        client = Client(self.port, timeout=10.0)
                    except (OSError, ValueError):
                        time.sleep(0.002)
                        continue
                try:
                    status, health = client.request("GET", "/v1/healthz")
                except OSError:
                    time.sleep(0.002)
                    continue
                if status == 200 and health.get("workers_alive") \
                        == self.expected_workers:
                    return time.perf_counter() - started
                time.sleep(0.002)
        finally:
            if client is not None:
                client.close()
        self.kill()
        raise BenchError(f"service not ready in {READY_TIMEOUT_S}s: "
                         f"{self.tail_log()}")

    def tail_log(self) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                return handle.read()[-800:]
        except OSError:
            return ""

    def pids(self) -> List[int]:
        if self.process is None or self.process.poll() is not None:
            return []
        return [self.process.pid] + child_pids(self.process.pid)

    def pss_mb(self) -> float:
        return pss_mb(self.pids())

    def shard_info(self, index: int) -> Dict[str, int]:
        with open(os.path.join(self.run_dir, f"shard{index}.json"), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)

    def blas_threads(self, shards: int) -> List[int]:
        with open(os.path.join(self.run_dir, "parent.json"), "r",
                  encoding="utf-8") as handle:
            threads = [json.load(handle)["blas_threads"]]
        return threads + [self.shard_info(i)["blas_threads"]
                          for i in range(shards)]

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain through ``POST /v1/shutdown``; kill on timeout."""
        if self.process is None:
            return
        if self.process.poll() is None and self.port is not None:
            client = Client(self.port, timeout=10.0)
            try:
                client.request("POST", "/v1/shutdown", {"drain": True})
            except OSError:
                pass
            finally:
                client.close()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            check(False, f"service did not stop in {timeout}s")
        check(self.process.returncode == 0,
              f"service exited with {self.process.returncode}: "
              f"{self.tail_log()}")
        self.process = None

    def kill(self) -> None:
        """Kill the whole tree (error paths only)."""
        if self.process is None:
            return
        for pid in reversed(self.pids()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.process.wait()
        self.process = None


# -- inputs generated from the seed ------------------------------------------

def run_sessions(audit_path: str, requests: List[Dict[str, object]]) -> None:
    """Run ``requests`` (front-door bodies) in-process, auditing to a file."""
    from repro.dbsim.hardware import INSTANCES
    from repro.service import AuditLog, TuningRequest, TuningService

    with AuditLog(path=audit_path) as audit:
        service = TuningService(registry=None, audit=audit, workers=1)
        with service:
            ids = []
            for body in requests:
                body = dict(body)
                hardware = INSTANCES[body.pop("hardware")]
                ids.append(service.submit(TuningRequest(hardware=hardware,
                                                        **body)))
            for session_id in ids:
                service.wait(session_id, timeout=120)


def read_events(path: str) -> List[Dict[str, object]]:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def check_outcomes(events: List[Dict[str, object]],
                   acknowledged: List[str]) -> None:
    """Exactly one outcome audit event per acknowledged session."""
    counts: Dict[str, int] = {sid: 0 for sid in acknowledged}
    for event in events:
        sid = str(event.get("session"))
        if sid in counts and event.get("event") in OUTCOME_EVENTS \
                and "retained" not in event:
            counts[sid] += 1
    wrong = {sid: n for sid, n in counts.items() if n != 1}
    check(not wrong, f"sessions without exactly one outcome audit event: "
                     f"{dict(list(wrong.items())[:5])} "
                     f"({len(wrong)} of {len(counts)})")


class RunDir:
    """Scratch directory inside the checkout, removed when the run ends."""

    def __init__(self, workload: str) -> None:
        self.path = os.path.join(ROOT, ".tunebench-run",
                                 f"{workload}-{os.getpid()}")

    def __enter__(self) -> "RunDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass                      # another run is using it

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path


def service_layers(path: str, ops: int,
                   windows: Optional[List[Tuple[float, float]]],
                   extra: Dict[str, float]) -> Dict[str, Dict]:
    """Per-layer metrics merged from every traced service process.

    Coverage is the share of session wall time the named layers account
    for (``windows=None``) or, given ``windows``, the share of those
    intervals during which some process was inside a traced span.
    Tracing overhead is the calibrated wrapper cost times the span count,
    over the busy time (the summed root spans).
    """
    from tracing import layer_metrics, load_dumps, merge, union_length

    dumps = []
    for directory, _, files in os.walk(path):
        dumps.extend(os.path.join(directory, name) for name in files
                     if name.startswith("trace-") and name.endswith(".json"))
    check(bool(dumps), "traced run left no span dumps")
    merged = merge(load_dumps(sorted(dumps)))
    roots = [(a, b) for a, b, _ in merged["roots"]]
    if windows is None:
        calls, self_s, total_s = merged["stats"].get("service.session",
                                                     [0, 0.0, 0.0])
        coverage = (total_s - self_s) / total_s if total_s else 0.0
    else:
        coverage = union_length(roots, windows) / sum(b - a
                                                      for a, b in windows)
    busy = sum(b - a for a, b in roots)
    values = {"layers.coverage": coverage,
              "trace.overhead_share": (merged["wrapper_overhead_s"] / busy
                                       if busy else 0.0)}
    values.update(extra)
    return layer_metrics(merged, ops, values)
