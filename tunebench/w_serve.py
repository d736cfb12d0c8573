"""``serve``: the production shape, ``repro-service serve --shards 2``.

The service starts with a model registry, an audit trail and a one-shot
recommender trained (``--oneshot-from-audit``) on a tuning history that
``run_sessions`` generates from the seed.  Traffic, from one generator
thread and one status-poller thread (one connection each):

1. reference phase: two ``full`` sessions for fresh tenants, one at a
   time, with fixed seeds; their gains give ``tps_gain``;
2. ``SEGMENTS`` times: an open loop of Poisson arrivals at ``RATE``
   sessions/s (about a third of the measured capacity), then a burst of
   sessions sent back to back and drained.  Open loops fill
   ``OPEN_SHARE`` of the run; bursts send ``BURST_PER_S × seconds``
   sessions in all, and ``ops_per_s`` is that count over their summed
   drain time (capacity).  Tenants take turns and repeat, so registry
   warm starts fire; sessions mix ``full``, ``refine``, ``oneshot`` and
   ``compress`` on a mix.  From the middle segment on, the tenants in
   ``MIGRATING`` move from CDB-E to CDB-A (paper §5.3).

An op is one session, timed from its scheduled send (the burst's sessions
are all due when it starts) until it is first seen RECOMMENDED or later.
Shed and FAILED sessions are failed ops and miss the latency limit.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List

from common import check, geomean, latency_metrics, metric, percentile
from service import (RECOMMENDED_OR_LATER, TERMINAL, Client, RunDir, Service,
                     check_outcomes, read_events, run_sessions,
                     service_layers)

SHARDS = 2
WORKERS = 1
TRAIN_STEPS = 8
TUNE_STEPS = 2
RATE = 3.0
OPEN_SHARE = 0.5
BURST_PER_S = 4
#: The run alternates open-loop and burst phases this many times, so both
#: spread over the run and over the host's slow and fast phases.
SEGMENTS = 4
#: A session first seen RECOMMENDED later than this after its scheduled
#: send misses the service's latency limit.
SESSION_LIMIT_S = 3.0
POLL_S = 0.01
BURST_POLL_S = 0.02
#: Each sweep polls only the oldest pending sessions: shards serve their
#: queues in order, so later ones cannot have finished first very often,
#: and polling them all would take the CPU the service needs.
POLL_BATCH = 6
COLD_STARTS = 5
HISTORY_SESSIONS = 12
#: A 3-component mix, sent as the front door's mix object.
MIX = "mix"
MIX_COMPONENTS = [("sysbench-rw", 0.5), ("tpcc", 0.3), ("tpch", 0.2)]
#: tenant -> (workload, hardware, mode, compress)
TENANTS = {
    "t-rw-a": ("sysbench-rw", "CDB-A", "full", False),
    "t-ro-c": ("sysbench-ro", "CDB-C", "refine", False),
    "t-tpcc-e": ("tpcc", "CDB-E", "oneshot", False),
    "t-wo-e": ("sysbench-wo", "CDB-E", "full", False),
    "t-tpch-b": ("tpch", "CDB-B", "oneshot", False),
    "t-mix-d": (MIX, "CDB-D", "full", True),
    "t-rw-e": ("sysbench-rw", "CDB-E", "refine", False),
    "t-tpcc-c": ("tpcc", "CDB-C", "oneshot", False),
}
MIGRATING = ("t-tpcc-e", "t-wo-e", "t-rw-e")
REFERENCE = [("ref-rw-a", "sysbench-rw", "CDB-A", 11),
             ("ref-tpcc-c", "tpcc", "CDB-C", 12)]


def _body(tenant: str, workload, hardware: str, mode: str, compress: bool,
          seed: int) -> Dict[str, object]:
    if workload == MIX:
        from repro.reuse.mix import WorkloadMix
        workload = WorkloadMix.weighted("oltp-olap-mix",
                                        MIX_COMPONENTS).to_dict()
    body = {"tenant": tenant, "workload": workload, "hardware": hardware,
            "mode": mode, "seed": seed, "train_steps": TRAIN_STEPS,
            "tune_steps": TUNE_STEPS}
    if compress:
        body["compress"] = True
        body["compress_components"] = 2
    return body


def _history_requests(rng: random.Random) -> List[Dict[str, object]]:
    names = ["sysbench-rw", "sysbench-ro", "sysbench-wo", "tpcc", "tpch"]
    hardware = ["CDB-A", "CDB-B", "CDB-C", "CDB-D", "CDB-E"]
    return [{"workload": names[i % 5], "hardware": hardware[(i * 2) % 5],
             "tenant": f"history-{i}", "seed": rng.randrange(1 << 30),
             "train_steps": TRAIN_STEPS, "tune_steps": TUNE_STEPS}
            for i in range(HISTORY_SESSIONS)]


def _schedule(rng: random.Random, seconds: float) -> List[List[Dict]]:
    """Per segment: Poisson open-loop arrivals, then a burst.

    Arrival times and session seeds come from the seed; tenants take
    turns, so every run sends the same mix of modes and workloads.
    """
    open_s = OPEN_SHARE * seconds / SEGMENTS
    arrivals = max(1, round(RATE * open_s))
    burst = max(1, round(BURST_PER_S * seconds / SEGMENTS))
    tenants = sorted(TENANTS)
    turn = 0
    segments = []
    for segment in range(SEGMENTS):
        # A Poisson process conditioned on its count: uniform arrival
        # times, sorted.  Every run then has the same number of samples.
        items = [{"at": at, "burst": False}
                 for at in sorted(rng.uniform(0.0, open_s)
                                  for _ in range(arrivals))]
        items += [{"at": 0.0, "burst": True} for _ in range(burst)]
        for item in items:
            tenant = tenants[turn % len(tenants)]
            turn += 1
            workload, hardware, mode, compress = TENANTS[tenant]
            if tenant in MIGRATING and segment >= SEGMENTS // 2:
                hardware = "CDB-A"
            item["body"] = _body(tenant, workload, hardware, mode, compress,
                                 rng.randrange(1 << 30))
        segments.append(items)
    return segments


class Traffic:
    """Generator and poller threads over one service."""

    def __init__(self, port: int) -> None:
        self.submitter = Client(port)
        self.poller = Client(port)
        self.lock = threading.Lock()
        self.pending: Dict[str, Dict] = {}
        self.sessions: List[Dict] = []      # acknowledged
        self.shed = 0
        self.lateness: List[float] = []
        self.generator_done = False
        self.errors: List[str] = []
        self.pss_samples: List[float] = []

    def generate(self, started: float, items: List[Dict]) -> None:
        """POST every item at ``started + at``; a late send is still timed
        from when it was due."""
        try:
            for item in items:
                due = started + item["at"]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if not item["burst"]:
                    self.lateness.append(sent - due)
                status, payload = self.submitter.request(
                    "POST", "/v1/sessions", item["body"])
                if status == 202:
                    record = {"id": payload["session"], "due": due,
                              "burst": item["burst"], "recommended": None,
                              "final": None, "final_seen": None}
                    with self.lock:
                        self.pending[record["id"]] = record
                        self.sessions.append(record)
                elif status in (429, 503):
                    self.shed += 1
                else:
                    self.errors.append(f"POST answered {status}: {payload}")
        except Exception as error:  # noqa: BLE001 - reported as a check
            self.errors.append(f"generator: {type(error).__name__}: {error}")
        finally:
            self.generator_done = True

    def phase(self, service: Service, items: List[Dict], timeout_s: float,
              poll_s: float) -> float:
        """Send ``items`` and poll until all settle; returns the start."""
        self.generator_done = False
        started = time.perf_counter()
        generator = threading.Thread(target=self.generate,
                                     args=(started, items))
        generator.start()
        try:
            self.poll(service, timeout_s, poll_s)
        finally:
            generator.join()
        return started

    def poll(self, service: Service, timeout_s: float,
             poll_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        next_sample = 0.0
        try:
            while time.perf_counter() < deadline:
                now = time.perf_counter()
                if now >= next_sample:
                    self.pss_samples.append(service.pss_mb())
                    next_sample = now + 0.5
                with self.lock:
                    pending = list(self.pending.values())[:POLL_BATCH]
                if not pending:
                    if self.generator_done:
                        return
                    time.sleep(0.005)
                    continue
                for record in pending:
                    status, payload = self.poller.request(
                        "GET", f"/v1/sessions/{record['id']}")
                    seen = time.perf_counter()
                    if status != 200:
                        self.errors.append(
                            f"GET {record['id']} answered {status}")
                        with self.lock:
                            self.pending.pop(record["id"], None)
                        continue
                    state = payload.get("state")
                    if record["recommended"] is None \
                            and state in RECOMMENDED_OR_LATER:
                        record["recommended"] = seen
                    if state in TERMINAL:
                        record["final"] = payload
                        record["final_seen"] = seen
                        with self.lock:
                            self.pending.pop(record["id"], None)
                time.sleep(max(0.0, poll_s - (time.perf_counter() - now)))
            self.errors.append(f"sessions still pending after {timeout_s}s")
        except Exception as error:  # noqa: BLE001 - reported as a check
            self.errors.append(f"poller: {type(error).__name__}: {error}")

    def close(self) -> None:
        self.submitter.close()
        self.poller.close()


def _check_session(record: Dict) -> None:
    final = record["final"]
    history = final.get("state_history", [])
    terminal = [state for state in history if state in TERMINAL]
    check(len(terminal) == 1 and history[-1] == final["state"],
          f"session {record['id']}: state history {history} does not end "
          f"in exactly one terminal state")
    if "RECOMMENDED" in history:
        recommendation = final.get("recommendation") or {}
        check(bool(recommendation.get("source"))
              and bool(recommendation.get("config")),
              f"session {record['id']}: recommended without a "
              f"Recommendation carrying its source")


def _reference_gain(client: Client) -> float:
    gains = []
    for tenant, workload, hardware, seed in REFERENCE:
        status, payload = client.request("POST", "/v1/sessions", _body(
            tenant, workload, hardware, "full", False, seed))
        check(status == 202, f"reference session answered {status}")
        deadline = time.perf_counter() + 60
        while True:
            status, final = client.request(
                "GET", f"/v1/sessions/{payload['session']}")
            if final.get("state") in TERMINAL:
                break
            check(time.perf_counter() < deadline,
                  "reference session did not finish")
            time.sleep(0.01)
        check("throughput_improvement" in final,
              f"reference session {tenant} ended {final.get('state')} "
              f"without a tuning result: {final.get('error')}")
        gains.append(1.0 + float(final["throughput_improvement"]))
    return geomean(gains)


def run(seed: int, seconds: float, trace: bool) -> Dict:
    rng = random.Random(seed)
    with RunDir("serve") as run_dir:
        history = os.path.join(run_dir.path, "history.jsonl")
        run_sessions(history, _history_requests(rng))
        segments = _schedule(rng, seconds)

        def serve_args(directory: str) -> List[str]:
            return ["--port", "0", "--shards", str(SHARDS),
                    "--workers", str(WORKERS),
                    "--registry", os.path.join(directory, "registry"),
                    "--audit", os.path.join(directory, "audit.jsonl"),
                    "--oneshot-from-audit", history,
                    "--max-queue-depth", "256",
                    "--tenant-rate", "50", "--tenant-burst", "64"]

        setups: List[float] = []
        probe_count = [0]

        def probe() -> None:
            if trace:
                return
            probe_count[0] += 1
            directory = run_dir.sub(f"probe{probe_count[0]}")
            extra = Service(directory, serve_args(directory),
                            SHARDS * WORKERS)
            try:
                setups.append(extra.start())
            finally:
                extra.stop()

        main_dir = run_dir.sub("main")
        service = Service(main_dir, serve_args(main_dir), SHARDS * WORKERS,
                          trace=trace)
        probe()
        try:
            setups.append(service.start())
            blas = service.blas_threads(SHARDS)
            reference = Client(service.port)
            tps_gain = _reference_gain(reference)
            reference.close()
            traffic = Traffic(service.port)
            timeout = seconds + 120
            burst_wall = 0.0
            for index, segment in enumerate(segments):
                traffic.phase(service, [i for i in segment
                                        if not i["burst"]], timeout, POLL_S)
                if index:
                    probe()       # every open-loop session has settled
                burst_started = traffic.phase(
                    service, [i for i in segment if i["burst"]], timeout,
                    BURST_POLL_S)
                burst_wall += max(r["final_seen"] for r in traffic.sessions
                                  if r["burst"]) - burst_started
            traffic.close()
            pss_peak = max(traffic.pss_samples + [service.pss_mb()])
        except BaseException:
            service.kill()
            raise
        audit_path = os.path.join(main_dir, "audit.jsonl")
        service.stop()
        probe()
        check(not traffic.errors, "; ".join(traffic.errors[:3]))
        server_errors = traffic.submitter.server_errors \
            + traffic.poller.server_errors
        check(server_errors == 0, f"{server_errors} responses were 5xx")
        for record in traffic.sessions:
            _check_session(record)
        acknowledged = [r["id"] for r in traffic.sessions]
        events = read_events(audit_path)
        check_outcomes(events, acknowledged)

        sessions = traffic.sessions
        attempted = len(sessions) + traffic.shed
        failed_sessions = [r for r in sessions
                           if r["final"]["state"] != "DEPLOYED"]
        # A session that failed before any recommendation has no latency to
        # report; it counts in ``failed`` and misses ``slo_share``.
        latencies = [r["recommended"] - r["due"] for r in sessions
                     if "RECOMMENDED" in r["final"]["state_history"]]
        within = sum(1 for r in sessions
                     if r["final"]["state"] == "DEPLOYED"
                     and r["recommended"] - r["due"] <= SESSION_LIMIT_S)
        burst = [r for r in sessions if r["burst"]]
        outcome = {
            "attempted": attempted,
            "failed": len(failed_sessions) + traffic.shed,
            "ops": len(sessions),
            "service_blas": blas,
            "notes": {
                "open_loop_rate_per_s": RATE,
                "open_loop_sessions": len(sessions) - len(burst),
                "burst_sessions": len(burst),
                "shed": traffic.shed,
                "failed_errors": sorted({str(r["final"].get("error"))
                                         for r in failed_sessions})[:5],
                "latency_samples": len(latencies),
            },
        }
        if trace:
            outcome["metrics"] = service_layers(
                run_dir.path, len(sessions), None,
                extra={"gen.lateness_p95_ms":
                       percentile(traffic.lateness, 95) * 1e3,
                       "service.audit.bytes_per_session":
                       os.path.getsize(audit_path)
                       / (len(sessions) + len(REFERENCE))})
            return outcome
        outcome["metrics"] = {
            "setup_s": metric(sum(setups) / len(setups), "s"),
            "peak_rss_mb": metric(pss_peak, "MB"),
            "ops_per_s": metric(len(burst) / burst_wall, "1/s"),
            **latency_metrics(latencies),
            "tps_gain": metric(tps_gain, "ratio"),
            "slo_share": metric(within / attempted, "ratio"),
        }
        return outcome
