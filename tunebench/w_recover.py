"""``recover``: shard crash recovery over a long audit trail.

The service (``--shards 2``) starts on an audit trail of ``TRAIL_SESSIONS``
finished sessions, generated from the seed through the public API: a few
real sessions are run in-process, and their events are re-emitted under
new ids with ``AuditLog.emit``, each behind a ``shard-accepted`` record.
A reference phase then runs ``REFERENCE`` sessions on shard 0 to
completion (their gains give ``tps_gain``).  Each cycle, one op:

1. ``BATCH`` sessions for shard-0 tenants are acknowledged (202);
2. shard 0 is SIGKILLed;
3. those sessions, and the ones that finished on shard 0 before the kill,
   are polled until every acknowledged one is terminal and every finished
   one answers 410.

The op is timed from the kill until everything settled.  Only here do the
supervisor's respawn and audit replay run, and ``AuditLog.read_jsonl``
re-reads the whole trail for each finished session's first poll after a
respawn.
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import Dict, List

from common import check, geomean, latency_metrics, metric
from service import (TERMINAL, Client, RunDir, Service, check_outcomes,
                     read_events, run_sessions, service_layers)

SHARDS = 2
WORKERS = 1
VICTIM = 0
TRAIN_STEPS = 8
TUNE_STEPS = 2
BATCH = 2
TRAIL_SESSIONS = 150
TRAIL_TEMPLATES = 4
#: A cycle that takes longer than this to settle misses the limit.
CYCLE_LIMIT_S = 4.0
CYCLE_TIMEOUT_S = 60.0
POLL_S = 0.02
COLD_STARTS = 5
WORKLOADS = [("sysbench-rw", "CDB-A"), ("tpcc", "CDB-C"),
             ("sysbench-ro", "CDB-B")]
REFERENCE_SEEDS = (21, 22)


def _body(tenant: str, workload: str, hardware: str, seed: int) -> Dict:
    return {"tenant": tenant, "workload": workload, "hardware": hardware,
            "seed": seed, "train_steps": TRAIN_STEPS,
            "tune_steps": TUNE_STEPS}


def _victim_tenants(count: int) -> List[str]:
    from repro.service.shard import ConsistentHashRing

    ring = ConsistentHashRing(SHARDS)
    names = (f"recover-{i}" for i in range(10_000))
    return [name for name in names if ring.node_for(name) == VICTIM][:count]


def build_trail(path: str, work_dir: str, rng: random.Random) -> Dict:
    """Write a trail of ``TRAIL_SESSIONS`` finished sessions to ``path``."""
    from repro.dbsim.hardware import INSTANCES
    from repro.service import AuditLog, TuningRequest
    from repro.service.shard import ConsistentHashRing, request_to_wire

    template_path = os.path.join(work_dir, "templates.jsonl")
    requests = [_body(f"template-{i}", *WORKLOADS[i % len(WORKLOADS)],
                      rng.randrange(1 << 30))
                for i in range(TRAIL_TEMPLATES)]
    run_sessions(template_path, requests)
    by_session: Dict[str, List[Dict]] = {}
    for event in read_events(template_path):
        by_session.setdefault(str(event["session"]), []).append(event)
    templates = [by_session[sid] for sid in sorted(by_session)]
    ring = ConsistentHashRing(SHARDS)
    with AuditLog(path=path, source="history") as trail:
        for index in range(TRAIL_SESSIONS):
            session_id = f"h{index:05d}"
            tenant = f"history-{index % 24}"
            body = dict(requests[index % TRAIL_TEMPLATES])
            hardware = INSTANCES[body.pop("hardware")]
            body["tenant"] = tenant
            trail.emit(session_id, "shard-accepted",
                       shard=ring.node_for(tenant), tenant=tenant,
                       request=request_to_wire(TuningRequest(
                           hardware=hardware, **body)))
            for event in templates[index % len(templates)]:
                fields = {k: v for k, v in event.items()
                          if k not in ("seq", "src", "session", "event")}
                trail.emit(session_id, str(event["event"]), **fields)
    return {"sessions": TRAIL_SESSIONS, "events": len(read_events(path)),
            "bytes": os.path.getsize(path)}


def _wait(client: Client, ids: List[str], gone: List[str],
          pss: List[float], service: Service) -> Dict[str, Dict]:
    """Poll until ``ids`` are terminal and ``gone`` answer 410."""
    finals: Dict[str, Dict] = {}
    expired = set()
    deadline = time.perf_counter() + CYCLE_TIMEOUT_S
    next_sample = 0.0
    while True:
        now = time.perf_counter()
        if now >= next_sample:
            pss.append(service.pss_mb())
            next_sample = now + 0.25
        for sid in ids:
            if sid in finals:
                continue
            status, payload = client.request("GET", f"/v1/sessions/{sid}")
            check(status == 200, f"acknowledged session {sid} answered "
                                 f"{status}: lost")
            if payload.get("state") in TERMINAL:
                finals[sid] = payload
        for sid in gone:
            if sid in expired:
                continue
            status, payload = client.request("GET", f"/v1/sessions/{sid}")
            check(status in (200, 410),
                  f"finished session {sid} answered {status}")
            if status == 410:
                expired.add(sid)
        if len(finals) == len(ids) and len(expired) == len(gone):
            return finals
        check(time.perf_counter() < deadline,
              f"cycle did not settle in {CYCLE_TIMEOUT_S}s")
        time.sleep(max(0.0, POLL_S - (time.perf_counter() - now)))


def run(seed: int, seconds: float, trace: bool) -> Dict:
    rng = random.Random(seed)
    tenants = _victim_tenants(BATCH + len(REFERENCE_SEEDS))
    with RunDir("recover") as run_dir:
        main_dir = run_dir.sub("main")
        audit_path = os.path.join(main_dir, "audit.jsonl")
        trail = build_trail(audit_path, run_dir.sub("templates"), rng)
        trail_bytes = trail["bytes"]

        def serve_args(directory: str, audit: str) -> List[str]:
            return ["--port", "0", "--shards", str(SHARDS),
                    "--workers", str(WORKERS),
                    "--registry", os.path.join(directory, "registry"),
                    "--audit", audit]

        setups: List[float] = []
        probes = [0]

        def probe() -> None:
            if trace:
                return
            probes[0] += 1
            directory = run_dir.sub(f"probe{probes[0]}")
            extra = Service(directory, serve_args(
                directory, os.path.join(directory, "audit.jsonl")),
                SHARDS * WORKERS)
            try:
                setups.append(extra.start())
            finally:
                extra.stop()

        probe()
        service = Service(main_dir, serve_args(main_dir, audit_path),
                          SHARDS * WORKERS, trace=trace)
        acknowledged: List[str] = []
        cycles: List[Dict] = []
        pss: List[float] = []
        try:
            setups.append(service.start())
            blas = service.blas_threads(SHARDS)
            client = Client(service.port)

            def submit(bodies: List[Dict]) -> List[str]:
                ids = []
                for body in bodies:
                    status, payload = client.request("POST", "/v1/sessions",
                                                     body)
                    check(status == 202, f"submit answered {status}: "
                                         f"{payload}")
                    ids.append(payload["session"])
                acknowledged.extend(ids)
                return ids

            reference = submit([
                _body(tenants[BATCH + i], *WORKLOADS[i % len(WORKLOADS)], s)
                for i, s in enumerate(REFERENCE_SEEDS)])
            finals = _wait(client, reference, [], pss, service)
            gains = []
            for sid in reference:
                check("throughput_improvement" in finals[sid],
                      f"reference session {sid} ended "
                      f"{finals[sid].get('state')}: "
                      f"{finals[sid].get('error')}")
                gains.append(1.0 + finals[sid]["throughput_improvement"])
            probe()
            finished = list(reference)
            started = time.perf_counter()
            halfway = False
            while time.perf_counter() - started < seconds or not cycles:
                if not halfway and time.perf_counter() - started \
                        >= seconds / 2:
                    halfway = True
                    probe()
                batch = submit([
                    _body(tenants[i], *WORKLOADS[rng.randrange(
                        len(WORKLOADS))], rng.randrange(1 << 30))
                    for i in range(BATCH)])
                killed = time.perf_counter()
                os.kill(service.shard_info(VICTIM)["pid"], signal.SIGKILL)
                finals = _wait(client, batch, finished, pss, service)
                settled = time.perf_counter()
                cycles.append({
                    "window": (killed, settled),
                    "failed": any(finals[sid]["state"] != "DEPLOYED"
                                  for sid in batch)})
                finished = batch
            loop_wall = time.perf_counter() - started
            client.close()
            probe()
        except BaseException:
            service.kill()
            raise
        service.stop()
        probe()
        events = read_events(audit_path)
        check_outcomes(events, acknowledged)
        replayed = sum(1 for event in events
                       if event.get("event") == "shard-replayed")
        latencies = [b - a for a, b in (c["window"] for c in cycles)]
        failed = sum(1 for c in cycles if c["failed"])
        outcome = {
            "attempted": len(cycles),
            "failed": failed,
            "ops": len(cycles),
            "service_blas": blas,
            "notes": {"trail_sessions": trail["sessions"],
                      "trail_events": trail["events"],
                      "trail_bytes": trail_bytes,
                      "cycles": len(cycles),
                      "sessions_replayed": replayed,
                      "latency_samples": len(latencies)},
        }
        if trace:
            outcome["metrics"] = service_layers(
                run_dir.path, len(cycles), [c["window"] for c in cycles],
                {"service.audit.bytes_per_session":
                 (os.path.getsize(audit_path) - trail_bytes)
                 / len(acknowledged)})
            return outcome
        outcome["metrics"] = {
            "setup_s": metric(sum(setups) / len(setups), "s"),
            "peak_rss_mb": metric(max(pss), "MB"),
            "ops_per_s": metric(len(cycles) / loop_wall, "1/s"),
            **latency_metrics(latencies),
            "tps_gain": metric(geomean(gains), "ratio"),
            "slo_share": metric(sum(1 for c, v in zip(cycles, latencies)
                                    if not c["failed"]
                                    and v <= CYCLE_LIMIT_S)
                                / len(cycles), "ratio"),
        }
        return outcome
