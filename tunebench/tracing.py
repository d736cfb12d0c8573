"""Out-of-program span recorder: wraps the repo's public functions.

Nothing under ``src/`` changes.  :class:`SpanRecorder.install` replaces the
listed functions and methods with wrappers that time each call.  Each
thread keeps its own span stack, so a span's *self* time is its duration
minus the time its child spans on the same thread cover.  Spans are
aggregated in memory by name (calls, self seconds, total seconds) and,
for root spans, kept as ``(start, end)`` intervals for the coverage
figure.  :meth:`SpanRecorder.dump` writes the lot once, as JSON.

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so intervals from
the service parent and its forked shards share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Tuple


class SpanRecorder:
    """In-memory span aggregates for one process."""

    def __init__(self) -> None:
        self.reset()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def after_fork(self) -> None:
        """Start afresh in a forked child.

        Another parent thread may have held the lock at fork time, and the
        parent's spans are not the child's.
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget every span and count."""
        #: name -> [calls, self seconds, total seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.roots: List[Tuple[float, float, str]] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, fn: Callable, name: str,
             outcome: Callable | None = None,
             before: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args)`` runs first and its value reaches
        ``outcome(recorder, args, result, error, token)``, which records
        counts that need the call's inputs or result.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                error = caught
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    entry = self.stats.get(name)
                    if entry is None:
                        entry = self.stats[name] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration - frame[0]
                    entry[2] += duration
                    if not stack:
                        self.roots.append((start, end, name))
                if outcome is not None:
                    outcome(self, args, result, error, token)

        return traced

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (function, method or staticmethod)."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        self._patched.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr,
                    staticmethod(self.wrap(raw.__func__, name, **hooks)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **hooks))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`patch` replaced."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def calibrate(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call, measured here and now."""
        def noop():
            return None
        traced = SpanRecorder().wrap(noop, "calibrate")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        return max(0.0, (time.perf_counter() - start - bare) / calls)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"pid": os.getpid(),
                    "stats": {k: list(v) for k, v in self.stats.items()},
                    "counters": dict(self.counters),
                    "roots": list(self.roots)}

    def dump(self, path: str) -> None:
        data = self.snapshot()
        data["wrapper_cost_s"] = self.calibrate()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(tmp, path)


# -- outcome hooks -----------------------------------------------------------

def _cache_hits_before(args):
    return args[0].cache_hits


def _evaluate_outcome(rec, args, result, error, hits_before):
    if args[0].cache_hits > hits_before:
        rec.count("dbsim.evaluate.cache_hits")
    if error is not None and type(error).__name__ == "DatabaseCrashError":
        rec.count("dbsim.evaluate.crashes")


def _evaluate_many_outcome(rec, args, result, error, token):
    if result is not None:
        rec.count("dbsim.evaluate_many.rows", len(result))


def _update_outcome(rec, args, result, error, token):
    if result is not None:
        rec.count("rl.ddpg.update.trained")


def _canary_outcome(rec, args, result, error, token):
    if result is not None and not result.accepted:
        rec.count("service.safety.canary.rejected")


def _read_jsonl_before(args):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _read_jsonl_outcome(rec, args, result, error, size):
    rec.count("service.audit.read_jsonl.bytes", size)


def _dispatch_outcome(rec, args, result, error, token):
    method = args[1]
    if method == "POST" and str(args[2]).rstrip("/").endswith("/sessions"):
        rec.count("service.frontdoor.post.calls")
        status = result[0] if result is not None else 500
        if status in (429, 503):
            rec.count("service.frontdoor.post.shed")
    elif method == "GET":
        rec.count("service.frontdoor.get.calls")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro import nn
    from repro.baselines.bestconfig import BestConfig
    from repro.baselines.random_search import RandomSearch
    from repro.core.environment import TuningEnvironment
    from repro.core.tuner import CDBTune
    from repro.dbsim.engine import SimulatedDatabase
    from repro.dbsim.knobs import KnobRegistry
    from repro.nn.layers import Linear
    from repro.nn.optim import Adam
    from repro.oneshot.recommender import OneShotRecommender
    from repro.reuse.compress import WorkloadCompressor
    from repro.reuse.history import HistoryStore
    from repro.reuse.mix import MixDatabase
    from repro.reuse.verify import ConfigVerifier
    from repro.rl.ddpg import DDPGAgent
    from repro.rl.replay import PrioritizedReplayMemory, ReplayMemory
    from repro.service.audit import AuditLog
    from repro.service.frontdoor import ServiceFrontDoor
    from repro.service.registry import ModelRegistry
    from repro.service.safety import SafetyGuard
    from repro.service.server import TuningService
    from repro.service.shard import ShardedTuningService

    patch = recorder.patch
    patch(SimulatedDatabase, "evaluate", "dbsim.evaluate",
          before=_cache_hits_before, outcome=_evaluate_outcome)
    patch(SimulatedDatabase, "evaluate_many", "dbsim.evaluate_many",
          outcome=_evaluate_many_outcome)
    patch(KnobRegistry, "from_vector", "dbsim.knobs.from_vector")
    patch(KnobRegistry, "validate", "dbsim.knobs.validate")
    patch(Linear, "forward", "nn.linear.forward")
    patch(Linear, "backward", "nn.linear.backward")
    patch(Adam, "step", "nn.adam.step")
    patch(nn, "clip_grad_norm", "nn.clip_grad_norm")
    patch(nn, "save_state", "nn.save_state")
    patch(nn, "load_state", "nn.load_state")
    patch(DDPGAgent, "update", "rl.ddpg.update", outcome=_update_outcome)
    patch(DDPGAgent, "act", "rl.ddpg.act")
    patch(DDPGAgent, "imitate", "rl.ddpg.imitate")
    patch(DDPGAgent, "action_gradient", "rl.ddpg.action_gradient")
    patch(ReplayMemory, "sample", "rl.replay.sample")
    patch(PrioritizedReplayMemory, "sample", "rl.replay.sample")
    patch(PrioritizedReplayMemory, "update_priorities",
          "rl.replay.update_priorities")
    patch(TuningEnvironment, "step", "core.env.step")
    patch(TuningEnvironment, "reset", "core.env.reset")
    patch(CDBTune, "offline_train", "core.offline_train")
    patch(CDBTune, "tune", "core.online_tune")
    patch(RandomSearch, "tune", "baselines.random_search.tune")
    patch(BestConfig, "tune", "baselines.bestconfig.tune")
    patch(MixDatabase, "evaluate_many", "reuse.mix.evaluate_many")
    patch(WorkloadCompressor, "compress", "reuse.compress")
    patch(ConfigVerifier, "verify", "reuse.verify")
    patch(HistoryStore, "bootstrap", "reuse.history.bootstrap")
    patch(HistoryStore, "training_corpus", "reuse.history.training_corpus")
    patch(OneShotRecommender, "fit_corpus", "oneshot.fit")
    patch(OneShotRecommender, "predict", "oneshot.predict")
    patch(ModelRegistry, "find_nearest", "service.registry.find_nearest")
    patch(ModelRegistry, "register", "service.registry.register")
    patch(ModelRegistry, "load_into", "service.registry.load_into")
    patch(SafetyGuard, "canary", "service.safety.canary",
          outcome=_canary_outcome)
    patch(AuditLog, "emit", "service.audit.emit")
    patch(AuditLog, "read_jsonl", "service.audit.read_jsonl",
          before=_read_jsonl_before, outcome=_read_jsonl_outcome)
    patch(ShardedTuningService, "submit", "service.shard.submit")
    patch(ShardedTuningService, "status", "service.shard.status")
    patch(ShardedTuningService, "_recover", "service.shard.recover")
    patch(TuningService, "_process", "service.session")
    patch(ServiceFrontDoor, "_dispatch", "service.frontdoor.dispatch",
          outcome=_dispatch_outcome)


def load_dumps(paths: List[str]) -> List[Dict[str, object]]:
    dumps = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def merge(dumps: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum span aggregates and counters across processes."""
    stats: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    roots: List[Tuple[float, float, str]] = []
    spans = 0.0
    overhead = 0.0
    for dump in dumps:
        calls_here = 0
        for name, (calls, self_s, total_s) in dump["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
            calls_here += calls
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        roots.extend(tuple(root) for root in dump["roots"])
        spans += calls_here
        overhead += calls_here * float(dump.get("wrapper_cost_s", 0.0))
    return {"stats": stats, "counters": counters, "roots": roots,
            "spans": spans, "wrapper_overhead_s": overhead}


def union_length(intervals: List[Tuple[float, float]],
                 windows: List[Tuple[float, float]] | None = None) -> float:
    """Length of the union of ``intervals``, clipped to ``windows``."""
    if windows is not None:
        clipped = []
        for start, end in intervals:
            for low, high in windows:
                a, b = max(start, low), min(end, high)
                if b > a:
                    clipped.append((a, b))
        intervals = clipped
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


#: Per-layer metrics every traced run reports, in BENCHMARK.json order.
#: Span metrics are per op of the workload; ratios carry their base in
#: the README.
SPAN_METRICS = [
    ("dbsim.evaluate", ("calls", "self_s")),
    ("dbsim.evaluate_many", ("calls", "self_s")),
    ("dbsim.knobs.from_vector", ("self_s",)),
    ("dbsim.knobs.validate", ("self_s",)),
    ("nn.linear.forward", ("self_s",)),
    ("nn.linear.backward", ("self_s",)),
    ("nn.adam.step", ("calls", "self_s")),
    ("nn.clip_grad_norm", ("self_s",)),
    ("nn.save_state", ("self_s",)),
    ("nn.load_state", ("self_s",)),
    ("rl.ddpg.update", ("calls", "self_s")),
    ("rl.ddpg.act", ("self_s",)),
    ("rl.ddpg.imitate", ("self_s",)),
    ("rl.ddpg.action_gradient", ("self_s",)),
    ("rl.replay.sample", ("self_s",)),
    ("rl.replay.update_priorities", ("self_s",)),
    ("core.env.step", ("calls", "self_s")),
    ("core.env.reset", ("self_s",)),
    ("core.offline_train", ("self_s",)),
    ("core.online_tune", ("self_s",)),
    ("baselines.random_search.tune", ("self_s",)),
    ("baselines.bestconfig.tune", ("self_s",)),
    ("reuse.mix.evaluate_many", ("self_s",)),
    ("reuse.compress", ("self_s",)),
    ("reuse.verify", ("self_s",)),
    ("reuse.history.bootstrap", ("self_s",)),
    ("reuse.history.training_corpus", ("self_s",)),
    ("oneshot.fit", ("self_s",)),
    ("oneshot.predict", ("calls", "self_s")),
    ("service.registry.find_nearest", ("self_s",)),
    ("service.registry.register", ("self_s",)),
    ("service.registry.load_into", ("self_s",)),
    ("service.safety.canary", ("calls", "self_s")),
    ("service.audit.emit", ("calls", "self_s")),
    ("service.shard.submit", ("calls", "self_s")),
    ("service.shard.status", ("calls", "self_s")),
    ("service.shard.recover", ("calls", "self_s")),
    ("service.audit.read_jsonl", ("calls", "self_s")),
    ("service.session", ("self_s",)),
]

#: Non-span per-layer metrics: (name, unit).
EXTRA_METRICS = [
    ("dbsim.evaluate.crashes", "1/op"),
    ("dbsim.cache.hit_ratio", "ratio"),
    ("dbsim.evaluate_many.rows", "1/op"),
    ("rl.ddpg.update.useful_ratio", "ratio"),
    ("service.safety.canary.reject_ratio", "ratio"),
    ("service.audit.bytes_per_session", "B"),
    ("service.audit.read_jsonl.bytes", "B/op"),
    ("service.frontdoor.post.calls", "1/op"),
    ("service.frontdoor.get.calls", "1/op"),
    ("service.frontdoor.shed_ratio", "ratio"),
    ("gen.lateness_p95_ms", "ms"),
    ("layers.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.ops", "count"),
]


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``."""
    names = []
    for span, fields in SPAN_METRICS:
        for field in fields:
            names.append((f"{span}.{field}",
                          "1/op" if field == "calls" else "s/op"))
    return names + EXTRA_METRICS


def layer_metrics(merged: Dict[str, object], ops: int,
                  extra: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Per-layer metric block from merged dumps, normalized per op."""
    stats = merged["stats"]
    counters = merged["counters"]
    per_op = 1.0 / max(1, ops)

    def calls(name: str) -> float:
        return float(stats.get(name, [0, 0.0, 0.0])[0])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: Dict[str, float] = {}
    for span, fields in SPAN_METRICS:
        entry = stats.get(span, [0, 0.0, 0.0])
        if "calls" in fields:
            values[f"{span}.calls"] = entry[0] * per_op
        values[f"{span}.self_s"] = entry[1] * per_op
    values["dbsim.evaluate.crashes"] = (
        counters.get("dbsim.evaluate.crashes", 0.0) * per_op)
    values["dbsim.cache.hit_ratio"] = ratio(
        counters.get("dbsim.evaluate.cache_hits", 0.0),
        calls("dbsim.evaluate"))
    values["dbsim.evaluate_many.rows"] = (
        counters.get("dbsim.evaluate_many.rows", 0.0) * per_op)
    values["rl.ddpg.update.useful_ratio"] = ratio(
        counters.get("rl.ddpg.update.trained", 0.0), calls("rl.ddpg.update"))
    values["service.safety.canary.reject_ratio"] = ratio(
        counters.get("service.safety.canary.rejected", 0.0),
        calls("service.safety.canary"))
    values["service.audit.read_jsonl.bytes"] = (
        counters.get("service.audit.read_jsonl.bytes", 0.0) * per_op)
    posts = counters.get("service.frontdoor.post.calls", 0.0)
    values["service.frontdoor.post.calls"] = posts * per_op
    values["service.frontdoor.get.calls"] = (
        counters.get("service.frontdoor.get.calls", 0.0) * per_op)
    values["service.frontdoor.shed_ratio"] = ratio(
        counters.get("service.frontdoor.post.shed", 0.0), posts)
    values["service.audit.bytes_per_session"] = 0.0
    values["gen.lateness_p95_ms"] = 0.0
    values["trace.ops"] = float(ops)
    values.update(extra)
    units = dict(per_layer_names())
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}
