"""``train``: closed loop, one caller, in-process (paper Table 2 cold start).

Each round is ``CDBTune(seed).offline_train(CDB-A, sysbench-rw, STEPS
steps, no early stop)`` followed by ``tune(steps=5)``.  An op is one agent
step, i.e. one ``TuningEnvironment.step``.  The first and the last round
use the fixed reference seed: the first gives ``tps_gain``, the last must
repeat it bit for bit.  Times are divided by the run's host factor
(``common.HostSpeed``).
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import (ColdStarts, HostSpeed, check, in_process_metrics,
                    rounds_outcome)

STEPS = 150
TUNE_STEPS = 5
REFERENCE_SEED = 20190630
#: A step slower than this misses the workload's latency limit.
STEP_LIMIT_S = 0.25
COLD_STARTS = 5
#: A host probe (~2 ms) runs before every PROBE_EVERY-th step, outside the
#: timed intervals (~1 % of the run).
PROBE_EVERY = 8


class StepClock:
    """Op boundaries at ``TuningEnvironment.step`` entries (both run modes).

    Each entry ends the previous op and starts the next; a host probe run
    between the two belongs to neither.
    """

    def __init__(self, host: HostSpeed) -> None:
        from repro.core.environment import TuningEnvironment
        self.starts: List[float] = []
        self.ends: List[float] = []
        original = TuningEnvironment.step
        starts, ends = self.starts, self.ends

        def step(env, action):
            now = time.perf_counter()
            ends.append(now)
            if len(ends) % PROBE_EVERY == 0:
                host.probe()
                now = time.perf_counter()
            starts.append(now)
            return original(env, action)

        TuningEnvironment.step = step

    def phase(self) -> None:
        self.starts.clear()
        self.ends.clear()

    def latencies(self, end: float) -> List[float]:
        """Op times since :meth:`phase`, the last one ending at ``end``."""
        ends = self.ends[1:] + [end]
        return [b - a for a, b in zip(self.starts, ends)]


def _round(seed: int, clock: StepClock, host: HostSpeed) -> Dict:
    from repro.core.tuner import CDBTune
    from repro.dbsim.hardware import CDB_A

    probing = host.spent()
    clock.phase()
    started = time.perf_counter()
    tuner = CDBTune(seed=seed)
    tuner.offline_train(CDB_A, "sysbench-rw", max_steps=STEPS,
                        stop_on_convergence=False)
    latencies = clock.latencies(time.perf_counter())
    clock.phase()
    tuning = tuner.tune(CDB_A, "sysbench-rw", steps=TUNE_STEPS)
    ended = time.perf_counter()
    latencies += clock.latencies(ended)
    config = dict(tuning.best_config)
    check(tuner.registry.validate(config) == config,
          f"round seed {seed}: recommended config fails registry.validate")
    return {
        "windows": [(started, ended)],
        "wall": ended - started - (host.spent() - probing),
        "latencies": latencies,
        "gain": tuning.best.throughput / tuning.initial.throughput,
        "config": config,
    }


def run(seed: int, seconds: float, trace: bool, recorder=None) -> Dict:
    """Rounds until ``seconds`` is spent.

    Untraced: reference seed, then seeds from ``seed``, then the reference
    seed again.  Traced: every seed runs twice, untraced then traced, so
    slow host phases hit both sides alike; each pair must agree bit for
    bit, and the two sides' time per op give the tracing overhead.
    """
    from tracing import install

    host = HostSpeed()
    clock = StepClock(host)
    started = time.perf_counter()
    colds = None if trace else ColdStarts("train", COLD_STARTS, seconds,
                                          started)
    seeds = [REFERENCE_SEED] + [seed * 1000 + index for index in range(1, 100)]
    rounds: Dict[bool, List[Dict]] = {False: [], True: []}
    plan = [(s, side) for s in seeds for side in (False, True)] if trace \
        else [(s, False) for s in seeds]
    per_round = 1 if not trace else 2
    for index, (round_seed, traced) in enumerate(plan):
        if colds is not None:
            colds.maybe()
        walls = [r["wall"] for side in rounds.values() for r in side]
        budget_left = seconds - (time.perf_counter() - started)
        if index % per_round == 0 and walls \
                and budget_left < (per_round + 1) * max(walls):
            break
        if traced:
            install(recorder)
        try:
            result = _round(round_seed, clock, host)
        finally:
            if traced:
                recorder.uninstall()
        rounds[traced].append(result)
        if traced:
            twin = rounds[False][-1]
            check(result["gain"] == twin["gain"]
                  and result["config"] == twin["config"],
                  f"seed {round_seed}: traced round differs from untraced "
                  f"(tps_gain {result['gain']!r} != {twin['gain']!r})")
    if not trace:
        repeat = _round(REFERENCE_SEED, clock, host)
        rounds[False].append(repeat)
        first = rounds[False][0]
        check(repeat["gain"] == first["gain"]
              and repeat["config"] == first["config"],
              f"reference round not repeatable: tps_gain "
              f"{repeat['gain']!r} != {first['gain']!r}")
        colds.maybe(force=True)

    outcome = rounds_outcome(rounds, trace)
    if not trace:
        latencies = outcome["latencies"]
        within = sum(1 for v in latencies if v <= STEP_LIMIT_S)
        outcome["metrics"], outcome["notes"] = in_process_metrics(
            colds, host, outcome["ops"], outcome["wall"], latencies,
            rounds[False][0]["gain"], within / len(latencies))
    return outcome
