"""``search``: closed loop, single-threaded, in-process configuration search.

Each round runs ``RandomSearch`` and ``BestConfig`` on every target below,
one of them a 3-component ``WorkloadMix`` scored through ``MixDatabase``.
An op is one configuration scored.  Both tuners score whole batches
through ``evaluate_many`` (BestConfig's rounds are 10 rows, RandomSearch
draws its whole budget at once), so each op's latency is its call's wall
divided by the configurations that call scored.  ``nn`` and ``rl`` never
run here: an ``nn`` optimisation must leave this workload unchanged.
Times are divided by the run's host factor (``common.HostSpeed``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import (ColdStarts, HostSpeed, check, geomean,
                    in_process_metrics, rounds_outcome)

RANDOM_BUDGET = 128
BESTCONFIG_BUDGET = 50
REFERENCE_SEED = 20190630
#: An op (amortized per configuration) slower than this misses the limit.
OP_LIMIT_MS = 5.0
COLD_STARTS = 5
NOISE = 0.015


def _targets():
    from repro.dbsim.hardware import INSTANCES
    from repro.dbsim.workload import get_workload
    from repro.reuse.mix import WorkloadMix

    mix = WorkloadMix.weighted("oltp-olap-mix", [("sysbench-rw", 0.5),
                                                 ("tpcc", 0.3),
                                                 ("tpch", 0.2)])
    return [(INSTANCES["CDB-A"], get_workload("sysbench-rw")),
            (INSTANCES["CDB-C"], get_workload("tpcc")),
            (INSTANCES["CDB-E"], get_workload("sysbench-ro")),
            (INSTANCES["CDB-B"], mix)]


def _database(hardware, workload, seed: int, registry):
    from repro.dbsim.engine import SimulatedDatabase
    from repro.reuse.mix import MixDatabase, WorkloadMix

    if isinstance(workload, WorkloadMix):
        return MixDatabase(hardware, workload, registry=registry,
                           noise=NOISE, seed=seed)
    return SimulatedDatabase(hardware, workload, registry=registry,
                             noise=NOISE, seed=seed)


def _rescore_matches(outcome, hardware, workload, seed, registry) -> bool:
    """The batched best, re-scored by scalar ``evaluate`` at its trial.

    Both tuners spend trial 1 on the default configuration and number
    their candidates 2, 3, ... in history order.
    """
    best = outcome.best_config
    trial = 1
    for index, (config, _) in enumerate(outcome.history):
        if config is best:
            trial = index + 2
            break
    scalar = _database(hardware, workload, seed, registry).evaluate(
        best, trial=trial).performance
    batched = outcome.best_performance
    return (scalar.throughput == batched.throughput
            and scalar.latency == batched.latency)


def _round(seed: int, targets, registry, host: HostSpeed) -> Dict:
    from repro.baselines.bestconfig import BestConfig
    from repro.baselines.random_search import RandomSearch

    latencies: List[float] = []
    gains: List[float] = []
    results: List[Tuple] = []
    windows: List[Tuple[float, float]] = []
    wall = 0.0
    for index, (hardware, workload) in enumerate(targets):
        target_seed = seed * 10 + index
        for tuner, budget in ((RandomSearch(registry, seed=target_seed),
                               RANDOM_BUDGET),
                              (BestConfig(registry, seed=target_seed),
                               BESTCONFIG_BUDGET)):
            database = _database(hardware, workload, target_seed, registry)
            host.probe()        # ~2 ms, outside the timed call
            started = time.perf_counter()
            outcome = tuner.tune(database, budget=budget)
            ended = time.perf_counter()
            elapsed = ended - started
            windows.append((started, ended))
            wall += elapsed
            scored = outcome.evaluations + 1      # + the default probe
            latencies.extend([elapsed / scored] * scored)
            gains.append(outcome.best_performance.throughput
                         / outcome.initial_performance.throughput)
            check(_rescore_matches(outcome, hardware, workload, target_seed,
                                   registry),
                  f"{tuner.name} on {workload.name}@{hardware.name} seed "
                  f"{target_seed}: batched best differs from scalar "
                  f"re-score")
            results.append((outcome.best_config,
                            outcome.best_performance.throughput,
                            outcome.best_performance.latency))
    return {"wall": wall, "latencies": latencies, "gain": geomean(gains),
            "results": results, "windows": windows}


def run(seed: int, seconds: float, trace: bool, recorder=None) -> Dict:
    """Rounds until ``seconds`` is spent; see ``w_train.run`` for modes."""
    from repro.dbsim.mysql_knobs import mysql_registry
    from tracing import install

    registry = mysql_registry()
    targets = _targets()
    host = HostSpeed()
    started = time.perf_counter()
    colds = None if trace else ColdStarts("search", COLD_STARTS, seconds,
                                          started)
    seeds = [REFERENCE_SEED] + [seed * 1000 + index
                                for index in range(1, 1000)]
    plan = [(s, side) for s in seeds for side in (False, True)] if trace \
        else [(s, False) for s in seeds]
    per_round = 2 if trace else 1
    rounds: Dict[bool, List[Dict]] = {False: [], True: []}
    for index, (round_seed, traced) in enumerate(plan):
        if colds is not None:
            colds.maybe()
        if index % per_round == 0 and index \
                and time.perf_counter() - started >= seconds:
            break
        if traced:
            install(recorder)
        try:
            result = _round(round_seed, targets, registry, host)
        finally:
            if traced:
                recorder.uninstall()
        rounds[traced].append(result)
        if traced:
            check(result["results"] == rounds[False][-1]["results"],
                  f"seed {round_seed}: traced search differs from untraced")
    if colds is not None:
        colds.maybe(force=True)

    outcome = rounds_outcome(rounds, trace)
    if not trace:
        latencies = outcome["latencies"]
        within = sum(1 for v in latencies if v * 1e3 <= OP_LIMIT_MS)
        outcome["metrics"], outcome["notes"] = in_process_metrics(
            colds, host, outcome["ops"], outcome["wall"], latencies,
            rounds[False][0]["gain"], within / len(latencies))
    return outcome
