"""One cold start of an in-process workload; prints ``ready`` when done.

Usage: ``python3 tunebench/coldstart.py {train,search}`` with ``src`` on
``PYTHONPATH``.  The parent times launch → ``ready``.
"""

import sys


def main(workload: str) -> int:
    from repro.core.tuner import CDBTune
    from repro.dbsim.hardware import CDB_A

    if workload == "train":
        tuner = CDBTune(seed=0)
        env = tuner.make_environment(CDB_A, "sysbench-rw")
        env.database.evaluate(env.database.default_config())
    elif workload == "search":
        from repro.baselines.bestconfig import BestConfig  # noqa: F401
        from repro.baselines.random_search import RandomSearch  # noqa: F401
        from repro.reuse.mix import MixDatabase, WorkloadMix
        mix = WorkloadMix.weighted("cold", [("sysbench-rw", 1.0),
                                            ("tpcc", 1.0), ("tpch", 1.0)])
        database = MixDatabase(CDB_A, mix, noise=0.015, seed=0)
        database.evaluate_many([database.default_config()], trials=[1])
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
