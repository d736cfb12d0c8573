"""The tuner's benchmark: one command, four workloads, one JSON result line.

Usage (from the repository root)::

    python3 tunebench/run.py --workload {train,search,serve,recover} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` wraps each layer's public functions (see
``tracing.py``) and reports the per-layer metrics instead.  Before the
result, one line ``envelope: {...}`` records the source hash, cores,
Python, numpy and the BLAS library with the thread count read back from
it.  The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

A failed correctness check prints the reason on standard error and exits
with code 1 and no result line.  See ``tunebench/README.md``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import PINNED_ENV, SRC  # noqa: E402

# BLAS reads its thread count when numpy loads it: pin before any import.
os.environ.update(PINNED_ENV)
sys.dont_write_bytecode = True
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from common import BenchError, envelope  # noqa: E402

WORKLOADS = ("train", "search", "serve", "recover")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _in_process_layers(outcome, recorder):
    from tracing import layer_metrics, merge, union_length

    merged = merge([recorder.snapshot()])
    windows = outcome["windows"]
    coverage = union_length([(a, b) for a, b, _ in merged["roots"]],
                            windows) / sum(b - a for a, b in windows)
    return layer_metrics(merged, outcome["ops"], {
        "layers.coverage": coverage,
        "trace.overhead_share": outcome["overhead_share"],
    })


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"tunebench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("tunebench: --seconds must be at least 1", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    started = time.perf_counter()
    try:
        if args.workload in ("train", "search"):
            from tracing import SpanRecorder
            module = __import__(f"w_{args.workload}")
            recorder = SpanRecorder() if trace else None
            outcome = module.run(args.seed, args.seconds, trace, recorder)
            if trace:
                outcome["metrics"] = _in_process_layers(outcome, recorder)
            shard_blas = None
        else:
            module = __import__(f"w_{args.workload}")
            outcome = module.run(args.seed, args.seconds, trace)
            shard_blas = outcome.get("service_blas")
    except BenchError as error:
        print(f"tunebench: check failed: {error}", file=sys.stderr)
        return 1
    info = envelope(args.workload, args.seed, args.seconds, trace,
                    shard_blas)
    info["wall_s"] = round(time.perf_counter() - started, 3)
    info["notes"] = outcome.get("notes", {})
    blas_threads = [info["blas"]["threads"]] + list(shard_blas or [])
    if any(value not in (1, None) for value in blas_threads):
        print(f"tunebench: BLAS threads not pinned to 1: {blas_threads}",
              file=sys.stderr)
        return 1
    print("envelope: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
