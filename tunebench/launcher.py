"""Benchmark-owned launcher for ``repro-service serve``.

Usage::

    python3 tunebench/launcher.py --run-dir DIR [--trace] -- <serve args>

Runs :func:`repro.service.cli.serve_main` with ``<serve args>`` and adds,
from outside the program:

* ``DIR/port``: the bound port, written once the front door listens;
* ``DIR/shard<i>.json``: each shard process's pid and BLAS thread count,
  rewritten by every respawned shard (the recover workload kills by it);
* ``DIR/parent.json``: the parent's BLAS thread count;
* with ``--trace``: the span wrappers of ``tracing.py``, installed before
  the shards fork so they inherit them, and one ``DIR/trace-*.json`` per
  process, written when that process ends normally.

BLAS threads come pinned through the environment the benchmark sets.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.dont_write_bytecode = True


def _write_json(path: str, data) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    os.replace(tmp, path)


def main(argv) -> int:
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    run_dir = options[options.index("--run-dir") + 1]
    traced = "--trace" in options

    from common import blas_readback
    from repro.service import cli, shard
    from repro.service.frontdoor import ServiceFrontDoor

    recorder = None
    if traced:
        from tracing import SpanRecorder, install
        recorder = SpanRecorder()
        install(recorder)

    shard_main = shard._shard_main

    def benchmarked_shard_main(index, *args, **kwargs):
        if recorder is not None:
            recorder.after_fork()
        _write_json(os.path.join(run_dir, f"shard{index}.json"),
                    {"pid": os.getpid(),
                     "blas_threads": blas_readback()["threads"]})
        try:
            return shard_main(index, *args, **kwargs)
        finally:
            if recorder is not None:
                recorder.dump(os.path.join(
                    run_dir, f"trace-shard{index}-{os.getpid()}.json"))

    shard._shard_main = benchmarked_shard_main

    start = ServiceFrontDoor.start

    async def start_and_publish(self):
        result = await start(self)
        _write_json(os.path.join(run_dir, "port"), self.port)
        return result

    ServiceFrontDoor.start = start_and_publish
    _write_json(os.path.join(run_dir, "parent.json"),
                {"pid": os.getpid(),
                 "blas_threads": blas_readback()["threads"]})
    try:
        return cli.serve_main(serve_args)
    finally:
        if recorder is not None:
            recorder.dump(os.path.join(run_dir,
                                       f"trace-parent-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
