"""The ``serve-burst`` primary, started by the benchmark in its own process.

    python3 perfbench/server.py --dir STATE --tenants N [--trace-out SPANS.jsonl]

Equivalent to ``qoco-serve primary --dataset burst --tenants N`` (a
durable manager with ``sync="always"`` behind the HTTP service, the same
admission and lease settings), but built through ``repro.api.serve`` and
``repro.api.serve_http`` in this script so that a traced run can install
the span wrappers inside the server process.  Prints ``LISTENING host
port`` once bound; on SIGTERM it stops the service, closes the WAL and,
when tracing, writes its spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--tenants", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import repro.api as api
    from repro.dispatch.policy import RetryPolicy
    from repro.service.cli import build_workload

    recorder = None
    if args.trace_out:
        from layers import instrument
        from spans import Recorder

        recorder = Recorder()
        instrument(recorder)

    workload = build_workload("burst", tenants=args.tenants)
    manager = api.serve(workload.dirty, mode="sync", durable_path=args.dir, sync="always")
    service = api.serve_http(
        manager,
        policy=RetryPolicy(timeout=30.0, max_retries=3),
        votes_per_closed=1,
        max_inflight_per_tenant=4,
        max_inflight_total=64,
    )

    async def serve() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        host, port = await service.start("127.0.0.1", 0)
        if recorder is not None:
            recorder.enabled = True
        print(f"LISTENING {host} {port}", flush=True)
        await stop.wait()
        if recorder is not None:
            recorder.enabled = False
        await service.stop()

    asyncio.run(serve())
    manager.close()
    if recorder is not None:
        recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
