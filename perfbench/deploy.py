"""The deployment host: serving front-ends built from the public API.

Run by ``run.py`` as its own process::

    python3 perfbench/deploy.py --topology direct|routed --root DIR

``direct`` is one in-memory :class:`~repro.serving.SketchServer`.
``routed`` is a :class:`~repro.serving.ShardRouter` over two
directory-backed primaries (the shipped fsync-per-batch write-ahead
log, ``sync_ack=1``), each trailed by one in-memory
:class:`~repro.serving.PromotableReplica` follower.  Everything runs on
one event loop, so the host's CPU time is the program's.

The host prints one JSON line with the client-facing address once every
follower is streaming, then serves commands, one JSON object per stdin
line, each answered by one JSON line on stdout:

``{"cmd": "report"}``
    Metrics snapshots by role and the process CPU seconds so far.
``{"cmd": "calibrate", "repeats": n}``
    Time the host-speed kernel of ``calibrate.py`` here: ``{"ms": ...}``.
``{"cmd": "trace", "on": true}`` / ``{"cmd": "trace", "on": false, "path": P}``
    Install the span tracer, or remove it and write its spans to ``P``.
``{"cmd": "stop"}``
    Stop every server and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.serving import PromotableReplica, ShardRouter, SketchServer, SketchStore

import calibrate
import spans

#: Seconds between replication-lag samples while tracing.
LAG_SAMPLE_INTERVAL = 0.005


class Deployment:
    def __init__(self, topology: str, root: Path) -> None:
        self.topology = topology
        self.root = root
        self.front = None
        self.primaries: List[SketchServer] = []
        self.followers: List[PromotableReplica] = []
        self.tracer = None
        self._sampler = None

    async def start(self) -> None:
        if self.topology == "direct":
            self.front = SketchServer(SketchStore())
            await self.front.start()
            return
        for index in range(2):
            store = SketchStore.open(self.root / f"primary-{index}")
            primary = SketchServer(store, sync_ack=1)
            await primary.start()
            self.primaries.append(primary)
        for primary in self.primaries:
            follower = PromotableReplica(SketchStore(), *primary.address)
            await follower.start()
            self.followers.append(follower)
        # Ready only once every follower streams: sync-ack ingest needs
        # a subscriber to ack it.
        while any(primary.acks.subscribers < 1 for primary in self.primaries):
            await asyncio.sleep(0.005)
        self.front = ShardRouter(
            [
                [primary.address, follower.address]
                for primary, follower in zip(self.primaries, self.followers)
            ]
        )
        await self.front.start()

    async def stop(self) -> None:
        await self.front.stop()
        for follower in self.followers:
            await follower.stop()
        for primary in self.primaries:
            await primary.stop()
            primary.store.close()

    def roles(self) -> Dict[int, str]:
        roles = {id(self.front): "front"}
        roles.update({id(primary): "primary" for primary in self.primaries})
        roles.update({id(follower.server): "follower" for follower in self.followers})
        return roles

    def report(self) -> Dict[str, Any]:
        times = os.times()
        return {
            "cpu_s": times.user + times.system,
            "metrics": {
                "front": self.front.metrics.snapshot(),
                "primary": [primary.metrics.snapshot() for primary in self.primaries],
            },
        }

    async def _sample_lag(self) -> None:
        while True:
            for primary in self.primaries:
                acked = primary.acks.describe()["acked_offsets"]
                behind = primary.replication.offset - (min(acked) if acked else 0)
                self.tracer.samples.append(("replication.lag", behind))
            await asyncio.sleep(LAG_SAMPLE_INTERVAL)

    async def trace(self, on: bool, path: str = "") -> None:
        if on:
            self.tracer = spans.Tracer()
            spans.install_serving(self.tracer, self.roles())
            if self.primaries:
                self._sampler = asyncio.create_task(self._sample_lag())
            return
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._sampler = None
        self.tracer.uninstall()
        self.tracer.dump(path)
        self.tracer = None


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topology", choices=("direct", "routed"), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    deployment = Deployment(args.topology, Path(args.root))
    await deployment.start()
    _reply({"address": list(deployment.front.address), "pid": os.getpid()})

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = json.loads(line)
            if command["cmd"] == "report":
                _reply(deployment.report())
            elif command["cmd"] == "calibrate":
                _reply({"ms": calibrate.kernel_ms(command["repeats"])})
            elif command["cmd"] == "trace":
                await deployment.trace(command["on"], command.get("path", ""))
                _reply({"ok": True})
            elif command["cmd"] == "stop":
                break
    finally:
        await deployment.stop()
    _reply({"stopped": True})


if __name__ == "__main__":
    asyncio.run(main())
