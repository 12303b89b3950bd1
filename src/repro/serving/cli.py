"""Command-line face of the sketch store: ``python -m repro.serving``.

Subcommands operate on a store directory (see
:mod:`repro.serving.persistence` for its layout)::

    python -m repro.serving synth --out feed.jsonl --events 2000
    python -m repro.serving ingest --store ./store feed.jsonl --snapshot
    python -m repro.serving query --store ./store --kind sum
    python -m repro.serving query --store ./store --kind distinct --until 500
    python -m repro.serving query --store ./store --kind similarity \\
        --groups alice bob
    python -m repro.serving snapshot --store ./store
    python -m repro.serving merge --out ./merged ./shard-a ./shard-b
    python -m repro.serving info --store ./store
    python -m repro.serving serve --store ./store --port 0 --max-keys 512
    python -m repro.serving load --host 127.0.0.1 --port 7343 \\
        --clients 32 --requests 8 --mode concurrent --evict --shutdown
    python -m repro.serving evict --store ./store --ttl 3600 --max-keys 256

``ingest`` creates the store on first use (``--k`` / ``--tau-star`` /
``--rank-method`` / ``--salt`` pin the config; afterwards the stored
config wins and conflicting flags are an error).  ``query`` prints a
JSON document to stdout.  ``merge`` opens any number of source stores —
which must share a config — merges their ledgers, and attaches the
result to a fresh directory.  A failure is reported on stderr and turns
the exit code nonzero instead of escaping as a traceback.

``serve`` runs the asyncio front-end of :mod:`repro.serving.server` on
a store directory (announcing the bound address on stdout — with
``--port 0`` the kernel picks a free port) until a ``shutdown`` request
arrives.  ``--metrics-port`` mounts the Prometheus ``/metrics`` HTTP
shim next to the TCP server; ``--max-pending-events`` bounds the ingest
queue (overload then sheds with a ``retry_after`` hint instead of
growing memory); ``--sync-ack N`` holds each ingest ack until ``N``
followers confirm the covering replication offset (degrading to an
explicit ``durable: false`` after ``--ack-timeout`` seconds, so a
client always learns whether its batch outlives the primary);
``--follow HOST:PORT`` starts the server as a
*read-only replica* of a running primary — it bootstraps from the
primary's snapshot (adopting its config on first start), streams sealed
WAL segments, and serves queries bit-identical to the primary's at the
shipped watermark; with ``--promotable`` the replica also answers the
wire ``promote`` operation, rewiring itself into primary mode at that
watermark (the router's failover path).  ``serve --router SPEC...``
runs the store-less shard router instead: one
``HOST:PORT[,HOST:PORT...]`` endpoint chain per shard, key-routed
ingest, scatter-gather queries bit-identical to an unsharded store,
and automatic failover along each chain (``--health-interval`` adds
background health sweeps).  ``load`` is the matching load generator:
deterministic mixed queries from ``--clients`` concurrent connections
(or one connection with ``--mode sequential`` — the per-request
baseline the benchmarks compare against), optional server-side
ingestion (``--ingest-events``, backing off on shed batches), an
optional eviction cycle, and an optional clean shutdown; it prints a
JSON throughput report.  ``evict`` applies a retention policy offline,
snapshotting so the eviction is durable.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..sketches.bottomk import RankMethod
from .events import EventBatch, read_events, synthetic_feed, write_events
from .metrics import MetricsHTTPShim
from .promotion import PromotableReplica
from .replication import ReplicaFollower
from .retention import RetentionPolicy, apply_retention
from .router import ShardRouter
from .resilience import RetryPolicy
from .server import Overloaded, ServingClient, ServingError, SketchServer
from .store import SERVING_QUERY_KINDS, SketchStore, StoreConfig, merge_stores

__all__ = ["main", "run_load"]


def _config_from_args(args: argparse.Namespace) -> Optional[StoreConfig]:
    flags = (args.k, args.tau_star, args.rank_method, args.salt)
    if all(value is None for value in flags):
        return None
    defaults = StoreConfig()
    return StoreConfig(
        k=defaults.k if args.k is None else args.k,
        tau_star=defaults.tau_star if args.tau_star is None else args.tau_star,
        rank_method=(
            defaults.rank_method
            if args.rank_method is None
            else RankMethod(args.rank_method)
        ),
        salt=defaults.salt if args.salt is None else args.salt,
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--k", type=int, default=None, help="sketch capacity (store creation)"
    )
    parser.add_argument(
        "--tau-star", type=float, default=None,
        help="PPS rate (store creation)",
    )
    parser.add_argument(
        "--rank-method", choices=[m.value for m in RankMethod], default=None,
        help="bottom-k rank function (store creation)",
    )
    parser.add_argument(
        "--salt", default=None, help="seed-hash salt (store creation)"
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    events = synthetic_feed(
        num_events=args.events,
        num_keys=args.keys,
        groups=tuple(args.groups),
        seed=args.seed,
    )
    path = write_events(args.out, events)
    print(f"wrote {len(events)} events to {path}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = SketchStore.open(args.store, config=_config_from_args(args))
    try:
        total = 0
        for feed in args.feeds:
            total += store.ingest(read_events(feed))
        if args.snapshot:
            store.snapshot()
        print(
            f"ingested {total} events into {args.store} "
            f"(total {store.events_ingested}, groups: {', '.join(store.groups) or '-'})"
        )
    finally:
        store.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = SketchStore.open(args.store)
    try:
        result = store.query(
            args.kind,
            groups=args.groups,
            keys=args.keys,
            until=args.until,
        )
    finally:
        store.close()
    print(json.dumps({"kind": args.kind, "result": result}, sort_keys=True))
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    store = SketchStore.open(args.store)
    try:
        path = store.snapshot()
    finally:
        store.close()
    print(f"snapshot {path.name} at watermark {store.events_ingested}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    sources = []
    try:
        for root in args.sources:
            sources.append(SketchStore.open(root))
        merged = sources[0]
        for other in sources[1:]:
            merged = merge_stores(merged, other)
        if merged in sources:  # single source: copy its ledger
            merged = merge_stores(merged, SketchStore(merged.config))
        merged.attach(args.out)
        merged.close()
    finally:
        for source in sources:
            source.close()
    print(
        f"merged {len(sources)} store(s) into {args.out} "
        f"({merged.events_ingested} events, groups: {', '.join(merged.groups) or '-'})"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    store = SketchStore.open(args.store)
    try:
        from .persistence import latest_snapshot_digest

        payload = {
            "root": str(store.root),
            "config": store.config.to_dict(),
            "events_ingested": store.events_ingested,
            "groups": {
                group: {
                    "keys": len(store.group_state(group).totals),
                    "events": store.group_state(group).events,
                    "pps_sample_size": len(store.sketch(group, "pps").entries),
                    "ads_size": len(store.sketch(group, "ads")),
                }
                for group in store.groups
            },
            "latest_snapshot": latest_snapshot_digest(Path(args.store)),
            "query_kinds": list(SERVING_QUERY_KINDS.names()),
        }
    finally:
        store.close()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _retention_from_args(args: argparse.Namespace) -> Optional[RetentionPolicy]:
    if args.ttl is None and args.max_keys is None:
        return None
    return RetentionPolicy(ttl=args.ttl, max_keys=args.max_keys)


def _parse_endpoint(text: str) -> tuple:
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _serve_router(args: argparse.Namespace) -> int:
    """Run the shard router: ``serve --router SPEC [SPEC ...]``.

    Each SPEC is one shard's endpoint chain —
    ``HOST:PORT[,HOST:PORT...]``, preferred primary first, fallbacks
    (typically the shard's followers) after.  The shards must already
    be serving: the router pins their shared config at start.
    """
    shards = [
        [_parse_endpoint(part) for part in spec.split(",") if part]
        for spec in args.router
    ]

    async def run() -> int:
        router = ShardRouter(
            shards,
            host=args.host,
            port=args.port,
            health_interval=args.health_interval,
        )
        host, port = await router.start()
        print(f"routing {len(shards)} shard(s) on {host}:{port}", flush=True)
        shim = None
        if args.metrics_port is not None:
            shim = MetricsHTTPShim(
                router.metrics, args.host, args.metrics_port
            )
            metrics_host, metrics_port = await shim.start()
            print(f"metrics on {metrics_host}:{metrics_port}", flush=True)
        try:
            await router.serve_forever()
        finally:
            if shim is not None:
                await shim.stop()
        return sum(slot.watermark for slot in router.slots)

    watermark = asyncio.run(run())
    print(f"router stopped at watermark {watermark}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.router:
        if args.store is not None or args.follow:
            raise ValueError(
                "--router runs store-less; drop --store/--follow"
            )
        return _serve_router(args)
    if args.store is None:
        raise ValueError("serve needs --store (or --router)")
    if args.promotable and not args.follow:
        raise ValueError("--promotable requires --follow")
    follow = _parse_endpoint(args.follow) if args.follow else None

    async def run() -> int:
        config = _config_from_args(args)
        if follow is not None:
            # A fresh follower adopts the primary's config before the
            # store directory is created — coordinated sketches require
            # identical sampling parameters on both sides.
            primary = await ServingClient.connect(*follow)
            try:
                primary_config = StoreConfig.from_dict(
                    (await primary.info())["config"]
                )
            finally:
                await primary.close()
            if config is not None and config != primary_config:
                raise ValueError(
                    f"config flags {config} conflict with the primary's "
                    f"{primary_config}"
                )
            config = primary_config
        store = SketchStore.open(args.store, config=config)
        try:
            server_kwargs = dict(
                max_batch=args.max_batch,
                max_delay=args.max_delay_ms / 1000.0,
                retention=_retention_from_args(args),
                retention_interval=args.retention_interval,
                max_pending_events=args.max_pending_events,
                repl_buffer=args.repl_buffer,
                sync_ack=args.sync_ack,
                ack_timeout=args.ack_timeout,
            )
            replica = None
            follower_task = None
            if follow is not None and args.promotable:
                replica = PromotableReplica(
                    store,
                    follow[0],
                    follow[1],
                    host=args.host,
                    port=args.port,
                    **server_kwargs,
                )
                server = replica.server
                host, port = await replica.start()
            else:
                server = SketchServer(
                    store,
                    host=args.host,
                    port=args.port,
                    read_only=follow is not None,
                    **server_kwargs,
                )
                host, port = await server.start()
            # Announced (and flushed) so a driver using --port 0 can
            # read the bound port before sending traffic.
            print(f"serving {args.store} on {host}:{port}", flush=True)
            shim = None
            if args.metrics_port is not None:
                shim = MetricsHTTPShim(
                    server.metrics, args.host, args.metrics_port
                )
                metrics_host, metrics_port = await shim.start()
                print(
                    f"metrics on {metrics_host}:{metrics_port}", flush=True
                )
            if follow is not None:
                if replica is None:
                    follower = ReplicaFollower(
                        store, follow[0], follow[1], metrics=server.metrics
                    )
                    follower_task = asyncio.create_task(follower.run())
                    print(f"following {follow[0]}:{follow[1]}", flush=True)
                else:
                    print(
                        f"following {follow[0]}:{follow[1]} (promotable)",
                        flush=True,
                    )
            try:
                await server.serve_forever()
            finally:
                if follower_task is not None:
                    follower_task.cancel()
                    try:
                        await follower_task
                    except asyncio.CancelledError:
                        pass
                if replica is not None:
                    await replica.stop()
                if shim is not None:
                    await shim.stop()
        finally:
            store.close()
        return store.events_ingested

    watermark = asyncio.run(run())
    print(f"server stopped at watermark {watermark}")
    return 0


async def run_load(
    host: str,
    port: int,
    clients: int = 8,
    requests_per_client: int = 8,
    mode: str = "concurrent",
    kinds: Sequence[str] = ("sum", "distinct"),
    ingest_events: int = 0,
    ingest_batch: int = 100,
    ingest_seed: int = 0,
    with_metrics: bool = False,
) -> Dict[str, Any]:
    """Drive a running server with a deterministic mixed query workload.

    ``concurrent`` mode opens one connection per client and lets the
    clients issue their requests closed-loop in parallel — the workload
    the coalescing window feeds on.  ``sequential`` mode issues every
    request one at a time over a single connection: the per-request
    baseline.  The request mix is a pure function of the arguments, so
    the two modes answer the identical request multiset.

    With ``ingest_events > 0`` the run first ships that many synthetic
    events to the server in ``ingest_batch``-sized batches over the
    probe connection, honouring admission control: a shed batch backs
    off for the server's ``retry_after`` hint and re-sends, so every
    event lands even under a tight ``--max-pending-events`` bound (the
    report counts the sheds it rode out).  Against a ``--sync-ack``
    server the report also splits the ingest acks into ``durable_acks``
    and ``degraded_acks``.

    Returns a JSON-ready report: request counts, wall seconds,
    requests/second, error count, the server's coalescing counters
    after the run, and (``with_metrics=True``) its metrics snapshot.
    """
    if mode not in ("concurrent", "sequential"):
        raise ValueError(f"unknown load mode {mode!r}")
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests must be positive")
    if not kinds:
        raise ValueError("at least one query kind is required")
    if ingest_events < 0 or ingest_batch < 1:
        raise ValueError("ingest_events/ingest_batch out of range")
    probe = await ServingClient.connect(host, port)
    try:
        ingested = 0
        shed_retries = 0
        durable_acks = 0
        degraded_acks = 0
        if ingest_events:
            feed = synthetic_feed(
                num_events=ingest_events,
                num_keys=max(16, ingest_events // 8),
                groups=("alpha", "beta"),
                seed=ingest_seed,
            )
            # Shed batches back off through the shared policy: the
            # server's retry_after hint is honoured but clamped, and a
            # hintless shed escalates the capped exponential schedule.
            shed_timer = RetryPolicy(base=0.01, cap=2.0).timer()
            for start_index in range(0, len(feed), ingest_batch):
                batch = EventBatch.from_events(
                    feed[start_index : start_index + ingest_batch]
                )
                while True:
                    try:
                        response = await probe.ingest(batch)
                        ingested += response["ingested"]
                        durable = response.get("durable")
                        if durable is True:
                            durable_acks += 1
                        elif durable is False:
                            degraded_acks += 1
                        shed_timer.reset()
                        break
                    except Overloaded as exc:
                        shed_retries += 1
                        await shed_timer.pause(retry_after=exc.retry_after)
        info = await probe.info()
        groups = info["groups"]
        pair = groups[:2] if len(groups) >= 2 else None
        plan: List[List[str]] = []
        for client_index in range(clients):
            mine = []
            for request_index in range(requests_per_client):
                kind = kinds[
                    (client_index * requests_per_client + request_index)
                    % len(kinds)
                ]
                if kind == "similarity" and pair is None:
                    kind = "sum"
                mine.append(kind)
            plan.append(mine)
        errors = 0

        async def issue(client: ServingClient, kind: str) -> None:
            nonlocal errors
            try:
                if kind == "similarity":
                    await client.query(kind, groups=pair)
                else:
                    await client.query(kind)
            except ServingError:
                errors += 1

        start = time.perf_counter()
        if mode == "sequential":
            for mine in plan:
                for kind in mine:
                    await issue(probe, kind)
        else:
            connections = [
                await ServingClient.connect(host, port) for _ in range(clients)
            ]
            try:

                async def worker(
                    client: ServingClient, mine: List[str]
                ) -> None:
                    for kind in mine:
                        await issue(client, kind)

                await asyncio.gather(
                    *(
                        worker(client, mine)
                        for client, mine in zip(connections, plan)
                    )
                )
            finally:
                for client in connections:
                    await client.close()
        seconds = time.perf_counter() - start
        after = await probe.info()
        total = clients * requests_per_client
        report = {
            "mode": mode,
            "clients": clients,
            "requests": total,
            "kinds": list(kinds),
            "errors": errors,
            "seconds": seconds,
            "requests_per_sec": total / seconds if seconds > 0 else 0.0,
            "coalescing": after["coalescing"],
            "ingested": ingested,
            "shed_retries": shed_retries,
            "durable_acks": durable_acks,
            "degraded_acks": degraded_acks,
            "watermark": after["events_ingested"],
        }
        if with_metrics:
            report["metrics"] = await probe.metrics()
        return report
    finally:
        await probe.close()


def _cmd_load(args: argparse.Namespace) -> int:
    async def run() -> Dict[str, Any]:
        report = await run_load(
            args.host,
            args.port,
            clients=args.clients,
            requests_per_client=args.requests,
            mode=args.mode,
            kinds=tuple(args.kinds),
            ingest_events=args.ingest_events,
            ingest_batch=args.ingest_batch,
            ingest_seed=args.ingest_seed,
            with_metrics=args.with_metrics,
        )
        if args.evict or args.ttl is not None or args.max_keys is not None:
            client = await ServingClient.connect(args.host, args.port)
            try:
                response = await client.evict(
                    ttl=args.ttl, max_keys=args.max_keys
                )
                report["evicted"] = {
                    group: len(keys)
                    for group, keys in response["evicted"].items()
                }
            finally:
                await client.close()
        if args.shutdown:
            client = await ServingClient.connect(args.host, args.port)
            try:
                await client.shutdown()
            finally:
                await client.close()
            report["shutdown"] = True
        return report

    report = asyncio.run(run())
    print(json.dumps(report, sort_keys=True))
    return 1 if report["errors"] else 0


def _cmd_evict(args: argparse.Namespace) -> int:
    policy = _retention_from_args(args)
    if policy is None:
        raise ValueError("evict needs --ttl and/or --max-keys")
    store = SketchStore.open(args.store)
    try:
        report = apply_retention(
            store, policy, now=args.now, snapshot=not args.no_snapshot
        )
        payload = {
            "evicted": {
                group: len(keys) for group, keys in report.items()
            },
            "remaining_keys": {
                group: len(store.group_state(group).totals)
                for group in store.groups
            },
        }
    finally:
        store.close()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Sketch-store serving layer: ingest, query, snapshot, merge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a deterministic synthetic feed")
    synth.add_argument("--out", required=True, help="output feed (.jsonl)")
    synth.add_argument("--events", type=int, default=1000)
    synth.add_argument("--keys", type=int, default=100)
    synth.add_argument("--groups", nargs="+", default=["default"])
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=_cmd_synth)

    ingest = sub.add_parser("ingest", help="ingest feed files into a store")
    ingest.add_argument("--store", required=True, help="store directory")
    ingest.add_argument("feeds", nargs="+", help="feed files (.jsonl)")
    ingest.add_argument(
        "--snapshot", action="store_true", help="snapshot after ingesting"
    )
    _add_config_flags(ingest)
    ingest.set_defaults(func=_cmd_ingest)

    query = sub.add_parser("query", help="answer a query from the sketches")
    query.add_argument("--store", required=True, help="store directory")
    query.add_argument(
        "--kind", required=True, choices=list(SERVING_QUERY_KINDS.names())
    )
    query.add_argument("--groups", nargs="+", default=None)
    query.add_argument("--keys", nargs="+", default=None)
    query.add_argument("--until", type=float, default=None)
    query.set_defaults(func=_cmd_query)

    snapshot = sub.add_parser("snapshot", help="snapshot a store's ledger")
    snapshot.add_argument("--store", required=True, help="store directory")
    snapshot.set_defaults(func=_cmd_snapshot)

    merge = sub.add_parser(
        "merge", help="merge stores into a fresh store directory"
    )
    merge.add_argument("sources", nargs="+", help="source store directories")
    merge.add_argument("--out", required=True, help="destination directory")
    merge.set_defaults(func=_cmd_merge)

    info = sub.add_parser("info", help="summarise a store as JSON")
    info.add_argument("--store", required=True, help="store directory")
    info.set_defaults(func=_cmd_info)

    serve = sub.add_parser(
        "serve", help="serve a store over the JSON-lines TCP protocol"
    )
    serve.add_argument(
        "--store", default=None,
        help="store directory (required unless --router)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="coalescing window: flush at this many pending queries",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=0.0,
        help="coalescing window: hold open this long (0 = one loop tick)",
    )
    serve.add_argument(
        "--ttl", type=float, default=None,
        help="retention: evict keys idle longer than this",
    )
    serve.add_argument(
        "--max-keys", type=int, default=None,
        help="retention: keep at most this many keys per group",
    )
    serve.add_argument(
        "--retention-interval", type=float, default=None,
        help="seconds between background retention sweeps",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="mount the Prometheus /metrics HTTP shim on this port "
        "(0 picks a free port)",
    )
    serve.add_argument(
        "--max-pending-events", type=int, default=None,
        help="ingest admission bound: shed batches past this many "
        "queued events (default: unbounded, no queue)",
    )
    serve.add_argument(
        "--repl-buffer", type=int, default=1024,
        help="replication segment buffer capacity (entries)",
    )
    serve.add_argument(
        "--sync-ack", type=int, default=None, metavar="N",
        help="hold each ingest ack until N followers confirm the "
        "covering segment offset; replies report durable: true/false "
        "(default: acknowledge as soon as the batch is applied)",
    )
    serve.add_argument(
        "--ack-timeout", type=float, default=1.0,
        help="with --sync-ack: seconds to wait for the quorum before "
        "degrading the ack to durable: false",
    )
    serve.add_argument(
        "--follow", metavar="HOST:PORT", default=None,
        help="run as a read-only replica of this primary (bootstraps "
        "from its snapshot, then streams WAL segments)",
    )
    serve.add_argument(
        "--promotable", action="store_true",
        help="with --follow: answer the wire 'promote' op by rewiring "
        "into primary mode at the shipped watermark",
    )
    serve.add_argument(
        "--router", metavar="HOST:PORT[,HOST:PORT...]", nargs="+",
        default=None,
        help="run the store-less shard router instead: one endpoint "
        "chain per shard (preferred primary first, failover fallbacks "
        "after); shard order defines the key partition",
    )
    serve.add_argument(
        "--health-interval", type=float, default=None,
        help="router: seconds between background shard health sweeps "
        "(default: failures detected on routed traffic only)",
    )
    _add_config_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    load = sub.add_parser(
        "load", help="drive a running server with a query workload"
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, required=True)
    load.add_argument("--clients", type=int, default=8)
    load.add_argument(
        "--requests", type=int, default=8, help="requests per client"
    )
    load.add_argument(
        "--mode", choices=["concurrent", "sequential"], default="concurrent"
    )
    load.add_argument(
        "--kinds", nargs="+", default=["sum", "distinct"],
        choices=["sum", "distinct", "similarity"],
    )
    load.add_argument(
        "--ingest-events", type=int, default=0,
        help="ship this many synthetic events to the server first "
        "(backing off on shed batches)",
    )
    load.add_argument(
        "--ingest-batch", type=int, default=100,
        help="events per ingest request",
    )
    load.add_argument(
        "--ingest-seed", type=int, default=0,
        help="seed of the synthetic ingest feed",
    )
    load.add_argument(
        "--with-metrics", action="store_true",
        help="include the server's metrics snapshot in the report",
    )
    load.add_argument(
        "--evict", action="store_true",
        help="finish with an eviction cycle (server-side policy)",
    )
    load.add_argument(
        "--ttl", type=float, default=None,
        help="eviction cycle: explicit TTL (implies --evict)",
    )
    load.add_argument(
        "--max-keys", type=int, default=None,
        help="eviction cycle: explicit key cap (implies --evict)",
    )
    load.add_argument(
        "--shutdown", action="store_true",
        help="finish by asking the server to stop",
    )
    load.set_defaults(func=_cmd_load)

    evict = sub.add_parser(
        "evict", help="apply a retention policy to a store, durably"
    )
    evict.add_argument("--store", required=True, help="store directory")
    evict.add_argument("--ttl", type=float, default=None)
    evict.add_argument("--max-keys", type=int, default=None)
    evict.add_argument(
        "--now", type=float, default=None,
        help="TTL reference time (default: the feed's latest timestamp)",
    )
    evict.add_argument(
        "--no-snapshot", action="store_true",
        help="skip the durability snapshot (in-memory eviction only)",
    )
    evict.set_defaults(func=_cmd_evict)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.serving``; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ServingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
