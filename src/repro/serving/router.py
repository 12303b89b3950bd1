"""Key-partitioned shard router: one protocol front-end, many primaries.

:class:`ShardRouter` speaks the same JSON-lines protocol as
:class:`~repro.serving.server.SketchServer` (it extends the same
:class:`~repro.serving.server.JSONLinesServer` shell), but owns no
store.  Behind it sit *shards* — independent primaries, each optionally
trailed by its own follower chain — and the router's job is to make
them answer as one store:

* **Ingest routing** — every batch is split with the same key-routed
  hash the merge suite pins
  (:func:`~repro.serving.events.shard_events`): a ``(group, key)`` pair
  always lands on the same shard, so each key's accumulated weight
  lives in exactly one place.  The frame is decoded once into an
  :class:`~repro.serving.events.EventBatch` and split by column, and
  each shard is sent its sub-batch's columns, concurrently; the
  acknowledgement carries the per-shard watermark vector and their
  sum as the routed watermark.
* **Scatter-gather queries** — ``sum``/``distinct``/``similarity`` are
  answered by gathering each shard's *serialized sketch views*
  (``shard_view`` responses), fusing them with
  :func:`~repro.serving.store.merge_sketch_views`, and running the
  fused store through the identical
  :meth:`~repro.serving.store.SketchStore.query` code path.  Each
  shard slot caches the views it has fetched per ``(group, kind)``,
  against the shard's one current ``(offset, watermark)`` mutation
  tag: when every pair a query needs is cached, the shard is asked
  only whether its tag moved and normally answers one ``unchanged``
  line.  The fused store persists between queries, keyed by the
  per-shard ``(epoch, offset, watermark)`` cut, and is only extended
  with pairs not yet fused — so its derived reductions survive too,
  and a steady-state routed query costs the ``unchanged`` round trips
  plus the same store query a single server runs.  Because
  coordinated sketches over disjoint key populations merge exactly,
  routed answers are **bit-identical** to an unsharded store at the
  same watermark cut — the property suite pins ``==``, not ``approx``.
  Partial scalar answers are deliberately *not* summed router-side:
  floating-point reduction order would differ from the unsharded
  engine dispatch and break bit-identity.
* **Failover** — each shard slot is an ordered endpoint chain
  (primary first, then followers).  When the current target dies, the
  router re-scans the chain: a writable survivor wins in chain order;
  otherwise the **most-advanced** read-only survivor (highest applied
  watermark) is asked to ``promote`` (see
  :mod:`repro.serving.promotion`).  Picking by watermark matters under
  synchronous-ack replication: followers apply contiguous prefixes of
  one primary's stream, so their histories are totally ordered and the
  max-watermark survivor holds every batch *any* follower acked —
  promoting it can never lose a ``durable: true`` batch even when the
  quorum was smaller than the follower count.  The shard's remaining
  followers detect the promoted primary's offset discontinuity through
  the watermark cross-check already in ``repl_subscribe`` and
  re-bootstrap.  When every endpoint of a shard is down, routed
  requests answer ``{"ok": false, "shard_unavailable": true,
  "retry_after": ...}`` — the typed unavailability
  :class:`~repro.serving.server.ServingClient` retries for idempotent
  operations and surfaces as
  :class:`~repro.serving.server.ShardUnavailable` for mutating ones.
* **Durability propagation** — when shards run in synchronous-ack mode
  their ingest replies carry ``durable``; the routed acknowledgement
  reports the *weakest* shard's verdict (``durable: true`` only when
  every contacted shard confirmed its quorum; a shard that reported
  nothing — asynchronous mode — counts as not confirmed).  A routed
  batch is only as durable as its least-replicated sub-batch.

Watermark semantics: every routed answer carries ``watermarks`` — the
per-shard vector — and ``watermark``, their sum.  Each shard's view is
internally consistent (one mutation cut per shard, tagged by its
replication offset *and* event watermark, so eviction-only mutations
invalidate too); under concurrent ingest the vector is the cut the
answer describes, and a quiesced router answers at the exact global
cut, which is what the parity suites compare against.

The router is deliberately store-less and almost stateless: shard
watermarks, cached views and the fused store are reconstructed from
shard responses, so a router restart needs no recovery protocol.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .events import ROUTING_SALT, EventBatch, shard_events
from .metrics import MetricsRegistry
from .resilience import RetryPolicy
from .server import (
    DEFAULT_LINE_LIMIT,
    ConnectionLost,
    JSONLinesServer,
    Overloaded,
    ServingClient,
    ServingError,
    ShardUnavailable,
)
from .store import SketchStore, StoreConfig, merge_sketch_views

__all__ = ["ShardRouter", "ShardSlot"]

#: Sketch kinds each routed query kind gathers from the shards.
_QUERY_VIEW_KINDS = {
    "sum": ("pps",),
    "similarity": ("pps",),
    "distinct": ("ads",),
}

class ShardSlot:
    """One shard's routing state: endpoint chain, live client, view cache.

    ``endpoints[0]`` is the preferred primary; the rest are fallbacks
    (typically the shard's followers) scanned in order on failure.  A
    successful failover rotates the winning endpoint to the front, so
    subsequent reconnects try the promoted primary first.

    The view cache holds one shard cut only: ``tag`` is the shard's
    ``(offset, watermark)`` when the cached views were served, ``views``
    maps each fetched ``(group, kind)`` to its serialized sketch,
    ``absent`` names requested groups the shard did not hold at that
    tag, and ``listed`` records that a default-selection fetch saw every
    group (so any group outside ``present`` is absent too).  A fetch at
    a different tag replaces the whole cache.  ``epoch`` counts
    re-targets; it is part of the router's fused-store key because a
    promoted primary restarts its offsets, so a tag alone could name
    different cuts on different servers.
    """

    def __init__(
        self, index: int, endpoints: Sequence[Tuple[str, int]]
    ) -> None:
        if not endpoints:
            raise ValueError(f"shard {index} has no endpoints")
        self.index = int(index)
        self.endpoints: List[Tuple[str, int]] = [
            (str(host), int(port)) for host, port in endpoints
        ]
        self.client: Optional[ServingClient] = None
        self.watermark = 0
        self.failovers = 0
        self.epoch = 0
        self.lock = asyncio.Lock()
        self.invalidate_views()

    def invalidate_views(self) -> None:
        """Drop cached views and start a new epoch (after re-targeting)."""
        self.epoch += 1
        self._reset(None)

    def _reset(self, tag: Optional[Tuple[int, int]]) -> None:
        self.tag = tag
        self.views: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.present: Set[str] = set()
        self.absent: Set[str] = set()
        self.listed = False

    def cached_views(
        self, groups: Optional[Sequence[str]], kinds: Sequence[str]
    ) -> Optional[Dict[str, Dict[str, Any]]]:
        """``{group: {kind: payload}}`` for a selection at ``tag``.

        ``None`` when any group's presence or any needed payload is not
        cached; absent groups are left out, as the shard leaves them out.
        """
        if self.tag is None:
            return None
        if groups is None:
            if not self.listed:
                return None
            groups = self.present
        selected: Dict[str, Dict[str, Any]] = {}
        for group in groups:
            if group in self.present:
                sketches = {}
                for kind in kinds:
                    payload = self.views.get((group, kind))
                    if payload is None:
                        return None
                    sketches[kind] = payload
                selected[group] = sketches
            elif not (self.listed or group in self.absent):
                return None
        return selected

    def record(
        self,
        tag: Tuple[int, int],
        groups: Optional[Sequence[str]],
        view_groups: Mapping[str, Mapping[str, Any]],
    ) -> None:
        """Cache a fetched view of ``groups`` (``None``: every group)."""
        if tag != self.tag:
            self._reset(tag)
        for group, sketches in view_groups.items():
            self.present.add(group)
            self.absent.discard(group)
            for kind, payload in sketches.items():
                self.views[group, kind] = payload
        if groups is None:
            self.listed = True
        else:
            self.absent.update(
                group for group in groups if group not in view_groups
            )

    def describe(self) -> Dict[str, Any]:
        """The slot's entry in the router's ``info`` payload."""
        return {
            "index": self.index,
            "primary": (
                None
                if self.client is None
                else f"{self.endpoints[0][0]}:{self.endpoints[0][1]}"
            ),
            "endpoints": [f"{host}:{port}" for host, port in self.endpoints],
            "watermark": self.watermark,
            "failovers": self.failovers,
        }


class ShardRouter(JSONLinesServer):
    """Route the serving protocol across key-partitioned shard primaries.

    Parameters
    ----------
    shards:
        One endpoint chain per shard: each entry is a sequence of
        ``(host, port)`` pairs, preferred primary first.  The shard
        *count and order* define the key partition — they must match
        across router restarts (and match the
        :func:`~repro.serving.events.shard_events` split used for any
        offline pre-sharding).
    host, port:
        Router bind address; port ``0`` picks a free port.
    metrics:
        Registry for the router's own series (``router_*`` plus the
        shared ``serving_requests_total`` family from the protocol
        shell); a fresh registry by default.
    salt:
        Routing-hash salt; leave at the default so offline
        ``shard_events`` splits agree with the router.
    retry_after:
        The backoff hint (seconds) carried by ``shard_unavailable``
        responses.
    backoff:
        Base reconnect backoff for the router's shard clients.
        Shorthand for the default ``retry`` policy.
    retry:
        A :class:`~repro.serving.resilience.RetryPolicy` governing how
        many times a routed request re-targets and re-sends (its
        ``max_retries``) and the pause between attempts; overrides the
        ``backoff`` shorthand.
    health_interval:
        Seconds between background health sweeps (ping every shard,
        re-target on failure); ``None`` disables the sweep — failures
        are then only detected on routed traffic.
    line_limit:
        Per-request line cap in bytes.
    """

    def __init__(
        self,
        shards: Sequence[Sequence[Tuple[str, int]]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: Optional[MetricsRegistry] = None,
        salt: str = ROUTING_SALT,
        retry_after: float = 0.25,
        backoff: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        health_interval: Optional[float] = None,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        if not shards:
            raise ValueError("the router needs at least one shard")
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        if health_interval is not None and health_interval <= 0:
            raise ValueError("health_interval must be positive")
        super().__init__(host, port, metrics=metrics, line_limit=line_limit)
        self._slots = [
            ShardSlot(index, endpoints)
            for index, endpoints in enumerate(shards)
        ]
        self._salt = str(salt)
        self._retry_after = float(retry_after)
        self._backoff = float(backoff)
        self._retry = (
            retry
            if retry is not None
            else RetryPolicy(max_retries=1, base=backoff)
        )
        self._health_interval = health_interval
        self._config: Optional[StoreConfig] = None
        self._health_task: Optional[asyncio.Task] = None
        #: The persistent fused store, the per-slot ``(epoch, offset,
        #: watermark)`` cut it describes, and its fused (group, kind) pairs.
        self._fused: Optional[SketchStore] = None
        self._fused_cut: Tuple[Tuple[int, int, int], ...] = ()
        self._fused_pairs: Set[Tuple[str, str]] = set()

    @property
    def slots(self) -> List[ShardSlot]:
        """The shard slots, in partition order."""
        return self._slots

    @property
    def config(self) -> Optional[StoreConfig]:
        """The shards' shared store config (pinned at first contact)."""
        return self._config

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _post_start(self) -> None:
        """Contact every shard, pin the shared config, start health sweeps."""
        for slot in self._slots:
            await self._retarget(slot)
        if self._health_interval is not None:
            self._health_task = asyncio.create_task(self._health_loop())

    async def _pre_close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for slot in self._slots:
            if slot.client is not None:
                await slot.client.close()
                slot.client = None

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            for slot in self._slots:
                try:
                    await self._shard_request(slot, "ping")
                except ServingError:
                    # Unreachable through every endpoint right now; the
                    # unavailability counter is already bumped, and the
                    # next sweep (or routed request) re-scans the chain.
                    continue

    # ------------------------------------------------------------------
    # Shard targeting
    # ------------------------------------------------------------------
    async def _retarget(self, slot: ShardSlot) -> None:
        """(Re)connect ``slot`` to the best serving endpoint of its chain.

        Probes the whole chain: a *writable* endpoint wins in chain
        order; with none, the **most-advanced** read-only survivor
        (highest applied watermark, chain order breaking ties) is asked
        to ``promote``.  Followers apply contiguous prefixes of one
        primary's stream, so the max-watermark survivor's ledger
        contains every other survivor's — promoting it preserves every
        batch any follower acked, which is what makes a sync-ack quorum
        smaller than the follower count safe across failover.  The
        winner is rotated to the front of the chain.  Raises
        :class:`~repro.serving.server.ShardUnavailable` when no
        endpoint serves.
        """
        if slot.client is not None:
            await slot.client.close()
            slot.client = None
        was_primary = slot.endpoints[0]
        #: ``(-watermark, position, host, port, client)`` promotion
        #: candidates — sortable so the most-advanced survivor leads.
        candidates: List[Tuple[int, int, str, int, ServingClient]] = []
        chosen: Optional[Tuple[int, ServingClient, Dict[str, Any]]] = None
        try:
            for position, (host, port) in enumerate(list(slot.endpoints)):
                client: Optional[ServingClient] = None
                try:
                    client = await ServingClient.connect(
                        host, port, max_retries=0, backoff=self._backoff
                    )
                    info = await client.info()
                except (ConnectionError, OSError, ServingError):
                    if client is not None:
                        await client.close()
                    continue
                if info.get("read_only"):
                    candidates.append(
                        (
                            -int(info.get("events_ingested", 0)),
                            position,
                            host,
                            port,
                            client,
                        )
                    )
                    continue
                chosen = (position, client, info)
                break
            if chosen is None:
                for _, position, host, port, client in sorted(
                    candidates, key=lambda item: item[:2]
                ):
                    try:
                        promoted = await client.request("promote")
                        info = await client.info()
                        if info.get("read_only"):
                            # Promotion did not take (raced a
                            # demotion?) — a read-only target cannot
                            # own the shard.
                            raise ServingError("endpoint stayed read-only")
                    except (ConnectionError, OSError, ServingError):
                        await client.close()
                        continue
                    if promoted.get("promoted"):
                        self._metrics.counter(
                            "router_promotions_total",
                            help="followers promoted to shard primary",
                            shard=str(slot.index),
                        ).inc()
                    chosen = (position, client, info)
                    break
        finally:
            for _, _, _, _, client in candidates:
                if chosen is None or client is not chosen[1]:
                    await client.close()
        if chosen is None:
            raise ShardUnavailable(
                f"shard {slot.index} is unavailable: no endpoint of "
                + ", ".join(
                    f"{host}:{port}" for host, port in slot.endpoints
                )
                + " is serving",
                self._retry_after,
            )
        position, client, info = chosen
        config = StoreConfig.from_dict(info["config"])
        if self._config is None:
            self._config = config
        elif config != self._config:
            await client.close()
            host, port = slot.endpoints[position]
            raise ValueError(
                f"shard {slot.index} endpoint {host}:{port} serves "
                f"config {config}, but the router pinned "
                f"{self._config}; shards must share one config"
            )
        if position:
            slot.endpoints.insert(0, slot.endpoints.pop(position))
        slot.client = client
        slot.watermark = int(info.get("events_ingested", slot.watermark))
        slot.invalidate_views()
        self._fused = None
        if slot.endpoints[0] != was_primary:
            slot.failovers += 1
            self._metrics.counter(
                "router_failovers_total",
                help="shard slots re-targeted to a different endpoint",
                shard=str(slot.index),
            ).inc()

    async def _shard_request(
        self, slot: ShardSlot, op: str, **fields: Any
    ) -> Dict[str, Any]:
        """One request to a shard, re-targeting between policy retries.

        A connection drop triggers a chain re-scan (which may promote a
        follower), a policy backoff pause, and a re-send — up to the
        retry policy's ``max_retries``.  Note the re-send makes routed
        ``ingest`` *at-least-once* across failover: a primary that died
        after applying but before acknowledging leaves the re-sent
        sub-batch double-applied on its successor — see the promotion
        runbook in the docs for when that window exists.
        """
        attempt = 0
        while True:
            if slot.client is None:
                async with slot.lock:
                    if slot.client is None:
                        await self._retarget(slot)
            client = slot.client
            self._metrics.counter(
                "router_shard_requests_total",
                help="requests routed to shards, by shard and operation",
                shard=str(slot.index),
                op=op,
            ).inc()
            try:
                return await client.request(op, **fields)
            except ConnectionLost:
                async with slot.lock:
                    if slot.client is client and client is not None:
                        await client.close()
                        slot.client = None
                attempt += 1
                if not self._retry.should_retry(attempt):
                    raise ShardUnavailable(
                        f"shard {slot.index} dropped the connection "
                        f"{attempt + 1} times",
                        self._retry_after,
                    )
                await self._retry.pause(attempt)

    # ------------------------------------------------------------------
    # Routed operations
    # ------------------------------------------------------------------
    def _watermark_fields(self) -> Dict[str, Any]:
        vector = [slot.watermark for slot in self._slots]
        return {"watermark": sum(vector), "watermarks": vector}

    async def _ingest_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        batches = shard_events(
            EventBatch.from_frame(payload), len(self._slots), salt=self._salt
        )
        snapshot = bool(payload.get("snapshot"))
        work = [
            (slot, batch)
            for slot, batch in zip(self._slots, batches)
            if batch
        ]

        async def send(slot: ShardSlot, batch: EventBatch):
            return await self._shard_request(
                slot,
                "ingest",
                columns=batch.to_columns(),
                snapshot=snapshot,
            )

        results = await asyncio.gather(
            *(send(slot, batch) for slot, batch in work),
            return_exceptions=True,
        )
        ingested = 0
        error: Optional[BaseException] = None
        durables: List[Optional[bool]] = []
        for (slot, batch), result in zip(work, results):
            if isinstance(result, BaseException):
                error = error if error is not None else result
                continue
            ingested += int(result["ingested"])
            slot.watermark = int(result["watermark"])
            durables.append(result.get("durable"))
            self._metrics.counter(
                "router_routed_events_total",
                help="feed events routed to shards, by shard",
                shard=str(slot.index),
            ).inc(len(batch))
        if error is not None:
            # Healthy shards above already applied and had their
            # watermarks advanced — routed ingest is per-shard atomic,
            # not transactional across shards.
            raise error
        response = {
            "ok": True,
            "ingested": ingested,
            **self._watermark_fields(),
        }
        if any(flag is not None for flag in durables):
            # The weakest shard's verdict: a routed batch is only as
            # durable as its least-replicated sub-batch, and a shard
            # that reported nothing (asynchronous mode) confirmed
            # nothing.
            response["durable"] = all(bool(flag) for flag in durables)
        return response

    async def _shard_view(
        self,
        slot: ShardSlot,
        groups: Optional[Sequence[str]],
        kinds: Sequence[str],
    ) -> Tuple[Tuple[int, int, int], Dict[str, Dict[str, Any]]]:
        """One shard's views of a selection, through the slot's cache.

        Returns the ``(epoch, offset, watermark)`` cut the views describe
        and ``{group: {kind: payload}}``.  The cached views are captured
        before the request, so the answer never mixes in what a
        concurrent query cached while this one was in flight.
        """
        epoch, tag = slot.epoch, slot.tag
        cached = slot.cached_views(groups, kinds)
        fields: Dict[str, Any] = {"kinds": list(kinds)}
        if groups is not None:
            fields["groups"] = list(groups)
        if cached is not None:
            fields["since_offset"], fields["since_watermark"] = tag
        response = await self._shard_request(slot, "shard_view", **fields)
        if slot.epoch != epoch:
            # Re-targeted mid-request: the answer may come from another
            # server, whose tags are not comparable with this epoch's.
            return await self._shard_view(slot, groups, kinds)
        slot.watermark = int(response["watermark"])
        tag = (int(response["offset"]), slot.watermark)
        if response.get("unchanged"):
            self._metrics.counter(
                "router_view_cache_hits_total",
                help="shard view fetches answered unchanged, by shard",
                shard=str(slot.index),
            ).inc()
            return (epoch, *tag), cached
        view_groups = response["view"]["groups"]
        slot.record(tag, groups, view_groups)
        return (epoch, *tag), view_groups

    def _fuse(
        self,
        cut: Tuple[Tuple[int, int, int], ...],
        gathered: Sequence[Mapping[str, Mapping[str, Any]]],
        groups: Sequence[str],
        kinds: Sequence[str],
    ) -> SketchStore:
        """The fused store at ``cut``, extended with the selection's views.

        A different cut starts a new store; at the same cut only the
        ``(group, kind)`` pairs not fused yet are merged in, so cached
        views and their derived reductions carry over between queries.
        """
        if self._fused is None or cut != self._fused_cut:
            self._fused, self._fused_cut, self._fused_pairs = None, cut, set()
        pairs = {(group, kind) for group in groups for kind in kinds}
        pairs -= self._fused_pairs
        if self._fused is None or pairs:
            config = self._config.to_dict()
            views = [
                {
                    "config": config,
                    "watermark": watermark,
                    "groups": {
                        group: {
                            kind: payload
                            for kind, payload in sketches.items()
                            if (group, kind) in pairs
                        }
                        for group, sketches in view_groups.items()
                    },
                }
                for (_, _, watermark), view_groups in zip(cut, gathered)
            ]
            self._fused = merge_sketch_views(
                self._config, views, into=self._fused
            )
            self._fused_pairs |= pairs
        return self._fused

    async def _query_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        kind = payload.get("kind")
        view_kinds = _QUERY_VIEW_KINDS.get(kind)
        if view_kinds is None:
            raise ValueError(
                f"unknown routed query kind {kind!r}; expected one of "
                f"{sorted(_QUERY_VIEW_KINDS)}"
            )
        groups = payload.get("groups")
        if groups is not None and (
            isinstance(groups, str)
            or not all(isinstance(group, str) for group in groups)
        ):
            # A bare string would silently fan out per character.
            raise ValueError("groups must be a list of group names")
        start = time.perf_counter()
        results = await asyncio.gather(
            *(
                self._shard_view(slot, groups, view_kinds)
                for slot in self._slots
            ),
            return_exceptions=True,
        )
        self._metrics.histogram(
            "router_gather_seconds",
            help="scatter-gather wall seconds, by query kind",
            kind=str(kind),
        ).observe(time.perf_counter() - start)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        cut = tuple(key for key, _ in results)
        gathered = [view_groups for _, view_groups in results]
        if groups is None:
            # The fused store may hold groups materialised by earlier
            # explicit selections, so never default to its own groups.
            groups = sorted({group for views in gathered for group in views})
        fused = self._fuse(cut, gathered, groups, view_kinds)
        until = payload.get("until")
        result = fused.query(
            kind,
            groups=groups,
            keys=payload.get("keys"),
            until=None if until is None else float(until),
        )
        # The cut the gathered views describe, not the slots' current
        # watermarks, which an ingest may have advanced meanwhile.
        watermarks = [watermark for _, _, watermark in cut]
        return {
            "ok": True,
            "result": result,
            "watermark": sum(watermarks),
            "watermarks": watermarks,
        }

    async def _evict_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        fields = {
            field: payload[field]
            for field in ("ttl", "max_keys", "now", "snapshot")
            if field in payload
        }
        results = await asyncio.gather(
            *(
                self._shard_request(slot, "evict", **fields)
                for slot in self._slots
            ),
            return_exceptions=True,
        )
        evicted: Dict[str, List[str]] = {}
        error: Optional[BaseException] = None
        for slot, result in zip(self._slots, results):
            if isinstance(result, BaseException):
                error = error if error is not None else result
                continue
            slot.watermark = int(result["watermark"])
            for group, keys in result["evicted"].items():
                evicted.setdefault(group, []).extend(keys)
        if error is not None:
            raise error
        return {"ok": True, "evicted": evicted, **self._watermark_fields()}

    async def _info_op(self) -> Dict[str, Any]:
        results = await asyncio.gather(
            *(self._shard_request(slot, "info") for slot in self._slots),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        infos = [result["result"] for result in results]
        groups = sorted({group for info in infos for group in info["groups"]})
        keys = {
            group: sum(info["keys"].get(group, 0) for info in infos)
            for group in groups
        }
        coalescing: Dict[str, float] = {}
        for info in infos:
            for field, value in info["coalescing"].items():
                coalescing[field] = coalescing.get(field, 0) + value
        for slot, info in zip(self._slots, infos):
            slot.watermark = int(info["events_ingested"])
        durability = {
            "sync_ack": [
                info.get("durability", {}).get("sync_ack") for info in infos
            ],
            "durable_acks": sum(
                info.get("durability", {}).get("durable_acks", 0)
                for info in infos
            ),
            "degraded_acks": sum(
                info.get("durability", {}).get("degraded_acks", 0)
                for info in infos
            ),
        }
        return {
            "router": True,
            "config": self._config.to_dict(),
            "groups": groups,
            "events_ingested": sum(
                slot.watermark for slot in self._slots
            ),
            "keys": keys,
            "coalescing": coalescing,
            "durability": durability,
            "read_only": False,
            "root": None,
            "shards": [slot.describe() for slot in self._slots],
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, payload: Dict[str, Any], writer
    ) -> Dict[str, Any]:
        op = payload.get("op")
        try:
            if op == "ping":
                return {"ok": True, "result": "pong"}
            if op == "query":
                return await self._query_op(payload)
            if op == "ingest":
                return await self._ingest_op(payload)
            if op == "evict":
                return await self._evict_op(payload)
            if op == "info":
                return {"ok": True, "result": await self._info_op()}
            if op == "metrics":
                return {"ok": True, "result": self._metrics.snapshot()}
            if op == "shutdown":
                if payload.get("shards"):
                    # Best-effort fan-out; a dead shard cannot block the
                    # router's own shutdown.
                    for slot in self._slots:
                        try:
                            await self._shard_request(slot, "shutdown")
                        except ServingError:
                            continue
                return {"ok": True, "result": "bye"}
            if op in ("repl_snapshot", "repl_subscribe", "shard_view"):
                raise ValueError(
                    f"the router does not serve {op!r}; address the "
                    "shard primary directly"
                )
            raise ValueError(f"unknown op {op!r}")
        except ShardUnavailable as exc:
            self._metrics.counter(
                "router_unavailable_total",
                help="routed requests refused for shard unavailability",
            ).inc()
            return {
                "ok": False,
                "error": f"{exc}",
                "shard_unavailable": True,
                "retry_after": exc.retry_after,
            }
        except Overloaded as exc:
            # A shard shed a routed sub-batch; surface the shed (and its
            # backoff hint) so producers back off exactly as they would
            # against a single overloaded primary.
            return {
                "ok": False,
                "error": f"{exc}",
                "shed": True,
                "retry_after": exc.retry_after,
            }
