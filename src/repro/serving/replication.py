"""Primary/follower replication: WAL-segment shipping over the TCP protocol.

The serving layer's determinism guarantees make replicas *convergent by
construction*: ingestion folds events into the ledger in arrival order,
eviction drops victims in a deterministic order, and every sketch view
is a pure function of ledger content.  A follower that applies the same
mutation stream therefore holds the same ledger — and answers every
query **bit-identically** — at the same watermark.  This module ships
that stream.

Wire protocol (four operations on the existing JSON-lines framing):

``repl_snapshot``
    Request/response.  Returns the primary's ledger wholesale — config,
    per-group totals / first-seen / last-seen / event counts — tagged
    with the event ``watermark`` and the replication ``offset`` it
    describes.  A cold follower installs this and then streams the tail.

``repl_subscribe {"after_offset": n}``
    Request/response handshake.  When the primary's in-memory segment
    buffer still covers ``n`` the response is ``{"mode": "stream",
    "offset": ..., "watermark": ...}`` and the connection switches to
    push mode; when the follower is too far behind (the buffer is
    bounded) the response is ``{"mode": "snapshot", ...}`` — ship a
    snapshot first.

``repl_segment``
    Pushed frame (no ``id``): one **sealed segment** — an immutable,
    offset-stamped entry of the primary's mutation log.  ``kind:
    "events"`` carries one acknowledged ingest batch as its
    ``columns`` (the :class:`~repro.serving.events.EventBatch` the
    primary's write-ahead log sealed, watermark-tagged so the follower
    can verify contiguity); ``kind: "evict"`` carries one retention
    report (eviction mutates the ledger without feed events, so it must
    ship too or followers would diverge).  Each entry's frame is
    encoded once, when the entry is recorded, and every subscriber is
    sent the same bytes.  A frame with ``"reset": true`` tells a
    subscriber it fell out of the buffer — re-bootstrap from a
    snapshot.

``repl_ack {"offset": n}``
    Pushed *upstream* (follower to primary, no ``id``, no reply) on the
    subscription connection: the follower has **applied** every entry
    through offset ``n`` — to its write-ahead log when directory-backed,
    so the acknowledged prefix survives the follower's own crash.  Acks
    are cumulative and monotone; the primary's :class:`AckTracker`
    keeps one high-water mark per subscriber.  In synchronous-ack mode
    (``serve --sync-ack N``) the primary holds each ingest reply until
    ``N`` subscribers have acked the batch's covering offset — the
    reply then carries ``"durable": true`` — or a bounded ack-wait
    timeout expires, which degrades the reply to an explicit
    ``"durable": false`` instead of wedging the producer.

The mutation log (:class:`ReplicationHub`) is the serving twin of the
on-disk write-ahead log: the primary appends a sealed entry *after*
each successful local apply, so a follower can never observe state the
primary did not durably acknowledge.  The buffer is bounded
(``capacity`` entries); snapshot shipping covers arbitrary lag, so
boundedness costs availability nothing.

:class:`ReplicaFollower` is the other half: it bootstraps from a
snapshot when cold (or whenever its offset is unknown — e.g. after a
process restart), subscribes, applies segments in offset order with
contiguity checks, reconnects with exponential backoff when the primary
dies, and keeps its own store durable (segments it applies to a
directory-backed store are write-ahead logged locally; applied
evictions snapshot, exactly as on the primary).  The convergence
invariant is enforced by ``tests/serving/test_replication.py``:
after *any* interleaving of ingest / evict / failover, follower
ledgers, sketch views, and query answers equal the primary's (``==``)
at the same watermark.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple, Union

from .events import Event, EventBatch
from .resilience import RetryPolicy
from .store import SketchStore, StoreConfig

__all__ = [
    "AckTracker",
    "ReplicaFollower",
    "ReplicationError",
    "ReplicationHub",
    "apply_entry",
    "install_snapshot",
    "snapshot_payload",
]

#: Read-buffer limit for follower connections: snapshot payloads are one
#: JSON line holding a whole ledger, so the limit must comfortably
#: exceed the default 64 KiB.
FOLLOWER_LINE_LIMIT = 2 ** 25


class ReplicationError(RuntimeError):
    """A replication-protocol failure (gap, mismatch, or refusal)."""


class ReplicationHub:
    """The primary's bounded, offset-stamped mutation log.

    Entries are appended by the server *after* each successful local
    apply — an acknowledged ingest batch or a non-empty retention
    report — and pushed to subscribers by per-connection pump tasks.
    The buffer keeps the last ``capacity`` entries; a subscriber asking
    for older history is redirected to snapshot shipping.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        #: ``(entry, encoded repl_segment frame)`` pairs, oldest first.
        self._entries: Deque[Tuple[Dict[str, Any], bytes]] = deque()
        self._offset = 0
        self._watermark = 0
        self._event = asyncio.Event()

    # ------------------------------------------------------------------
    # Recording (primary side, called after each successful apply)
    # ------------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Offset of the newest recorded entry (0 = nothing recorded)."""
        return self._offset

    @property
    def watermark(self) -> int:
        """Event watermark after the newest recorded entry."""
        return self._watermark

    @property
    def oldest_offset(self) -> Optional[int]:
        """Offset of the oldest retained entry, or ``None`` when empty."""
        return self._entries[0][0]["offset"] if self._entries else None

    def reseed(self, watermark: int) -> None:
        """Adopt a store's event watermark before any entry is recorded.

        A hub always starts at watermark 0, but the store it fronts may
        be warm — recovered from a snapshot, or a promoted follower's
        replica.  Subscribers cross-check the hub's advertised watermark
        against their own ``events_ingested`` right after bootstrap, so
        an untruthful 0 would force them into a re-bootstrap loop.  The
        server calls this at start (and promotion) when the hub is still
        pristine; reseeding after entries exist would falsify offsets,
        so that is refused.
        """
        if self._entries or self._offset:
            raise ReplicationError(
                "cannot reseed a hub that has recorded entries"
            )
        self._watermark = int(watermark)

    def record_events(
        self, events: Union[EventBatch, Iterable[Event]], watermark: int
    ) -> None:
        """Seal one acknowledged ingest batch as a segment entry."""
        batch = EventBatch.from_events(events)
        if not len(batch):
            return
        self._append(
            {
                "kind": "events",
                "columns": batch.to_columns(),
                "watermark": int(watermark),
            }
        )

    def record_evict(
        self, report: Dict[str, List[str]], watermark: int
    ) -> None:
        """Seal one non-empty retention report as a segment entry."""
        if not report:
            return
        self._append(
            {
                "kind": "evict",
                "evictions": {
                    group: list(keys) for group, keys in report.items()
                },
                "watermark": int(watermark),
            }
        )

    def _append(self, entry: Dict[str, Any]) -> None:
        self._offset += 1
        entry["offset"] = self._offset
        self._watermark = entry["watermark"]
        frame = json.dumps({"op": "repl_segment", "entry": entry}) + "\n"
        self._entries.append((entry, frame.encode()))
        while len(self._entries) > self.capacity:
            self._entries.popleft()
        # Wake every pump waiting for news; each waiter re-arms on the
        # fresh event, so no notification is ever lost.
        event, self._event = self._event, asyncio.Event()
        event.set()

    # ------------------------------------------------------------------
    # Reading (pump side)
    # ------------------------------------------------------------------
    def can_resume_from(self, after_offset: int) -> bool:
        """Whether the buffer still covers ``after_offset`` onwards."""
        if after_offset > self._offset:
            raise ReplicationError(
                f"subscriber is ahead of the primary "
                f"({after_offset} > {self._offset})"
            )
        if after_offset == self._offset:
            return True
        oldest = self.oldest_offset
        return oldest is not None and oldest <= after_offset + 1

    def frames_after(
        self, after_offset: int
    ) -> Optional[List[Tuple[int, bytes]]]:
        """``(offset, encoded repl_segment line)`` for each retained
        entry past ``after_offset``; ``None`` on a gap."""
        if after_offset == self._offset:
            return []
        oldest = self.oldest_offset
        if oldest is None or oldest > after_offset + 1:
            return None
        return [
            (entry["offset"], frame)
            for entry, frame in self._entries
            if entry["offset"] > after_offset
        ]

    async def wait_beyond(self, offset: int) -> None:
        """Block until an entry with a larger offset is recorded."""
        while self._offset <= offset:
            await self._event.wait()

    def describe(self) -> Dict[str, Any]:
        """The hub's state for the ``info`` operation."""
        return {
            "offset": self._offset,
            "watermark": self._watermark,
            "oldest_offset": self.oldest_offset,
            "buffered_entries": len(self._entries),
            "capacity": self.capacity,
        }


class AckTracker:
    """Per-subscriber replication acknowledgement high-water marks.

    The primary's side of synchronous-ack mode: every streaming
    subscriber is registered under an opaque key (the server uses
    ``id(writer)`` of its connection), each ``repl_ack`` frame raises
    that subscriber's acked offset (acks are cumulative, so marks only
    move forward), and the ingest path blocks in :meth:`wait_for` until
    a quorum of subscribers have acked the batch's covering offset — or
    the bounded timeout expires.  Subscriber death wakes every waiter
    (the quorum they are waiting for may have just become impossible;
    they keep waiting until the timeout rules).
    """

    def __init__(self) -> None:
        self._acked: Dict[Any, int] = {}
        self._event = asyncio.Event()

    def register(self, subscriber: Any) -> None:
        """Track a new streaming subscriber (acked offset starts at 0)."""
        self._acked.setdefault(subscriber, 0)

    def unregister(self, subscriber: Any) -> None:
        """Drop a dead subscriber and wake every quorum waiter."""
        if self._acked.pop(subscriber, None) is not None:
            self._wake()

    def ack(self, subscriber: Any, offset: int) -> None:
        """Record a cumulative ack; marks are monotone per subscriber."""
        current = self._acked.get(subscriber, 0)
        if offset > current:
            self._acked[subscriber] = int(offset)
            self._wake()

    def count_at(self, offset: int) -> int:
        """Subscribers whose acked offset covers ``offset``."""
        return sum(1 for mark in self._acked.values() if mark >= offset)

    @property
    def subscribers(self) -> int:
        """Currently registered streaming subscribers."""
        return len(self._acked)

    async def wait_for(
        self, offset: int, quorum: int, timeout: float
    ) -> bool:
        """Block until ``quorum`` subscribers ack ``offset``; ``False``
        when the timeout expires first (the degraded-ack path)."""
        try:
            await asyncio.wait_for(self._wait(offset, quorum), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def _wait(self, offset: int, quorum: int) -> None:
        while self.count_at(offset) < quorum:
            await self._event.wait()

    def _wake(self) -> None:
        # Same lost-notification-proof rotation as the hub's pump wakeup.
        event, self._event = self._event, asyncio.Event()
        event.set()

    def describe(self) -> Dict[str, Any]:
        """The tracker's state for the ``info`` durability block."""
        return {
            "subscribers": len(self._acked),
            "acked_offsets": sorted(self._acked.values()),
        }


# ----------------------------------------------------------------------
# Snapshot shipping
# ----------------------------------------------------------------------
def snapshot_payload(store: SketchStore, offset: int) -> Dict[str, Any]:
    """Serialize a store's ledger for ``repl_snapshot``.

    The payload is a pure function of ledger content (group and key
    iteration in sorted order), so identical stores ship identical
    snapshots.  JSON float round-tripping is exact (shortest-repr), so
    installation reproduces the ledger bit for bit.
    """
    return {
        "config": store.config.to_dict(),
        "watermark": store.events_ingested,
        "offset": int(offset),
        "groups": {
            group: {
                "totals": {
                    key: state.totals[key] for key in sorted(state.totals)
                },
                "first_seen": {
                    key: state.first_seen[key]
                    for key in sorted(state.first_seen)
                },
                "last_seen": {
                    key: state.last_seen[key]
                    for key in sorted(state.last_seen)
                },
                "events": state.events,
            }
            for group in store.groups
            for state in [store.group_state(group)]
        },
    }


def install_snapshot(store: SketchStore, payload: Dict[str, Any]) -> int:
    """Replace a follower store's ledger with a shipped snapshot.

    Returns the snapshot's replication ``offset``.  The store's config
    must equal the primary's (coordinated sketches require identical
    sampling parameters).  A directory-backed follower persists the
    installed state immediately — snapshot + WAL compaction — so a
    crash right after installation recovers to the installed ledger.
    """
    config = StoreConfig.from_dict(payload["config"])
    if store.config != config:
        raise ReplicationError(
            f"follower config {store.config} does not match the "
            f"primary's {config}"
        )
    store._groups.clear()
    for group, data in payload["groups"].items():
        state = store.group_state(group)
        state.totals.update(
            {str(k): float(v) for k, v in data["totals"].items()}
        )
        state.first_seen.update(
            {str(k): float(v) for k, v in data["first_seen"].items()}
        )
        state.last_seen.update(
            {str(k): float(v) for k, v in data["last_seen"].items()}
        )
        state.events = int(data["events"])
        state.invalidate()
    store._events = int(payload["watermark"])
    if store.root is not None:
        store.snapshot()
    return int(payload["offset"])


def apply_entry(store: SketchStore, entry: Dict[str, Any]) -> int:
    """Apply one shipped segment entry to a follower store.

    ``events`` entries are verified contiguous — the entry's watermark
    minus its batch length must equal the store's current watermark —
    then their columns are folded through the ordinary
    :meth:`SketchStore.ingest` path (write-ahead logged locally when
    directory-backed).  ``evict`` entries drop the named keys and, on a
    directory-backed store, snapshot so local WAL replay cannot
    resurrect a victim — the exact durability rule the primary's own
    retention path follows.

    Returns the number of feed events applied (0 for an eviction).
    """
    kind = entry.get("kind")
    if kind == "events":
        batch = EventBatch.from_columns(entry["columns"])
        expected = int(entry["watermark"]) - len(batch)
        if store.events_ingested != expected:
            raise ReplicationError(
                f"segment at watermark {entry['watermark']} is not "
                f"contiguous with the follower's "
                f"{store.events_ingested}"
            )
        return store.ingest(batch)
    if kind == "evict":
        if int(entry["watermark"]) != store.events_ingested:
            raise ReplicationError(
                f"eviction at watermark {entry['watermark']} does not "
                f"match the follower's {store.events_ingested}"
            )
        for group in sorted(entry["evictions"]):
            store.group_state(group).drop_keys(entry["evictions"][group])
        if store.root is not None:
            store.snapshot()
        return 0
    raise ReplicationError(f"unknown segment kind {kind!r}")


# ----------------------------------------------------------------------
# The follower
# ----------------------------------------------------------------------
class ReplicaFollower:
    """Keep a local store converged with a primary ``SketchServer``.

    Parameters
    ----------
    store:
        The follower's store (in-memory or directory-backed).  Its
        config must match the primary's.
    host, port:
        The primary's TCP address.
    backoff, max_backoff:
        Reconnect delay: starts at ``backoff`` seconds and doubles per
        consecutive failure up to ``max_backoff``.  Shorthand for the
        default ``retry`` policy.
    retry:
        A :class:`~repro.serving.resilience.RetryPolicy` overriding the
        backoff shorthand — the hook tests use to drive the reconnect
        loop in virtual time (inject a
        :class:`~repro.serving.resilience.VirtualClock`'s sleep).
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry` for
        applied/bootstrap/reconnect/ack counters.

    Two driving modes: :meth:`sync_once` connects, catches up to the
    primary's offset at handshake time, and returns (what the tests and
    the replication bench use); :meth:`run` follows continuously,
    re-bootstrapping on resets and reconnecting with backoff when the
    primary dies (what ``serve --follow`` runs in the background).

    Both modes acknowledge upstream: after the subscribe handshake and
    after every applied entry the follower pushes a ``repl_ack`` frame
    carrying its applied offset, which is what a synchronous-ack
    primary's quorum waits count.  Acks are fire-and-forget — an
    async-mode primary just ignores them.
    """

    def __init__(
        self,
        store: SketchStore,
        host: str,
        port: int,
        *,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        metrics=None,
    ) -> None:
        if backoff <= 0 or max_backoff < backoff:
            raise ValueError("need 0 < backoff <= max_backoff")
        self._store = store
        self._host = host
        self._port = int(port)
        self._retry = (
            retry
            if retry is not None
            else RetryPolicy(base=backoff, cap=max_backoff)
        )
        self._metrics = metrics
        #: Offset of the last applied entry; ``None`` = unknown (cold or
        #: restarted) — the next connection bootstraps from a snapshot.
        self.offset: Optional[int] = None
        self.bootstraps = 0
        self.reconnects = 0
        self._next_id = 0

    @property
    def store(self) -> SketchStore:
        """The follower's (converging) store."""
        return self._store

    @property
    def watermark(self) -> int:
        """The follower's applied event watermark."""
        return self._store.events_ingested

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    async def _connect(self):
        return await asyncio.open_connection(
            self._host, self._port, limit=FOLLOWER_LINE_LIMIT
        )

    async def _request(
        self, reader, writer, op: str, **fields: Any
    ) -> Dict[str, Any]:
        self._next_id += 1
        request_id = f"repl-{self._next_id}"
        line = json.dumps({"id": request_id, "op": op, **fields}) + "\n"
        writer.write(line.encode())
        await writer.drain()
        while True:
            raw = await reader.readline()
            if not raw:
                raise ConnectionError("primary closed during handshake")
            payload = json.loads(raw)
            if payload.get("id") != request_id:
                continue  # a stray push frame; handshakes ignore it
            if not payload.get("ok"):
                raise ReplicationError(
                    payload.get("error", f"{op} request failed")
                )
            return payload

    async def _bootstrap(self, reader, writer) -> None:
        """Install the primary's current snapshot (cold / lost-tail start)."""
        response = await self._request(reader, writer, "repl_snapshot")
        self.offset = install_snapshot(self._store, response["result"])
        self.bootstraps += 1
        if self._metrics is not None:
            self._metrics.counter(
                "serving_repl_bootstraps_total",
                help="snapshot installations performed by this follower",
            ).inc()

    async def _subscribe(self, reader, writer) -> Tuple[int, int]:
        """Handshake to streaming mode; returns (primary offset, watermark).

        Falls back to a snapshot bootstrap — once — whenever the
        primary's history cannot be trusted to extend ours: it refuses
        our offset (a restarted primary whose offsets started over), it
        answers ``mode: "snapshot"`` (we fell out of its buffer), or it
        claims our exact offset with a *different watermark* (same
        offset number, different history — the failover ambiguity the
        watermark tag exists to catch).
        """
        for attempt in (0, 1):
            if self.offset is None:
                await self._bootstrap(reader, writer)
            try:
                response = await self._request(
                    reader, writer, "repl_subscribe", after_offset=self.offset
                )
            except ReplicationError:
                if attempt:
                    raise
                self.offset = None
                continue
            if response.get("mode") != "stream":
                if attempt:
                    raise ReplicationError(
                        "primary refused streaming right after a snapshot"
                    )
                self.offset = None
                continue
            offset = int(response["offset"])
            watermark = int(response["watermark"])
            if (
                offset == self.offset
                and watermark != self._store.events_ingested
            ):
                if attempt:
                    raise ReplicationError(
                        "watermark mismatch right after a snapshot"
                    )
                self.offset = None
                continue
            return offset, watermark
        raise ReplicationError("unreachable")  # pragma: no cover

    def _apply(self, entry: Dict[str, Any]) -> None:
        offset = int(entry["offset"])
        if self.offset is not None and offset != self.offset + 1:
            raise ReplicationError(
                f"segment offset {offset} is not contiguous with "
                f"{self.offset}"
            )
        applied = apply_entry(self._store, entry)
        self.offset = offset
        if self._metrics is not None:
            self._metrics.counter(
                "serving_repl_applied_entries_total",
                help="segment entries applied by this follower",
            ).inc()
            if entry.get("kind") == "events":
                self._metrics.counter(
                    "serving_repl_applied_events_total",
                    help="feed events applied by this follower",
                ).inc(applied)

    async def _send_ack(self, writer) -> None:
        """Push the applied offset upstream (the ``repl_ack`` frame)."""
        if self.offset is None:
            return
        writer.write(
            (
                json.dumps({"op": "repl_ack", "offset": self.offset})
                + "\n"
            ).encode()
        )
        await writer.drain()
        if self._metrics is not None:
            self._metrics.counter(
                "serving_repl_acks_sent_total",
                help="repl_ack frames pushed to the primary",
            ).inc()

    async def _consume(
        self, reader, writer, until_offset: Optional[int]
    ) -> bool:
        """Apply pushed frames, acking each; ``True`` when
        ``until_offset`` reached, ``False`` on a clean disconnect.
        Raises on a reset frame."""
        while True:
            if until_offset is not None and (
                self.offset is not None and self.offset >= until_offset
            ):
                return True
            raw = await reader.readline()
            if not raw:
                return False
            payload = json.loads(raw)
            if payload.get("op") != "repl_segment":
                continue
            if payload.get("reset"):
                # Fell out of the primary's buffer: offset is no longer
                # meaningful, the next connection must re-bootstrap.
                self.offset = None
                raise ReplicationError("primary reset the subscription")
            self._apply(payload["entry"])
            await self._send_ack(writer)

    # ------------------------------------------------------------------
    # Driving modes
    # ------------------------------------------------------------------
    async def sync_once(self) -> int:
        """Connect, converge to the primary's handshake-time offset,
        disconnect.  Returns the converged offset."""
        reader, writer = await self._connect()
        try:
            target, _watermark = await self._subscribe(reader, writer)
            # Ack the handshake offset: a bootstrap (or an already
            # caught-up follower) covers the primary's current prefix
            # without ever seeing a segment frame.
            await self._send_ack(writer)
            if self.offset is not None and self.offset < target:
                reached = await self._consume(
                    reader, writer, until_offset=target
                )
                if not reached:
                    raise ConnectionError(
                        "primary closed before catch-up completed"
                    )
            return int(self.offset or 0)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def run(self, stop: Optional[asyncio.Event] = None) -> None:
        """Follow continuously: stream, re-bootstrap on resets, and
        reconnect with the policy's capped backoff on connection loss.
        Returns when ``stop`` is set (checked between attempts)."""
        timer = self._retry.timer()
        while stop is None or not stop.is_set():
            try:
                reader, writer = await self._connect()
            except (ConnectionError, OSError):
                await timer.pause()
                self.reconnects += 1
                continue
            try:
                await self._subscribe(reader, writer)
                await self._send_ack(writer)
                timer.reset()  # healthy stream: back to the base delay
                await self._consume(reader, writer, until_offset=None)
            except ReplicationError:
                # Reset or stream inconsistency: the offset can no
                # longer be trusted, so the next connection bootstraps.
                self.offset = None
            except (ConnectionError, OSError, ValueError):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            self.reconnects += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "serving_repl_reconnects_total",
                    help="connection attempts after a stream ended",
                ).inc()
            await timer.pause()
