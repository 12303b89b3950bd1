"""The asyncio serving front-end: a JSON-lines TCP query/ingest server.

One :class:`SketchServer` owns one :class:`~repro.serving.store.SketchStore`
and speaks a line protocol: every request is one JSON object terminated
by a newline, every response one JSON object echoing the request's
``id``.  Requests on a connection are *pipelined* — each is served by
its own task, so a client may keep many in flight and responses may
return out of order (the ``id`` is the correlation handle).

The framing, per-request error isolation, and request metrics live in
:class:`JSONLinesServer`, which :class:`SketchServer` and the shard
router (:class:`~repro.serving.router.ShardRouter`) both extend — any
front-end speaking the protocol inherits the same guarantees: malformed
lines and unknown operations are answered with per-request errors on
the offending connection, oversized lines are answered once and the
connection dropped, and no fault on one connection wedges another.

Concurrent ``query`` requests — across requests of one connection and
across connections — funnel through a
:class:`~repro.serving.batcher.QueryBatcher`, so a burst of clients
costs a handful of engine dispatches instead of one per request, with
answers bit-identical to sequential single-caller queries (see the
batcher's module docstring for why).  Every query response carries the
store's ``watermark`` (events ingested when the window executed), which
pins the answer to an exact feed prefix.

Operations::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "query", "kind": "sum", "groups": ["a"]}
    {"id": 3, "op": "query", "kind": "distinct", "until": 250.0}
    {"id": 4, "op": "query", "kind": "similarity", "groups": ["a", "b"]}
    {"id": 5, "op": "ingest", "columns": {"keys": [...], ...}}
    {"id": 6, "op": "evict", "ttl": 3600.0, "max_keys": 512, "now": ...}
    {"id": 7, "op": "info"}
    {"id": 8, "op": "metrics"}
    {"id": 9, "op": "repl_snapshot"}
    {"id": 10, "op": "repl_subscribe", "after_offset": 0}
    {"id": 11, "op": "shard_view", "groups": null, "kinds": ["pps"]}
    {"id": 12, "op": "promote"}
    {"id": 13, "op": "shutdown"}
    {"op": "repl_ack", "offset": 7}

Responses are ``{"id": ..., "ok": true, ...}`` or ``{"id": ..., "ok":
false, "error": "..."}``; per-request failures never tear down the
connection.  Ingestion is serialized by the event loop (the store
mutates only between awaits), and an optional background
:class:`~repro.serving.retention.RetentionPolicy` keeps the ledger
bounded while serving.

``shard_view`` serves the store's serialized sketch views
(:func:`~repro.serving.store.sketch_view_payload`) tagged with the
replication offset and event watermark — the scatter-gather substrate
of the shard router, with an ``unchanged`` short-circuit so routers can
cache views against the ``(offset, watermark)`` tag.  ``promote``
rewires a read-only follower front-end into primary mode through its
``promoter`` hook (see :mod:`repro.serving.promotion`); on a server
that is already writable it is an acknowledged no-op.

Three subsystems thread through the server (all optional-by-default
except metrics, which is always on and nearly free):

* **Observability** — a :class:`~repro.serving.metrics.MetricsRegistry`
  counts requests/errors per operation and times them in fixed-bucket
  histograms; ingest, coalescing, retention, and replication feed the
  same registry.  The ``metrics`` op returns its snapshot; mount a
  :class:`~repro.serving.metrics.MetricsHTTPShim` on the registry for a
  Prometheus ``/metrics`` scrape endpoint.
* **Admission control** — with ``max_pending_events`` set, ingest
  batches flow through a bounded queue drained by one pump task; a
  batch that would overflow the bound is *shed*: answered immediately
  with ``{"ok": false, "shed": true, "retry_after": ...}`` and never
  applied, so overload degrades deterministically instead of growing
  memory (see :mod:`repro.serving.admission`).
* **Replication** — every applied mutation (acknowledged ingest batch,
  non-empty retention report) is sealed into the
  :class:`~repro.serving.replication.ReplicationHub`; ``repl_subscribe``
  switches a connection to push mode and a per-subscriber pump ships
  segments, ``repl_snapshot`` bootstraps cold followers (see
  :mod:`repro.serving.replication`).  ``read_only=True`` makes the
  server a *follower* front-end: it serves queries but rejects client
  ``ingest``/``evict``, so the replication stream is the only writer.
* **Durable acknowledgement** — followers push ``repl_ack`` frames (no
  ``id``, no reply) carrying their applied offset; with ``sync_ack=N``
  the primary holds each ingest reply until ``N`` subscribers have
  acked the batch's covering segment offset, then answers with
  ``"durable": true``.  The wait is bounded by ``ack_timeout``: when
  the quorum does not form in time the reply *degrades* to an explicit
  ``"durable": false`` — the batch is applied and WAL-logged locally,
  but the client knows it is not yet replicated — instead of wedging
  the producer.  The ``info`` payload counts both outcomes, and the
  ``serving_ack_wait_seconds`` / ``serving_degraded_acks_total``
  series time and count the waits.

:class:`ServingClient` is the matching asyncio client — used by the
load-generating CLI subcommand, the benchmarks, the shard router, and
the stress tests.  It reconnects with exponential backoff when the
connection drops mid-request (retrying *read-only* operations only — an
ingest is never silently re-sent), raises :class:`ProtocolError` with
the offending line when the server (or an impostor) answers with
something that is not a JSON object, and treats a router's
``shard_unavailable`` response like a shed: idempotent operations are
retried with backoff before :class:`ShardUnavailable` surfaces.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .admission import AdmissionController
from .batcher import QueryBatcher, QueryRequest
from .events import Event, EventBatch
from .metrics import MetricsRegistry
from .replication import (
    AckTracker,
    ReplicationError,
    ReplicationHub,
    snapshot_payload,
)
from .resilience import RetryPolicy
from .retention import RetentionPolicy, apply_retention
from .store import sketch_view_payload

__all__ = [
    "ConnectionLost",
    "JSONLinesServer",
    "Overloaded",
    "ProtocolError",
    "ServingClient",
    "ServingError",
    "ShardUnavailable",
    "SketchServer",
]

#: Default cap on one request line, bytes.  Anything longer is answered
#: with an error and the connection is closed — an unframed blob cannot
#: be resynchronised.
DEFAULT_LINE_LIMIT = 2 ** 20


class ServingError(RuntimeError):
    """A server-side request failure, re-raised by :class:`ServingClient`."""


class ConnectionLost(ServingError):
    """The connection dropped before a response arrived.

    Raised by :class:`ServingClient` when the transport dies with
    requests in flight.  Read-only operations are retried transparently
    (reconnect + exponential backoff); mutating operations surface this
    so the caller decides whether re-sending is safe.
    """


class ProtocolError(ServingError):
    """The peer sent bytes that are not the JSON-lines protocol."""


class Overloaded(ServingError):
    """The server shed an ingest batch under admission control.

    Carries the server's ``retry_after`` hint (seconds) so a
    well-behaved producer can back off precisely.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ShardUnavailable(ServingError):
    """A routed request could not reach its shard.

    The shard router answers ``{"ok": false, "shard_unavailable": true,
    "retry_after": ...}`` when a shard's primary *and* every fallback
    endpoint are down.  :class:`ServingClient` treats this like
    :class:`Overloaded` for idempotent operations — sleep for the hint
    and retry, up to ``max_retries`` — and surfaces it immediately for
    mutating ones (a routed ingest may have partially applied on the
    healthy shards, so blind re-sends are the caller's decision).
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class JSONLinesServer:
    """The protocol shell every serving front-end shares.

    Owns the TCP listener, the per-connection read loop, per-request
    task fan-out, request/error/latency metrics, and the shutdown
    handshake.  Subclasses implement :meth:`_dispatch` (one request
    payload in, one response payload out) and may hook
    :meth:`_post_start` / :meth:`_pre_close` for background tasks and
    :meth:`_cleanup_connection` for per-connection state.

    The error contract — what the protocol-fuzz suite pins for every
    subclass — lives here: a malformed or unknown-op line is answered
    with ``ok: false`` on its own connection and nothing else; a line
    past ``line_limit`` is answered once and the connection dropped (an
    unframed stream cannot be resynchronised); faults on one connection
    never starve another.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: Optional[MetricsRegistry] = None,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        if line_limit <= 0:
            raise ValueError("line_limit must be positive")
        self._host = host
        self._port = port
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._line_limit = int(line_limit)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._closed = False

    @property
    def metrics(self) -> MetricsRegistry:
        """The server's metrics registry (shared with the HTTP shim)."""
        return self._metrics

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            self._host,
            self._port,
            limit=self._line_limit,
        )
        await self._post_start()
        return self.address

    async def _post_start(self) -> None:
        """Subclass hook: start background tasks after binding."""

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._stop_event is None:
            raise RuntimeError("server is not started")
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, run subclass teardown, close connections."""
        if self._closed:
            return
        self._closed = True
        if self._stop_event is not None:
            self._stop_event.set()
        await self._pre_close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()

    async def _pre_close(self) -> None:
        """Subclass hook: cancel background tasks, flush pending work."""

    async def __aenter__(self) -> "JSONLinesServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _cleanup_connection(self, writer) -> None:
        """Subclass hook: drop per-connection state when the peer goes."""

    async def _on_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The peer sent a line past the limit; answer once
                    # and drop the connection — an unframed stream
                    # cannot be resynchronised.
                    self._metrics.counter(
                        "serving_errors_total",
                        help="requests answered with ok=false",
                        op="oversized",
                    ).inc()
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "id": None,
                                    "ok": False,
                                    "error": (
                                        "request line exceeds "
                                        f"{self._line_limit} bytes"
                                    ),
                                },
                                sort_keys=True,
                            )
                            + "\n"
                        ).encode()
                    )
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._serve_line(line, writer))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Loop teardown mid-read (shutdown with the peer still
            # connected) — close out quietly; cleanup happens below.
            pass
        finally:
            self._cleanup_connection(writer)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_line(self, line: bytes, writer) -> None:
        request_id = None
        op = None
        start = time.perf_counter()
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
            request_id = payload.get("id")
            op = payload.get("op")
            response = await self._dispatch(payload, writer)
        except (
            ValueError,
            KeyError,
            TypeError,
            OSError,
            ReplicationError,
            ServingError,
        ) as exc:
            response = {"ok": False, "error": f"{exc}"}
        label = op if isinstance(op, str) and op else "invalid"
        self._metrics.counter(
            "serving_requests_total",
            help="requests served, by operation",
            op=label,
        ).inc()
        if not response.get("ok"):
            self._metrics.counter(
                "serving_errors_total",
                help="requests answered with ok=false",
                op=label,
            ).inc()
        self._metrics.histogram(
            "serving_request_seconds",
            help="request wall seconds, by operation",
            op=label,
        ).observe(time.perf_counter() - start)
        if response.pop("_noreply", False):
            # A fire-and-forget push frame (repl_ack): accounted above,
            # but answering it would interleave an unsolicited line
            # into the peer's stream.
            return
        response["id"] = request_id
        writer.write((json.dumps(response, sort_keys=True) + "\n").encode())
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            return
        if op == "shutdown" and response.get("ok"):
            self._stop_event.set()

    async def _dispatch(
        self, payload: Dict[str, Any], writer
    ) -> Dict[str, Any]:
        """Serve one request payload; subclasses must implement this."""
        raise NotImplementedError


class SketchServer(JSONLinesServer):
    """Serve one sketch store over a JSON-lines TCP protocol.

    Parameters
    ----------
    store:
        The store to serve (in-memory or directory-backed).
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    max_batch, max_delay:
        Coalescing window knobs, passed to
        :class:`~repro.serving.batcher.QueryBatcher`.
    retention:
        Optional default :class:`~repro.serving.retention.RetentionPolicy`
        — the policy ``evict`` requests fall back to, and the one the
        background sweep applies.
    retention_interval:
        Seconds between background retention sweeps (requires
        ``retention``); ``None`` disables the sweep — eviction then only
        happens on explicit ``evict`` requests.
    clock:
        Time source for background sweeps (overridable in tests).
    metrics:
        The :class:`~repro.serving.metrics.MetricsRegistry` to
        instrument into; a fresh registry by default.
    max_pending_events:
        Ingest admission bound (events queued but not yet applied);
        ``None`` keeps the legacy direct-apply path with no queue.
    repl_buffer:
        Capacity (entries) of the replication segment buffer.
    sync_ack:
        Synchronous-ack quorum: hold each ingest reply until this many
        streaming subscribers have acked the batch's covering segment
        offset, then answer ``durable: true``.  ``None`` (the default)
        keeps asynchronous replication — replies carry no ``durable``
        field.
    ack_timeout:
        Bound (seconds) on each sync-ack quorum wait; when it expires
        the reply degrades to ``durable: false`` instead of wedging.
    read_only:
        Reject client ``ingest``/``evict`` — the follower front-end
        mode, where the replication stream is the only writer.
    promoter:
        Optional async callable behind the ``promote`` operation of a
        read-only server: it must stop the replication follow loop,
        call :meth:`make_writable`, and return the promotion payload
        (see :class:`~repro.serving.promotion.PromotableReplica`).
    line_limit:
        Per-request line cap in bytes.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 64,
        max_delay: float = 0.0,
        retention: Optional[RetentionPolicy] = None,
        retention_interval: Optional[float] = None,
        clock=time.time,
        metrics: Optional[MetricsRegistry] = None,
        max_pending_events: Optional[int] = None,
        repl_buffer: int = 1024,
        sync_ack: Optional[int] = None,
        ack_timeout: float = 1.0,
        read_only: bool = False,
        promoter: Optional[Callable[[], Awaitable[Dict[str, Any]]]] = None,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        if retention is not None and not retention.bounded:
            raise ValueError("the server's retention policy must be bounded")
        if retention_interval is not None:
            if retention is None:
                raise ValueError(
                    "retention_interval requires a retention policy"
                )
            if retention_interval <= 0:
                raise ValueError("retention_interval must be positive")
        if sync_ack is not None and sync_ack < 1:
            raise ValueError("sync_ack must be a positive quorum size")
        if ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        super().__init__(host, port, metrics=metrics, line_limit=line_limit)
        self._store = store
        self._batcher = QueryBatcher(
            store,
            max_batch=max_batch,
            max_delay=max_delay,
            metrics=self._metrics,
        )
        self._retention = retention
        self._retention_interval = retention_interval
        self._clock = clock
        self._admission = (
            None
            if max_pending_events is None
            else AdmissionController(max_pending_events)
        )
        self._hub = ReplicationHub(capacity=repl_buffer)
        self._acks = AckTracker()
        self._sync_ack = None if sync_ack is None else int(sync_ack)
        self._ack_timeout = float(ack_timeout)
        self._durable_acks = 0
        self._degraded_acks = 0
        self._read_only = bool(read_only)
        self._promoter = promoter
        self._retention_task: Optional[asyncio.Task] = None
        self._ingest_queue: Optional[asyncio.Queue] = None
        self._ingest_pump: Optional[asyncio.Task] = None
        self._repl_pumps: Dict[Any, set] = {}

    @property
    def store(self):
        """The served store."""
        return self._store

    @property
    def stats(self):
        """The coalescing counters of the underlying batcher."""
        return self._batcher.stats

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The ingest admission controller (``None`` = unbounded)."""
        return self._admission

    @property
    def replication(self) -> ReplicationHub:
        """The replication segment buffer."""
        return self._hub

    @property
    def acks(self) -> AckTracker:
        """Per-subscriber replication ack marks (sync-ack quorums)."""
        return self._acks

    @property
    def sync_ack(self) -> Optional[int]:
        """The sync-ack quorum size (``None`` = asynchronous mode)."""
        return self._sync_ack

    @property
    def read_only(self) -> bool:
        """Whether client ``ingest``/``evict`` are rejected."""
        return self._read_only

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    async def _post_start(self) -> None:
        """Start retention/admission pumps; seed the hub watermark.

        A server started over a warm (recovered) store has a fresh hub
        whose watermark would otherwise read 0 while the store sits at
        ``events_ingested > 0`` — a fresh follower would then trip the
        watermark cross-check in its subscribe handshake and loop on
        bootstraps.  Adopting the store's watermark up front keeps the
        hub's advertised cut truthful from the first handshake.
        """
        if self._hub.offset == 0:
            self._hub.reseed(self._store.events_ingested)
        if self._retention is not None and self._retention_interval:
            self._retention_task = asyncio.create_task(
                self._retention_loop()
            )
        if self._admission is not None:
            self._ingest_queue = asyncio.Queue()
            self._ingest_pump = asyncio.create_task(self._pump_ingest())

    async def _pre_close(self) -> None:
        """Cancel pumps, fail queued batches, flush the query window."""
        for task in (self._retention_task, self._ingest_pump):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        if self._ingest_queue is not None:
            while not self._ingest_queue.empty():
                batch, _snapshot, future = self._ingest_queue.get_nowait()
                self._admission.release(len(batch))
                if not future.done():
                    future.set_exception(
                        OSError("server stopped before applying the batch")
                    )
        for tasks in list(self._repl_pumps.values()):
            for task in list(tasks):
                task.cancel()
        self._repl_pumps.clear()
        self._batcher.flush()

    def _cleanup_connection(self, writer) -> None:
        for pump in self._repl_pumps.pop(id(writer), ()):
            pump.cancel()
        # A dead subscriber can never ack again; waking the quorum
        # waiters lets them re-evaluate (and time out) promptly.
        self._acks.unregister(id(writer))

    async def _retention_loop(self) -> None:
        while True:
            await asyncio.sleep(self._retention_interval)
            self._run_retention(self._retention, now=self._clock())

    def make_writable(self) -> None:
        """Rewire a read-only follower front-end into primary mode.

        Called by the promotion path after the follow loop has stopped:
        client ``ingest``/``evict`` are accepted from here on, and the
        (necessarily empty — the follow loop wrote to the store, never
        through this server) replication hub adopts the store's shipped
        watermark so new followers subscribe against a truthful cut.
        Offsets restart from 0 under the promoted primary; subscribers
        of the dead one detect the discontinuity through the existing
        watermark cross-check in their subscribe handshake and
        re-bootstrap.
        """
        self._read_only = False
        if self._hub.offset == 0:
            self._hub.reseed(self._store.events_ingested)

    # ------------------------------------------------------------------
    # Mutation paths (shared by direct / queued / background callers)
    # ------------------------------------------------------------------
    def _apply_ingest(
        self, batch: EventBatch, snapshot: bool
    ) -> Tuple[int, int]:
        """Apply one ingest batch, record its segment, instrument it.

        Returns ``(count, offset)`` — the covering segment offset is
        what a sync-ack quorum wait blocks on (captured here, before
        any await can let a later batch advance the hub).
        """
        with self._metrics.histogram(
            "serving_ingest_apply_seconds",
            help="wall seconds applying one ingest batch to the store",
        ).time():
            count = self._store.ingest(batch)
        self._metrics.counter(
            "serving_ingest_events_total",
            help="feed events folded into the ledger",
        ).inc(count)
        self._hub.record_events(batch, self._store.events_ingested)
        if snapshot and self._store.root is not None:
            self._store.snapshot()
        return count, self._hub.offset

    def _run_retention(
        self,
        policy: RetentionPolicy,
        now: Optional[float],
        snapshot: bool = True,
    ) -> Dict[str, list]:
        """Apply retention, record its segment, instrument it."""
        with self._metrics.histogram(
            "serving_retention_seconds",
            help="wall seconds per retention sweep",
        ).time():
            report = apply_retention(
                self._store, policy, now=now, snapshot=snapshot
            )
        self._metrics.counter(
            "serving_retention_sweeps_total",
            help="retention sweeps executed",
        ).inc()
        evicted = {group: keys for group, keys in report.items() if keys}
        self._metrics.counter(
            "serving_retention_evicted_keys_total",
            help="keys evicted by retention sweeps",
        ).inc(sum(len(keys) for keys in evicted.values()))
        self._hub.record_evict(evicted, self._store.events_ingested)
        return report

    async def _pump_ingest(self) -> None:
        """Drain the admission queue, applying batches one at a time."""
        while True:
            batch, snapshot, future = await self._ingest_queue.get()
            start = time.perf_counter()
            try:
                count, offset = self._apply_ingest(batch, snapshot)
            except Exception as exc:
                self._admission.release(len(batch))
                if not future.done():
                    future.set_exception(exc)
                continue
            self._admission.note_applied(
                len(batch), time.perf_counter() - start
            )
            if not future.done():
                future.set_result(
                    (count, self._store.events_ingested, offset)
                )

    async def _await_durability(
        self, count: int, offset: int
    ) -> Optional[bool]:
        """Hold an ingest reply for its sync-ack quorum (bounded).

        Returns ``None`` in asynchronous mode (the reply then carries
        no ``durable`` field), ``True`` when ``sync_ack`` subscribers
        acked the covering ``offset`` within ``ack_timeout``, ``False``
        when the wait degraded — the batch is applied (and WAL-logged
        locally) but not yet confirmed replicated.
        """
        if self._sync_ack is None:
            return None
        if count <= 0:
            return True  # nothing was recorded, nothing can be lost
        with self._metrics.histogram(
            "serving_ack_wait_seconds",
            help="wall seconds ingest replies waited on follower quorums",
        ).time():
            durable = await self._acks.wait_for(
                offset, self._sync_ack, self._ack_timeout
            )
        if durable:
            self._durable_acks += 1
            self._metrics.counter(
                "serving_durable_acks_total",
                help="ingest replies acknowledged durable (quorum met)",
            ).inc()
        else:
            self._degraded_acks += 1
            self._metrics.counter(
                "serving_degraded_acks_total",
                help="ingest replies degraded to durable=false on timeout",
            ).inc()
        return durable

    async def _ingest_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        batch = EventBatch.from_frame(payload)
        snapshot = bool(payload.get("snapshot"))
        if self._admission is None:
            count, offset = self._apply_ingest(batch, snapshot)
            response = {
                "ok": True,
                "ingested": count,
                "watermark": self._store.events_ingested,
            }
            durable = await self._await_durability(count, offset)
            if durable is not None:
                response["durable"] = durable
            return response
        if not self._admission.try_admit(len(batch)):
            retry_after = self._admission.retry_after()
            self._metrics.counter(
                "serving_ingest_shed_batches_total",
                help="ingest batches shed by admission control",
            ).inc()
            self._metrics.counter(
                "serving_ingest_shed_events_total",
                help="feed events shed by admission control",
            ).inc(len(batch))
            return {
                "ok": False,
                "error": (
                    f"overloaded: {self._admission.pending_events} events "
                    f"pending against a bound of "
                    f"{self._admission.max_pending_events}"
                ),
                "shed": True,
                "retry_after": retry_after,
            }
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._ingest_queue.put_nowait((batch, snapshot, future))
        count, watermark, offset = await future
        response = {"ok": True, "ingested": count, "watermark": watermark}
        durable = await self._await_durability(count, offset)
        if durable is not None:
            response["durable"] = durable
        return response

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, payload: Dict[str, Any], writer
    ) -> Dict[str, Any]:
        """Serve one request against the store and its subsystems."""
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "result": "pong"}
        if op == "repl_ack":
            # Fire-and-forget upstream push from a subscriber; no reply
            # line (it would interleave into the segment stream).
            self._acks.ack(id(writer), int(payload.get("offset", 0)))
            self._metrics.counter(
                "serving_repl_acks_total",
                help="repl_ack frames received from subscribers",
            ).inc()
            return {"ok": True, "_noreply": True}
        if op == "query":
            request = QueryRequest.from_payload(payload)
            result, watermark = await self._batcher.submit(request)
            return {"ok": True, "result": result, "watermark": watermark}
        if op == "ingest":
            if self._read_only:
                raise ValueError(
                    "server is read-only (replica follower); ingest on "
                    "the primary"
                )
            return await self._ingest_op(payload)
        if op == "evict":
            if self._read_only:
                raise ValueError(
                    "server is read-only (replica follower); evict on "
                    "the primary"
                )
            if payload.get("ttl") is None and payload.get("max_keys") is None:
                policy = self._retention
            else:
                policy = RetentionPolicy.from_dict(payload)
            if policy is None or not policy.bounded:
                raise ValueError(
                    "evict needs ttl and/or max_keys (or a server-side "
                    "retention policy)"
                )
            now = payload.get("now")
            report = self._run_retention(
                policy,
                now=None if now is None else float(now),
                snapshot=bool(payload.get("snapshot", True)),
            )
            return {
                "ok": True,
                "evicted": report,
                "watermark": self._store.events_ingested,
            }
        if op == "info":
            return {"ok": True, "result": self.describe()}
        if op == "metrics":
            return {"ok": True, "result": self._metrics.snapshot()}
        if op == "shard_view":
            return self._shard_view_op(payload)
        if op == "promote":
            if not self._read_only:
                # Already a primary (e.g. promoted earlier, or the
                # original primary came back): acknowledged no-op, so a
                # router's failover scan can adopt it idempotently.
                return {
                    "ok": True,
                    "promoted": False,
                    "watermark": self._store.events_ingested,
                    "offset": self._hub.offset,
                }
            if self._promoter is None:
                raise ValueError(
                    "server is read-only with no promoter; start the "
                    "follower with promotion enabled (--promotable)"
                )
            result = await self._promoter()
            return {"ok": True, "promoted": True, **result}
        if op == "repl_snapshot":
            self._metrics.counter(
                "serving_repl_snapshots_shipped_total",
                help="ledger snapshots shipped to followers",
            ).inc()
            return {
                "ok": True,
                "result": snapshot_payload(self._store, self._hub.offset),
            }
        if op == "repl_subscribe":
            after = int(payload.get("after_offset", 0))
            if self._hub.can_resume_from(after):
                # The pump task cannot run before this response line is
                # queued: _serve_line writes it synchronously after this
                # return, with no intervening await.
                pump = asyncio.create_task(self._pump_segments(writer, after))
                self._repl_pumps.setdefault(id(writer), set()).add(pump)
                self._acks.register(id(writer))
                mode = "stream"
            else:
                mode = "snapshot"
            return {
                "ok": True,
                "mode": mode,
                "offset": self._hub.offset,
                "watermark": self._hub.watermark,
            }
        if op == "shutdown":
            return {"ok": True, "result": "bye"}
        raise ValueError(f"unknown op {op!r}")

    def _shard_view_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Serve serialized sketch views tagged with the mutation cut.

        The tag is the ``(replication offset, event watermark)`` pair:
        the offset advances on *every* mutation (ingest and eviction
        both), the watermark only on ingest, so together they identify
        the store's content cut across restarts far more robustly than
        either alone.  When the caller's ``since_offset`` /
        ``since_watermark`` match, the response is a bare ``unchanged``
        acknowledgement.  The router's view cache rides on this: it
        keeps each fetched ``(group, kind)`` payload at the shard's one
        current tag and sends ``since_*`` only when every pair a query
        needs is cached, so one unchanged line answers any subset of
        the groups it fetched before.
        """
        offset = self._hub.offset
        watermark = self._store.events_ingested
        response: Dict[str, Any] = {
            "ok": True,
            "offset": offset,
            "watermark": watermark,
        }
        since_offset = payload.get("since_offset")
        since_watermark = payload.get("since_watermark")
        if (
            since_offset is not None
            and since_watermark is not None
            and int(since_offset) == offset
            and int(since_watermark) == watermark
        ):
            response["unchanged"] = True
            return response
        kinds = payload.get("kinds")
        response["view"] = sketch_view_payload(
            self._store,
            groups=payload.get("groups"),
            kinds=tuple(kinds) if kinds else ("pps", "ads"),
        )
        return response

    async def _pump_segments(self, writer, after_offset: int) -> None:
        """Push segment entries past ``after_offset`` to one subscriber."""
        shipped = self._metrics.counter(
            "serving_repl_segments_shipped_total",
            help="segment entries pushed to subscribers",
        )
        offset = after_offset
        try:
            while True:
                frames = self._hub.frames_after(offset)
                if frames is None:
                    # The subscriber fell out of the bounded buffer —
                    # tell it to re-bootstrap and drop the stream.
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "op": "repl_segment",
                                    "reset": True,
                                    "oldest_offset": self._hub.oldest_offset,
                                },
                                sort_keys=True,
                            )
                            + "\n"
                        ).encode()
                    )
                    await writer.drain()
                    return
                for offset, frame in frames:
                    writer.write(frame)
                    shipped.inc()
                await writer.drain()
                await self._hub.wait_beyond(offset)
        except (ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            return

    def describe(self) -> Dict[str, Any]:
        """The ``info`` payload: store summary plus subsystem counters."""
        store = self._store
        return {
            "groups": store.groups,
            "events_ingested": store.events_ingested,
            "keys": {
                group: len(store.group_state(group).totals)
                for group in store.groups
            },
            "config": store.config.to_dict(),
            "root": None if store.root is None else str(store.root),
            "retention": (
                None if self._retention is None else self._retention.to_dict()
            ),
            "coalescing": self._batcher.stats.to_dict(),
            "replication": self._hub.describe(),
            "admission": (
                None if self._admission is None else self._admission.describe()
            ),
            "read_only": self._read_only,
            "promotable": self._promoter is not None,
            "durability": {
                "sync_ack": self._sync_ack,
                "ack_timeout": self._ack_timeout,
                "durable_acks": self._durable_acks,
                "degraded_acks": self._degraded_acks,
                "ack_subscribers": self._acks.subscribers,
            },
        }


class ServingClient:
    """Asyncio client for the JSON-lines serving protocol.

    Speaks to a :class:`SketchServer` or a
    :class:`~repro.serving.router.ShardRouter` interchangeably.
    Supports pipelining: every request gets a fresh ``id`` and a future;
    a background reader task matches responses back by ``id``, so many
    requests may be awaited concurrently over one connection.  Methods
    return the full response payload (so callers can read the
    ``watermark``) and raise :class:`ServingError` on ``ok: false`` —
    :class:`Overloaded` (with the ``retry_after`` hint) when the server
    shed an ingest batch under admission control.

    Robustness: when the connection drops mid-request the pending
    request fails with :class:`ConnectionLost`; *read-only* operations
    (``ping``/``query``/``info``/``metrics``) are then retried
    transparently — reconnect with exponential backoff, up to
    ``max_retries`` attempts — while mutating operations surface the
    error (re-sending an ``ingest`` whose fate is unknown could apply
    it twice).  A router's ``shard_unavailable`` answer follows the
    same split: idempotent operations sleep for the ``retry_after``
    hint and retry (the router may promote a fallback in the meantime),
    mutating ones raise :class:`ShardUnavailable` at once.  A response
    line that is not a JSON object fails every pending request with
    :class:`ProtocolError` naming the offending bytes, and is never
    retried.

    All backoff arithmetic lives in one shared
    :class:`~repro.serving.resilience.RetryPolicy` — pass ``retry`` to
    override the ``max_retries``/``backoff`` shorthand (e.g. to inject
    a virtual clock, or a different ``cap``).  Server ``retry_after``
    hints are honoured *clamped to the policy's cap*: a confused router
    cannot park the client arbitrarily long.
    """

    #: Operations safe to re-send after a connection drop: they do not
    #: mutate the store, so at-least-once delivery cannot corrupt it.
    RETRYABLE_OPS = frozenset({"ping", "query", "info", "metrics"})

    def __init__(
        self,
        reader,
        writer,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        if backoff <= 0:
            raise ValueError("backoff must be positive")
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self._retry = (
            retry
            if retry is not None
            else RetryPolicy(max_retries=max_retries, base=backoff)
        )
        self._limit = int(limit)
        self._pending: Dict[str, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_retries: int = 2,
        backoff: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        limit: int = DEFAULT_LINE_LIMIT,
    ) -> "ServingClient":
        """Open a connection to a running server.

        Clients built this way remember the address and can reconnect;
        clients built directly from a ``(reader, writer)`` pair cannot.
        ``limit`` caps the response line the client will buffer — it
        defaults to the protocol's line limit rather than asyncio's
        64 KiB stream default, because one ``shard_view`` or ``metrics``
        response line can easily outgrow the latter.
        """
        reader, writer = await asyncio.open_connection(
            host, port, limit=limit
        )
        return cls(
            reader,
            writer,
            host=host,
            port=port,
            max_retries=max_retries,
            backoff=backoff,
            retry=retry,
            limit=limit,
        )

    async def _read_loop(self) -> None:
        error: ServingError = ConnectionLost("server closed the connection")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                except ValueError:
                    error = ProtocolError(
                        f"malformed response line: {line[:120]!r}"
                    )
                    break
                if not isinstance(payload, dict):
                    error = ProtocolError(
                        f"response is not a JSON object: {line[:120]!r}"
                    )
                    break
                future = self._pending.pop(str(payload.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except (ConnectionError, OSError) as exc:
            error = ConnectionLost(f"connection lost: {exc}")
        except ValueError as exc:
            # readline() past the stream limit; the frame cannot be
            # resynchronised, so the connection is done for.
            error = ProtocolError(f"response line exceeds the limit: {exc}")
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def _reconnect(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        reader, writer = await asyncio.open_connection(
            self._host, self._port, limit=self._limit
        )
        self._reader = reader
        self._writer = writer
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _roundtrip(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        # The writer of a connection the *server* closed often still
        # accepts buffered writes, so the reader task's liveness is the
        # authoritative signal: once it has exited (failing all pending
        # futures), a new future would never be resolved.
        if self._writer.is_closing() or self._reader_task.done():
            raise ConnectionLost("connection is closed")
        self._next_id += 1
        request_id = str(self._next_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        line = json.dumps({"id": request_id, "op": op, **fields}) + "\n"
        try:
            self._writer.write(line.encode())
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise ConnectionLost(f"connection lost while sending: {exc}")
        return await future

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one operation and await its response payload."""
        attempt = 0
        while True:
            try:
                response = await self._roundtrip(op, fields)
            except ConnectionLost:
                if (
                    op not in self.RETRYABLE_OPS
                    or self._host is None
                    or not self._retry.should_retry(attempt + 1)
                ):
                    raise
                while True:
                    attempt += 1
                    await self._retry.pause(attempt)
                    try:
                        await self._reconnect()
                        break
                    except (ConnectionError, OSError):
                        if not self._retry.should_retry(attempt + 1):
                            raise ConnectionLost(
                                f"could not reconnect to "
                                f"{self._host}:{self._port}"
                            )
                continue
            if not response.get("ok"):
                message = response.get("error", "request failed")
                if response.get("shed"):
                    raise Overloaded(
                        message, float(response.get("retry_after", 0.0))
                    )
                if response.get("shard_unavailable"):
                    retry_after = float(response.get("retry_after", 0.0))
                    if op in self.RETRYABLE_OPS and self._retry.should_retry(
                        attempt + 1
                    ):
                        attempt += 1
                        # The hint wins over the computed backoff, but
                        # clamped to the policy's cap.
                        await self._retry.pause(
                            attempt, retry_after=retry_after or None
                        )
                        continue
                    raise ShardUnavailable(message, retry_after)
                raise ServingError(message)
            return response

    async def ping(self) -> Dict[str, Any]:
        """Round-trip liveness check."""
        return await self.request("ping")

    async def query(
        self,
        kind: str,
        groups: Optional[Sequence[str]] = None,
        keys: Optional[Sequence[str]] = None,
        until: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Issue one serving query; the response carries ``result`` and
        ``watermark``."""
        fields: Dict[str, Any] = {"kind": kind}
        if groups is not None:
            fields["groups"] = list(groups)
        if keys is not None:
            fields["keys"] = list(keys)
        if until is not None:
            fields["until"] = until
        return await self.request("query", **fields)

    async def ingest(
        self,
        events: Union[EventBatch, Iterable[Event]],
        snapshot: bool = False,
    ) -> Dict[str, Any]:
        """Ship a batch of events as one ``columns`` frame; the response
        acknowledges the count.

        Raises :class:`Overloaded` (with ``retry_after``) when the
        server sheds the batch under admission control — the batch was
        *not* applied and may be re-sent after backing off.
        """
        return await self.request(
            "ingest",
            columns=EventBatch.from_events(events).to_columns(),
            snapshot=snapshot,
        )

    async def evict(
        self,
        ttl: Optional[float] = None,
        max_keys: Optional[int] = None,
        now: Optional[float] = None,
        snapshot: bool = True,
    ) -> Dict[str, Any]:
        """Run one eviction cycle (explicit knobs or the server default)."""
        fields: Dict[str, Any] = {"snapshot": snapshot}
        if ttl is not None:
            fields["ttl"] = ttl
        if max_keys is not None:
            fields["max_keys"] = max_keys
        if now is not None:
            fields["now"] = now
        return await self.request("evict", **fields)

    async def info(self) -> Dict[str, Any]:
        """The server's ``info`` payload."""
        return (await self.request("info"))["result"]

    async def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot (counters + histograms)."""
        return (await self.request("metrics"))["result"]

    async def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop (after acknowledging)."""
        return await self.request("shutdown")

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
