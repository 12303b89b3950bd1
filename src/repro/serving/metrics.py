"""Observability: a metrics registry and a Prometheus scrape endpoint.

A long-lived server is only operable if its behaviour is measurable
without stopping it.  This module gives the serving layer exactly two
instrument kinds — **counters** (monotone totals: requests served,
events ingested, batches shed) and **fixed-bucket latency histograms**
(request seconds per operation) — collected in a
:class:`MetricsRegistry` whose snapshot is *deterministic*: series are
keyed by ``name{label="value",...}`` strings with sorted label keys, and
:meth:`MetricsRegistry.snapshot` walks them in sorted order, so two
registries that observed the same sequence serialise identically (the
property the metrics tests pin).

Two export surfaces share the one registry:

* the ``metrics`` operation of the JSON-lines TCP protocol returns the
  snapshot as a JSON document (what the load generator and the tests
  read);
* :class:`MetricsHTTPShim` is a minimal stdlib-only asyncio HTTP
  listener in front of the TCP server that renders the registry in the
  Prometheus text exposition format on ``GET /metrics`` (plus a
  ``/healthz`` liveness probe) — the scrape endpoint the
  ``replication-smoke`` and ``router-smoke`` CI jobs curl.

Series families, by emitter: the protocol shell counts
``serving_requests_total`` / ``serving_errors_total`` and times
``serving_request_seconds`` per operation on *every* front-end (store
servers and the shard router alike); store servers add the ingest /
coalescing / retention / replication / admission families; the shard
router adds ``router_shard_requests_total{shard=,op=}`` and
``router_routed_events_total{shard=}`` (per-shard routed-op counters),
``router_gather_seconds{kind=}`` (scatter-gather latency),
``router_view_cache_hits_total{shard=}`` (view fetches a shard
answered ``unchanged`` because every ``(group, kind)`` the query needs
was cached at its current tag),
``router_failovers_total{shard=}`` / ``router_promotions_total{shard=}``
(re-targeting), and ``router_unavailable_total``; a promotable replica
counts ``serving_promotions_total`` when its hand-over runs.  The
synchronous-ack path adds its own family on both ends of the wire: a
``--sync-ack`` primary counts ``serving_repl_acks_total`` (``repl_ack``
frames received), ``serving_durable_acks_total`` /
``serving_degraded_acks_total`` (quorum met vs. timed out) and times
``serving_ack_wait_seconds``; followers count
``serving_repl_acks_sent_total``; and the chaos harness's proxy counts
``chaos_frames_total{action=}`` when handed a registry.

The registry is wholly synchronous and allocation-light: instruments are
created on first use and cached, so the hot path is a dict lookup and an
integer add.  Nothing here samples wall time by itself — callers observe
durations explicitly (see :meth:`Histogram.time`), which keeps the
registry clock-free and the tests deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import asyncio

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsHTTPShim",
    "MetricsRegistry",
]

#: Upper bounds (seconds) of the default latency histogram buckets.
#: Spans one-tenth of a millisecond to ten seconds — the range a
#: coalesced in-process query (microseconds) and a cold snapshot ship
#: (seconds) both land inside; everything slower falls into +Inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    """The canonical series key: ``name`` or ``name{k="v",...}``, sorted."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone counter; negative increments are rejected."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be nonnegative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """A fixed-bucket histogram of nonnegative observations.

    Buckets are pinned at construction (upper bounds, ascending); an
    implicit ``+Inf`` bucket catches everything beyond the last bound.
    Internally the per-bucket counts are *disjoint*; the cumulative
    counts Prometheus expects are computed at render time.
    """

    __slots__ = ("bounds", "counts", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return sum(self.counts)

    @contextmanager
    def time(self, clock=time.perf_counter):
        """Context manager observing the wall seconds of its body."""
        start = clock()
        try:
            yield
        finally:
            self.observe(clock() - start)

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, cumulative count)`` pairs, ending with ``+Inf``."""
        pairs: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            pairs.append((_format_bound(bound), running))
        pairs.append(("+Inf", running + self.counts[-1]))
        return pairs


def _format_bound(bound: float) -> str:
    """A stable text form for a bucket bound (no trailing zeros noise)."""
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Counters and histograms behind one deterministic snapshot.

    Instruments are created on first use and identified by
    ``(name, sorted labels)``; asking for an existing name with a
    conflicting kind (or conflicting histogram buckets) raises, so a
    metric name means one thing for the life of the process.
    """

    def __init__(self) -> None:
        self._kinds: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._help: Dict[str, str] = {}
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._label_names: Dict[str, Dict[str, Dict[str, str]]] = {
            "counter": {},
            "histogram": {},
        }

    def _claim(self, name: str, kind: str, help: Optional[str]) -> None:
        prior = self._kinds.get(name)
        if prior is None:
            self._kinds[name] = kind
            if help is not None:
                self._help[name] = help
        elif prior != kind:
            raise ValueError(
                f"metric {name!r} is a {prior}, not a {kind}"
            )

    def counter(
        self, name: str, help: Optional[str] = None, **labels: str
    ) -> Counter:
        """The counter for ``name`` + ``labels``, created on first use."""
        self._claim(name, "counter", help)
        key = _series_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
            self._label_names["counter"][key] = dict(labels)
        return counter

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: Optional[str] = None,
        **labels: str,
    ) -> Histogram:
        """The histogram for ``name`` + ``labels``, created on first use.

        All series of one name share bucket bounds; asking for the same
        name with different ``buckets`` raises.
        """
        self._claim(name, "histogram", help)
        bounds = tuple(float(b) for b in buckets)
        prior = self._buckets.get(name)
        if prior is None:
            self._buckets[name] = bounds
        elif prior != bounds:
            raise ValueError(
                f"histogram {name!r} already has buckets {prior}"
            )
        key = _series_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(bounds)
            self._label_names["histogram"][key] = dict(labels)
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        """The registry as a deterministic JSON-ready document.

        ``{"counters": {series: value}, "histograms": {series:
        {"buckets": {le: cumulative}, "sum": s, "count": n}}}`` with all
        mappings in sorted series order — two registries that observed
        the same sequence snapshot identically.
        """
        return {
            "counters": {
                key: self._counters[key].value
                for key in sorted(self._counters)
            },
            "histograms": {
                key: {
                    "buckets": dict(self._histograms[key].cumulative()),
                    "sum": self._histograms[key].sum,
                    "count": self._histograms[key].count,
                }
                for key in sorted(self._histograms)
            },
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        One ``# TYPE`` line per metric family (plus ``# HELP`` when the
        instrument was created with one), then each series; histogram
        series expand into cumulative ``_bucket{le=...}`` lines plus
        ``_sum`` and ``_count``.  Output order is deterministic: family
        names sorted, then series keys sorted.
        """
        lines: List[str] = []
        by_family: Dict[str, List[str]] = {}
        for key in self._counters:
            name = key.split("{", 1)[0]
            by_family.setdefault(name, []).append(key)
        for key in self._histograms:
            name = key.split("{", 1)[0]
            by_family.setdefault(name, []).append(key)
        for name in sorted(by_family):
            kind = self._kinds[name]
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(by_family[name]):
                if kind == "counter":
                    value = self._counters[key].value
                    lines.append(f"{key} {_format_value(value)}")
                    continue
                histogram = self._histograms[key]
                labels = self._label_names["histogram"][key]
                for le, cumulative in histogram.cumulative():
                    bucket_key = _series_key(
                        f"{name}_bucket", {**labels, "le": le}
                    )
                    lines.append(f"{bucket_key} {cumulative}")
                lines.append(
                    f"{_series_key(f'{name}_sum', labels)} "
                    f"{_format_value(histogram.sum)}"
                )
                lines.append(
                    f"{_series_key(f'{name}_count', labels)} "
                    f"{histogram.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    """Integer-valued floats render without the trailing ``.0``."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsHTTPShim:
    """A minimal asyncio HTTP listener exposing one registry.

    Serves ``GET /metrics`` (Prometheus text format 0.0.4) and
    ``GET /healthz`` (plain ``ok``); everything else is 404.  One
    response per connection (``Connection: close``) — scrape clients
    reconnect per scrape anyway, and it keeps the parser to a request
    line plus discarded headers.  Stdlib-only by design: the shim must
    not add a dependency to the serving stack.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to render on each scrape.
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry = registry
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("metrics shim is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind and start answering scrapes; returns the address."""
        if self._server is not None:
            raise RuntimeError("metrics shim is already started")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting scrapes."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def _on_connection(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            # Drain the headers; the shim never reads a body.
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else ""
            if method != "GET":
                await self._respond(
                    writer, "405 Method Not Allowed", "text/plain",
                    "only GET is supported\n",
                )
            elif path in ("/metrics", "/metrics/"):
                await self._respond(
                    writer,
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    self._registry.render_prometheus(),
                )
            elif path == "/healthz":
                await self._respond(writer, "200 OK", "text/plain", "ok\n")
            else:
                await self._respond(
                    writer, "404 Not Found", "text/plain",
                    f"no such path {path}\n",
                )
        except (ConnectionError, OSError, ValueError, UnicodeDecodeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, writer, status: str, content_type: str, body: str
    ) -> None:
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
