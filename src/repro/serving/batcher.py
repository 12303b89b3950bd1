"""Micro-batching: coalesce concurrent queries into single engine dispatches.

The serving store answers ``sum`` and ``distinct`` for *many groups in
one kernel call* — that is the whole point of
:mod:`repro.engine.serving`.  A :class:`QueryBatcher` extends the same
economy across *callers*: concurrent in-flight requests accumulate in a
window (closed after ``max_batch`` requests or ``max_delay`` seconds,
whichever first) and each window executes as a handful of store calls
instead of one per request.

**Coalescing never changes an answer.**  The invariant — coalesced
answers are bit-identical to the same request issued alone — holds
because of three deliberate choices, all testable in isolation through
:func:`execute_batch`:

* Every request runs under the one process-wide
  :class:`~repro.api.backend.BackendPolicy`, whose decision depends on
  the query kind alone, never on the input's size — so merging
  requests cannot flip a dispatch decision.
* The shared store calls reduce **per group**: ``np.bincount``
  accumulates each group's entries contiguously in input order, so a
  group's float-addition sequence inside a coalesced call is the very
  sequence its own single-group call performs.
* Requests that cannot share a dispatch (keyed subset sums, estimator
  plugins, unknown kinds) run individually inside the window — same
  code path as a sequential caller, just scheduled together.

``similarity`` requests coalesce by deduplication: requests for the
same groups in one window share a single estimate.  A wire ``backend``
field, which older clients send, is ignored.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["BatcherStats", "QueryBatcher", "QueryRequest", "execute_batch"]


@dataclass(frozen=True)
class QueryRequest:
    """One serving query, in coalescible (hashable) form.

    Mirrors the parameters of :meth:`SketchStore.query
    <repro.serving.store.SketchStore.query>`; ``groups``/``keys`` are
    tuples so requests can serve as dictionary keys during planning.
    """

    kind: str
    groups: Optional[Tuple[str, ...]] = None
    keys: Optional[Tuple[str, ...]] = None
    until: Optional[float] = None

    @classmethod
    def from_payload(cls, payload) -> "QueryRequest":
        """Build a request from a wire-protocol ``query`` payload."""
        groups = payload.get("groups")
        keys = payload.get("keys")
        until = payload.get("until")
        return cls(
            kind=str(payload["kind"]),
            groups=(
                None
                if groups is None
                else tuple(str(group) for group in groups)
            ),
            keys=None if keys is None else tuple(str(key) for key in keys),
            until=None if until is None else float(until),
        )


@dataclass
class BatcherStats:
    """Counters describing how much coalescing actually happened."""

    requests: int = 0
    flushes: int = 0
    store_calls: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a JSON payload (served by the ``info`` op)."""
        return {
            "requests": self.requests,
            "flushes": self.flushes,
            "store_calls": self.store_calls,
        }


def execute_batch(
    store, requests: Sequence[QueryRequest]
) -> Tuple[List[Any], List[Optional[Exception]], int]:
    """Execute one window of requests with as few store calls as possible.

    Pure and synchronous — the async :class:`QueryBatcher` and the unit
    tests both call this.  Failures are isolated: a request (or a shared
    bucket) that raises poisons only its own slot(s).

    Returns
    -------
    (results, errors, store_calls)
        ``results[i]``/``errors[i]`` mirror ``requests[i]`` (exactly one
        is set per slot); ``store_calls`` counts the store queries the
        window actually issued.
    """
    results: List[Any] = [None] * len(requests)
    errors: List[Optional[Exception]] = [None] * len(requests)
    calls = 0
    sum_members: List[Tuple[int, Tuple[str, ...]]] = []
    distinct_members: List[Tuple[int, List[tuple]]] = []
    similarity_buckets: Dict[Tuple[str, ...], List[int]] = {}
    singles: List[int] = []
    for slot, request in enumerate(requests):
        try:
            groups = (
                tuple(store.groups)
                if request.groups is None
                else request.groups
            )
            if request.kind == "sum" and request.keys is None:
                sum_members.append((slot, groups))
            elif request.kind == "distinct" and request.keys is None:
                pairs = [(group, request.until) for group in groups]
                distinct_members.append((slot, pairs))
            elif request.kind == "similarity":
                similarity_buckets.setdefault(groups, []).append(slot)
            else:
                singles.append(slot)
        except Exception as exc:  # per-request planning failure
            errors[slot] = exc
    if sum_members:
        ordered = list(
            dict.fromkeys(
                group for _slot, groups in sum_members for group in groups
            )
        )
        try:
            answers = store.query("sum", groups=ordered)
            calls += 1
        except Exception as exc:
            for slot, _groups in sum_members:
                errors[slot] = exc
        else:
            for slot, groups in sum_members:
                results[slot] = {group: answers[group] for group in groups}
    if distinct_members:
        ordered_pairs = list(
            dict.fromkeys(
                pair for _slot, pairs in distinct_members for pair in pairs
            )
        )
        index = {pair: position for position, pair in enumerate(ordered_pairs)}
        try:
            values = store.distinct_batch(ordered_pairs)
            calls += 1
        except Exception as exc:
            for slot, _pairs in distinct_members:
                errors[slot] = exc
        else:
            for slot, pairs in distinct_members:
                results[slot] = {
                    group: values[index[(group, until)]]
                    for group, until in pairs
                }
    for groups, slots in similarity_buckets.items():
        try:
            value = store.query("similarity", groups=groups)
            calls += 1
        except Exception as exc:
            for slot in slots:
                errors[slot] = exc
            continue
        for slot in slots:
            results[slot] = value
    for slot in singles:
        request = requests[slot]
        try:
            results[slot] = store.query(
                request.kind,
                groups=request.groups,
                keys=request.keys,
                until=request.until,
            )
            calls += 1
        except Exception as exc:
            errors[slot] = exc
    return results, errors, calls


class QueryBatcher:
    """Accumulate concurrent requests and flush them as coalesced windows.

    Parameters
    ----------
    store:
        The :class:`~repro.serving.store.SketchStore` to answer from.
    max_batch:
        Flush as soon as this many requests are pending.
    max_delay:
        Seconds to hold the window open waiting for company.  The
        default ``0.0`` flushes on the *next event-loop iteration* —
        requests that became ready in the same loop tick (e.g. many
        sockets readable at once) still coalesce, while a lone request
        pays no artificial latency.

    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry`; when
        given, each flush feeds coalescing counters (requests, flushes,
        store calls — the ratios operators watch) alongside the local
        :class:`BatcherStats`.

    :meth:`submit` resolves to ``(result, watermark)`` where the
    watermark is the store's ``events_ingested`` at execution time —
    the handle that lets a client (or the concurrency stress test) pin
    an answer to the exact feed prefix it describes.
    """

    def __init__(
        self,
        store,
        max_batch: int = 64,
        max_delay: float = 0.0,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay < 0:
            raise ValueError("max_delay must be nonnegative")
        self._store = store
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._metrics = metrics
        self._pending: List[Tuple[QueryRequest, asyncio.Future]] = []
        self._handle: Optional[asyncio.TimerHandle] = None
        self.stats = BatcherStats()

    async def submit(self, request: QueryRequest) -> Tuple[Any, int]:
        """Enqueue one request and wait for its window to execute."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        self.stats.requests += 1
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif self._handle is None:
            self._handle = loop.call_later(self.max_delay, self.flush)
        return await future

    def flush(self) -> None:
        """Execute every pending request now (window close / shutdown).

        Synchronous: the whole window executes without yielding to the
        event loop, so every answer in it shares one watermark.
        """
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        results, errors, calls = execute_batch(
            self._store, [request for request, _future in pending]
        )
        watermark = self._store.events_ingested
        self.stats.flushes += 1
        self.stats.store_calls += calls
        if self._metrics is not None:
            self._metrics.counter(
                "serving_coalesce_requests_total",
                help="query requests that went through a coalescing window",
            ).inc(len(pending))
            self._metrics.counter(
                "serving_coalesce_flushes_total",
                help="coalescing windows executed",
            ).inc()
            self._metrics.counter(
                "serving_coalesce_store_calls_total",
                help="store calls issued by coalescing windows",
            ).inc(calls)
        for (_request, future), result, error in zip(
            pending, results, errors
        ):
            if future.cancelled():
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result((result, watermark))
