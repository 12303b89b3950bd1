"""In-memory span tracing around the program's public layer boundaries.

The tracer never edits the program: it replaces functions at the names
their callers look them up by (a module global such as
``repro.serving.server.sketch_view_payload``, or a class attribute such
as ``SketchStore.query``) with wrappers that record one span per call —
name, start, end, parent span, request id and a few attributes — and
restores the originals on :meth:`Tracer.uninstall`.

The parent of a span is whichever span is current in the calling
asyncio task (a ``contextvars`` variable, which tasks inherit when they
are created), so a request's spans share the root span's id as their
request id.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of a run.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import re
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span id, parent id, request id, name, start, end, attributes)``.
Span = Tuple[int, Optional[int], int, str, float, float, Dict[str, Any]]

_OP = re.compile(rb'"op":\s*"([a-z_]+)"')


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(name, value)`` measurements that are not spans.
        self.samples: List[Tuple[str, float]] = []
        self.pid = os.getpid()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _enter(self) -> Tuple[int, Optional[int], int, contextvars.Token]:
        parent = self._current.get()
        span_id = next(self._ids)
        request_id = span_id if parent is None else parent[1]
        token = self._current.set((span_id, request_id))
        return span_id, None if parent is None else parent[0], request_id, token

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns the span's attributes;
        it runs after the span's end time is taken.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans = self.spans
        enter = self._enter
        current = self._current
        clock = time.perf_counter

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id, parent, request_id, token = enter()
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                info = describe(args, kwargs, result) if describe else {}
                spans.append((span_id, parent, request_id, name, start, end, info))
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id, parent, request_id, token = enter()
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                info = describe(args, kwargs, result) if describe else {}
                spans.append((span_id, parent, request_id, name, start, end, info))
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def hook(self, owner: Any, attr: str, before: Callable[..., None]) -> None:
        """Call ``before(args)`` ahead of every ``owner.attr`` call (no span)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before(args)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Append spans and samples to ``path`` as JSON lines, then drop them."""
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans + self.samples:
                handle.write(json.dumps(record) + "\n")
        self.spans.clear()
        self.samples.clear()


def load(path: str) -> Tuple[List[Span], List[Tuple[str, float]]]:
    """Read one dump back: ``(spans, samples)``."""
    spans: List[Span] = []
    samples: List[Tuple[str, float]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if len(record) == 2:
                samples.append((record[0], record[1]))
            else:
                spans.append(tuple(record))
    return spans, samples


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _engine_items(args, kwargs, result) -> Dict[str, Any]:
    # The first argument holds one array per group; ADS horizon counts
    # pass (distances, thresholds) column pairs.
    groups = args[0] if args else next(iter(kwargs.values()))
    return {
        "items": sum(
            len(group[0]) if isinstance(group, tuple) else len(group)
            for group in groups
        )
    }


def install_engine(tracer: Tracer) -> None:
    """Engine kernels, moments and the L* sum-aggregate estimator."""
    from repro.aggregates.sum_estimator import SumAggregateEstimator
    from repro.engine import kernels, moments, serving
    from repro.experiments import ablation, dominance

    for name in ("batch_ht_sums", "batch_hip_counts", "batch_hip_horizon_counts"):
        tracer.wrap(serving, name, "engine.kernel", _engine_items)
    for kernel in vars(kernels).values():
        if isinstance(kernel, type) and "estimate_batch" in kernel.__dict__:
            tracer.wrap(
                kernel,
                "estimate_batch",
                "engine.kernel",
                lambda args, kwargs, result: {"items": len(result)},
            )
    # Two experiment modules bind these by name at import; the analysis
    # module imports them from the engine module at call time.
    tracer.wrap(moments, "batch_moments", "engine.moments")
    tracer.wrap(moments, "batch_variances", "engine.moments")
    tracer.wrap(ablation, "batch_moments", "engine.moments")
    tracer.wrap(dominance, "batch_variances", "engine.moments")
    tracer.wrap(
        SumAggregateEstimator,
        "estimate",
        "aggregates.estimate",
        lambda args, kwargs, result: {"items": len(result.items)},
    )


def install_serving(tracer: Tracer, roles: Dict[int, str]) -> None:
    """Every serving-layer boundary of the deployment host.

    ``roles`` maps ``id(front_end)`` to ``front``, ``primary`` or
    ``follower``; the root span of every request carries its
    front-end's role and the request's op.
    """
    from repro.serving import batcher, persistence, replication, router, server, store

    def request_info(args, kwargs, result):
        match = _OP.search(args[1])
        return {
            "op": match.group(1).decode() if match else "invalid",
            "role": roles.get(id(args[0]), "other"),
        }

    tracer.wrap(server.JSONLinesServer, "_serve_line", "server.request", request_info)

    # The wire codec: every JSON line the protocol shell, the client and
    # the replication stream encode or decode goes through the ``json``
    # global of those two modules.
    codec = types.SimpleNamespace(loads=json.loads, dumps=json.dumps)
    tracer.wrap(codec, "loads", "wire.decode", lambda args, kwargs, result: {"bytes": len(args[0])})
    tracer.wrap(codec, "dumps", "wire.encode", lambda args, kwargs, result: {"bytes": len(result)})
    tracer.replace(server, "json", codec)
    tracer.replace(replication, "json", codec)

    # Batcher: submit -> window run wait, flush size, store calls.
    waiting: Dict[int, List[float]] = {}

    def note_submit(args) -> None:
        waiting.setdefault(id(args[0]), []).append(time.perf_counter())

    def note_flush(args) -> None:
        now = time.perf_counter()
        for start in waiting.pop(id(args[0]), []):
            tracer.samples.append(("batcher.wait", now - start))

    # Span first, hook outside it: the hook must see the coroutine
    # function's call, not replace it with a plain function.
    tracer.wrap(batcher.QueryBatcher, "submit", "batcher.submit")
    tracer.hook(batcher.QueryBatcher, "submit", note_submit)
    tracer.hook(batcher.QueryBatcher, "flush", note_flush)
    tracer.wrap(
        batcher,
        "execute_batch",
        "batcher.flush",
        lambda args, kwargs, result: {"requests": len(args[1]), "calls": result[2]},
    )

    # Store: queries, view builds against cache hits, ingest.  A view
    # is built when its kind is missing from the group's cache as the
    # call starts; views of the router's fused stores are primed, never
    # built, and are left out.
    fused: set = set()
    was_cached = [False]

    def note_sketch(args) -> None:
        owner, group = args[0], args[1]
        kind = args[2] if len(args) > 2 else "bottomk"
        was_cached[0] = kind in owner.group_state(group)._cache

    def sketch_info(args, kwargs, result):
        if id(args[0]) in fused:
            return {"fused": True}
        return {"built": not was_cached[0]}

    tracer.wrap(
        store.SketchStore,
        "query",
        "store.query",
        lambda args, kwargs, result: {"fused": id(args[0]) in fused},
    )
    tracer.wrap(store.SketchStore, "distinct_batch", "store.distinct_batch")
    tracer.wrap(store.SketchStore, "sketch", "store.sketch", sketch_info)
    tracer.hook(store.SketchStore, "sketch", note_sketch)
    tracer.wrap(
        store.SketchStore,
        "ingest",
        "store.ingest",
        lambda args, kwargs, result: {"events": result},
    )
    tracer.wrap(persistence.EventLog, "append_batch", "persistence.append")

    # Router: shard requests, shipped view size, fuse, split.
    def fuse_info(args, kwargs, result):
        fused.add(id(result))
        return {}

    def client_info(args, kwargs, result):
        op = args[1]
        info: Dict[str, Any] = {"op": op}
        if op == "shard_view":
            info["unchanged"] = bool(result.get("unchanged"))
        return info

    tracer.wrap(server.ServingClient, "request", "router.shard_request", client_info)
    tracer.wrap(
        server,
        "sketch_view_payload",
        "store.view_payload",
        lambda args, kwargs, result: {"bytes": len(json.dumps(result, sort_keys=True))},
    )
    tracer.wrap(router, "merge_sketch_views", "router.fuse", fuse_info)
    tracer.wrap(router, "shard_events", "router.split")

    # Replication: record, follower apply, quorum wait.
    tracer.wrap(replication.ReplicationHub, "record_events", "replication.record")
    tracer.wrap(replication, "apply_entry", "replication.apply")
    tracer.wrap(replication.AckTracker, "wait_for", "replication.ack_wait")
    install_engine(tracer)


def install_experiments(tracer: Tracer, spool: str) -> None:
    """Experiment shards plus the engine.

    Shards run in this process with one job.  With more, pool workers
    are forked from this process, so they inherit the wrappers; either
    way each shard's spans are appended to ``spool``-``<pid>`` when the
    shard ends, because a worker's memory dies with it.
    """
    from repro.api import experiments

    install_engine(tracer)
    tasks = {
        experiments.resolve_spec(key).task: key
        for key in experiments.canonical_keys()
    }
    run_job = experiments._run_job

    @functools.wraps(run_job)
    def traced_job(job):
        if os.getpid() != tracer.pid:
            # First shard in a fresh worker: drop the parent's spans.
            tracer.pid = os.getpid()
            tracer.spans.clear()
        span_id, parent, request_id, token = tracer._enter()
        start = time.perf_counter()
        try:
            result = run_job(job)
        finally:
            end = time.perf_counter()
            tracer._current.reset(token)
        tracer.spans.append(
            (span_id, parent, request_id, "experiments.shard", start, end,
             {"experiment": tasks.get(job.task, job.task)})
        )
        tracer.dump(f"{spool}-{os.getpid()}")
        return result

    tracer.replace(experiments, "_run_job", traced_job)
