"""repro.serving — a long-lived sketch-serving layer over the library.

Everything below :mod:`repro.api` treats sampling as an offline act: build
a sample, estimate, throw the sample away.  This package makes the
*sketches themselves* the product, the way the paper's motivating
deployments (per-user activity summaries answering sum / similarity /
distinct-count queries) use them:

:mod:`repro.serving.events`
    The append-only event feed — ``(key, weight, timestamp, group)``
    records — with a JSONL wire form, the columnar
    :class:`~repro.serving.events.EventBatch` every ingest batch travels
    as, a deterministic synthetic feed generator, and the key-routed
    sharding helper that makes distributed ingestion bit-reproducible.

:mod:`repro.serving.store`
    :class:`~repro.serving.store.SketchStore`: streaming ingestion into
    per-group weight ledgers, lazily materialised bottom-k / PPS /
    temporal-ADS sketches coordinated via shared hashed seeds, first-class
    :func:`~repro.serving.store.merge_stores`, and a batch query
    front-end (``sum`` / ``similarity`` / ``distinct``) dispatched through
    the engine kernels under the process-wide
    :class:`~repro.api.backend.BackendPolicy`.

:mod:`repro.serving.persistence`
    Durability: a write-ahead event log plus atomic snapshots reusing the
    :class:`~repro.api.records.RecordStore` finalize machinery, so a
    crash at any byte boundary loses at most the unacknowledged tail of
    the log.

:mod:`repro.serving.batcher`
    Request coalescing: a micro-batching
    :class:`~repro.serving.batcher.QueryBatcher` that folds concurrent
    in-flight queries into single engine dispatches with answers
    bit-identical to sequential single-caller queries.

:mod:`repro.serving.server`
    The asyncio front-end: a JSON-lines TCP
    :class:`~repro.serving.server.SketchServer` (pipelined connections,
    coalesced queries, watermark-tagged answers, background retention)
    and its :class:`~repro.serving.server.ServingClient`.

:mod:`repro.serving.ingest`
    Multi-process ingestion: a
    :class:`~repro.serving.ingest.ParallelIngestor` fanning key-routed
    shards across worker processes — bit-identical to single-pass
    ingestion, with a durable resumable mode.

:mod:`repro.serving.retention`
    Bounded retention: deterministic per-group TTL / max-keys ledger
    eviction (:class:`~repro.serving.retention.RetentionPolicy`), made
    durable through the snapshot + log-compaction path.

:mod:`repro.serving.replication`
    Primary/follower replication: a bounded
    :class:`~repro.serving.replication.ReplicationHub` of sealed WAL
    segments shipped over the TCP protocol, snapshot shipping for cold
    followers, a :class:`~repro.serving.replication.ReplicaFollower`
    whose ledger — and every query answer — converges bit-identically
    to the primary's at the same watermark, and the
    :class:`~repro.serving.replication.AckTracker` counting follower
    ``repl_ack`` confirmations for synchronous-ack quorum waits.

:mod:`repro.serving.metrics`
    Observability: a deterministic
    :class:`~repro.serving.metrics.MetricsRegistry` (counters +
    fixed-bucket latency histograms) threaded through the server,
    batcher, ingest, retention, and replication paths, exposed by the
    ``metrics`` op and a stdlib-only Prometheus
    :class:`~repro.serving.metrics.MetricsHTTPShim`.

:mod:`repro.serving.admission`
    Ingest admission control: a bounded pending-events queue with
    explicit shed responses carrying a measured ``retry_after`` hint
    (:class:`~repro.serving.admission.AdmissionController`), so
    overload degrades deterministically instead of growing memory.

:mod:`repro.serving.router`
    Scale-out sharding: a :class:`~repro.serving.router.ShardRouter`
    front-end routing ingest by the same key hash ``shard_events``
    pins and answering ``sum`` / ``distinct`` / ``similarity`` by
    scatter-gathering serialized sketch views and fusing them —
    bit-identical to an unsharded store — with per-shard watermark
    vectors and failover re-targeting across each shard's endpoint
    chain.

:mod:`repro.serving.resilience`
    The one retry/timeout policy behind every serving-layer retry loop:
    :class:`~repro.serving.resilience.RetryPolicy` (capped exponential
    backoff, seeded deterministic jitter, ``retry_after`` hints clamped
    to the cap), :class:`~repro.serving.resilience.BackoffTimer` for
    open-ended reconnect loops, and
    :class:`~repro.serving.resilience.VirtualClock` so those loops run
    in virtual time under test.

:mod:`repro.serving.chaos`
    The deterministic chaos harness: a seeded
    :class:`~repro.serving.chaos.ChaosSchedule` of per-link frame fates
    driven through a fault-injecting
    :class:`~repro.serving.chaos.ChaosProxy`, torn-WAL-tail and
    kill-mid-quorum helpers — the machinery behind the invariant that
    no ``durable: true`` ack is ever lost across failover.

:mod:`repro.serving.promotion`
    Failover promotion: :func:`~repro.serving.promotion.promote_follower`
    and :class:`~repro.serving.promotion.PromotableReplica` rewire a
    replica follower into primary mode at its shipped watermark,
    answerable over the wire (``promote``) so the router — or one JSON
    line from an operator — can fail a shard over.

:mod:`repro.serving.cli`
    ``python -m repro.serving`` — ``synth`` / ``ingest`` / ``query`` /
    ``snapshot`` / ``merge`` / ``info`` subcommands over a store
    directory, plus ``serve`` (the asyncio server; ``--follow`` runs a
    read-only replica — promotable with ``--promotable`` — ``--router``
    runs the shard router, ``--sync-ack N`` holds ingest acks for a
    follower quorum, ``--metrics-port`` mounts the scrape endpoint),
    ``load`` (a load-generating client) and ``evict`` (offline
    retention).
"""

from .admission import AdmissionController
from .batcher import QueryBatcher, QueryRequest
from .chaos import ChaosProxy, ChaosSchedule, crash_server, tear_wal_tail
from .events import (
    Event,
    EventBatch,
    read_events,
    shard_events,
    synthetic_feed,
    write_events,
)
from .ingest import ParallelIngestor
from .metrics import MetricsHTTPShim, MetricsRegistry
from .promotion import PromotableReplica, promote_follower
from .replication import (
    AckTracker,
    ReplicaFollower,
    ReplicationError,
    ReplicationHub,
)
from .resilience import BackoffTimer, RetryPolicy, VirtualClock
from .retention import RetentionPolicy, apply_retention
from .router import ShardRouter, ShardSlot
from .server import (
    ConnectionLost,
    JSONLinesServer,
    Overloaded,
    ProtocolError,
    ServingClient,
    ServingError,
    ShardUnavailable,
    SketchServer,
)
from .store import (
    SERVING_QUERY_KINDS,
    SketchStore,
    StoreConfig,
    merge_sketch_views,
    merge_stores,
    sketch_view_payload,
)

__all__ = [
    "AckTracker",
    "AdmissionController",
    "BackoffTimer",
    "ChaosProxy",
    "ChaosSchedule",
    "ConnectionLost",
    "Event",
    "EventBatch",
    "JSONLinesServer",
    "MetricsHTTPShim",
    "MetricsRegistry",
    "Overloaded",
    "ParallelIngestor",
    "PromotableReplica",
    "ProtocolError",
    "QueryBatcher",
    "QueryRequest",
    "ReplicaFollower",
    "ReplicationError",
    "ReplicationHub",
    "RetentionPolicy",
    "RetryPolicy",
    "ServingClient",
    "ServingError",
    "ShardRouter",
    "ShardSlot",
    "ShardUnavailable",
    "SketchServer",
    "VirtualClock",
    "apply_retention",
    "crash_server",
    "promote_follower",
    "read_events",
    "shard_events",
    "synthetic_feed",
    "tear_wal_tail",
    "write_events",
    "SERVING_QUERY_KINDS",
    "SketchStore",
    "StoreConfig",
    "merge_sketch_views",
    "merge_stores",
    "sketch_view_payload",
]
