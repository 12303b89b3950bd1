"""The append-only event feed a :class:`~repro.serving.store.SketchStore` ingests.

An event is the serving layer's unit of input: item ``key`` gained
``weight`` at ``timestamp`` within ``group`` (one group per sketch, e.g.
one per user or per metric).  Feeds are JSON-lines files — one event per
line — which keeps them appendable, greppable, and streamable.

Inside the serving layer a batch of events travels as one
:class:`EventBatch`: four parallel columns (``keys``, ``weights``,
``timestamps``, ``groups``) that encode as one small JSON object.  The
ingest frame, the router's per-shard sub-batches, the write-ahead-log
line and the replication segment all carry that same object, so a batch
is decoded once at the edge and never re-encoded event by event.

:func:`shard_events` routes events to shards *by key*, not round-robin.
That choice is what makes distributed ingestion bit-reproducible: all of
a key's weight accumulates on a single shard in arrival order, so the
shard-then-merge ledger holds exactly the floats a single-pass ingest
would hold (float addition is not associative, so splitting one key's
events across shards would only agree up to rounding).  The mergeability
property suite relies on this.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Union,
)

import numpy as np

from ..core.seeds import hash_to_unit

__all__ = [
    "Event",
    "EventBatch",
    "read_events",
    "shard_events",
    "synthetic_feed",
    "write_events",
]

#: Salt mixed into the key hash used for shard routing, kept distinct
#: from the sampling salt so routing never correlates with inclusion.
ROUTING_SALT = "serving-shard-router"


@dataclass(frozen=True)
class Event:
    """One feed record: ``key`` gained ``weight`` at ``timestamp`` in ``group``."""

    key: str
    weight: float
    timestamp: float
    group: str = "default"

    def to_dict(self) -> Dict[str, Any]:
        """The event's JSON-line payload."""
        return {
            "key": self.key,
            "weight": self.weight,
            "timestamp": self.timestamp,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            key=str(payload["key"]),
            weight=float(payload["weight"]),
            timestamp=float(payload["timestamp"]),
            group=str(payload.get("group", "default")),
        )


def _column(
    columns: Mapping[str, Any], name: str, cast: Callable[[Any], Any]
) -> List[Any]:
    values = columns[name]
    if not isinstance(values, list):
        raise ValueError(f"column {name!r} must be a list")
    return [cast(value) for value in values]


@dataclass
class EventBatch:
    """A batch of events as parallel columns: row ``i`` is one event.

    The serving layer's one encoding of an ingest batch.
    :meth:`to_columns` is its JSON form — ``{"keys": [...], "weights":
    [...], "timestamps": [...], "groups": [...]}`` — and
    :meth:`from_columns` reads it back with the same conversions as
    :meth:`Event.from_dict`, so a batch survives the round trip ``==``
    (JSON floats round-trip exactly).  Iterating a batch yields its
    :class:`Event` objects in row order.
    """

    keys: List[str]
    weights: List[float]
    timestamps: List[float]
    groups: List[str]

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Event]:
        return map(
            Event, self.keys, self.weights, self.timestamps, self.groups
        )

    def to_columns(self) -> Dict[str, List[Any]]:
        """The batch's JSON payload (the column lists, not copies)."""
        return {
            "keys": self.keys,
            "weights": self.weights,
            "timestamps": self.timestamps,
            "groups": self.groups,
        }

    @classmethod
    def from_columns(cls, columns: Mapping[str, Any]) -> "EventBatch":
        """Rebuild a batch from :meth:`to_columns` output.

        Raises ``ValueError`` when a column is not a list or the
        columns differ in length.
        """
        batch = cls(
            _column(columns, "keys", str),
            _column(columns, "weights", float),
            _column(columns, "timestamps", float),
            _column(columns, "groups", str),
        )
        if not (
            len(batch.keys)
            == len(batch.weights)
            == len(batch.timestamps)
            == len(batch.groups)
        ):
            raise ValueError("event columns differ in length")
        return batch

    @classmethod
    def from_dicts(cls, payloads: Iterable[Mapping[str, Any]]) -> "EventBatch":
        """Columns of per-event :meth:`Event.to_dict` payloads.

        Converts exactly as :meth:`Event.from_dict` does, without
        building the intermediate events.
        """
        batch = cls([], [], [], [])
        for payload in payloads:
            batch.keys.append(str(payload["key"]))
            batch.weights.append(float(payload["weight"]))
            batch.timestamps.append(float(payload["timestamp"]))
            batch.groups.append(str(payload.get("group", "default")))
        return batch

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBatch":
        """Columns of ``events``, in order (a batch is returned as is)."""
        if isinstance(events, EventBatch):
            return events
        batch = cls([], [], [], [])
        for event in events:
            batch.keys.append(event.key)
            batch.weights.append(event.weight)
            batch.timestamps.append(event.timestamp)
            batch.groups.append(event.group)
        return batch

    @classmethod
    def from_frame(cls, payload: Mapping[str, Any]) -> "EventBatch":
        """The batch of an ``ingest`` request: its ``columns`` object, or
        else its per-event ``events`` list (the older frame)."""
        columns = payload.get("columns")
        if columns is not None:
            return cls.from_columns(columns)
        return cls.from_dicts(payload.get("events", []))

    def take(self, rows: Iterable[int]) -> "EventBatch":
        """The sub-batch of ``rows``, in the order given."""
        rows = list(rows)
        return EventBatch(
            [self.keys[row] for row in rows],
            [self.weights[row] for row in rows],
            [self.timestamps[row] for row in rows],
            [self.groups[row] for row in rows],
        )


def write_events(path: Union[str, os.PathLike], events: Iterable[Event]) -> Path:
    """Write a feed file: one JSON event per line.

    Parameters
    ----------
    path:
        Destination ``.jsonl`` file (parent directories are created).
    events:
        The events, written in iteration order.

    Returns
    -------
    Path
        The written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return path


def read_events(path: Union[str, os.PathLike]) -> Iterator[Event]:
    """Iterate a feed file's events in order.

    Blank lines are skipped; a malformed line raises :class:`ValueError`
    (feed files are complete documents — torn-write tolerance belongs to
    the write-ahead log in :mod:`repro.serving.persistence`).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed feed line: {exc}"
                ) from None
            yield Event.from_dict(payload)


def _shard_of(group: str, key: str, num_shards: int, salt: str) -> int:
    route = hash_to_unit(f"{group}\x00{key}", salt)
    return min(num_shards - 1, int(route * num_shards))


def shard_events(
    events: Union[EventBatch, Iterable[Event]],
    num_shards: int,
    salt: str = ROUTING_SALT,
) -> Union[List[EventBatch], List[List[Event]]]:
    """Split a feed into key-routed shards.

    Every event of a given ``(group, key)`` pair lands on the same shard
    (a deterministic hash route), and within a shard events keep their
    arrival order.  Ingesting the shards into separate stores and merging
    them therefore reproduces the single-pass ledger bit for bit — the
    guarantee ``tests/serving/test_merge_properties.py`` enforces.

    Parameters
    ----------
    events:
        The feed, in arrival order: an :class:`EventBatch` (split by
        column into sub-batches) or an iterable of events.
    num_shards:
        Number of shards (positive).
    salt:
        Routing-hash salt; change it to re-balance without touching the
        sampling seeds.

    Returns
    -------
    list of EventBatch, or list of list of Event
        ``num_shards`` sub-feeds of the input's kind, order-preserving
        within each.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if isinstance(events, EventBatch):
        rows: List[List[int]] = [[] for _ in range(num_shards)]
        for row, (group, key) in enumerate(zip(events.groups, events.keys)):
            rows[_shard_of(group, key, num_shards, salt)].append(row)
        return [events.take(shard) for shard in rows]
    shards: List[List[Event]] = [[] for _ in range(num_shards)]
    for event in events:
        shards[_shard_of(event.group, event.key, num_shards, salt)].append(
            event
        )
    return shards


def synthetic_feed(
    num_events: int,
    num_keys: int = 100,
    groups: Sequence[str] = ("default",),
    seed: int = 0,
    start: float = 0.0,
    step: float = 1.0,
) -> List[Event]:
    """A deterministic synthetic feed for tests, demos, and benchmarks.

    Keys are drawn Zipf-like (a few heavy hitters, a long tail of rare
    keys), weights are log-normal, timestamps increase by ``step`` per
    event, and groups rotate pseudo-randomly — a caricature of the
    per-user activity feeds the paper's deployments summarise.  The same
    arguments always produce the same feed.

    Parameters
    ----------
    num_events:
        Feed length.
    num_keys:
        Size of the key universe (``k000``...).
    groups:
        Group names to rotate through.
    seed:
        Generator seed; the feed is a pure function of all arguments.
    start, step:
        Timestamp of the first event and the increment per event.

    Returns
    -------
    list of Event
        The feed, in timestamp order.
    """
    if num_events < 0:
        raise ValueError("num_events must be nonnegative")
    if num_keys <= 0:
        raise ValueError("num_keys must be positive")
    if not groups:
        raise ValueError("at least one group is required")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_keys + 1, dtype=float)
    probabilities = (1.0 / ranks) / np.sum(1.0 / ranks)
    key_ids = rng.choice(num_keys, size=num_events, p=probabilities)
    weights = rng.lognormal(mean=0.0, sigma=0.75, size=num_events)
    group_ids = rng.integers(0, len(groups), size=num_events)
    width = len(str(max(num_keys - 1, 1)))
    return [
        Event(
            key=f"k{int(key_ids[i]):0{width}d}",
            weight=float(weights[i]),
            timestamp=start + step * i,
            group=groups[int(group_ids[i])],
        )
        for i in range(num_events)
    ]
