"""Durability for the sketch store: write-ahead log + atomic snapshots.

A directory-backed store lays out its state as::

    <root>/config.json            immutable sketch parameters
    <root>/events.jsonl           write-ahead batch log (torn-tolerant)
    <root>/snapshots/             a RecordStore of ledger snapshots
        sketchstore-<watermark>.jsonl           finalized snapshots
        sketchstore-<watermark>.jsonl.partial   an interrupted snapshot

The design reuses the :class:`~repro.api.records.RecordStore` streamed
JSONL machinery wholesale: a snapshot is one "run" whose key is
``sketchstore`` and whose digest is the zero-padded event **watermark**
(the number of events folded into the ledger when the snapshot was
taken).  Each key-group is one shard — appended with a sealed
``shard_done`` marker — and the atomic ``.partial`` → ``.jsonl`` rename
on finalize means a crash mid-snapshot leaves only a ``.partial`` file,
which recovery ignores.

Recovery (:func:`open_store`) is the classic two-step: load the latest
*finalized* snapshot, then replay write-ahead-log events with sequence
numbers past its watermark.  The log is append-only, one line and one
``fsync`` per ingest batch; its reader stops at the first torn line, so
a torn tail costs at most the one batch never acknowledged to the
writer.  Together these give the invariant the fault-injection suite
asserts: after a crash at any byte boundary, recovery yields a
consistent ledger with no duplicate and no acknowledged-but-lost
events.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Type

from ..api.records import RecordStore
from .events import Event, EventBatch

__all__ = [
    "EventLog",
    "SNAPSHOT_KEY",
    "attach_store",
    "latest_snapshot_digest",
    "load_snapshot",
    "open_store",
    "save_snapshot",
]

#: The record-store "experiment key" every ledger snapshot is filed under.
SNAPSHOT_KEY = "sketchstore"

#: Digits in a snapshot digest (zero-padded watermark, sorts lexically).
DIGEST_WIDTH = 12


class EventLog:
    """Append-only write-ahead log, one line per ingest batch.

    Each line is one JSON object ``{"seq": first, "keys": [...],
    "weights": [...], "timestamps": [...], "groups": [...]}``: the
    batch's :meth:`~repro.serving.events.EventBatch.to_columns` payload
    plus the sequence number of its first event (row ``i`` is event
    ``first + i``).  Logs written before batch lines existed hold one
    event per line, ``{"seq": n, "key": ..., "weight": ...,
    "timestamp": ..., "group": ...}``; the reader accepts both shapes,
    in any mixture.  Each append is flushed and fsynced, so an
    acknowledged batch survives a crash.  The reader stops at the first
    line that is malformed or lacks its newline — a torn tail from a
    crash mid-append — which drops only the torn line's own,
    unacknowledged batch; the first append after opening cuts such a
    tail off, so later batches are not written behind it.
    """

    def __init__(self, path: Path) -> None:
        self._path = Path(path)
        self._handle = None

    @property
    def path(self) -> Path:
        """The log file (created on first append)."""
        return self._path

    def append_batch(self, first_seq: int, batch: EventBatch) -> None:
        """Append ``batch`` as one line starting at ``first_seq``, then
        flush and fsync once.  An empty batch writes nothing."""
        if not len(batch):
            return
        if self._handle is None:
            self._open()
        self._handle.write(_batch_line(first_seq, batch))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _open(self) -> None:
        """Open for appending, first cutting off any torn tail."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        intact = 0
        for intact, _seq, _batch in self._lines():
            pass
        if self._path.exists() and self._path.stat().st_size > intact:
            os.truncate(self._path, intact)
        self._handle = open(self._path, "a", encoding="utf-8")

    def _lines(self) -> Iterator[Tuple[int, int, EventBatch]]:
        """``(end, first_seq, batch)`` per intact line, in order, where
        ``end`` is the byte offset just past the line's newline; stops
        at the first malformed or unterminated line."""
        try:
            data = self._path.read_bytes()
        except OSError:
            return
        start = 0
        while True:
            end = data.find(b"\n", start) + 1
            if not end:
                return
            line, start = data[start:end], end
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                seq = int(payload["seq"])
                if "keys" in payload:
                    batch = EventBatch.from_columns(payload)
                else:
                    batch = EventBatch.from_dicts([payload])
            except (ValueError, KeyError, TypeError):
                return
            yield end, seq, batch

    def batches(self, after_seq: int = 0) -> Iterator[Tuple[int, EventBatch]]:
        """Yield ``(first_seq, batch)`` for the logged events past
        ``after_seq``, one per line.

        A batch that straddles ``after_seq`` yields only its tail; a
        per-event line yields a one-event batch.  Parsing stops silently
        at a torn tail, so everything yielded was durably acknowledged.
        """
        for _end, seq, batch in self._lines():
            skip = after_seq + 1 - seq
            if skip >= len(batch):
                continue
            if skip > 0:
                batch = batch.take(range(skip, len(batch)))
                seq += skip
            yield seq, batch

    def replay(self, after_seq: int = 0) -> Iterator[Tuple[int, Event]]:
        """Yield logged ``(seq, event)`` pairs with ``seq > after_seq``
        (:meth:`batches`, one event at a time)."""
        for first, batch in self.batches(after_seq):
            for offset, event in enumerate(batch):
                yield first + offset, event

    def compact(self, through_seq: int) -> None:
        """Drop logged events with ``seq <= through_seq`` (already
        snapshotted), writing the survivors as batch lines.

        The log is rewritten to a temporary file and atomically renamed,
        so a crash mid-compaction leaves either the old or the new log —
        never a mixture.
        """
        self.close()
        survivors = list(self.batches(after_seq=through_seq))
        temp = self._path.with_suffix(".jsonl.compact")
        with open(temp, "w", encoding="utf-8") as handle:
            for seq, batch in survivors:
                handle.write(_batch_line(seq, batch))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self._path)

    def close(self) -> None:
        """Close the append handle (reopened automatically on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _batch_line(first_seq: int, batch: EventBatch) -> str:
    return json.dumps({"seq": int(first_seq), **batch.to_columns()}) + "\n"


# ----------------------------------------------------------------------
# Snapshots (RecordStore reuse)
# ----------------------------------------------------------------------
def _snapshot_store(root: Path) -> RecordStore:
    return RecordStore(root / "snapshots")


def save_snapshot(store) -> Path:
    """Persist a store's ledger as one atomically finalized snapshot run.

    One shard per key-group (sealed as it is appended), digest = the
    zero-padded event watermark, and a ``final`` line carrying the
    watermark again — written through
    :meth:`~repro.api.records.RecordStore.begin` /
    :meth:`~repro.api.records.RecordWriter.finalize`, so the ``.jsonl``
    file appears atomically or not at all.  After finalizing, the
    write-ahead log is compacted up to the watermark.
    """
    records = _snapshot_store(store.root)
    watermark = store.events_ingested
    digest = f"{watermark:0{DIGEST_WIDTH}d}"
    groups = store.groups
    manifest = {
        "key": SNAPSHOT_KEY,
        "digest": digest,
        "config": store.config.to_dict(),
        "groups": groups,
        "group_events": {
            group: store.group_state(group).events for group in groups
        },
        "watermark": watermark,
        "shards": [[i, i + 1] for i in range(len(groups))],
    }
    writer = records.begin(SNAPSHOT_KEY, digest, manifest)
    try:
        for index, group in enumerate(groups):
            state = store.group_state(group)
            rows = [
                {
                    "group": group,
                    "item": key,
                    "total": state.totals[key],
                    "first_seen": state.first_seen[key],
                    "last_seen": state.last_seen[key],
                }
                for key in sorted(state.totals)
            ]
            writer.append_shard(index, rows)
        path = records.finalize(writer, {"watermark": watermark})
    except BaseException:
        writer.abandon()
        raise
    if store._log is not None:
        store._log.compact(watermark)
    return path


def latest_snapshot_digest(root: Path) -> Optional[str]:
    """The digest of the newest finalized snapshot under ``root``, if any.

    Digests are zero-padded watermarks, so the lexically largest one is
    the most recent; ``.partial`` files (interrupted snapshots) are never
    considered.
    """
    records = _snapshot_store(root)
    digests = records.finalized_digests(SNAPSHOT_KEY)
    return digests[-1] if digests else None


def load_snapshot(
    root: Path, digest: str
) -> Optional[Tuple[Dict[str, Any], int]]:
    """Load one finalized snapshot's ledger payload.

    Returns
    -------
    (groups, watermark) or None
        ``groups`` maps group name to ``{"totals": {...},
        "first_seen": {...}, "last_seen": {...}, "events": n}``;
        ``None`` when the snapshot is missing or unreadable.
    """
    records = _snapshot_store(root)
    run = records.load(SNAPSHOT_KEY, digest)
    if run is None or not run.is_complete:
        return None
    manifest = run.manifest
    group_events = manifest.get("group_events", {})
    groups: Dict[str, Any] = {
        group: {
            "totals": {},
            "first_seen": {},
            "last_seen": {},
            "events": int(group_events.get(group, 0)),
        }
        for group in manifest.get("groups", [])
    }
    for row in run.raw_records():
        bucket = groups.setdefault(
            str(row["group"]),
            {"totals": {}, "first_seen": {}, "last_seen": {}, "events": 0},
        )
        item = str(row["item"])
        bucket["totals"][item] = float(row["total"])
        bucket["first_seen"][item] = float(row["first_seen"])
        # Snapshots predating retention lack last_seen; falling back to
        # first_seen keeps them loadable (recency is then conservative).
        bucket["last_seen"][item] = float(
            row.get("last_seen", row["first_seen"])
        )
    return groups, int(manifest.get("watermark", int(digest)))


# ----------------------------------------------------------------------
# Opening / attaching directory-backed stores
# ----------------------------------------------------------------------
def _write_config(root: Path, config) -> None:
    root.mkdir(parents=True, exist_ok=True)
    temp = root / "config.json.tmp"
    temp.write_text(json.dumps(config.to_dict(), sort_keys=True, indent=2))
    os.replace(temp, root / "config.json")


def open_store(cls: Type, root: Path, config) -> "Any":
    """Open (or create) a directory-backed store and recover its state.

    When ``root/config.json`` exists its config wins (an explicitly
    passed conflicting config raises); otherwise the passed (or default)
    config is written.  Recovery = latest finalized snapshot + replay of
    write-ahead-log events past its watermark.
    """
    from .store import StoreConfig

    config_path = root / "config.json"
    if config_path.exists():
        stored = StoreConfig.from_dict(json.loads(config_path.read_text()))
        if config is not None and config != stored:
            raise ValueError(
                f"store at {root} was created with {stored}, which "
                f"conflicts with the requested {config}"
            )
        config = stored
    else:
        config = config if config is not None else StoreConfig()
        _write_config(root, config)
    store = cls(config)
    store._root = root
    store._log = EventLog(root / "events.jsonl")
    watermark = 0
    digest = latest_snapshot_digest(root)
    if digest is not None:
        loaded = load_snapshot(root, digest)
        if loaded is not None:
            groups, watermark = loaded
            for group, payload in groups.items():
                state = store.group_state(group)
                state.totals.update(payload["totals"])
                state.first_seen.update(payload["first_seen"])
                state.last_seen.update(payload["last_seen"])
                state.events = payload["events"]
                state.invalidate()
            store._events = watermark
    for seq, event in store._log.replay(after_seq=watermark):
        store._apply(event)
        # Sequence numbers are authoritative: a compacted log may start
        # past the watermark, so the counter follows the log, not +1.
        store._events = seq
    return store


def attach_store(store, root: Path) -> None:
    """Attach an in-memory store to a fresh directory and snapshot it.

    The directory must not already contain a store (``config.json``
    present); the in-memory ledger becomes the first snapshot, so the
    new directory recovers to exactly the current state.
    """
    if (root / "config.json").exists():
        raise ValueError(
            f"{root} already holds a sketch store; open it instead"
        )
    _write_config(root, store.config)
    store._root = root
    store._log = EventLog(root / "events.jsonl")
    save_snapshot(store)
