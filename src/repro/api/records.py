"""Durable, streamed experiment records: the append-only record store.

:class:`~repro.api.experiments.ExperimentResult` objects used to exist
only in memory (and, when caching was on, as opaque JSON blobs).  This
module gives every experiment run a durable, *streamed* on-disk form:

* one file per experiment run — ``<key>-<digest>.jsonl`` — where
  ``digest`` is the same content hash the result cache uses, so a store
  file is invalidated exactly when the cache entry would be;
* shard outputs are **appended as they complete** (the scheduler streams
  them in, it never buffers a whole experiment), each line one JSON
  object, so an interrupted run leaves a readable, resumable prefix;
* the finalize step is **atomic**: the stream is written to a
  ``*.jsonl.partial`` file and renamed to its final name only after the
  reduced result has been appended and flushed, so a ``.jsonl`` file
  always holds a complete run and a ``.jsonl.partial`` file never lies
  about which shards finished.

Line protocol
-------------
A store file is a sequence of JSON objects, one per line, discriminated
by their ``"kind"`` field:

``manifest``
    Always the first line: store version, experiment key/title/scale,
    the run digest, the work-plan kind, the total unit count and the
    shard layout ``[[lo, hi), ...]`` — everything a resumed run needs to
    re-create the exact same shards.
``record``
    One per-unit record (a replication's row, a sweep point's row),
    tagged with its shard index and a shard-local sequence number.
``shard_done``
    Appended after a shard's records are flushed; a shard counts as
    complete on resume *only* when its marker is present with the right
    count, so a line torn by a crash discards at most that one shard.
``final``
    The reduced :class:`~repro.api.experiments.ExperimentResult` payload;
    present exactly in finalized (``.jsonl``) files.

Readers tolerate truncation: parsing stops at the first malformed line,
which simply marks the remaining shards as not-yet-complete.

Readers and writers
-------------------
:class:`RecordStore` is the directory-level API (open a writer, load a
run, resolve paths); :class:`RecordWriter` is the append-only writer the
scheduler drives; :class:`StoredRun` is the parsed read view whose
:meth:`StoredRun.to_experiment_result` feeds
:func:`repro.experiments.report.render_result` and the cache replay
path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

__all__ = [
    "STORE_VERSION",
    "ENV_RECORDS_DIR",
    "RecordStore",
    "RecordWriter",
    "StoredRun",
    "read_run",
]

#: Format version stamped into every manifest; bump on layout changes.
STORE_VERSION = 1

#: Environment variable supplying a default record-store directory.
ENV_RECORDS_DIR = "REPRO_EXPERIMENT_RECORDS"


class StoredRun:
    """Parsed read view of one run file (finalized or partial).

    Parameters
    ----------
    path:
        The file the run was parsed from.
    manifest:
        The manifest line's payload (key, digest, scale, plan, shards).
    shard_records:
        Records of every *completed* shard, keyed by shard index, in
        their original append order.
    final:
        The ``final`` line's result payload when present, else ``None``.
    """

    def __init__(
        self,
        path: Path,
        manifest: Mapping[str, Any],
        shard_records: Mapping[int, Sequence[Mapping[str, Any]]],
        final: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._path = Path(path)
        self._manifest = dict(manifest)
        self._shard_records = {
            int(s): [dict(r) for r in records]
            for s, records in shard_records.items()
        }
        self._final = None if final is None else dict(final)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The file this run was parsed from."""
        return self._path

    @property
    def manifest(self) -> Dict[str, Any]:
        """The manifest payload (copy)."""
        return dict(self._manifest)

    @property
    def key(self) -> str:
        """Experiment key the run belongs to."""
        return str(self._manifest.get("key", ""))

    @property
    def digest(self) -> str:
        """Content digest identifying the run (same hash as the cache)."""
        return str(self._manifest.get("digest", ""))

    @property
    def scale(self) -> str:
        """Parameter scale the run executed at."""
        return str(self._manifest.get("scale", ""))

    @property
    def shards(self) -> List[List[int]]:
        """The shard layout ``[[lo, hi], ...]`` recorded in the manifest."""
        return [list(map(int, b)) for b in self._manifest.get("shards", [])]

    @property
    def is_complete(self) -> bool:
        """Whether the run was finalized (a ``final`` line is present)."""
        return self._final is not None

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def completed_shards(self) -> Dict[int, List[Dict[str, Any]]]:
        """Completed shards' raw records, keyed by shard index (copy)."""
        return {
            s: [dict(r) for r in records]
            for s, records in self._shard_records.items()
        }

    def raw_records(self) -> List[Dict[str, Any]]:
        """The per-unit record stream of every completed shard.

        Returns
        -------
        list of dict
            Records ordered by the manifest's shard layout (ascending
            ``lo``) and, within a shard, by append order — i.e. global
            unit order for a complete run.
        """
        order = sorted(
            self._shard_records,
            key=lambda s: self._bounds().get(s, (s, s))[0],
        )
        out: List[Dict[str, Any]] = []
        for shard in order:
            out.extend(dict(r) for r in self._shard_records[shard])
        return out

    def to_experiment_result(self):
        """The finalized run as an :class:`~repro.api.experiments.ExperimentResult`.

        Returns
        -------
        ExperimentResult
            Rebuilt from the ``final`` payload — ready for
            :func:`repro.experiments.report.render_result`.

        Raises
        ------
        ValueError
            If the run was never finalized (no ``final`` line).
        """
        if self._final is None:
            raise ValueError(
                f"record store file {self._path} holds an unfinished run; "
                "only finalized (.jsonl) runs carry a result"
            )
        from .experiments import ExperimentResult

        return ExperimentResult.from_dict(self._final)

    def _bounds(self) -> Dict[int, tuple]:
        return {
            i: (int(lo), int(hi))
            for i, (lo, hi) in enumerate(self._manifest.get("shards", []))
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "complete" if self.is_complete else "partial"
        return (
            f"<StoredRun {self.key}-{self.digest} {state} "
            f"shards={sorted(self._shard_records)}>"
        )


def read_run(path: Union[str, os.PathLike]) -> Optional[StoredRun]:
    """Parse one run file, tolerating truncation.

    Parameters
    ----------
    path:
        A ``.jsonl`` or ``.jsonl.partial`` store file.

    Returns
    -------
    StoredRun or None
        The parsed run, or ``None`` when the file is missing, empty, or
        does not start with a valid manifest line.  A malformed line in
        the middle (a torn write) stops parsing there: records already
        sealed by a ``shard_done`` marker survive, the rest are dropped.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError:
        return None
    manifest: Optional[Dict[str, Any]] = None
    pending: Dict[int, List[Dict[str, Any]]] = {}
    completed: Dict[int, List[Dict[str, Any]]] = {}
    final: Optional[Dict[str, Any]] = None
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            break  # torn write: everything after it is unsealed
        if not isinstance(payload, Mapping):
            break
        kind = payload.get("kind")
        if manifest is None:
            if kind != "manifest":
                return None
            manifest = dict(payload)
            continue
        if kind == "record":
            pending.setdefault(int(payload["shard"]), []).append(
                dict(payload["data"])
            )
        elif kind == "shard_done":
            shard = int(payload["shard"])
            records = pending.pop(shard, [])
            if len(records) == int(payload.get("count", -1)):
                completed[shard] = records
        elif kind == "final":
            final = dict(payload["result"])
    if manifest is None:
        return None
    return StoredRun(path, manifest, completed, final)


class RecordWriter:
    """Append-only writer for one experiment run's record stream.

    Created through :meth:`RecordStore.begin`; the scheduler appends each
    shard's records the moment the shard completes and finalizes (or
    abandons) the stream when the experiment finishes (or fails).

    Parameters
    ----------
    partial_path:
        The ``.jsonl.partial`` file to stream into.
    final_path:
        The name the stream atomically takes on :meth:`finalize`.
    manifest:
        Manifest payload (without the ``kind`` discriminator).
    carried_shards:
        Shards carried over from a resumed partial file; rewritten at the
        head of the fresh stream so the file never contains torn lines.
    """

    def __init__(
        self,
        partial_path: Path,
        final_path: Path,
        manifest: Mapping[str, Any],
        carried_shards: Optional[Mapping[int, Sequence[Mapping[str, Any]]]] = None,
    ) -> None:
        self._partial = Path(partial_path)
        self._final = Path(final_path)
        self._manifest = dict(manifest)
        self._carried = {
            int(s): [dict(r) for r in records]
            for s, records in (carried_shards or {}).items()
        }
        self._partial.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self._partial, "w", encoding="utf-8")
        self._closed = False
        self._write({"kind": "manifest", **self._manifest})
        for shard in sorted(self._carried):
            self.append_shard(shard, self._carried[shard])

    @property
    def partial_path(self) -> Path:
        """The in-progress (``.partial``) file being appended to."""
        return self._partial

    @property
    def manifest(self) -> Dict[str, Any]:
        """The effective manifest (the resumed layout wins on resume)."""
        return dict(self._manifest)

    @property
    def carried_records(self) -> Dict[int, List[Dict[str, Any]]]:
        """Shards carried over from a resumed partial file (copy)."""
        return {s: [dict(r) for r in rs] for s, rs in self._carried.items()}

    @property
    def final_path(self) -> Path:
        """The name the file takes after :meth:`finalize`."""
        return self._final

    def _write(self, payload: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def append_shard(
        self, shard: int, records: Sequence[Mapping[str, Any]]
    ) -> None:
        """Append one completed shard's records, sealed by a done marker.

        Parameters
        ----------
        shard:
            The shard's index in the manifest layout.
        records:
            Its per-unit records, in unit order.

        Raises
        ------
        ValueError
            If the writer was already finalized or abandoned.
        """
        if self._closed:
            raise ValueError("record writer is closed")
        for seq, record in enumerate(records):
            self._write(
                {"kind": "record", "shard": int(shard), "seq": seq,
                 "data": dict(record)}
            )
        self._write(
            {"kind": "shard_done", "shard": int(shard), "count": len(records)}
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def finalize(self, result_payload: Mapping[str, Any]) -> Path:
        """Seal the stream with the reduced result and rename atomically.

        Parameters
        ----------
        result_payload:
            ``ExperimentResult.to_dict()`` of the finished experiment.

        Returns
        -------
        Path
            The finalized ``.jsonl`` path.

        Raises
        ------
        ValueError
            If the writer was already finalized or abandoned.
        """
        if self._closed:
            raise ValueError("record writer is closed")
        self._write({"kind": "final", "result": dict(result_payload)})
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True
        os.replace(self._partial, self._final)
        return self._final

    def abandon(self) -> None:
        """Close the stream leaving the ``.partial`` file for a resume."""
        if not self._closed:
            self._handle.flush()
            self._handle.close()
            self._closed = True


class RecordStore:
    """Directory of streamed experiment-run record files.

    Parameters
    ----------
    root:
        Directory holding the run files (created on first write).
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def final_path(self, key: str, digest: str) -> Path:
        """The finalized run file for ``(key, digest)``."""
        return self._root / f"{key}-{digest}.jsonl"

    def partial_path(self, key: str, digest: str) -> Path:
        """The in-progress run file for ``(key, digest)``."""
        return self._root / f"{key}-{digest}.jsonl.partial"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def finalized_digests(self, key: str) -> List[str]:
        """Digests of every finalized run filed under ``key``, sorted.

        Only ``.jsonl`` files count — a ``.jsonl.partial`` stream is an
        interrupted run, not a usable one.  The sketch-serving layer uses
        this to find the newest snapshot (its digests are zero-padded
        watermarks, so lexical order is recency order).

        Returns
        -------
        list of str
            The digests, lexically sorted; empty when none exist.
        """
        prefix = f"{key}-"
        suffix = ".jsonl"
        out = []
        if self._root.is_dir():
            for path in self._root.iterdir():
                name = path.name
                if name.startswith(prefix) and name.endswith(suffix):
                    out.append(name[len(prefix):-len(suffix)])
        return sorted(out)

    def load(self, key: str, digest: str) -> Optional[StoredRun]:
        """Load a run, preferring the finalized file over a partial one.

        Returns
        -------
        StoredRun or None
            ``None`` when neither file exists (or neither parses) or the
            stored digest does not match ``digest``.
        """
        for path in (self.final_path(key, digest), self.partial_path(key, digest)):
            run = read_run(path)
            if run is not None and run.digest == digest:
                return run
        return None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def begin(
        self,
        key: str,
        digest: str,
        manifest: Mapping[str, Any],
        resume: bool = False,
    ) -> "RecordWriter":
        """Open the streamed writer for one run.

        With ``resume=True`` and a matching ``.partial`` file on disk,
        the prior run's completed shards are carried into the fresh
        stream (rewritten clean, so torn trailing lines disappear) and
        show up in the returned writer via :meth:`carried`.  Otherwise a
        fresh stream containing only the manifest is started.

        Returns
        -------
        RecordWriter
            The open writer; its :attr:`RecordWriter.carried_records`
            maps already-complete shard indices to their records, and its
            :attr:`RecordWriter.manifest` holds the effective layout.
        """
        carried: Dict[int, List[Dict[str, Any]]] = {}
        manifest = dict(manifest)
        if resume:
            prior = read_run(self.partial_path(key, digest))
            if prior is not None and prior.digest == digest:
                carried = prior.completed_shards()
                # The prior shard layout wins: pending shards must re-run
                # at the recorded bounds for records to stay identical.
                manifest["shards"] = prior.manifest.get(
                    "shards", manifest.get("shards", [])
                )
        return RecordWriter(
            self.partial_path(key, digest),
            self.final_path(key, digest),
            manifest,
            carried_shards=carried,
        )

    def finalize(
        self, writer: RecordWriter, result_payload: Mapping[str, Any]
    ) -> Path:
        """Finalize ``writer``.

        Returns
        -------
        Path
            The finalized ``.jsonl`` path.
        """
        return writer.finalize(result_payload)
