"""Measured per-unit cost model behind the experiment scheduler.

The scheduler's original heuristic sized and ordered shards by raw *unit
counts* — one Monte-Carlo replication of E9 weighed the same as one
sweep point of E7 even though their wall-clock costs differ by orders of
magnitude, so ``--jobs N`` balanced unit counts, not seconds.

:class:`CostModel` replaces the guess with a measurement.  Every shard
the runner executes is timed; the first completed run of a given
``(experiment key, spec digest)`` records its measured
*seconds per unit* — weights are measured once and keyed by the same
content digest the record store uses, so a parameter or code change that
would invalidate stored records also retires its cost weight.  Later batches
use the stored weight to

* size shards by a target *duration* instead of a fixed per-job split
  (cheap experiments collapse to one shard, expensive ones split finely
  enough for the pool to balance), and
* order the global queue by predicted seconds, so the most expensive
  work starts first.

The model influences only the shard layout and the queue order.  Records
are a pure function of the unit index (see the determinism contract in
:mod:`repro.api.experiments`), so runs are bit-identical with the model
on, off, stale, or wrong — the scheduler tests assert exactly that.

Persistence is a single JSON file (default name ``costmodel.json``, in
the records directory for ``cost_model=True``; the ``REPRO_COST_MODEL``
environment variable or ``run_all --cost-model`` names it explicitly).
A missing or corrupt file simply means an empty model: the next batch
re-measures.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = ["ENV_COST_MODEL", "CostEntry", "CostModel"]

#: Environment variable naming the persisted cost-model file.
ENV_COST_MODEL = "REPRO_COST_MODEL"

#: Bump to discard every stored weight on a schema change.
MODEL_VERSION = 1

#: Default file name when the runner derives the path from its records
#: directory.
DEFAULT_FILENAME = "costmodel.json"


@dataclass(frozen=True)
class CostEntry:
    """One measured weight: seconds per unit of one spec digest."""

    key: str
    digest: str
    seconds_per_unit: float
    units: int

    def to_dict(self) -> Dict[str, object]:
        """The entry as a plain JSON-able mapping."""
        return {
            "key": self.key,
            "digest": self.digest,
            "seconds_per_unit": self.seconds_per_unit,
            "units": self.units,
        }


class CostModel:
    """Per-``(key, digest)`` seconds-per-unit weights, JSON-persisted.

    Parameters
    ----------
    path:
        File to load from and save to; ``None`` keeps the model
        in-memory only (weights measured in this process still inform
        later batches of the same runner).
    """

    def __init__(self, path: Union[None, str, os.PathLike] = None) -> None:
        self._path = None if path is None else Path(path)
        self._entries: Dict[str, CostEntry] = {}
        self._dirty = False
        if self._path is not None and self._path.exists():
            self._load()

    @property
    def path(self) -> Optional[Path]:
        """The backing file, or ``None`` for an in-memory model."""
        return self._path

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def seconds_per_unit(self, key: str, digest: str) -> Optional[float]:
        """The measured weight for ``(key, digest)``, with a same-key
        fallback.

        An exact digest match is authoritative.  When the digest is new
        (changed parameters or code) but the experiment key has *any*
        stored weight, the entry measured over the most units (digest as
        the tie-break) is returned as an estimate — a deterministic rule
        that survives the save/load round-trip, unlike insertion order.
        Scale changes rarely alter the per-unit cost by more than the
        gap between experiments, and a stale estimate only shifts the
        heuristic shard layout, never the records.  Returns ``None`` for
        a fully unknown experiment.
        """
        exact = self._entries.get(f"{key}@{digest}")
        if exact is not None:
            return exact.seconds_per_unit
        candidates = [e for e in self._entries.values() if e.key == key]
        if not candidates:
            return None
        best = max(candidates, key=lambda e: (e.units, e.digest))
        return best.seconds_per_unit

    def has_measurement(self, key: str, digest: str) -> bool:
        """Whether ``(key, digest)`` already has an exact stored weight."""
        return f"{key}@{digest}" in self._entries

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def observe(
        self, key: str, digest: str, units: int, seconds: float
    ) -> bool:
        """Record a measured run: ``units`` executed in ``seconds``.

        Weights are measured *once* per digest: an existing exact entry
        is kept (re-runs of a stored digest are typically partial or
        contended, so the first complete measurement is the cleanest).
        Returns whether the observation was stored.
        """
        if units <= 0 or seconds <= 0.0 or self.has_measurement(key, digest):
            return False
        self._entries[f"{key}@{digest}"] = CostEntry(
            key=key,
            digest=digest,
            seconds_per_unit=seconds / units,
            units=int(units),
        )
        self._dirty = True
        return True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> Optional[Path]:
        """Write the model atomically (no-op when pathless or unchanged).

        Returns
        -------
        Path or None
            The file written, or ``None`` when nothing was written.
        """
        if self._path is None or not self._dirty:
            return None
        self._path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": MODEL_VERSION,
            "entries": [
                self._entries[k].to_dict() for k in sorted(self._entries)
            ],
        }
        tmp = self._path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(self._path)
        self._dirty = False
        return self._path

    def _load(self) -> None:
        """Load entries from the backing file; corrupt files load empty."""
        try:
            payload = json.loads(self._path.read_text())
        except (OSError, ValueError):
            return
        if payload.get("version") != MODEL_VERSION:
            return
        for raw in payload.get("entries", ()):
            try:
                entry = CostEntry(
                    key=str(raw["key"]),
                    digest=str(raw["digest"]),
                    seconds_per_unit=float(raw["seconds_per_unit"]),
                    units=int(raw["units"]),
                )
            except (KeyError, TypeError, ValueError):
                continue
            if entry.seconds_per_unit > 0:
                self._entries[f"{entry.key}@{entry.digest}"] = entry
