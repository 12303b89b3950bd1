"""Seeded workload inputs: the preload feed, the query sequence, ingest batches.

Every input is a pure function of the workload seed, so one seed always
yields the same deployment content and the same request stream.  The
deployment only ever receives these generated inputs over the wire.

All three serving workloads share the preload feed and the query
sequence, so ``direct_read`` and ``routed_read`` differ only by the
router.  The reference answers come from one unsharded in-memory
:class:`~repro.serving.store.SketchStore` built from the same events —
the invariant the serving layer promises for every front-end.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.serving import Event, SketchStore, synthetic_feed

GROUPS = tuple(f"g{i:02d}" for i in range(16))

#: Query kinds, drawn in equal shares as the ``load`` CLI's round robin
#: over ``--kinds sum distinct similarity`` sends them.
QUERY_KINDS = ("sum", "distinct", "similarity")


def _group_popularity() -> np.ndarray:
    """Zipf popularity 1/rank, the law ``synthetic_feed`` draws keys by."""
    weights = 1.0 / np.arange(1, len(GROUPS) + 1, dtype=float)
    return weights / weights.sum()


def preload_feed(seed: int, events: int, keys: int) -> List[Event]:
    """The shared preload: Zipf keys over 16 groups (``synthetic_feed``)."""
    return synthetic_feed(events, num_keys=keys, groups=GROUPS, seed=seed)


def _skewed_subsets(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """``rows`` draws of ``width`` distinct group indices by popularity.

    Gumbel top-k: the same distribution as drawing one group at a time
    without replacement with probabilities proportional to popularity.
    """
    scores = np.log(_group_popularity()) + rng.gumbel(size=(rows, len(GROUPS)))
    return np.argsort(-scores, axis=1)[:, :width]


def query_sequence(seed: int, length: int) -> List[Tuple[str, Tuple[str, ...]]]:
    """``length`` ``(kind, groups)`` queries over skewed group subsets.

    Each kind is equally likely.  ``sum``/``distinct`` select 1–4 groups
    (each size equally likely) and ``similarity`` a pair, drawn without
    replacement by Zipf group popularity and sorted, so popular shapes
    repeat while the distinct shapes still outnumber the router's
    per-shard view cache.
    """
    rng = np.random.default_rng([seed, 1])
    kinds = rng.integers(len(QUERY_KINDS), size=length)
    sizes = rng.integers(1, 5, size=length)
    subsets = _skewed_subsets(rng, length, 4)
    sequence = []
    for kind_index, size, subset in zip(kinds, sizes, subsets):
        kind = QUERY_KINDS[kind_index]
        width = 2 if kind == "similarity" else int(size)
        sequence.append((kind, tuple(GROUPS[i] for i in sorted(subset[:width]))))
    return sequence


def ingest_batches(
    seed: int,
    preload: Sequence[Event],
    count: int,
    size: int,
) -> List[List[Dict[str, Any]]]:
    """``count`` ingest batches of ``size`` events continuing the preload,
    in the wire form of :meth:`Event.to_dict`.

    Each batch touches four groups, ``size // 4`` events each.  Per group
    a fair coin (the repository weights neither path) decides between
    updates to keys the preload already holds (the store's invalidate
    path) and two keys never seen before (its append-only patch path),
    so both ingest paths run in every batch stream while the key
    population grows slowly.
    """
    rng = np.random.default_rng([seed, 2])
    retained: Dict[str, List[str]] = {}
    for group, key in sorted({(event.group, event.key) for event in preload}):
        retained.setdefault(group, []).append(key)
    per_group = size // 4
    picks = _skewed_subsets(rng, count, 4)
    updates = rng.random((count, 4)) < 0.5
    weights = rng.lognormal(0.0, 0.75, size=(count, 4 * per_group)).tolist()
    draws = rng.integers(1 << 30, size=(count, 4, per_group)).tolist()
    clock = float(len(preload))
    fresh = 0
    batches = []
    for row in range(count):
        batch: List[Dict[str, Any]] = []
        for slot, index in enumerate(picks[row]):
            group = GROUPS[index]
            if updates[row, slot]:
                pool = retained[group]
                keys = [pool[draw % len(pool)] for draw in draws[row][slot]]
            else:
                keys = [f"n{fresh + (j % 2):07d}" for j in range(per_group)]
                fresh += 2
            for key in keys:
                batch.append(
                    {"key": key, "weight": weights[row][len(batch)], "timestamp": clock, "group": group}
                )
                clock += 1.0
        batches.append(batch)
    return batches


def wire_form(value: Any) -> Any:
    """A value as it reads after one JSON round trip (tuples -> lists)."""
    return json.loads(json.dumps(value))


class Reference:
    """Answers of one unsharded store over the same events, memoized.

    Answers are cached per ``(kind, groups)`` until the next ingest.
    """

    def __init__(self, events: Iterable[Event]) -> None:
        self.store = SketchStore()
        self.store.ingest(events)
        self._answers: Dict[Tuple[str, Tuple[str, ...]], Any] = {}

    def ingest(self, events: Iterable[Event]) -> None:
        self.store.ingest(events)
        self._answers.clear()

    def answer(self, kind: str, groups: Tuple[str, ...]) -> Any:
        key = (kind, groups)
        if key not in self._answers:
            self._answers[key] = wire_form(self.store.query(kind, groups=list(groups)))
        return self._answers[key]

    def mismatches(
        self, answers: Iterable[Tuple[str, Tuple[str, ...], Any]], limit: int = 5
    ) -> List[str]:
        """Describe up to ``limit`` answers that differ from the reference."""
        found: List[str] = []
        for kind, groups, result in answers:
            expected = self.answer(kind, groups)
            if result != expected:
                found.append(f"{kind}{list(groups)}: got {result!r}, want {expected!r}")
                if len(found) >= limit:
                    break
        return found


def unique_shapes(sequence: Sequence[Tuple[str, Tuple[str, ...]]]) -> List[Tuple[str, Tuple[str, ...]]]:
    """The sequence's distinct ``(kind, groups)`` requests, first-seen order."""
    return list(dict.fromkeys(sequence))

