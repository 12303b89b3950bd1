"""Experiment E2 — Example 2: coordinated PPS sampling of the Example 1 data.

Example 2 fixes the per-item seeds and lists, for each item, which entries
end up in the coordinated PPS samples (threshold ``tau* = 1`` for every
instance, so an entry is sampled exactly when its weight is at least the
item's seed).  This experiment replays the sampling with the paper's seeds
and checks the resulting outcome patterns against the ones printed in the
paper, including the consistency sets quoted for items ``a`` and ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..aggregates.coordinated import CoordinatedSample
from ..aggregates.dataset import example1_dataset
from ..api.session import EstimationSession

__all__ = [
    "PAPER_SEEDS", "PAPER_PATTERNS", "OutcomeRow", "run", "compute",
]

#: The per-item seeds fixed in Example 2 of the paper.
PAPER_SEEDS: Dict[str, float] = {
    "a": 0.32,
    "b": 0.21,
    "c": 0.04,
    "d": 0.23,
    "e": 0.84,
    "f": 0.70,
    "g": 0.15,
    "h": 0.64,
}

#: The sampled-entry patterns the paper reports (value or None per instance).
PAPER_PATTERNS: Dict[str, Tuple[Optional[float], ...]] = {
    "a": (0.95, None, None),
    "b": (None, 0.44, None),
    "c": (0.23, None, None),
    "d": (0.70, 0.80, None),
    "e": (None, None, None),
    "f": (None, None, None),
    "g": (None, 0.20, None),
    "h": (None, None, None),
}


@dataclass(frozen=True)
class OutcomeRow:
    """The sampled pattern of one item, ours vs. the paper's."""

    item: str
    seed: float
    computed: Tuple[Optional[float], ...]
    paper: Tuple[Optional[float], ...]

    @property
    def matches_paper(self) -> bool:
        return self.computed == self.paper


def run() -> Tuple[List[OutcomeRow], CoordinatedSample]:
    """Replay Example 2's coordinated PPS sampling with the fixed seeds."""
    dataset = example1_dataset()
    session = EstimationSession([1.0, 1.0, 1.0], scheme="pps")
    sample = session.sample(dataset, seeds=PAPER_SEEDS)
    rows: List[OutcomeRow] = []
    for item in sorted(PAPER_SEEDS):
        tup = dataset.tuple_for(item)
        seed = PAPER_SEEDS[item]
        computed = tuple(
            value if value >= seed and value > 0 else None for value in tup
        )
        rows.append(
            OutcomeRow(
                item=item,
                seed=seed,
                computed=computed,
                paper=PAPER_PATTERNS[item],
            )
        )
    return rows, sample


def consistency_bounds(item: str) -> Dict[str, object]:
    """The consistency set ``S*`` of an item, in the paper's notation.

    For item ``a`` the paper states ``S* = {0.95} x [0, 0.32)^2`` and for
    ``h`` the all-unsampled box ``[0, 0.64)^3``; this helper reproduces the
    same description for any item.
    """
    dataset = example1_dataset()
    seed = PAPER_SEEDS[item]
    tup = dataset.tuple_for(item)
    description = []
    for value in tup:
        if value >= seed and value > 0:
            description.append(("known", value))
        else:
            description.append(("below", seed))
    return {"item": item, "seed": seed, "entries": description}


def compute(params=None):
    """Spec task: Example 2 outcome patterns as structured records."""
    rows, sample = run()
    records = [
        {
            "item": row.item,
            "seed": row.seed,
            "computed": _show(row.computed),
            "paper": _show(row.paper),
            "agrees": row.matches_paper,
        }
        for row in rows
    ]
    metadata = {
        "sampled_items": sorted(sample.sampled_items()),
        "storage_size": sample.storage_size(),
    }
    return records, metadata


def _show(pattern: Tuple[Optional[float], ...]) -> str:
    return "(" + ", ".join("*" if v is None else f"{v:g}" for v in pattern) + ")"
