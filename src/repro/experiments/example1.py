"""Experiment E1 — Example 1 of the paper: the dataset-and-queries table.

Example 1 introduces a 3-instance, 8-item dataset and evaluates a handful
of queries over selected item subsets (``L_1``, ``L_2^2``, ``L_2``,
``L_1+`` and the custom aggregate ``G``).  This experiment reproduces the
exact query values with the library's query engine and reports them next
to the numbers printed in the paper.

Two of the paper's hand-computed values (``L_1({b,c,e})`` and
``L_1+({b,c,e})``, and the value of ``G({b,d})``) contain small arithmetic
slips; the comparison table keeps both numbers so the discrepancy is
visible rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..aggregates.dataset import MultiInstanceDataset, example1_dataset
from ..api.session import EstimationSession
from ..core.functions import AbsoluteCombination

__all__ = ["QueryRow", "run", "compute"]


@dataclass(frozen=True)
class QueryRow:
    """One query of Example 1: our exact value vs. the paper's."""

    query: str
    selection: Tuple[str, ...]
    computed: float
    paper_value: float

    @property
    def matches_paper(self) -> bool:
        return abs(self.computed - self.paper_value) <= 5e-3


def run(dataset: MultiInstanceDataset = None) -> List[QueryRow]:
    """Evaluate every query of Example 1 exactly, through the facade."""
    data = dataset if dataset is not None else example1_dataset()
    session = EstimationSession()
    g_target = AbsoluteCombination([1.0, -2.0, 1.0], p=2.0)

    def query(name: str, **kwargs) -> float:
        return session.query(name, data, **kwargs).value

    rows = [
        QueryRow(
            query="L1",
            selection=("b", "c", "e"),
            computed=query("lpp", p=1.0, instances=(0, 1),
                           selection=["b", "c", "e"]),
            paper_value=0.71,
        ),
        QueryRow(
            query="L2^2",
            selection=("c", "f", "h"),
            computed=query("lpp", p=2.0, instances=(0, 1),
                           selection=["c", "f", "h"]),
            paper_value=0.16,
        ),
        QueryRow(
            query="L2",
            selection=("c", "f", "h"),
            computed=query("lp", p=2.0, instances=(0, 1),
                           selection=["c", "f", "h"]),
            paper_value=0.40,
        ),
        QueryRow(
            query="L1+",
            selection=("b", "c", "e"),
            computed=query("lpp_plus", p=1.0, instances=(0, 1),
                           selection=["b", "c", "e"]),
            paper_value=0.235,
        ),
        QueryRow(
            query="G",
            selection=("b", "d"),
            computed=query("custom", target=g_target, instances=(0, 1, 2),
                           selection=["b", "d"]),
            paper_value=1.18,
        ),
    ]
    return rows


def compute(params=None):
    """Spec task: the Example 1 query table as structured records."""
    rows = run()
    records = [
        {
            "query": row.query,
            "items": "{" + ",".join(row.selection) + "}",
            "computed": row.computed,
            "paper": row.paper_value,
            "agrees": row.matches_paper,
        }
        for row in rows
    ]
    notes = [
        f"{row.query}: paper arithmetic slip (computed {row.computed:g} vs "
        f"printed {row.paper_value:g})"
        for row in rows
        if not row.matches_paper
    ]
    return records, {"notes": notes}
