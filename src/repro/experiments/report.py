"""The experiment report: :func:`render_result` and its text helpers.

:func:`render_result` is the only renderer of the declarative pipeline:
an :class:`~repro.api.experiments.ExperimentResult` — records plus
metadata, whatever experiment produced it — becomes the text section the
``run_all`` CLI prints, so the experiment tasks themselves format nothing
beyond the ``notes`` lines they attach.  No plotting dependency is
required: "figures" are emitted as the numeric series behind them
(:func:`format_series`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "format_series", "render_result"]


def _fmt(value, precision: int = 6) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 6,
    title: str = "",
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows: List[List[str]] = [[_fmt(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], precision: int = 6
) -> str:
    """Render one (x, y) series — the text form of a figure curve."""
    pairs = ", ".join(
        f"({_fmt(x, precision)}, {_fmt(y, precision)})" for x, y in zip(xs, ys)
    )
    return f"{name}: {pairs}"


def render_result(result, precision: int = 6) -> str:
    """Text section for one :class:`~repro.api.experiments.ExperimentResult`.

    Also accepts a finalized :class:`~repro.api.records.StoredRun` (the
    record-store reader's view), so a run can be rendered straight from
    its on-disk stream.

    Layout: a title line (``E9 — <title>``), the record table, any
    ``notes`` lines the experiment attached to its metadata, and one
    provenance line (scale, backend, jobs, wall-clock, record-store
    state).
    """
    if hasattr(result, "to_experiment_result"):
        result = result.to_experiment_result()
    lines: List[str] = [f"{result.key} — {result.title}"]
    records = list(result.records)
    if records:
        headers = list(records[0].keys())
        rows = [[record.get(h) for h in headers] for record in records]
        lines.append(format_table(headers, rows, precision=precision))
    notes = result.metadata.get("notes") or ()
    if notes:
        lines.append("")
        lines.extend(str(note) for note in notes)
    lines.append("")
    lines.append(_provenance_line(result))
    return "\n".join(lines)


def _provenance_line(result) -> str:
    metadata = result.metadata
    bits = [f"scale={result.scale}"]
    if metadata.get("backend"):
        bits.append(f"backend={metadata['backend']}")
    if metadata.get("replications"):
        bits.append(f"replications={metadata['replications']}")
    if metadata.get("jobs"):
        bits.append(f"jobs={metadata['jobs']}")
    if metadata.get("elapsed_s") is not None:
        bits.append(f"elapsed={metadata['elapsed_s']:.3g}s")
    records = metadata.get("records")
    if records:
        if records.get("hit"):
            bits.append("records=replayed")
        elif records.get("resumed_shards"):
            bits.append(
                f"records=streamed(resumed {len(records['resumed_shards'])})"
            )
        else:
            bits.append("records=streamed")
    return "[" + " ".join(bits) + "]"
