"""Aligned-text tables for experiment output.

The benchmark harness prints its tables through these helpers so that
``pytest benchmarks/ --benchmark-only`` regenerates, in the console, the
rows EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def _fmt(value: object, float_digits: int = 4) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.{float_digits}g}"
    if value is None:
        return "-"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_digits: int = 4,
) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(r.get(c), float_digits) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[k]) for row in cells))
        for k, c in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def print_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_digits: int = 4,
) -> None:
    print(format_table(rows, columns=columns, title=title,
                       float_digits=float_digits))


def csv_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dict rows as CSV text with LF line endings (used for the
    scenario result artifacts under ``results/``).

    Values are written verbatim — no float rounding — so the file is a
    faithful, machine-readable record; missing cells are empty.  LF
    (not the RFC 4180 CRLF) keeps artifacts byte-stable across
    platforms and friendly to text diffs.
    """
    import csv
    import io

    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow(["" if r.get(c) is None else r.get(c) for c in columns])
    return buf.getvalue()


def format_mean_ci(
    mean: Optional[float],
    half_width: Optional[float],
    float_digits: int = 4,
) -> str:
    """Render ``mean ± half-width`` as one cell (``"-"`` parts when
    undefined, e.g. a single replicate has no interval)."""
    if mean is None:
        return "-"
    cell = f"{mean:.{float_digits}g}"
    if half_width is None:
        return cell
    return f"{cell} ± {half_width:.{float_digits}g}"


def format_summary_table(
    rows: Sequence[Mapping[str, object]],
    title: Optional[str] = None,
    float_digits: int = 4,
) -> str:
    """Render replication-summary rows (the schema of
    :data:`repro.stats.SUMMARY_COLUMNS`) as an aligned table with a
    combined ``mean ± hw`` column and explicit CI bounds.

    Used by ``repro scenarios run --replicates`` and ``repro stats
    summarize``; the machine-readable record is the summary artifact,
    this is the human view.
    """
    has_boot = any(r.get("boot_lo") is not None or r.get("boot_hi") is not None
                   for r in rows)
    display = []
    for r in rows:
        out = {
            "policy": r.get("policy"),
            "metric": r.get("metric"),
            "n": r.get("n"),
            "mean": format_mean_ci(r.get("mean"), r.get("half_width"),
                                   float_digits),
            "ci_lo": r.get("ci_lo"),
            "ci_hi": r.get("ci_hi"),
        }
        if has_boot:
            out["boot_lo"] = r.get("boot_lo")
            out["boot_hi"] = r.get("boot_hi")
        display.append(out)
    columns = list(display[0].keys()) if display else None
    return format_table(display, columns=columns, title=title,
                        float_digits=float_digits)
