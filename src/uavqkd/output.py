"""Result emission: fixed-schema rows rendered as table, CSV or JSON.

Row schema for performance results (documented; CSV column order is
fixed):

    axis, axis_value, overlay, overlay_value,
    p_detect, p_s1, p_s2, p_s3, p_eff_one, key_rate_bps, qber, method,
    se_p_detect, se_p_eff_one, se_key_rate_bps, se_qber

Floats are serialized with 17 significant digits so a JSON or CSV
round-trip reproduces them bit-exactly.
"""

from __future__ import annotations

import json

from .analytics import PerformanceReport
from .sweep import SweepResult

__all__ = ["PERF_COLUMNS", "perf_row", "render", "emit"]

PERF_COLUMNS = [
    "axis",
    "axis_value",
    "overlay",
    "overlay_value",
    "p_detect",
    "p_s1",
    "p_s2",
    "p_s3",
    "p_eff_one",
    "key_rate_bps",
    "qber",
    "method",
    "se_p_detect",
    "se_p_eff_one",
    "se_key_rate_bps",
    "se_qber",
]


def perf_row(
    report: PerformanceReport, axis: str = "", axis_value=None, overlay: str = "", overlay_value=None
) -> dict:
    """One performance row: the report's fields under the given axis and overlay."""
    se = report.se or {}
    return {
        "axis": axis,
        "axis_value": axis_value,
        "overlay": overlay,
        "overlay_value": overlay_value,
        "p_detect": report.p_detect,
        "p_s1": report.p_s1,
        "p_s2": report.p_s2,
        "p_s3": report.p_s3,
        "p_eff_one": report.p_eff_one,
        "key_rate_bps": report.key_rate,
        "qber": report.qber,
        "method": report.method,
        "se_p_detect": se.get("p_detect"),
        "se_p_eff_one": se.get("p_eff_one"),
        "se_key_rate_bps": se.get("key_rate"),
        "se_qber": se.get("qber"),
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render(rows: list[dict], fmt: str, columns: list[str]) -> str:
    """Render rows as 'table', 'csv' or 'json' text with these columns."""
    if not rows:
        return ""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([{c: row.get(c) for c in columns} for row in rows], indent=2) + "\n"
    if fmt == "table":
        cells = [[_shorten(row.get(c)) for c in columns] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
        head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        body = ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
        return "\n".join([head] + body) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _shorten(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def emit(result: PerformanceReport | SweepResult, fmt: str) -> str:
    """Render a point report or a sweep result in the performance schema."""
    if isinstance(result, PerformanceReport):
        rows = [perf_row(result)]
    else:
        axis, overlay = result.spec.axis, result.spec.overlay or ""
        rows = [perf_row(r.report, axis, r.axis_value, overlay, r.overlay_value) for r in result.rows]
    return render(rows, fmt, PERF_COLUMNS)
