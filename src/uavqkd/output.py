"""Result emission: fixed-schema rows rendered as table, CSV or JSON.

Row schema for performance results (documented; CSV column order is
fixed):

    axis, axis_value, overlay, overlay_value,
    p_detect, p_s1, p_s2, p_s3, p_eff_one, key_rate_bps, qber, method,
    se_p_detect, se_p_eff_one, se_key_rate_bps, se_qber

``perf_rows`` is the one builder of these rows: from a one-point report
(``eval``, ``mc``, ``optimize``, each Monte Carlo sweep point) or from a
report of (P,) columns (an analytic sweep). ``sweep(...).rows`` are such
rows, so ``emit`` only renders them. Floats are serialized with 17
significant digits so a JSON or CSV round-trip reproduces them bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .analytics import PerformanceReport

__all__ = ["PERF_COLUMNS", "perf_rows", "render", "emit"]

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

# column -> report field, of the values and (in ``report.se``) their standard errors
_VALUES = {"p_detect": "p_detect", "p_s1": "p_s1", "p_s2": "p_s2", "p_s3": "p_s3",
           "p_eff_one": "p_eff_one", "key_rate_bps": "key_rate", "qber": "qber"}
_ERRORS = {"se_p_detect": "p_detect", "se_p_eff_one": "p_eff_one", "se_key_rate_bps": "key_rate", "se_qber": "qber"}


def perf_rows(
    report: PerformanceReport, axis: str = "", axis_values=(None,), overlay: str = "", overlay_values=(None,)
) -> list[dict]:
    """Performance rows of a report under the given axis and overlay: one
    row for a one-point report, P rows for a report of (P,) columns, with
    one axis and one overlay value per row. Values are Python floats."""
    se = report.se or {}
    shared = {"axis": axis, "overlay": overlay, "method": report.method}
    shared.update((c, se.get(f)) for c, f in _ERRORS.items())
    keys = ("axis_value", "overlay_value", *_VALUES)
    columns = [np.atleast_1d(getattr(report, f)).tolist() for f in _VALUES.values()]
    points = zip(axis_values, overlay_values, *columns, strict=True)
    return [{**shared, **dict(zip(keys, point))} for point in points]


def _text(value, none: str, spec: str) -> str:
    """A cell's text: ``none`` for None, a float formatted by ``spec``."""
    if value is None:
        return none
    return format(value, spec) if isinstance(value, float) else str(value)


def render(rows: list[dict], fmt: str, columns: list[str]) -> str:
    """Render rows as 'table', 'csv' or 'json' text with these columns."""
    if not rows:
        return ""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_text(row.get(c), "", ".17g") for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([{c: row.get(c) for c in columns} for row in rows], indent=2) + "\n"
    if fmt == "table":
        cells = [[_text(row.get(c), "-", ".6g") for c in columns] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
        head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        body = ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
        return "\n".join([head] + body) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit(result, fmt: str) -> str:
    """Render a point report or a sweep result in the performance schema."""
    rows = perf_rows(result) if isinstance(result, PerformanceReport) else result.rows
    return render(rows, fmt, PERF_COLUMNS)
