"""Correctness checks for the benchmark's command outputs.

Checks accept the intended changes listed in the roadmap (a maximizer that
finds a higher value, a cleaner CLI) and reject a wrong number.  Each check
returns an empty string when the output passes, or a one-line reason.
"""
from __future__ import annotations

import hashlib
import json
import math

TOL = 1e-8   # the series' default tolerance; every checked value is O(1)
B2_BOUND = 2.0 * math.sqrt(2.0)
B3_BOUND = 4.0
BOUND_SLACK = 1e-9

# figure id -> (number of leading parameter columns, "evaluated" | "maximized")
FIGURE_KINDS = {
    "B3DPVLBGen": (2, "evaluated"),
    "B3DPT": (2, "evaluated"),
    "B3DPN": (1, "maximized"),
    "B3PS": (1, "maximized"),
    "B2DPTWBA": (2, "evaluated"),
    "B2PS": (1, "evaluated"),
    "E2H": (1, "evaluated"),
}
FIGURE_IDS = tuple(FIGURE_KINDS)


def short_hash(text: str) -> str:
    """First 16 hex digits of the sha256 of a table, as the roadmap lists them."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compare_value(value: float, ref: float, one_sided: bool, bound: float) -> str:
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    if not 0.0 <= value <= bound:
        return f"value {value!r} outside [0, {bound!r}]"
    if one_sided:
        if value < ref - TOL:
            return f"maximum {value!r} below reference {ref!r}"
    elif abs(value - ref) > TOL:
        return f"value {value!r} differs from reference {ref!r}"
    return ""


def check_figure(figure_id: str, text: str, ref_text: str) -> str:
    """Cell-by-cell comparison of a figure table with the stored one."""
    n_params, kind = FIGURE_KINDS[figure_id]
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    if len(lines) != len(ref_lines):
        return f"{len(lines)} lines, reference has {len(ref_lines)}"
    header = 1 + sum(1 for line in ref_lines if line.startswith("#"))   # meta + column names
    if lines[:header] != ref_lines[:header]:
        return f"header {lines[:header]} != {ref_lines[:header]}"
    for lineno, (line, ref) in enumerate(zip(lines[header:], ref_lines[header:]), header + 1):
        cells, ref_cells = line.split(","), ref.split(",")
        if len(cells) != len(ref_cells) or cells[:n_params] != ref_cells[:n_params]:
            return f"line {lineno}: parameters {cells[:n_params]} != {ref_cells[:n_params]}"
        for cell, ref_cell in zip(cells[n_params:], ref_cells[n_params:]):
            try:
                value = float(cell)
            except ValueError:
                return f"line {lineno}: unparsable cell {cell!r}"
            if kind == "maximized":
                why = compare_value(value, float(ref_cell), True, B3_BOUND + BOUND_SLACK)
            else:
                why = "" if abs(value - float(ref_cell)) <= TOL else (
                    f"{value!r} differs from reference {ref_cell}")
            if why:
                return f"line {lineno}: {why}"
    return ""


def point_bound(test: str) -> float:
    if test == "homodyne":
        return 2.0
    return (B3_BOUND if test.endswith("3") else B2_BOUND) + BOUND_SLACK


def check_point(entry: dict, stdout: str) -> str:
    """Check ``point`` output against its pool entry's stored values."""
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}"
    refs = entry["values"]
    if len(records) != len(refs):
        return f"{len(records)} records, reference has {len(refs)}"
    bound = point_bound(entry["test"])
    for rec, ref in zip(records, refs):
        value = rec.get("value")
        if not isinstance(value, (int, float)):
            return f"record without a numeric value: {rec!r}"
        why = compare_value(float(value), ref, entry["one_sided"], bound)
        if why:
            return why
    return ""


def check_verify(stdout: str) -> str:
    lines = stdout.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if failed:
        return failed[0]
    if not lines or "checks passed" not in lines[-1]:
        return "no summary line"
    return ""
