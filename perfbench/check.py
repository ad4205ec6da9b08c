"""Output checks against the seed-commit references in ``reference/``.

An operation is one command run, one CSV data row or one verify check;
each function returns ``(attempted, failed)`` for what it compares.

A CSV field passes when it reads the same as the reference, or when
both parse as floats with ``|value - ref| <= max(REL_TOL * |ref|,
ABS_TOL)``.  The CLI prints 12 significant digits, so a change in the
last printed digit is at most 1e-11 relative and passes; a change of
1e-10 relative or more in any field fails its row.  ``#`` comment lines
are not compared: they carry parameters and notes, not results.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-10
ABS_TOL = 1e-14


def field_matches(value: str, expected: str) -> bool:
    if value == expected:
        return True
    try:
        got, want = float(value), float(expected)
    except ValueError:
        return False
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows, ``#`` comments skipped."""
    header, rows = None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header or [], rows


def compare_csv(path: Path, reference: Path) -> tuple[int, int]:
    """One operation per data row; a row fails if any field is off."""
    want_header, want_rows = read_csv(reference)
    try:
        header, rows = read_csv(path)
    except OSError:
        return len(want_rows), len(want_rows)
    if header != want_header:
        return max(len(rows), len(want_rows)), max(len(rows), len(want_rows))
    failed = abs(len(rows) - len(want_rows))
    for got, want in zip(rows, want_rows):
        if len(got) != len(want) or not all(map(field_matches, got, want)):
            failed += 1
    return max(len(rows), len(want_rows)), failed


def compare_checks(output: str, reference: Path) -> tuple[int, int]:
    """One operation per check named in the reference or printed.

    A check fails unless ``qentropy verify`` printed a PASS line for it;
    a check printed but absent from the reference also fails.
    """
    expected = reference.read_text(encoding="utf-8").split()
    status = {}
    for line in output.splitlines():
        words = line.split()
        if len(words) >= 2 and words[0] in ("PASS", "FAIL"):
            status[words[1]] = words[0]
    names = set(expected) | set(status)
    failed = sum(1 for name in names
                 if name not in expected or status.get(name) != "PASS")
    return len(names), failed
