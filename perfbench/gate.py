"""Correctness gate: output tables against a tight-tolerance reference.

Every row of a gated table is one operation (a map node, a fringe phase,
a robustness spread).  A row fails when a value is not finite, or is more
than ``TOL`` off the reference row or off the same row of the first pass
(``|a - b| > TOL * max(1, |b|)``, an absolute 1e-9 for probabilities).
For the ``check`` command each PASS/FAIL line is one operation and the
exit status must be 0.

Tables are parsed here, not with the package's own reader, so the gate
does not depend on the code it checks.
"""
from __future__ import annotations

import math

TOL = 1e-9


def read_table(path):
    """(column names, rows of floats) of a tab-separated result table."""
    names, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split("\t")
            if names is None:
                names = cells
            else:
                rows.append([float(c) for c in cells])
    return names or [], rows


class Tally:
    """Operations attempted and failed, worst reference deviation, problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.dev_max = 0.0
        self.problems = []

    def fail(self, n, why):
        self.failed += n
        self.problems.append(why)


def _dev(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(b))


def gate_table(tally, path, ref, first=None, ok_run=True):
    """Check one output table; returns its rows (None when unreadable).

    ref is {"columns": [...], "n_rows": N, "rows": {index: row}} and may
    hold only a subset of the rows; first is the rows of the first pass.
    """
    n_rows = ref["n_rows"]
    tally.attempted += n_rows
    if not ok_run:
        tally.fail(n_rows, f"{path}: command failed")
        return None
    try:
        names, rows = read_table(path)
    except (OSError, ValueError) as exc:
        tally.fail(n_rows, f"{path}: unreadable ({exc})")
        return None
    if names != ref["columns"] or len(rows) != n_rows:
        tally.fail(n_rows, f"{path}: columns {names} / {len(rows)} rows, expected "
                           f"{ref['columns']} / {n_rows}")
        return None
    bad = 0
    for i, row in enumerate(rows):
        ok = len(row) == len(names) and all(math.isfinite(v) for v in row)
        expected = ref["rows"].get(str(i))
        if ok and expected is not None:
            dev = max(_dev(a, b) for a, b in zip(row, expected))
            tally.dev_max = max(tally.dev_max, dev)
            ok = dev <= TOL
        if ok and first is not None:
            ok = max(_dev(a, b) for a, b in zip(row, first[i])) <= TOL
        bad += not ok
    if bad:
        tally.fail(bad, f"{path}: {bad} of {n_rows} rows off the reference")
    return rows


def gate_check(tally, stdout_path, exit_code):
    """Count the PASS/FAIL lines of a ``check`` run; exit status must be 0."""
    passed = failed = 0
    with open(stdout_path) as fh:
        for line in fh:
            passed += line.startswith("PASS ")
            failed += line.startswith("FAIL ")
    attempted = max(1, passed + failed)
    tally.attempted += attempted
    if exit_code != 0 or failed:
        tally.fail(max(1, failed) if passed + failed else attempted,
                   f"check exited {exit_code} with {failed} failed checks")
