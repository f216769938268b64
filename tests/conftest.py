"""Shared pytest plumbing: the acceptance-criteria summary block, the
golden copies of the pinned CSVs and the Hypothesis profile."""

from __future__ import annotations

import csv
import difflib
import hashlib
import io
from pathlib import Path

import pytest
from hypothesis import settings

CRITERION_LINES: list[str] = []


def record_criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    """Register one criterion outcome for the end-of-run summary."""
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}  {name:<28s} {status}  {detail}".rstrip()
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _labels(row):
    """(record, level, param, index) of a canonical row; a norms row gives its
    field_id, grid_id, kind with m, and argmax pair."""
    if "record" in row:
        return row["record"], row["level"], row["param"], row["index"]
    return row["field_id"], row["grid_id"], f"{row['kind']} m={row['m']}", row["argmax_pair"]


def _key(row):
    """The labels that name a row: all four of a canonical row; a norms row's
    argmax pair is an output, so it is left out."""
    return _labels(row)[: 4 if "record" in row else 3]


def _relative_change(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    return f"{(b - a) / abs(a):+.3e}" if a else ("0" if b == a else "inf")


def drift_table(old: str, new: str) -> str:
    """One line per row that differs between two CSV texts, rows matched by
    their labels: old line, record, level, param, index, old value, new value,
    relative change.  A row only one text has reads "-" on the other side; an
    argmax pair that moved reads old->new."""
    a, b = (list(csv.DictReader(io.StringIO(t))) for t in (old, new))
    lines = [("line", "record", "level", "param", "index", "old value", "new value", "rel change")]

    def add(line, ra, rb):
        la, lb = _labels(ra or rb), _labels(rb or ra)
        labels = [x if x == y else f"{x}->{y}" for x, y in zip(la, lb)]
        va, vb = (r["value"] if r else "-" for r in (ra, rb))
        lines.append((line, *labels, va, vb, _relative_change(va, vb)))

    match = difflib.SequenceMatcher(None, [_key(r) for r in a], [_key(r) for r in b], autojunk=False)
    for tag, i1, i2, j1, j2 in match.get_opcodes():
        if tag == "equal":
            for i, j in zip(range(i1, i2), range(j1, j2)):
                if a[i] != b[j]:
                    add(str(i + 2), a[i], b[j])
            continue
        for i in range(i1, i2):
            add(str(i + 2), a[i], None)
        for j in range(j1, j2):
            add("-", None, b[j])
    widths = [max(len(line[k]) for line in lines) for k in range(len(lines[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)


def assert_matches_golden(text: str, name: str, digest: str) -> None:
    """The golden copy tests/golden/<name> hashes to the pinned digest, and text
    equals it byte for byte; a mismatch fails with the drift table of its rows."""
    __tracebackhide__ = True
    golden = (GOLDEN / name).read_bytes()
    assert hashlib.sha256(golden).hexdigest() == digest, f"{name}: golden file is off its pin"
    if text.encode() != golden:
        pytest.fail(f"{name} moved off pin {digest[:8]}:\n" + drift_table(golden.decode(), text))


# Property tests run a fixed example sequence without time limits, so a
# slow or loaded machine neither flakes nor changes what is tested.
settings.register_profile("spdelab", derandomize=True, deadline=None)
settings.load_profile("spdelab")
