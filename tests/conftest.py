"""Shared pytest plumbing: the acceptance-criteria summary block and the
Hypothesis profile."""

from __future__ import annotations

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


# Property tests run a fixed example sequence without time limits, so a
# slow or loaded machine neither flakes nor changes what is tested.
settings.register_profile("spdelab", derandomize=True, deadline=None)
settings.load_profile("spdelab")
