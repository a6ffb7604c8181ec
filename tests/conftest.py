"""Shared pytest wiring.

Publishes the per-criterion verdict lines collected by the acceptance
suite into the terminal summary, so they are visible in captured output.
Loads a ``hypothesis`` profile that draws the same examples on every run,
has no per-example deadline (the machine's speed varies) and keeps no
example database.
"""

from __future__ import annotations

import sys

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
