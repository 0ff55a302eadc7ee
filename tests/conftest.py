import re

import pytest

_CRITERION = re.compile(r"test_acceptance\.py::(?:\w+::)*test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion that ran."""
    outcomes: dict[int, bool] = {}
    for status, reports in terminalreporter.stats.items():
        for report in reports:
            # stats also lists deselected items, which did not run
            if not isinstance(report, pytest.TestReport):
                continue
            match = _CRITERION.search(report.nodeid)
            if not match:
                continue
            number = int(match.group(1))
            ok = outcomes.get(number, True)
            if status in ("failed", "error", "skipped"):
                ok = False
            outcomes[number] = ok
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        verdict = "PASS" if outcomes[number] else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {verdict}")
