import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest  # noqa: E402

ACCEPTANCE_RESULTS = []


def record_criterion(number, label, passed, note=""):
    ACCEPTANCE_RESULTS.append((number, label, passed, note))


def criterion_key(number):
    """Natural order of criterion labels: 1, 2, ..., 10, 11, 12a, 12b, 13."""
    text = str(number)
    digits = len(text) - len(text.lstrip("0123456789"))
    return int(text[:digits] or 0), text[digits:]


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, note in sorted(ACCEPTANCE_RESULTS,
                                              key=lambda r: criterion_key(r[0])):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:>3}: {status}  {label}"
        if note:
            line += f"  [{note}]"
        terminalreporter.write_line(line)
