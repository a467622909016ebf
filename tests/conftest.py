import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest  # noqa: E402

ACCEPTANCE_RESULTS = []


def record_criterion(number, label, passed, note=""):
    ACCEPTANCE_RESULTS.append((number, label, passed, note))


def counted_pairs(monkeypatch):
    """Count the term pairs of packed products: len(a) * len(b) for a
    product, n (n + 1) / 2 for the square of n terms."""
    from jetcalc import polyring

    pairs = {"products": 0, "squares": 0}
    add, square = polyring._add_packed_product, polyring._packed_square

    def counted_add(acc, a, b):
        pairs["products"] += len(a) * len(b)
        return add(acc, a, b)

    def counted_square(a):
        pairs["squares"] += len(a) * (len(a) + 1) // 2
        return square(a)

    monkeypatch.setattr(polyring, "_add_packed_product", counted_add)
    monkeypatch.setattr(polyring, "_packed_square", counted_square)
    return pairs


@pytest.fixture
def empty_tables(monkeypatch):
    """Empty `invgen`'s per-process tables (certified slices, remainder term
    counts) for the test, so no earlier test's entries decide a check or
    spare an expansion.  The returned function empties them again, through
    `monkeypatch` or a `monkeypatch.context()` it is handed."""
    import jetcalc.invgen as invgen

    def empty(patch=monkeypatch):
        patch.setattr(invgen, "_slices", {})
        patch.setattr(invgen, "_remainder_counts", {})

    empty()
    return empty


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
