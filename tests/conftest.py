"""Shared test configuration.

Thread caps are set before numpy loads so BLAS reductions are
deterministic, which the bitwise-reproducibility tests rely on.

Tests that use the acceptance trend battery (tens of minutes on a desk
CPU) run after every other test, so the rest of the suite reports in
minutes and a slow battery never holds back a quick failure elsewhere.
They carry the ``battery`` marker, so ``pytest -m "not battery"`` runs
the quick suite alone.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for the one-line acceptance verdicts; they are echoed in
    the terminal summary so they stay visible under output capture."""
    return _ACCEPTANCE_LINES


def pytest_collection_modifyitems(items):
    for item in items:
        if "trend_battery" in item.fixturenames:
            item.add_marker(pytest.mark.battery)
    # A stable sort keeps file order within each group and keeps the
    # battery's tests adjacent, so its module-scoped fixture is built once.
    items.sort(key=lambda item: "trend_battery" in item.fixturenames)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
