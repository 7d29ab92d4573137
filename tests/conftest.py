"""Shared fixtures and the acceptance-summary reporting hook."""

import os

# One BLAS thread, so that test times do not depend on what else the machine
# runs. numpy reads these when it loads its BLAS, so they are set before the
# first numpy import; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hcl import taxonomy


@pytest.fixture
def abc_taxonomy():
    """Three classes: A at level 1, A/B and A/C at level 2."""
    return taxonomy.parse_hierarchy(["A", "A/B", "A/C"])


@pytest.fixture
def two_level_chain():
    """A single chain: 'p' (level 1) with child 'p/q' (level 2)."""
    return taxonomy.parse_hierarchy(["p", "p/q"])


@pytest.fixture
def height4_forest():
    """Two disjoint top-level subtrees, four levels deep each."""
    return taxonomy.parse_hierarchy(["1/2/3/4", "5/6/7/8"])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# Acceptance reporting: tests/test_acceptance.py records one line per
# criterion here; the lines are echoed in the terminal summary so every run
# ends with an explicit pass/fail list.
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: shipping-criteria tests with summary reporting"
    )


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
