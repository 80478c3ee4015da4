"""Shared fixtures: the running example dataset and its windowed form."""
import io

import pytest

from intervalmine.io import parse_dataset
from intervalmine.model import UtilityTable
from intervalmine.oracle import EXAMPLE_DATA, EXAMPLE_UTILITIES
from intervalmine.transform import transform_dataset


@pytest.fixture(scope="session")
def example_dataset():
    return parse_dataset(io.StringIO(EXAMPLE_DATA))


@pytest.fixture(scope="session")
def example_table():
    return UtilityTable(EXAMPLE_UTILITIES)


@pytest.fixture(scope="session")
def example_cdata(example_dataset, example_table):
    return transform_dataset(example_dataset, example_table)


@pytest.fixture(scope="session")
def cs(example_cdata):
    """C-sequences of the example keyed by sequence id."""
    return {c.id: c for c in example_cdata.csequences}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run."""
    import _acceptance_log

    lines = _acceptance_log.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
