import numpy as np
import pytest
from hypothesis import settings

from blinkcorr import PhotoPhysicalParams, statistics_from_params

# Property tests draw the same examples on every run, with no replay of
# examples saved by earlier runs, so a slow or loaded machine can neither
# fail them on a deadline nor draw a new failure.
settings.register_profile(
    "blinkcorr", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("blinkcorr")

# One status line per acceptance criterion, filled by test_acceptance.py
# and echoed after the run so the verdicts survive output capturing.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def reference_params():
    """The worked single-emitter rate set used throughout the tests."""
    return PhotoPhysicalParams(
        A31=3.3e8,
        Omega31=2.9e8,
        A32=(34.0, 249.0),
        A21=(430.0, 2400.0),
        I_sc=7.7e7,
    )


@pytest.fixture
def reference_stats(reference_params):
    return statistics_from_params(reference_params)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=[1234, 0]))
