"""Fixtures shared by the test modules."""

import pytest

from cli_driver import run_full_suite


@pytest.fixture(scope="session")
def cli_suite_runs(tmp_path_factory):
    """The artifacts of the full command-line suite, keyed by the
    PYTHONHASHSEED it ran under (0 and 31337); run once per session."""
    root = tmp_path_factory.mktemp("cli_suite")
    return {seed: run_full_suite(str(root / f"seed_{seed}"), seed) for seed in ("0", "31337")}
