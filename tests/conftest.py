"""Fixtures shared by every test module."""

import pytest

from seiffert_bounds import sharp


@pytest.fixture(autouse=True)
def _close_standing_lanes():
    """Close the standing lanes of ``sharp`` after each test.

    A lane runs the code it was forked with, so a lane forked under one
    test's monkeypatch would run a later test's call.
    """
    yield
    sharp._close_lanes()
