"""Tests here fail on any unexpected ERROR log record."""

import pytest


@pytest.fixture(autouse=True)
def _no_error_logs(no_error_logs):
    yield
