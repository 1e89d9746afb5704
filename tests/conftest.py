"""Shared test settings."""

import pytest


@pytest.fixture(autouse=True)
def _one_thread(monkeypatch):
    # an inherited QLAG_THREADS must not make run_suite open a large pool;
    # tests/test_parallel.py sets the threads it needs itself
    monkeypatch.setenv("QLAG_THREADS", "1")
