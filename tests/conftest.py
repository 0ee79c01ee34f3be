"""Settings shared by every test module."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def at_most_two_cpus(monkeypatch):
    """The CLI sizes its worker pool from ``os.sched_getaffinity``; tests see
    at most two CPUs, so none starts more than two worker processes."""
    cpus = set(range(min(2, os.cpu_count() or 1)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
