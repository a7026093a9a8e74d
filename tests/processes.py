"""Test helper for the CPUs a grid sees."""

import os


def force_cpus(monkeypatch, count: int) -> None:
    """Make the harness see `count` CPUs, so a grid of more tasks runs on
    `count` worker processes, or in process when `count` is 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
