"""Test helpers for the CPUs a grid sees and the BLAS threads a process runs."""

import ctypes
import os

from fedassoc.harness import openblas_function


def force_cpus(monkeypatch, count: int) -> None:
    """Make the harness see `count` CPUs, so a grid of more tasks runs on
    `count` worker processes, or in process when `count` is 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def blas_threads():
    """The threads numpy's bundled OpenBLAS runs in this process, or None
    when numpy bundles no OpenBLAS."""
    get = openblas_function(
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()
