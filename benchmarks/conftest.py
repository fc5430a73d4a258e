"""Shared benchmark configuration.

Benchmarks default to reduced-scale configurations so the whole harness
runs in minutes; set ``REPRO_FULL=1`` to run at the paper's exact scale
(5 structures x 10 repetitions x 1000 tasks for Figure 4; 5 759 requests
for Figure 5).  Every benchmark prints a paper-vs-measured comparison.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.inference.native import native_capability


def pytest_addoption(parser):
    parser.addoption(
        "--kernel",
        action="store",
        default="array",
        choices=("array", "object", "native", "both"),
        help="Gibbs sweep engine the benchmarks exercise; 'native' runs "
        "the JIT-lowered backend (falls back to array without numba); "
        "'both' also runs the array-vs-object comparison (which fails if "
        "the array kernel is not faster)",
    )


@pytest.fixture(scope="session")
def kernel_mode(request) -> str:
    """The --kernel option: 'array', 'object', 'native', or 'both'."""
    return request.config.getoption("--kernel")


def full_scale() -> bool:
    """Whether to run at the paper's full experimental scale."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def host() -> dict:
    """The measuring host, recorded next to every tracked result."""
    capability = native_capability()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": capability["numba_version"] if capability["available"] else None,
    }


def merge_result(path: Path, key: str, payload: dict) -> None:
    """Merge one benchmark's result into the tracked JSON file *path*.

    Several tests report into one file; each owns a top-level *key*, so
    whichever runs second does not clobber the first.  The scale and the
    host ride along with every result.
    """
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            data = {}
    data[key] = {
        **payload,
        "scale": "full" if full_scale() else "reduced",
        "host": host(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def scale_label() -> str:
    """Human-readable scale tag for printed tables."""
    return "paper-scale" if full_scale() else "quick-scale"
