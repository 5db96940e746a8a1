"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts (see the
per-experiment index in DESIGN.md).  By default the benchmarks run a reduced
parameterization that completes in a few minutes on a laptop; set the
environment variable ``REPRO_BENCH_FULL=1`` to run the paper-scale versions
(Figure 3 up to ``n = 8192`` with 100 repetitions, Figure 2 at ``n = 256``).

Each benchmark writes its regenerated table/series to ``results/`` (text and
CSV) so the numbers quoted in docs/experiments.md can be traced back to a file.
"""

import os
from pathlib import Path

import pytest


def full_scale() -> bool:
    """Whether the paper-scale parameterization was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false", "no")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory benchmark artifacts are written to."""
    directory = Path(__file__).resolve().parent.parent / "results"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    """Session-wide flag for the paper-scale parameterization."""
    return full_scale()
