"""Summary statistics for repeated simulation runs.

Every experiment in this repository is a Monte-Carlo experiment; these
helpers compute the summaries reported in docs/experiments.md (means, medians,
quantiles, bootstrap confidence intervals) without pulling in anything
heavier than numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import AnalysisError
from ..core.rng import RandomState, make_rng

__all__ = ["RunSummary", "summarize", "bootstrap_confidence_interval"]


@dataclass(frozen=True)
class RunSummary:
    """Summary of one sample of scalar measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float
    quantile_25: float
    quantile_75: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "max": self.maximum,
            "q25": self.quantile_25,
            "q75": self.quantile_75,
        }


def summarize(values: Sequence[float]) -> RunSummary:
    """Compute a :class:`RunSummary` for ``values`` (must be non-empty)."""
    if len(values) == 0:
        raise AnalysisError("cannot summarize an empty sample")
    array = np.asarray(values, dtype=float)
    return RunSummary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        median=float(np.median(array)),
        maximum=float(array.max()),
        quantile_25=float(np.quantile(array, 0.25)),
        quantile_75=float(np.quantile(array, 0.75)),
    )


def bootstrap_confidence_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    random_state: RandomState = None,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean of ``values``."""
    if len(values) == 0:
        raise AnalysisError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise AnalysisError(f"resamples must be positive, got {resamples}")
    rng = make_rng(random_state)
    array = np.asarray(values, dtype=float)
    indices = rng.integers(0, array.size, size=(resamples, array.size))
    means = array[indices].mean(axis=1)
    lower = (1.0 - confidence) / 2.0
    upper = 1.0 - lower
    return float(np.quantile(means, lower)), float(np.quantile(means, upper))
