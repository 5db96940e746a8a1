"""Cross-engine differential matrix, driven by the shared harness.

The acceptance matrix for the batched replica engine: for StableRanking,
the one-way epidemic and all three comparison baselines, at population
sizes 2, 16 and 64, every lane of one lockstep batched run is
bit-identical to the serial run of the matching seed — and every other
trajectory-class backend the registry offers for the cell agrees too.
The token-counter baseline declares rng-consuming transitions, so its
"batched" run takes the engine's exact per-lane serial fallback; keeping
it in the matrix pins that degradation path to the same bit-identity bar.
"""

import numpy as np
import pytest

from harness.differential import (
    assert_batched_matches_serial,
    assert_identical,
    assert_ks_consistent,
    differential_trajectories,
    ks_2sample,
    run_batched,
    run_serial,
    trajectory_engines,
)
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core.metrics import MetricsCollector, standard_ranking_probes
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking

PROTOCOLS = {
    "stable-ranking": StableRanking,
    "epidemic": OneWayEpidemicProtocol,
    "burman": BurmanStyleRanking,
    "cai": CaiRanking,
    "token-counter": TokenCounterRanking,
}

SEEDS = (0, 1, 3)


class TestTrajectoryMatrix:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_fixed_budget_bit_identity(self, name, n):
        budget = 20 * n * n if n > 2 else 400
        assert_batched_matches_serial(
            PROTOCOLS[name],
            n,
            SEEDS,
            budget=budget,
            stop_on_convergence=False,
        )

    @pytest.mark.parametrize("name", ["stable-ranking", "burman", "cai"])
    def test_convergence_stop_bit_identity(self, name):
        # With stop_on_convergence every engine must stop each seed on the
        # exact same interaction — the property the study layer records.
        n = 16
        results = assert_batched_matches_serial(
            PROTOCOLS[name], n, SEEDS, budget=3000 * n * n
        )
        assert all(t.converged for t in results["reference"])

    def test_registry_offers_array_for_every_matrix_protocol(self):
        # The matrix is only meaningful if the engines under test actually
        # serve these cells: reference and array must answer capable for
        # every protocol (token-counter via the array object fallback).
        for name, factory in PROTOCOLS.items():
            engines = trajectory_engines(factory(16))
            assert "reference" in engines, name
            assert "array" in engines, name

    def test_metric_series_bit_identity(self):
        n = 16
        make_metrics = lambda: MetricsCollector(
            standard_ranking_probes(), interval=500
        )
        results = differential_trajectories(
            StableRanking,
            n,
            SEEDS,
            budget=20_000,
            stop_on_convergence=False,
            metrics_factory=make_metrics,
        )
        anchor = results["reference"]
        assert all(t.series for t in anchor)
        for engine, trajectories in results.items():
            for seed, expected, actual in zip(SEEDS, anchor, trajectories):
                assert_identical(
                    expected, actual, context=f"{engine} seed={seed}"
                )

    def test_batched_convergence_dropout_keeps_bit_identity(self):
        # Seeds converge at different times; lanes that converge mid-run
        # are masked out while the rest continue.  Every lane must still
        # report the exact serial stopping interaction and final states.
        n = 16
        seeds = range(8)
        serial = [
            run_serial(
                "array", StableRanking, n, seed, budget=3000 * n * n
            )
            for seed in seeds
        ]
        batched = run_batched(
            StableRanking, n, list(seeds), budget=3000 * n * n
        )
        stops = {t.interactions for t in serial}
        assert len(stops) > 1  # the dropout actually staggers
        for seed, expected, actual in zip(seeds, serial, batched):
            assert_identical(expected, actual, context=f"lane seed={seed}")


class TestKsHelper:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=400)
        b = rng.normal(size=400)
        statistic, p_value = ks_2sample(a, b)
        assert 0.0 <= statistic <= 1.0
        assert p_value > 0.05
        assert_ks_consistent(a, b)

    def test_shifted_distribution_fails(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=400)
        b = rng.normal(loc=1.0, size=400)
        _, p_value = ks_2sample(a, b)
        assert p_value < 1e-3
        with pytest.raises(AssertionError, match="distributions differ"):
            assert_ks_consistent(a, b)

    def test_agrees_with_scipy_when_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        a = rng.exponential(size=150)
        b = rng.exponential(scale=1.3, size=170)
        statistic, p_value = ks_2sample(a, b)
        expected = scipy_stats.ks_2samp(a, b)
        assert statistic == pytest.approx(expected.statistic, abs=1e-12)
        assert p_value == pytest.approx(expected.pvalue, rel=0.1, abs=5e-3)
