"""Tests for the paper's study presets (small parameterizations).

Each preset is driven the way callers use it — ``Study(<preset>_specs(...))``
reduced through ``<preset>_result_from_rows`` — with the engine and seed
pinned.  The benchmarks run the paper-scale versions; these tests only check
that each preset produces structurally correct, plausible output quickly.
"""

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.comparison import (
    comparison_result_from_rows,
    comparison_specs,
    format_comparison,
)
from repro.experiments.fault_injection import (
    fault_injection_result_from_rows,
    fault_injection_specs,
    format_fault_injection,
)
from repro.experiments.figure2 import (
    figure2_result_from_rows,
    figure2_specs,
    format_figure2,
)
from repro.experiments.figure3 import (
    figure3_result_from_rows,
    figure3_specs,
    format_figure3,
)
from repro.experiments.scaling import (
    format_scaling,
    scaling_result_from_rows,
    scaling_specs,
)
from repro.experiments.study import Study


class TestFigure2Driver:
    def test_series_structure_and_recovery(self):
        specs = figure2_specs(
            n_values=(64,), samples=80, engine="reference", random_state=0
        )
        result = figure2_result_from_rows(Study(specs, name="figure2").run())
        assert result.n == 64
        assert len(result.interactions) == len(result.ranked_agents)
        assert len(result.interactions) == len(result.average_phase)
        # Starts with n - 1 ranked agents and ends with all ranked.
        assert result.ranked_agents[0] == 63
        assert result.converged
        assert result.ranked_agents[-1] == 64
        # At least one reset happened (the whole point of the workload).
        assert result.resets >= 1
        assert min(result.ranked_agents) < 63
        rows = result.rows()
        assert rows[0]["interactions_over_n2"] == 0.0

    def test_formatting_contains_key_facts(self):
        specs = figure2_specs(
            n_values=(32,), samples=40, engine="reference", random_state=1
        )
        result = figure2_result_from_rows(Study(specs, name="figure2").run())
        text = format_figure2(result)
        assert "Figure 2" in text
        assert "ranked agents" in text
        assert "average phase" in text


class TestFigure3Driver:
    def test_aggregate_engine_sweep(self):
        specs = figure3_specs(
            n_values=(64, 128), repetitions=4, engine="aggregate"
        )
        result = figure3_result_from_rows(Study(specs, name="figure3").run())
        assert set(result.samples) == {64, 128}
        for n in (64, 128):
            for fraction in result.fractions:
                assert len(result.samples[n][fraction]) == 4
        # Later fractions take longer.
        assert result.mean(128, 0.5) < result.mean(128, 0.9375)
        # Normalized times are O(1) (flat in n): same order of magnitude.
        assert result.mean(128, 0.5) < 4 * result.mean(64, 0.5) + 1
        text = format_figure3(result)
        assert "Figure 3" in text and "frac 0.5" in text

    def test_reference_engine_agrees_roughly_with_aggregate(self):
        aggregate, reference = (
            figure3_result_from_rows(
                Study(
                    figure3_specs(
                        n_values=(48,), fractions=(0.5,), repetitions=6,
                        engine=engine,
                    ),
                    name="figure3",
                ).run()
            )
            for engine in ("aggregate", "reference")
        )
        assert aggregate.mean(48, 0.5) == pytest.approx(reference.mean(48, 0.5), rel=0.6)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            figure3_specs(engine="magic")
        with pytest.raises(ExperimentError):
            figure3_specs(repetitions=0)


class TestScalingDriver:
    def test_normalized_times_are_flat(self):
        specs = scaling_specs(
            n_values=(64, 256), repetitions=4, engine="aggregate"
        )
        result = scaling_result_from_rows(Study(specs, name="scaling").run())
        rows = result.rows()
        assert len(rows) == 2
        values = [row["mean_over_n2_logn"] for row in rows]
        assert max(values) / min(values) < 2.5
        assert "constant" in format_scaling(result)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            scaling_specs(engine="magic")


class TestComparisonDriver:
    def test_fresh_comparison_structure(self):
        specs = comparison_specs(
            n_values=(16,),
            repetitions=2,
            protocols=("cai-ranking", "stable-ranking"),
            max_interactions_factor=600,
            engine="reference",
        )
        result = comparison_result_from_rows(
            Study(specs, name="comparison").run(), workload="fresh"
        )
        rows = result.rows()
        assert {row["protocol"] for row in rows} == {"cai-ranking", "stable-ranking"}
        assert all(row["converged_fraction"] == 1.0 for row in rows)
        cai = next(row for row in rows if row["protocol"] == "cai-ranking")
        stable = next(row for row in rows if row["protocol"] == "stable-ranking")
        assert cai["overhead_states"] == 0
        assert stable["overhead_states"] > 0
        assert "Baseline comparison" in format_comparison(result)

    def test_corrupted_workload(self):
        specs = comparison_specs(
            n_values=(16,),
            repetitions=2,
            workload="corrupted",
            protocols=("stable-ranking",),
            max_interactions_factor=1500,
            engine="reference",
        )
        result = comparison_result_from_rows(
            Study(specs, name="comparison").run(), workload="corrupted"
        )
        assert result.rows()[0]["converged_fraction"] == 1.0

    def test_validation(self):
        with pytest.raises(ExperimentError):
            comparison_specs(workload="nope")
        with pytest.raises(ExperimentError):
            comparison_specs(protocols=("unknown-protocol",))


class TestFaultInjectionDriver:
    def test_all_faults_recover(self):
        specs = fault_injection_specs(
            n_values=(16,), repetitions=2, max_interactions_factor=2000,
            engine="reference",
        )
        result = fault_injection_result_from_rows(
            Study(specs, name="fault-injection").run()
        )
        rows = result.rows()
        assert {row["fault"] for row in rows} == {
            "duplicate_rank",
            "missing_rank",
            "adversarial",
        }
        assert all(row["recovered_fraction"] == 1.0 for row in rows)
        assert "Fault-injection" in format_fault_injection(result)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            fault_injection_specs(faults=("meteor_strike",))
        with pytest.raises(ExperimentError):
            fault_injection_specs(repetitions=0)

    def test_empty_cells_report_zero_instead_of_raising(self):
        # Regression: an empty cell used to blow up the summary (empty
        # sample) and the convergence lookup (missing key); it must
        # render as 0 runs / 0.0 recovered instead.
        from repro.experiments.fault_injection import (
            FaultInjectionResult,
            fault_injection_result_from_rows,
            fault_injection_specs,
        )
        from repro.experiments.study import ResultSet

        hollow = fault_injection_result_from_rows(ResultSet([], [], "faults"))
        assert hollow.rows() == []

        specs = fault_injection_specs(n_values=(8,), repetitions=1)
        no_rows = fault_injection_result_from_rows(
            ResultSet([], specs, "faults")
        )
        rows = no_rows.rows()
        assert {row["fault"] for row in rows} == {
            "duplicate_rank", "missing_rank", "adversarial",
        }
        assert all(row["runs"] == 0 for row in rows)
        assert all(row["recovered_fraction"] == 0.0 for row in rows)
        assert all(row["mean_recovery_interactions"] == 0.0 for row in rows)
        assert "Fault-injection" in format_fault_injection(no_rows)

        # A result object missing a convergence entry entirely must not
        # KeyError either.
        partial = FaultInjectionResult(n_values=(8,), repetitions=1)
        partial.recovery[("duplicate_rank", 8)] = [12]
        assert partial.rows()[0]["recovered_fraction"] == 0.0
