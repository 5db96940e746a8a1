"""Benchmark E1 — regenerate the paper's Figure 2.

``StableRanking`` with the worst-case initialization (ranks 2 … n assigned,
one phase agent with maximum liveness counter): the benchmark records the
ranked-agent count and the average phase of unranked agents over time and
writes both series to ``results/figure2.csv`` plus a rendered text version to
``results/figure2.txt``.

Default: ``n = 128``; with ``REPRO_BENCH_FULL=1``: the paper's ``n = 256``.
"""

import math

from repro.experiments.figure2 import (
    figure2_result_from_rows,
    figure2_specs,
    format_figure2,
)
from repro.experiments.recording import write_csv
from repro.experiments.study import Study


def test_figure2_reset_and_recovery(benchmark, results_dir, paper_scale):
    n = 256 if paper_scale else 128

    def run():
        specs = figure2_specs(
            n_values=(n,), engine="reference", random_state=2024
        )
        return figure2_result_from_rows(Study(specs, name="figure2").run())

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    write_csv(results_dir / "figure2.csv", result.rows())
    (results_dir / "figure2.txt").write_text(format_figure2(result))

    benchmark.extra_info["n"] = n
    benchmark.extra_info["total_interactions_over_n2"] = round(
        result.total_interactions / (n * n), 2
    )
    benchmark.extra_info["resets"] = result.resets
    benchmark.extra_info["converged"] = result.converged

    # Shape checks mirroring the paper's figure: the run starts with n-1
    # ranked agents, resets (dropping the count), recovers to a full ranking,
    # and the average phase of unranked agents climbs towards ⌈log₂ n⌉.
    assert result.converged
    assert result.ranked_agents[0] == n - 1
    assert min(result.ranked_agents) < n - 1
    assert result.ranked_agents[-1] == n
    # After the reset the re-ranking walks through the phases again: the
    # average phase of the unranked agents drops (fresh agents start at
    # phase 1) and then climbs back towards ⌈log₂ n⌉ for the final agents.
    reset_index = result.ranked_agents.index(min(result.ranked_agents))
    post_reset_phases = result.average_phase[reset_index:]
    assert min(post_reset_phases) < math.log2(n) / 2
    assert max(post_reset_phases) > math.log2(n) / 2
