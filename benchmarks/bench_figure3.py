"""Benchmark E2 — regenerate the paper's Figure 3.

``SpaceEfficientRanking`` started from one unaware leader with rank 1 and
``n - 1`` leader-electing agents: interactions (normalized by ``n²``) until
the fractions 1/2, 3/4, 7/8 and 15/16 of agents are ranked, per population
size.  Uses the exact event-driven engine so the paper's full range of sizes
is reachable.  Results go to ``results/figure3.csv`` / ``figure3.txt``.

Default: ``n ∈ {128 … 2048}``, 20 runs per size; with ``REPRO_BENCH_FULL=1``:
the paper's ``n ∈ {128 … 8192}`` with 100 runs per size.
"""

from repro.experiments.figure3 import (
    PAPER_FRACTIONS,
    figure3_result_from_rows,
    figure3_specs,
    format_figure3,
)
from repro.experiments.recording import write_csv
from repro.experiments.study import Study

DEFAULT_SIZES = (128, 256, 512, 1024, 2048)
PAPER_SIZES = (128, 256, 512, 1024, 2048, 4096, 8192)


def test_figure3_time_to_rank_fractions(benchmark, results_dir, paper_scale):
    n_values = PAPER_SIZES if paper_scale else DEFAULT_SIZES
    repetitions = 100 if paper_scale else 20

    def run():
        specs = figure3_specs(
            n_values=n_values,
            fractions=PAPER_FRACTIONS,
            repetitions=repetitions,
            engine="aggregate",
            random_state=2024,
        )
        return figure3_result_from_rows(Study(specs, name="figure3").run())

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    write_csv(results_dir / "figure3.csv", result.rows())
    (results_dir / "figure3.txt").write_text(format_figure3(result))

    for fraction in PAPER_FRACTIONS:
        benchmark.extra_info[f"frac_{fraction}_at_nmax"] = round(
            result.mean(n_values[-1], fraction), 3
        )

    # Shape checks mirroring the paper's figure:
    # (a) for each n, later fractions take longer;
    # (b) the normalized time per fraction is essentially flat in n
    #     (ranking a constant fraction costs Θ(n²) interactions).
    for n in n_values:
        times = [result.mean(n, fraction) for fraction in PAPER_FRACTIONS]
        assert times == sorted(times)
    for fraction in PAPER_FRACTIONS:
        series = [result.mean(n, fraction) for n in n_values]
        assert max(series) / min(series) < 2.0
