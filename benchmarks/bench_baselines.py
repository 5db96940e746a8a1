"""Benchmark E5 — ``StableRanking`` versus the baseline protocols.

Stabilization time (interactions) and overhead states for the paper's
protocol, the Cai-style ``n``-state baseline (``O(n³)`` time) and the
Burman-style ``Θ(n)``-overhead baseline (``O(n² log n)`` time), from the same
fresh starts.  Results go to ``results/baselines.csv`` / ``baselines.txt``.
"""

from repro.experiments.comparison import (
    comparison_result_from_rows,
    comparison_specs,
    format_comparison,
)
from repro.experiments.recording import write_csv
from repro.experiments.study import Study

DEFAULT_SIZES = (16, 32, 64)
FULL_SIZES = (16, 32, 64, 128)


def test_baseline_comparison_fresh_start(benchmark, results_dir, paper_scale):
    n_values = FULL_SIZES if paper_scale else DEFAULT_SIZES
    repetitions = 5 if paper_scale else 3

    def run():
        specs = comparison_specs(
            n_values=n_values,
            repetitions=repetitions,
            workload="fresh",
            max_interactions_factor=1200 if paper_scale else 800,
            engine="reference",
            random_state=11,
        )
        return comparison_result_from_rows(
            Study(specs, name="comparison").run(), workload="fresh"
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = result.rows()
    write_csv(results_dir / "baselines.csv", rows)
    (results_dir / "baselines.txt").write_text(format_comparison(result))

    # Every protocol must converge within its budget.
    assert all(row["converged_fraction"] == 1.0 for row in rows)

    # The Cai baseline's normalized time grows roughly linearly in n (Θ(n³)
    # total), while StableRanking's grows only logarithmically.
    def normalized(name):
        return {
            row["n"]: row["mean_over_n2"] for row in rows if row["protocol"] == name
        }

    cai = normalized("cai-ranking")
    stable = normalized("stable-ranking")
    n_small, n_large = min(n_values), max(n_values)
    cai_growth = cai[n_large] / cai[n_small]
    stable_growth = stable[n_large] / stable[n_small]
    benchmark.extra_info["cai_normalized_growth"] = round(cai_growth, 2)
    benchmark.extra_info["stable_normalized_growth"] = round(stable_growth, 2)
    assert cai_growth > stable_growth

    # State-count side of the trade-off: the Burman-style baseline needs at
    # least n overhead states, StableRanking only polylogarithmically many.
    burman_overhead = {
        row["n"]: row["overhead_states"]
        for row in rows
        if row["protocol"] == "burman-style-ranking"
    }
    assert all(value >= n for n, value in burman_overhead.items())
