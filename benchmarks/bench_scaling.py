"""Benchmark E3 — stabilization-time scaling of ``SpaceEfficientRanking``.

Theorem 1 support: the full stabilization time divided by ``n² log₂ n`` must
stay roughly constant across population sizes.  Results go to
``results/scaling.csv`` / ``scaling.txt``.
"""

from repro.experiments.recording import write_csv
from repro.experiments.scaling import (
    format_scaling,
    scaling_result_from_rows,
    scaling_specs,
)
from repro.experiments.study import Study

DEFAULT_SIZES = (128, 256, 512, 1024)
PAPER_SIZES = (128, 256, 512, 1024, 2048, 4096, 8192)


def test_scaling_is_n2_logn(benchmark, results_dir, paper_scale):
    n_values = PAPER_SIZES if paper_scale else DEFAULT_SIZES
    repetitions = 50 if paper_scale else 15

    def run():
        specs = scaling_specs(
            n_values=n_values,
            repetitions=repetitions,
            engine="aggregate",
            random_state=7,
        )
        return scaling_result_from_rows(Study(specs, name="scaling").run())

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = result.rows()
    write_csv(results_dir / "scaling.csv", rows)
    (results_dir / "scaling.txt").write_text(format_scaling(result))

    normalized = [row["mean_over_n2_logn"] for row in rows]
    benchmark.extra_info["normalized_min"] = round(min(normalized), 3)
    benchmark.extra_info["normalized_max"] = round(max(normalized), 3)
    # Θ(n² log n): the normalized values stay within a narrow constant band.
    assert max(normalized) / min(normalized) < 2.0
