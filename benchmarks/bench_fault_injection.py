"""Benchmark E6 — recovery from injected transient faults (Theorem 2 support).

Measures how many interactions ``StableRanking`` needs to return to a clean
legal configuration after duplicate-rank faults, a lost rank, or a fully
adversarial state assignment.  Results go to ``results/fault_injection.csv``.
"""

from repro.experiments.fault_injection import (
    fault_injection_result_from_rows,
    fault_injection_specs,
    format_fault_injection,
)
from repro.experiments.recording import write_csv
from repro.experiments.study import Study


def test_fault_recovery_times(benchmark, results_dir, paper_scale):
    n_values = (32, 64) if paper_scale else (32,)
    repetitions = 5 if paper_scale else 3

    def run():
        specs = fault_injection_specs(
            n_values=n_values,
            repetitions=repetitions,
            max_interactions_factor=3000,
            engine="reference",
            random_state=5,
        )
        return fault_injection_result_from_rows(
            Study(specs, name="fault-injection").run()
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = result.rows()
    write_csv(results_dir / "fault_injection.csv", rows)
    (results_dir / "fault_injection.txt").write_text(format_fault_injection(result))

    assert all(row["recovered_fraction"] == 1.0 for row in rows)
    for row in rows:
        benchmark.extra_info[f"{row['fault']}_n{row['n']}_over_n2"] = round(
            row["mean_over_n2"], 1
        )
