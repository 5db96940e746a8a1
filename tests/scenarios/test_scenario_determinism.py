"""Scenario determinism: the contract that makes mid-run events trustworthy.

Three properties from the determinism contract (``docs/scenarios.md``):

* same-seed reference↔array equality holds *through* event boundaries —
  the segmented runs visit identical trajectories, fire identical events
  and log identical recoveries (n ∈ {2, 16, 64});
* ``--jobs N`` study execution is bit-identical to serial for
  event-bearing scenarios;
* a store interrupted mid-matrix resumes without recomputing (and the
  resumed rows equal the uninterrupted ones).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.array_engine import ArraySimulator
from repro.core.simulation import Simulator
from repro.experiments.fault_storm import fault_storm_specs
from repro.experiments.study import Study, execute_cell
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking
from repro.scenarios import ScheduledEvent, bind_schedule

#: Event times deliberately unaligned with the 4096-pair chunk size, with
#: two events sharing one interaction count.
STORM = (
    ScheduledEvent(at=700, kind="duplicate_rank", params={"count": 2}),
    ScheduledEvent(at=1501, kind="scramble", params={}),
    ScheduledEvent(at=2750, kind="crash_reset", params={"count": 3}),
    ScheduledEvent(at=2750, kind="churn", params={"fraction": 0.5}),
)


def run_one(engine_cls, protocol_factory, schedule, n, seed, budget,
            stop_on_convergence=True):
    protocol = protocol_factory(n)
    bound = bind_schedule(schedule, protocol, np.random.SeedSequence([seed, n]))
    simulator = engine_cls(
        protocol,
        random_state=np.random.default_rng(seed),
        convergence_interval=n,
    )
    result = simulator.run_segmented(
        bound, max_interactions=budget, stop_on_convergence=stop_on_convergence
    )
    states = [
        state.as_tuple() if hasattr(state, "as_tuple")
        else dataclasses.astuple(state)
        for state in simulator.configuration.states
    ]
    return (
        result.interactions,
        result.converged,
        result.resets,
        result.rank_assignments,
        result.events,
        states,
    )


class TestReferenceArrayEquality:
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_stable_ranking_identical_through_event_boundaries(self, n):
        reference = run_one(Simulator, StableRanking, STORM, n, 7, 40000)
        array = run_one(ArraySimulator, StableRanking, STORM, n, 7, 40000)
        assert reference == array

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_equality_without_convergence_stopping(self, n):
        reference = run_one(
            Simulator, StableRanking, STORM, n, 11, 9000,
            stop_on_convergence=False,
        )
        array = run_one(
            ArraySimulator, StableRanking, STORM, n, 11, 9000,
            stop_on_convergence=False,
        )
        assert reference == array
        assert reference[0] == 9000  # ran the full budget

    def test_dense_mode_identical_through_event_boundaries(self):
        # The epidemic runs on the table path; crash/churn events
        # round-trip through the codec and re-enter it.
        schedule = (
            ScheduledEvent(at=333, kind="crash_reset", params={"count": 10}),
            ScheduledEvent(at=900, kind="churn", params={"fraction": 0.9}),
        )
        reference = run_one(
            Simulator, OneWayEpidemicProtocol, schedule, 32, 3, 20000
        )
        array = run_one(
            ArraySimulator, OneWayEpidemicProtocol, schedule, 32, 3, 20000
        )
        assert reference == array

    def test_event_log_structure(self):
        interactions, converged, _, _, events, _ = run_one(
            ArraySimulator, StableRanking, STORM, 16, 7, 40000
        )
        assert events[0]["label"] == "initial"
        assert [entry["label"] for entry in events[1:]] == [
            "duplicate_rank", "scramble", "crash_reset", "churn",
        ]
        assert [entry["at"] for entry in events[1:]] == [700, 1501, 2750, 2750]
        if converged:
            assert events[-1]["recovered_at"] == interactions

    def test_events_beyond_budget_do_not_fire(self):
        schedule = (ScheduledEvent(at=10**9, kind="churn"),)
        _, _, _, _, events, _ = run_one(
            ArraySimulator, StableRanking, schedule, 16, 7, 5000,
            stop_on_convergence=False,
        )
        assert [entry["label"] for entry in events] == ["initial"]


class TestStudyDeterminism:
    def specs(self):
        return fault_storm_specs(
            n_values=(8,),
            repetitions=2,
            faults=("duplicate_rank", "scramble"),
            events=2,
            period_factor=5.0,
            max_interactions_factor=60.0,
        )

    def test_parallel_equals_serial_for_event_scenarios(self):
        serial = Study(self.specs(), name="storm").run()
        parallel = Study(self.specs(), name="storm", jobs=2).run()
        assert [row.as_dict() for row in parallel.rows] == [
            row.as_dict() for row in serial.rows
        ]

    def test_cells_are_deterministic_and_seed_distinct(self):
        spec = self.specs()[0]
        first = execute_cell(spec.as_dict(), 8, 0)
        second = execute_cell(spec.as_dict(), 8, 0)
        other = execute_cell(spec.as_dict(), 8, 1)
        assert first == second
        assert first != other

    def test_store_resumes_mid_matrix(self, tmp_path):
        # Run the full matrix once, uninterrupted, as the ground truth.
        complete = Study(self.specs(), name="storm", store=tmp_path / "a").run()

        # Simulate an interrupted run: persist only a prefix of the rows.
        interrupted = Study(self.specs(), name="storm", store=tmp_path / "b")
        store = interrupted.store
        store.write_spec({"study": "storm"})
        for row in [row.as_dict() for row in complete.rows][:3]:
            store.append(row)

        computed = []
        resumed = Study(
            self.specs(), name="storm", store=tmp_path / "b"
        ).run(progress=lambda row, done, total: computed.append(row))
        assert len(resumed.rows) == len(complete.rows)
        assert [row.as_dict() for row in resumed.rows] == [
            row.as_dict() for row in complete.rows
        ]
        # Only the missing cells were simulated (3 loaded + rest computed).
        rows_file = (store.rows_path).read_text().splitlines()
        assert len(rows_file) == len(complete.rows)
