"""Property-based tests for the batched replica engine.

The engine's contract is a single sentence — *lane ``k`` of a batched run
is bit-identical to a serial array run with seed ``k``* — which makes it
a natural property: hypothesis draws random protocol/population/seed
matrices (duplicate seeds included: two lanes with the same stream must
produce the same trajectory twice), random budgets that cut runs off
mid-flight or let lanes converge and drop out at staggered times, and
protocols spanning every engine mode — lazy tabulation (epidemic, Cai,
StableRanking, Burman), declared rng consumption (serial fallback), and
the *mid-run* demotion of lanes
that start consuming randomness at a state threshold
(:class:`LateRandomProtocol`, shared with the serial engine's own
demotion tests).

Budgets stay small: the property is about lockstep bookkeeping edges
(masking, demotion, fallback), not throughput — the 100-seed wall-clock
claims live in ``benchmarks/``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.differential import (
    assert_identical,
    run_batched,
    run_serial,
    snapshot,
)
from harness.protocols import LateRandomProtocol
from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking
from repro.core.array_engine import ArraySimulator, EngineCache
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking

PROTOCOLS = [
    StableRanking,
    OneWayEpidemicProtocol,
    BurmanStyleRanking,
    CaiRanking,
]

seed_lists = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1,
    max_size=6,
)


@given(
    factory=st.sampled_from(PROTOCOLS),
    n=st.sampled_from([2, 5, 16, 33]),
    seeds=seed_lists,
    budget_factor=st.integers(min_value=1, max_value=40),
    stop=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_batched_lane_equals_serial_seed(factory, n, seeds, budget_factor, stop):
    budget = budget_factor * n * n
    serial = [
        run_serial(
            "array", factory, n, seed, budget=budget,
            stop_on_convergence=stop,
        )
        for seed in seeds
    ]
    batched = run_batched(
        factory, n, seeds, budget=budget, stop_on_convergence=stop,
    )
    for seed, expected, actual in zip(seeds, serial, batched):
        assert_identical(
            expected, actual,
            context=f"{factory.__name__} n={n} seed={seed} budget={budget}",
        )


@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=5
    ),
    threshold=st.integers(min_value=3, max_value=40),
    budget=st.integers(min_value=50, max_value=4_000),
)
@settings(max_examples=15, deadline=None)
def test_mixed_mid_run_demotion_keeps_lane_identity(seeds, threshold, budget):
    """Lanes demote to the object path at per-lane random times.

    ``LateRandomProtocol`` counters grow deterministically until the
    threshold, then transitions start consuming rng — so each lane hits
    ``RandomnessConsumed`` at a different step and the batched engine must
    demote exactly that lane mid-segment, re-executing the raising pair on
    the object path with the same generator state the serial engine has.
    """
    n = 8

    def factory(population):
        protocol = LateRandomProtocol(population)
        protocol.THRESHOLD = threshold
        return protocol

    serial = []
    for seed in seeds:
        simulator = ArraySimulator(
            factory(n),
            random_state=seed,
            convergence_interval=n,
            cache=EngineCache(),
        )
        serial.append(
            simulator.run(max_interactions=budget, stop_on_convergence=False)
        )
    batched = run_batched(
        factory, n, seeds, budget=budget, stop_on_convergence=False,
    )
    for seed, expected, actual in zip(seeds, serial, batched):
        assert_identical(
            snapshot(expected), actual,
            context=f"late-random seed={seed} threshold={threshold}",
        )


@given(
    n=st.sampled_from([4, 16]),
    seeds=st.lists(
        st.integers(min_value=0, max_value=500), min_size=3, max_size=6
    ),
)
@settings(max_examples=10, deadline=None)
def test_convergence_dropout_masks_exactly(n, seeds):
    """Runs long enough that lanes converge and drop out at different
    interactions; masked lanes must keep their serial stopping point."""
    budget = 3000 * n * n
    serial = [
        run_serial("array", StableRanking, n, seed, budget=budget)
        for seed in seeds
    ]
    batched = run_batched(StableRanking, n, seeds, budget=budget)
    for seed, expected, actual in zip(seeds, serial, batched):
        assert_identical(
            expected, actual, context=f"dropout n={n} seed={seed}"
        )
    assert all(t.converged for t in batched)
