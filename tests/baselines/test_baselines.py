"""Tests for the baseline ranking protocols (experiment E5 substrate)."""

import pytest

from repro.baselines.burman_ranking import BurmanStyleRanking
from repro.baselines.cai_ranking import CaiRanking, CaiState
from repro.baselines.token_counter_ranking import TokenCounterRanking
from repro.core.configuration import Configuration
from repro.core.rng import make_rng
from repro.core.simulation import Simulator
from repro.core.state import AgentState


class TestCaiRanking:
    def test_initial_configuration_is_all_collisions(self):
        config = CaiRanking(5).initial_configuration()
        assert all(state.rank == 1 for state in config.states)

    def test_collision_moves_responder_to_next_label(self):
        protocol = CaiRanking(4)
        left, right = CaiState(rank=2), CaiState(rank=2)
        result = protocol.transition(left, right, make_rng(0))
        assert result.changed
        assert left.rank == 2 and right.rank == 3

    def test_label_wraps_around(self):
        protocol = CaiRanking(4)
        left, right = CaiState(rank=4), CaiState(rank=4)
        protocol.transition(left, right, make_rng(0))
        assert right.rank == 1

    def test_distinct_labels_are_a_noop(self):
        protocol = CaiRanking(4)
        left, right = CaiState(rank=1), CaiState(rank=2)
        assert not protocol.transition(left, right, make_rng(0)).changed

    def test_uses_exactly_n_states(self):
        assert CaiRanking(17).state_space_size() == 17
        assert CaiRanking(17).overhead_states() == 0

    @pytest.mark.parametrize("n,seed", [(8, 0), (16, 1), (24, 2)])
    def test_converges_from_worst_case(self, n, seed):
        protocol = CaiRanking(n)
        simulator = Simulator(protocol, random_state=seed)
        result = simulator.run(max_interactions=100 * n**3)
        assert result.converged
        assert protocol.is_silent(result.configuration)

    def test_self_stabilizes_from_arbitrary_labels(self):
        n = 16
        rng = make_rng(3)
        config = Configuration([CaiState(rank=int(rng.integers(1, n + 1))) for _ in range(n)])
        protocol = CaiRanking(n)
        simulator = Simulator(protocol, configuration=config, random_state=4)
        assert simulator.run(max_interactions=100 * n**3).converged


class TestBurmanStyleRanking:
    def test_overhead_states_contain_a_linear_counter_term(self):
        # The leader's next-rank counter contributes at least n overhead states,
        # which is the Θ(n) term the paper's protocol eliminates.
        assert BurmanStyleRanking(64).overhead_states() >= 64
        assert BurmanStyleRanking(1024).overhead_states() >= 1024
        difference = BurmanStyleRanking(1024).overhead_states() - BurmanStyleRanking(
            64
        ).overhead_states()
        assert difference >= 1024 - 64

    def test_counter_leader_assigns_sequential_ranks(self):
        protocol = BurmanStyleRanking(8)
        leader = AgentState(rank=1, aux=2)
        unranked = AgentState(coin=0, alive_count=protocol.l_max)
        result = protocol._main_transition(leader, unranked)
        assert result.rank_assigned == 2
        assert unranked.rank == 2
        assert leader.aux == 3

    def test_duplicate_ranks_trigger_reset(self):
        protocol = BurmanStyleRanking(8)
        left, right = AgentState(rank=3), AgentState(rank=3)
        result = protocol._main_transition(left, right)
        assert result.reset_triggered

    def test_two_counter_leaders_trigger_reset(self):
        protocol = BurmanStyleRanking(8)
        left = AgentState(rank=1, aux=4)
        right = AgentState(rank=2, aux=5)
        result = protocol._main_transition(left, right)
        assert result.reset_triggered

    @pytest.mark.parametrize("seed", [0, 1])
    def test_converges_from_fresh_start(self, seed):
        n = 16
        protocol = BurmanStyleRanking(n)
        simulator = Simulator(protocol, random_state=seed)
        result = simulator.run(max_interactions=3000 * n * n)
        assert result.converged

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_agents_converge(self, seed):
        # Same leader election as StableRanking (DESIGN.md, substitution 6).
        result = Simulator(BurmanStyleRanking(2), random_state=seed).run(
            max_interactions=20_000
        )
        assert result.converged

    def test_recovers_from_duplicate_rank_fault(self):
        from repro.experiments.workloads import duplicate_rank_configuration

        n = 16
        protocol = BurmanStyleRanking(n)
        configuration = duplicate_rank_configuration(n, random_state=5)
        simulator = Simulator(protocol, configuration=configuration, random_state=6)
        result = simulator.run(max_interactions=3000 * n * n)
        assert result.converged


class TestTokenCounterRanking:
    def test_overhead_states_are_linear(self):
        assert TokenCounterRanking(100).overhead_states() >= 100

    def test_leader_assigns_in_order(self):
        protocol = TokenCounterRanking(8)
        leader = AgentState(rank=1, aux=2)
        blank = AgentState()
        result = protocol.transition(leader, blank, make_rng(0))
        assert result.rank_assigned == 2
        assert leader.aux == 3

    def test_counter_stops_at_n(self):
        protocol = TokenCounterRanking(4)
        leader = AgentState(rank=1, aux=5)
        blank = AgentState()
        result = protocol.transition(leader, blank, make_rng(0))
        assert result.rank_assigned is None
        assert blank.rank is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_from_fresh_start(self, seed):
        n = 32
        protocol = TokenCounterRanking(n)
        simulator = Simulator(protocol, random_state=seed)
        result = simulator.run(max_interactions=400 * n * n)
        assert result.converged
        assert result.configuration.is_valid_ranking()
