"""Unit and integration tests for ``StableRanking`` (Theorem 2)."""

import pytest

from repro.core.rng import make_rng
from repro.core.simulation import Simulator
from repro.core.state import AgentState
from repro.experiments.workloads import (
    adversarial_configuration,
    duplicate_rank_configuration,
    figure2_initial_configuration,
    missing_rank_configuration,
    valid_ranking_configuration,
)
from repro.protocols.ranking.stable_ranking import StableRanking


class TestConstruction:
    def test_parameters_are_exposed(self):
        protocol = StableRanking(64, c_wait=2.0, c_live=4.0)
        assert protocol.wait_init == 12
        assert protocol.alive_reset == 24
        assert protocol.l_max >= protocol.alive_reset
        info = protocol.describe()
        assert info["c_live"] == 4.0
        assert info["r_max"] == protocol.reset.r_max

    def test_state_space_is_n_plus_polylog(self):
        small = StableRanking(64)
        large = StableRanking(4096)
        assert small.overhead_states() < large.overhead_states()
        # The overhead must grow polylogarithmically: going from n = 64 to
        # n = 4096 multiplies log²(n) by 4, while n itself grows by 64x.
        assert large.overhead_states() / small.overhead_states() < 8
        assert large.overhead_states() / small.overhead_states() < 4096 / 64

    def test_initial_state_is_leader_electing_with_coin(self):
        state = StableRanking(16).initial_state()
        assert state.in_leader_election
        assert state.coin == 0


class TestTransitionMechanics:
    def test_duplicate_ranks_eventually_trigger_reset(self):
        protocol = StableRanking(8)
        left, right = AgentState(rank=3), AgentState(rank=3)
        result = protocol.transition(left, right, make_rng(0))
        assert result.reset_triggered
        assert left.is_propagating

    def test_coin_of_responder_toggles(self):
        protocol = StableRanking(8)
        left = AgentState(rank=2)
        right = AgentState(phase=1, coin=0, alive_count=protocol.l_max)
        protocol.transition(left, right, make_rng(0))
        assert right.coin == 1

    def test_leader_electing_agent_joins_main_protocol(self):
        protocol = StableRanking(8)
        electing = AgentState(coin=1)
        protocol.leader_election.init_state(electing)
        main_agent = AgentState(rank=5)
        protocol.transition(electing, main_agent, make_rng(0))
        assert electing.phase == 1
        assert electing.alive_count == protocol.l_max
        assert electing.coin in (0, 1)

    def test_clean_ranking_is_a_fixed_point(self):
        n = 10
        protocol = StableRanking(n)
        configuration = valid_ranking_configuration(n)
        assert protocol.has_converged(configuration)
        rng = make_rng(1)
        states = configuration.states
        for _ in range(3000):
            i, j = rng.integers(0, n), rng.integers(0, n)
            if i == j:
                continue
            result = protocol.transition(states[i], states[j], rng)
            assert not result.changed
        assert protocol.has_converged(configuration)

    def test_valid_ranking_with_leftover_variables_is_not_converged(self):
        n = 6
        configuration = valid_ranking_configuration(n)
        configuration[0].coin = 1
        assert not StableRanking(n).has_converged(configuration)


class TestSelfStabilization:
    """Theorem 2: stabilization from arbitrary configurations (small n)."""

    BUDGET_FACTOR = 3000

    def _run(self, protocol, configuration, seed):
        simulator = Simulator(protocol, configuration=configuration, random_state=seed)
        budget = self.BUDGET_FACTOR * protocol.n * protocol.n
        return simulator.run(max_interactions=budget)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_from_fresh_start(self, seed):
        protocol = StableRanking(16)
        result = self._run(protocol, protocol.initial_configuration(), seed)
        assert result.converged

    @pytest.mark.parametrize("seed", [0, 1])
    def test_from_duplicate_ranks(self, seed):
        protocol = StableRanking(16)
        configuration = duplicate_rank_configuration(16, duplicates=2, random_state=seed)
        result = self._run(protocol, configuration, seed)
        assert result.converged

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_from_adversarial_configuration(self, seed):
        protocol = StableRanking(16)
        configuration = adversarial_configuration(protocol, random_state=seed)
        result = self._run(protocol, configuration, seed + 100)
        assert result.converged

    def test_from_missing_rank_configuration(self):
        protocol = StableRanking(16)
        configuration = missing_rank_configuration(protocol, missing_rank=1)
        result = self._run(protocol, configuration, 7)
        assert result.converged

    @pytest.mark.parametrize("seed", range(5))
    def test_two_agents_converge(self, seed):
        # Two agents see each other's coins alternate, so leader election
        # must accept a single head (DESIGN.md, substitution 6).
        result = Simulator(StableRanking(2), random_state=seed).run(
            max_interactions=20_000
        )
        assert result.converged
        assert sorted(result.configuration.ranks()) == [1, 2]

    def test_from_figure2_configuration(self):
        protocol = StableRanking(32)
        configuration = figure2_initial_configuration(protocol)
        result = self._run(protocol, configuration, 11)
        assert result.converged
        assert result.resets >= 1

    def test_converged_configuration_is_clean(self):
        protocol = StableRanking(16)
        result = self._run(protocol, protocol.initial_configuration(), 3)
        assert result.converged
        for state in result.configuration.states:
            assert state.rank is not None
            assert state.coin is None
            assert state.alive_count is None
            assert not state.in_reset
            assert not state.in_leader_election
