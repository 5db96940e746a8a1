"""Unit tests for the two leader-election sub-protocols."""

import numpy as np
import pytest

from repro.core.rng import make_rng
from repro.core.simulation import Simulator
from repro.core.state import AgentState
from repro.protocols.leader_election.fast_leader_election import (
    FastLeaderElection,
    FastLeaderElectionProtocol,
    default_l_max,
)
from repro.protocols.leader_election.gs_leader_election import (
    GSLeaderElection,
    GSLeaderElectionProtocol,
)


class TestGSLeaderElectionModule:
    def test_init_state(self):
        module = GSLeaderElection(64)
        agent = AgentState()
        module.init_state(agent)
        assert agent.is_leader == 1
        assert agent.leader_done == 0
        assert agent.le_count == module.countdown
        assert agent.le_level is None

    def test_countdown_is_polylogarithmic(self):
        assert GSLeaderElection(64).countdown < GSLeaderElection(4096).countdown
        assert GSLeaderElection(4096).countdown < 4096

    def test_losing_agent_gives_up_leadership(self):
        module = GSLeaderElection(16)
        rng = make_rng(0)
        left, right = AgentState(), AgentState()
        module.init_state(left)
        module.init_state(right)
        module.apply(left, right, rng)
        # Tags differ w.h.p.; exactly one keeps believing it is the leader.
        assert (left.is_leader == 1) != (right.is_leader == 1) or left.le_level == right.le_level
        assert left.le_level == right.le_level  # both adopt the maximum

    def test_done_flag_after_countdown(self):
        module = GSLeaderElection(4, done_constant=1.0)
        rng = make_rng(1)
        left, right = AgentState(), AgentState()
        module.init_state(left)
        module.init_state(right)
        for _ in range(module.countdown + 1):
            module.apply(left, right, rng)
        assert left.leader_done == 1
        assert right.leader_done == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(Exception):
            GSLeaderElection(1)
        with pytest.raises(Exception):
            GSLeaderElection(8, done_constant=0.0)


class TestGSLeaderElectionProtocol:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elects_unique_leader(self, seed):
        n = 64
        protocol = GSLeaderElectionProtocol(n)
        simulator = Simulator(protocol, random_state=seed)
        result = simulator.run(max_interactions=200 * n * int(np.log2(n)) ** 2)
        assert result.converged
        assert protocol.leader_count(result.configuration) == 1

    def test_interaction_count_is_near_linear(self):
        """Leader election should finish in O(n log² n), well below n² for large n."""
        n = 256
        protocol = GSLeaderElectionProtocol(n)
        simulator = Simulator(protocol, random_state=3)
        result = simulator.run(max_interactions=n * n)
        assert result.converged
        assert result.interactions < 0.6 * n * n


class TestFastLeaderElectionModule:
    def test_default_l_max_grows_logarithmically(self):
        assert default_l_max(16) < default_l_max(4096)
        with pytest.raises(Exception):
            default_l_max(1)

    def test_init_state_preserves_coin(self):
        module = FastLeaderElection(32)
        agent = AgentState(coin=1, rank=5)
        module.init_state(agent)
        assert agent.coin == 1
        assert agent.rank is None
        assert agent.le_count == module.l_max
        assert agent.coin_count == module.coin_count_init
        assert agent.leader_done == 0 and agent.is_leader == 0

    def test_tails_makes_agent_give_up(self):
        module = FastLeaderElection(32)
        u, v = AgentState(coin=0), AgentState(coin=0)
        module.init_state(u)
        module.init_state(v)
        module.apply(u, v, make_rng(0))
        assert u.leader_done == 1 and u.is_leader == 0

    def test_enough_heads_elects_and_transitions(self):
        waiting = []
        module = FastLeaderElection(
            16, on_become_waiting=lambda agent: waiting.append(agent)
        )
        u, v = AgentState(coin=0), AgentState(coin=1)
        module.init_state(u)
        module.init_state(v)
        # u needs coin_count_init + 1 heads in a row to become leader.
        for _ in range(module.coin_count_init + 1):
            module.apply(u, v, make_rng(0))
        assert waiting == [u]
        assert u.leader_done is None  # left leader election
        assert u.le_count is None

    def test_one_head_elects_at_two_agents(self):
        # Two agents see each other's coins alternate, so two heads in a
        # row never come (DESIGN.md, substitution 6).
        assert FastLeaderElection(2).coin_count_init == 0
        assert FastLeaderElection(3).coin_count_init == 2

    def test_two_agent_state_count_keeps_leader_election_states(self):
        # Agents at n = 2 still pass through LECount, coin and leader-flag
        # states although no coin count is needed: the accounting is the
        # one a single required coin gave.
        from repro.baselines.burman_ranking import BurmanStyleRanking
        from repro.protocols.ranking.stable_ranking import StableRanking

        assert StableRanking(2).state_space_size() == 298
        assert BurmanStyleRanking(2).state_space_size() == 236

    def test_timeout_triggers_reset_callback(self):
        resets = []
        module = FastLeaderElection(
            16, l_max=8, on_trigger_reset=lambda agent: resets.append(agent)
        )
        u, v = AgentState(coin=0), AgentState(coin=0)
        module.init_state(u)
        module.init_state(v)
        for _ in range(module.l_max):
            module.apply(u, v, make_rng(0))
        assert resets == [u]
        assert module.resets_triggered == 1

    def test_slow_leader_does_not_enter_main_protocol(self):
        """An agent elected after L_max/2 activations must not start ranking."""
        waiting = []
        resets = []
        module = FastLeaderElection(
            16,
            l_max=12,
            on_become_waiting=lambda agent: waiting.append(agent),
            on_trigger_reset=lambda agent: resets.append(agent),
        )
        u, tails, heads = AgentState(coin=0), AgentState(coin=0), AgentState(coin=1)
        module.init_state(u)
        # Burn more than half of the countdown without becoming leader…
        u.leader_done = 1
        for _ in range(7):
            module.apply(u, tails, make_rng(0))
        # …then pretend the lottery succeeds late.
        u.leader_done = 0
        u.coin_count = 0
        module.apply(u, heads, make_rng(0))
        assert u.is_leader == 1
        assert not waiting  # too late to enter the main protocol


class TestFastLeaderElectionProtocol:
    def test_eventually_exactly_one_waiting_agent(self):
        n = 48
        protocol = FastLeaderElectionProtocol(n)
        simulator = Simulator(protocol, random_state=5)
        result = simulator.run(max_interactions=400 * n * default_l_max(n))
        assert result.converged
        assert protocol.waiting_count(result.configuration) == 1
