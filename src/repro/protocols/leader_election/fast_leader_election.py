"""``FastLeaderElection`` (Protocol 5 / Section C of the paper).

A deliberately simple leader-election protocol used inside the
self-stabilizing ``StableRanking``: an agent declares itself leader after
observing ``⌈log n⌉ + 1`` partner coins showing heads in a row (one head
at ``n = 2``, DESIGN.md substitution 6); the first tails makes it give up
(``leaderDone = 1`` without leadership).  With constant probability
exactly one agent wins the lottery (Lemma 30).  Two
safety valves make the protocol self-stabilizing when composed with
``PropagateReset``:

* an interaction countdown ``LECount`` (initialized to ``L_max``) triggers a
  reset when it expires before the agent has entered the main protocol —
  this covers the "no leader elected" outcome; and
* the elected leader only transitions into the main (ranking) protocol if it
  was elected "fast enough" (``LECount ≥ L_max / 2``), otherwise it also
  times out — this covers stale leader-election state left over from an
  adversarial initialization.

Multiple elected leaders are *not* detected here; they produce duplicate
ranks which ``Ranking+`` detects and turns into a reset (Lemma 32, case 2).

The module operates on :class:`~repro.core.state.AgentState` and delegates
"transition to the main protocol" and "trigger a reset" to callbacks so it
can be embedded in ``StableRanking`` or exercised standalone.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ...core.configuration import Configuration
from ...core.errors import ProtocolError
from ...core.protocol import PopulationProtocol, TransitionResult
from ...core.state import AgentState
from .interfaces import LeaderElectionModule

__all__ = ["FastLeaderElection", "FastLeaderElectionProtocol", "default_l_max"]


def default_l_max(n: int, l_scale: float = 16.0) -> int:
    """Default ``L_max = Θ(log n)`` interaction budget.

    The value must comfortably exceed (a) the ``⌈log n⌉ + 1`` activations the
    winning agent needs, doubled because of the ``LECount ≥ L_max / 2``
    fast-enough rule, and (b) the additional ``O(log n)`` activations agents
    spend waiting for the start-of-ranking epidemic to reach them.
    """
    if n < 2:
        raise ProtocolError(f"population size must be at least 2, got {n}")
    return max(8, int(math.ceil(l_scale * math.log2(n))))


class FastLeaderElection(LeaderElectionModule):
    """The lottery-based leader election of Protocol 5.

    Parameters
    ----------
    n:
        Population size.
    l_max:
        The ``L_max`` interaction countdown (default :func:`default_l_max`).
    on_become_waiting:
        Called on the agent that was elected fast enough; must install the
        main-protocol waiting state (``waitCount``/``aliveCount``).
    on_trigger_reset:
        Called on an agent whose countdown expired.
    """

    def __init__(
        self,
        n: int,
        l_max: Optional[int] = None,
        on_become_waiting: Optional[Callable[[AgentState], None]] = None,
        on_trigger_reset: Optional[Callable[[AgentState], None]] = None,
    ):
        if n < 2:
            raise ProtocolError(f"population size must be at least 2, got {n}")
        self._n = n
        self._l_max = l_max if l_max is not None else default_l_max(n)
        if self._l_max < 4:
            raise ProtocolError(f"L_max must be at least 4, got {self._l_max}")
        # At n = 2 the responder's coin toggles exactly when the initiator
        # observes it, so an initiator sees heads and tails alternate and
        # two heads in a row never come: a single head must do.
        self._coin_count_init = int(math.ceil(math.log2(n))) if n > 2 else 0
        self._on_become_waiting = on_become_waiting or self._default_become_waiting
        self._on_trigger_reset = on_trigger_reset or self._default_trigger_reset
        self._resets_triggered = 0

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Population size."""
        return self._n

    @property
    def l_max(self) -> int:
        """The ``L_max`` countdown value."""
        return self._l_max

    @property
    def coin_count_init(self) -> int:
        """Initial ``coinCount`` (number of heads required is this plus one)."""
        return self._coin_count_init

    @property
    def resets_triggered(self) -> int:
        """Number of resets this module has triggered (for diagnostics)."""
        return self._resets_triggered

    # ------------------------------------------------------------------
    # Default callbacks (used by the standalone wrapper)
    # ------------------------------------------------------------------
    @staticmethod
    def _default_become_waiting(agent: AgentState) -> None:
        agent.wait_count = 1

    @staticmethod
    def _default_trigger_reset(agent: AgentState) -> None:
        # Standalone mode has no reset sub-protocol; simply restart the agent.
        agent.clear(keep_coin=True)

    # ------------------------------------------------------------------
    # LeaderElectionModule interface
    # ------------------------------------------------------------------
    def init_state(self, agent: AgentState) -> None:
        """Install the initial state ``q₀`` of Protocol 5, keeping the coin."""
        coin = agent.coin if agent.coin is not None else 0
        agent.clear()
        agent.coin = coin
        agent.le_count = self._l_max
        agent.coin_count = self._coin_count_init
        agent.leader_done = 0
        agent.is_leader = 0

    def apply(
        self, initiator: AgentState, responder: AgentState, rng: np.random.Generator
    ) -> bool:
        """Execute Protocol 5 for the initiator, observing the responder's coin.

        Returns ``True``; every invocation changes the initiator's countdown.
        """
        u, v = initiator, responder
        if u.le_count is None:
            raise ProtocolError("FastLeaderElection.apply on an agent without LECount")

        # Leader-election phase (lines 1-8).
        u.le_count = max(0, u.le_count - 1)
        if u.leader_done != 1:
            observed = v.coin if v.coin is not None else 0
            if observed == 0:
                u.leader_done = 1  # u will not be leader
            elif u.coin_count > 0:
                u.coin_count -= 1  # u counts coins with value 1
            else:
                u.is_leader = 1  # u observed enough heads in a row
                u.leader_done = 1

        # Transition to the main phase (lines 9-15).
        if u.is_leader == 1 and u.le_count >= self._l_max / 2:
            u.clear_leader_election()
            self._on_become_waiting(u)
            return True
        if u.le_count == 0:
            u.clear_leader_election()
            self._resets_triggered += 1
            self._on_trigger_reset(u)
        return True


class FastLeaderElectionProtocol(PopulationProtocol[AgentState]):
    """Standalone wrapper for :class:`FastLeaderElection`.

    Each interaction runs Protocol 5 for the initiator (observing the
    responder's coin) and then toggles the responder's coin, mirroring
    Protocol 3's structure.  Convergence: exactly one agent has left leader
    election as a waiting agent, and it was the only one declared leader.
    An expired countdown simply restarts the agent (the standalone wrapper
    has no reset sub-protocol), so the protocol retries until it succeeds.
    """

    name = "fast-leader-election"

    def __init__(self, n: int, l_max: Optional[int] = None):
        super().__init__(n)
        self._module = FastLeaderElection(
            n,
            l_max=l_max,
            on_become_waiting=self._become_waiting,
            on_trigger_reset=self._restart,
        )

    def _become_waiting(self, agent: AgentState) -> None:
        agent.wait_count = 1

    def _restart(self, agent: AgentState) -> None:
        self._module.init_state(agent)

    @property
    def module(self) -> FastLeaderElection:
        """The wrapped :class:`FastLeaderElection` instance."""
        return self._module

    def initial_state(self) -> AgentState:
        agent = AgentState(coin=0)
        self._module.init_state(agent)
        return agent

    def transition(
        self,
        initiator: AgentState,
        responder: AgentState,
        rng: np.random.Generator,
    ) -> TransitionResult:
        changed = False
        in_le = (initiator.leader_done is not None, responder.leader_done is not None)
        if all(in_le):
            changed = self._module.apply(initiator, responder, rng)
        elif any(in_le):
            # Mirror Protocol 3 lines 4-6: a leader-electing agent meeting an
            # agent that already entered the main protocol joins it as a
            # phase agent, which spreads "the ranking has started" by epidemic.
            le_agent = initiator if in_le[0] else responder
            le_agent.clear_leader_election()
            le_agent.phase = 1
            changed = True
        responder.toggle_coin()
        return TransitionResult(changed=changed)

    def has_converged(self, configuration: Configuration[AgentState]) -> bool:
        """Exactly one waiting agent and nobody left in leader election."""
        waiting = configuration.count_where(lambda state: state.wait_count is not None)
        still_electing = configuration.count_where(
            lambda state: state.leader_done is not None
        )
        return waiting == 1 and still_electing == 0

    def waiting_count(self, configuration: Configuration[AgentState]) -> int:
        """Number of agents that have transitioned to the waiting state."""
        return configuration.count_where(lambda state: state.wait_count is not None)
