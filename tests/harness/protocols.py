"""Synthetic protocols shared across engine test suites."""

from repro.core.protocol import PopulationProtocol, TransitionResult
from repro.core.state import AgentState


class LateRandomProtocol(PopulationProtocol):
    """Deterministic counters that start consuming rng at a threshold.

    The engines start on the lazy table path; the first agent to reach the
    threshold makes its transition consume randomness, which raises
    ``RandomnessConsumed`` inside the tabulated walk and exercises the
    *mid-run* demotion to the object path — per lane, at staggered times,
    in the batched engine.
    """

    name = "late-random"
    THRESHOLD = 100

    def initial_state(self):
        return AgentState(aux=0)

    def transition(self, u, v, rng):
        u.aux = min((u.aux or 0) + 1, 200)
        if u.aux >= self.THRESHOLD:
            if int(rng.integers(0, 2)):
                v.aux = 0
        return TransitionResult(changed=True)

    def has_converged(self, configuration):
        return False
