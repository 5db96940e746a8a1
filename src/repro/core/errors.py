"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so downstream users can catch library failures with a
single ``except`` clause without swallowing unrelated programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An initial or intermediate configuration is malformed.

    Raised, for example, when a configuration does not have exactly ``n``
    agent states, or when a workload generator is asked for an impossible
    initial configuration (e.g. more ranked agents than the population size).
    """


class ProtocolError(ReproError):
    """A protocol was constructed or used with invalid parameters.

    Typical causes are a non-positive population size, inconsistent tuning
    constants (e.g. ``c_wait <= 0``), or a transition function observing a
    state that the protocol can never produce and cannot interpret.
    """


class SimulationLimitExceeded(ReproError):
    """A simulation hit its interaction budget before converging.

    The offending :class:`~repro.core.simulation.SimulationResult` is attached
    as :attr:`result` so callers can still inspect the partial run.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class CodecError(ReproError):
    """A state could not be encoded into a dense integer code.

    Raised when a protocol's state objects expose neither ``as_tuple()`` nor
    dataclass fields, or when a state-space enumeration exceeds its budget
    (see :class:`StateSpaceTooLarge`).
    """


class StateSpaceTooLarge(CodecError):
    """A state-space enumeration exceeded its ``max_states`` budget.

    Raised by the group-count engine's transition model when a protocol's
    reachable state space outgrows its tabulation cap.
    """


class RandomnessConsumed(ReproError):
    """A transition consumed randomness while being tabulated.

    Transition tables cache ``(state, state) → (state', state'')`` pairs, which
    is only sound for transitions that are deterministic given the two input
    states.  The array engine catches this to fall back to the object path,
    which passes a real generator through to the protocol.
    """


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""
