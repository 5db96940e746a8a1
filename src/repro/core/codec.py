"""State codecs: dense integer codes for protocol state spaces.

The paper's protocols use only ``n + Θ(log n)`` (Theorem 1) respectively
``n + O(log² n)`` (Theorem 2) states, so an agent's state can be represented
by a small integer instead of a Python object.  :class:`StateCodec` maintains
that mapping: it interns every distinct state value it sees, hands out dense
codes ``0, 1, 2, …`` and can materialize fresh state objects back from codes.
The array engine (:mod:`repro.core.array_engine`) stores a population as a
numpy array of codes and simulates interactions with table lookups instead of
Python-level transition calls.

:func:`evaluate_pair` tabulates a single ordered state pair on scratch
copies.  It passes a *raising* rng probe to the transition: a protocol that
consumes randomness inside ``transition`` (the GS leader-election substrate
draws random tags) cannot be tabulated at all, and the resulting
:class:`~repro.core.errors.RandomnessConsumed` tells the engine to fall back
to the object path.  The array engine inlines the same tabulation in its
lazy pair cache; the group-count engine calls it directly.

Tabulation calls ``protocol.transition`` on scratch states, so protocol-level
*diagnostic* counters (e.g. ``PropagateReset.triggered_count``) include the
tabulation probes.  The simulation-level counters reported in
``SimulationResult`` are derived from the tables and are unaffected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .errors import CodecError, RandomnessConsumed
from .protocol import PopulationProtocol

__all__ = [
    "StateCodec",
    "PairOutcome",
    "evaluate_pair",
]


class _RaisingRng:
    """Stand-in generator that flags any attempt to consume randomness.

    Passed to ``protocol.transition`` during tabulation.  Deterministic
    transitions never touch the generator; any attribute access (``integers``,
    ``random``, …) aborts the tabulation with :class:`RandomnessConsumed`.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        raise RandomnessConsumed(
            f"transition consumed randomness (accessed rng.{name}); "
            "state pairs of this protocol cannot be cached in a table"
        )


#: Shared probe instance (stateless).
RAISING_RNG = _RaisingRng()


def _state_key(state: object) -> tuple:
    """Hashable identity of a state value.

    States either expose ``as_tuple()`` (the reference
    :class:`~repro.core.state.AgentState`) or are dataclasses (e.g.
    ``EpidemicState``); the key includes the concrete type so two state
    classes with coincidentally equal field tuples never collide.
    """
    as_tuple = getattr(state, "as_tuple", None)
    if as_tuple is not None:
        return (type(state), as_tuple())
    if dataclasses.is_dataclass(state):
        return (
            type(state),
            tuple(getattr(state, f.name) for f in dataclasses.fields(state)),
        )
    raise CodecError(
        f"cannot derive a state key for {type(state).__name__}: states must "
        "provide as_tuple() or be dataclasses"
    )


def _copy_state(state):
    """Independent copy of a state (``copy()`` method, or dataclass replace)."""
    copier = getattr(state, "copy", None)
    if copier is not None:
        return copier()
    if dataclasses.is_dataclass(state):
        return dataclasses.replace(state)
    raise CodecError(
        f"cannot copy state of type {type(state).__name__}: states must "
        "provide copy() or be dataclasses"
    )


class StateCodec:
    """Bidirectional mapping between state objects and dense integer codes.

    Codes are assigned in first-seen order, starting at 0.  The codec keeps a
    *prototype* object per code: an immutable-by-convention snapshot used for
    read-only predicates (convergence checks share prototypes across agents)
    and as the template for :meth:`materialize`.
    """

    __slots__ = ("_codes", "_prototypes")

    def __init__(self):
        self._codes: Dict[tuple, int] = {}
        self._prototypes: List[object] = []

    def __len__(self) -> int:
        return len(self._prototypes)

    @property
    def size(self) -> int:
        """Number of distinct states interned so far."""
        return len(self._prototypes)

    def encode(self, state: object) -> int:
        """Return the code of ``state``, interning it if unseen.

        The codec stores a private copy, so callers may keep mutating the
        passed object.
        """
        key = _state_key(state)
        code = self._codes.get(key)
        if code is None:
            code = len(self._prototypes)
            self._codes[key] = code
            self._prototypes.append(_copy_state(state))
        return code

    def encode_many(self, states: Iterable[object]) -> np.ndarray:
        """Encode an iterable of states into an int64 code array."""
        return np.fromiter(
            (self.encode(state) for state in states), dtype=np.int64
        )

    def prototype(self, code: int) -> object:
        """The shared prototype for ``code`` — treat as read-only."""
        return self._prototypes[code]

    def materialize(self, code: int) -> object:
        """A fresh, independently mutable state object for ``code``."""
        return _copy_state(self._prototypes[code])

    def materialize_many(self, codes: Sequence[int]) -> List[object]:
        """Fresh state objects for a sequence of codes (e.g. a population)."""
        prototypes = self._prototypes
        return [_copy_state(prototypes[code]) for code in codes]

    def prototype_view(self, codes: Sequence[int]) -> List[object]:
        """Shared prototypes for a sequence of codes (read-only views).

        Suitable for predicates that only *read* agent state (convergence
        checks, metric probes); the same prototype object may appear multiple
        times in the returned list.
        """
        prototypes = self._prototypes
        return [prototypes[code] for code in codes]

    # ------------------------------------------------------------------
    # Struct-of-arrays projection (see repro.core.soa)
    # ------------------------------------------------------------------
    def field_columns(
        self,
        fields: Sequence[str],
        start: int = 0,
        undefined: int = -1,
    ) -> Dict[str, np.ndarray]:
        """Project the interned states into per-field integer columns.

        For every ``field`` name, returns an int64 array of length
        ``size - start`` whose entry ``i`` is ``getattr(prototype(start + i),
        field)`` with ``None`` (the paper's ``⊥``) mapped to ``undefined``
        and booleans mapped to 0/1.  ``start`` lets vectorized kernels
        extend previously projected columns incrementally as the codec
        interns new states mid-run.

        Raises :class:`CodecError` if some interned state lacks one of the
        requested fields — a kernel asking for columns of the wrong state
        type must fail loudly, not read garbage.
        """
        prototypes = self._prototypes[start:]
        columns = {
            field: np.empty(len(prototypes), dtype=np.int64) for field in fields
        }
        for field, column in columns.items():
            for index, prototype in enumerate(prototypes):
                try:
                    value = getattr(prototype, field)
                except AttributeError:
                    raise CodecError(
                        f"state type {type(prototype).__name__} has no field "
                        f"{field!r}; cannot project it into a column"
                    ) from None
                column[index] = undefined if value is None else int(value)
        return columns

    def variant_code(self, code: int, **updates) -> int:
        """The code of ``prototype(code)`` with some fields replaced.

        The inverse of :meth:`field_columns` for single states: vectorized
        kernels evolve per-field columns (a coin toggled, a counter
        decremented) and use this to re-enter the coded world, interning the
        variant if it was never seen before.  Pass ``None`` to reset a field
        to the undefined value ``⊥``.
        """
        state = _copy_state(self._prototypes[code])
        for field, value in updates.items():
            setattr(state, field, value)
        return self.encode(state)


@dataclass(frozen=True)
class PairOutcome:
    """Tabulated result of one ordered interaction ``(a, b) → (a', b')``."""

    next_initiator: int
    next_responder: int
    changed: bool
    rank_assigned: int  # 0 when no rank was assigned
    reset_triggered: bool


def evaluate_pair(
    protocol: PopulationProtocol, codec: StateCodec, a: int, b: int
) -> PairOutcome:
    """Tabulate the transition for the ordered state pair ``(a, b)``.

    Runs the protocol's transition on scratch copies of the two prototypes
    and interns the successor states.  Raises
    :class:`~repro.core.errors.RandomnessConsumed` if the transition touches
    the rng — such pairs must not be cached.
    """
    initiator = codec.materialize(a)
    responder = codec.materialize(b)
    result = protocol.transition(initiator, responder, RAISING_RNG)
    rank = result.rank_assigned
    return PairOutcome(
        next_initiator=codec.encode(initiator),
        next_responder=codec.encode(responder),
        changed=bool(result.changed),
        rank_assigned=0 if rank is None else int(rank),
        reset_triggered=bool(result.reset_triggered),
    )
